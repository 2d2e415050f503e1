"""Aggregator math against brute-force oracles, plus round plumbing."""

import numpy as np
import pytest

import chromafl.attack as A
import chromafl.data as D
import chromafl.federated as F
import chromafl.models as M
import chromafl.saliency as S


def make_stacks(seed, n_clients=5, shapes=((3, 2), (4,))):
    rng = np.random.default_rng(seed)
    return [[rng.normal(size=s) for s in shapes] for _ in range(n_clients)]


# ---------------------------------------------------------------- aggregators


def test_fedavg_matches_per_coordinate_oracle():
    stacks = make_stacks(0)
    counts = [3, 1, 4, 1, 5]
    got = F.fedavg(list(zip(stacks, counts)))
    for li in range(len(stacks[0])):
        expect = np.zeros_like(stacks[0][li])
        for ws, n in zip(stacks, counts):
            expect += ws[li] * n
        expect /= sum(counts)
        np.testing.assert_allclose(got[li], expect, rtol=0, atol=1e-12)


def test_trimmed_mean_matches_sorted_loop_oracle():
    stacks = make_stacks(1)
    for trim_k in (0, 1, 2):
        got = F.trimmed_mean(stacks, trim_k)
        for li in range(len(stacks[0])):
            expect = np.empty_like(stacks[0][li])
            for idx in np.ndindex(expect.shape):
                vals = sorted(ws[li][idx] for ws in stacks)
                kept = vals[trim_k: len(vals) - trim_k]
                expect[idx] = sum(kept) / len(kept)
            np.testing.assert_allclose(got[li], expect, rtol=0, atol=1e-12)


def test_median_matches_loop_oracle_even_and_odd():
    for n in (4, 5):
        stacks = make_stacks(2, n_clients=n)
        got = F.median(stacks)
        for li in range(len(stacks[0])):
            expect = np.empty_like(stacks[0][li])
            for idx in np.ndindex(expect.shape):
                vals = sorted(ws[li][idx] for ws in stacks)
                mid = len(vals) // 2
                expect[idx] = (vals[mid] if len(vals) % 2
                               else 0.5 * (vals[mid - 1] + vals[mid]))
            np.testing.assert_allclose(got[li], expect, rtol=0, atol=1e-12)


def test_trim_zero_equals_unweighted_fedavg():
    stacks = make_stacks(3)
    trimmed = F.trimmed_mean(stacks, 0)
    plain = F.fedavg([(ws, 1) for ws in stacks])
    for a, b in zip(trimmed, plain):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)


def test_aggregator_validation():
    stacks = make_stacks(4)
    with pytest.raises(ValueError, match="at least one"):
        F.fedavg([])
    with pytest.raises(ValueError, match="positive"):
        F.fedavg([(stacks[0], 0)])
    with pytest.raises(ValueError, match="every one"):
        F.trimmed_mean(stacks, 3)
    with pytest.raises(ValueError, match="trim_k must be >= 0"):
        F.trimmed_mean(stacks, -1)
    with pytest.raises(ValueError, match="median needs at least one update"):
        F.median([])
    bad = [stacks[0], [np.zeros((3, 2)), np.zeros((5,))]]
    with pytest.raises(ValueError, match="mismatched"):
        F.median(bad)
    with pytest.raises(ValueError, match="mismatched"):
        F.fltrust(stacks[1], bad, stacks[2])


def _per_layer(client_weights, reduce):
    """The per-layer float64 reduction, cast back to each layer's dtype."""
    return [reduce(np.stack([np.asarray(w, dtype=np.float64) for w in layer]))
            .astype(np.asarray(layer[0]).dtype, copy=False)
            for layer in zip(*client_weights)]


def _fedavg_per_layer(updates):
    counts = np.array([n for _, n in updates], dtype=np.float64)

    def weighted(stack):
        acc = np.zeros(stack.shape[1:], dtype=np.float64)
        for w, n in zip(stack, counts):
            acc += w * n
        return acc / counts.sum()
    return _per_layer([ws for ws, _ in updates], weighted)


def _fltrust_per_layer(g, clients, server):
    flat = lambda ws: np.concatenate([np.asarray(w, dtype=np.float64).reshape(-1)
                                      for w in ws])
    server_delta = flat(server) - flat(g)
    server_norm = float(np.linalg.norm(server_delta))
    agg = np.zeros_like(server_delta)
    total = 0.0
    for ws in clients:
        delta = flat(ws) - flat(g)
        norm = float(np.linalg.norm(delta))
        trust = max(0.0, float(delta @ server_delta) / (norm * server_norm))
        agg += trust * (delta * (server_norm / norm))
        total += trust
    agg /= total
    out, off = [], 0
    for w in g:
        out.append((w.astype(np.float64) + agg[off:off + w.size].reshape(w.shape))
                   .astype(w.dtype, copy=False))
        off += w.size
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_aggregators_match_the_per_layer_reduction_bytewise(dtype):
    # one clients x parameters matrix must give the bits of reducing each
    # layer's own stack, the order every sum ran in before.  float64 weights
    # keep every bit of the float64 reductions, so a reordered sum shows
    rng = np.random.default_rng(8)
    g = [w.astype(dtype) for w in M.build(M.ModelSpec(input_size=16), seed=3)]

    def perturbed(scale):
        return [(w + scale * rng.normal(size=w.shape)).astype(dtype) for w in g]
    stacks = [perturbed(0.05) for _ in range(5)]
    stacks[3] = [w.copy() for w in stacks[1]]  # ties in every coordinate
    counts = [32, 17, 40, 9, 25]
    cases = [(F.fedavg(list(zip(stacks, counts))), _fedavg_per_layer(list(zip(stacks, counts))))]
    for trim_k in (0, 1):
        cases.append((F.trimmed_mean(stacks, trim_k), _per_layer(
            stacks, lambda x, k=trim_k: np.sort(x, axis=0)[k:len(x) - k].mean(axis=0))))
    for n in (4, 5):
        cases.append((F.median(stacks[:n]),
                      _per_layer(stacks[:n], lambda x: np.median(x, axis=0))))
    server = perturbed(0.02)
    clients = [[s + 0.5 * (c - w) for s, c, w in zip(server, ws, g)] for ws in stacks]
    cases.append((F.fltrust(g, clients, server), _fltrust_per_layer(g, clients, server)))
    for got, want in cases:
        assert [w.dtype for w in got] == [dtype] * len(g)
        assert [w.tobytes() for w in got] == [w.tobytes() for w in want]


def test_fltrust_single_client_equal_to_server_recovers_server():
    g = [np.ones((2, 2)), np.zeros(3)]
    server = [g[0] + 0.5, g[1] - 0.25]
    new = F.fltrust(g, [server], server)
    for got, want in zip(new, server):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_fltrust_negative_direction_earns_zero_trust():
    g = [np.zeros(4)]
    server = [np.array([1.0, 0.0, 0.0, 0.0])]
    hostile = [np.array([-2.0, 0.0, 0.0, 0.0])]
    with pytest.warns(UserWarning, match="no client earned trust"):
        new = F.fltrust(g, [hostile], server)
    np.testing.assert_array_equal(new[0], g[0])


def test_fltrust_rescales_to_server_norm_and_weights_by_cosine():
    g = [np.zeros(2)]
    server = [np.array([1.0, 0.0])]
    # client A points along the server delta but is 10x larger;
    # client B sits at 45 degrees with norm sqrt(2)
    client_a = [np.array([10.0, 0.0])]
    client_b = [np.array([1.0, 1.0])]
    new = F.fltrust(g, [client_a, client_b], server)
    cos_b = 1.0 / np.sqrt(2.0)
    rescaled_a = np.array([1.0, 0.0])
    rescaled_b = np.array([1.0, 1.0]) / np.sqrt(2.0)
    expect = (1.0 * rescaled_a + cos_b * rescaled_b) / (1.0 + cos_b)
    np.testing.assert_allclose(new[0], expect, rtol=0, atol=1e-12)


def test_fltrust_zero_server_delta_skips_round():
    g = [np.full(3, 0.5)]
    with pytest.warns(UserWarning, match="server update is zero"):
        new = F.fltrust(g, [[np.ones(3)]], [g[0].copy()])
    np.testing.assert_array_equal(new[0], g[0])
    new[0][0] = 9.0
    assert g[0][0] == 0.5  # returned copy, not an alias


def test_fltrust_clients_equal_to_the_global_earn_no_trust():
    # every client delta has norm 0, so none can be cosine-scored
    rng = np.random.default_rng(3)
    g = [rng.normal(size=s).astype(np.float32) for s in ((2, 3), (4,))]
    server = [w + np.float32(0.5) for w in g]
    clients = [[w.copy() for w in g] for _ in range(3)]
    with pytest.warns(UserWarning, match="no client earned trust"):
        new = F.fltrust(g, clients, server)
    assert [w.tobytes() for w in new] == [w.tobytes() for w in g]
    assert [w.dtype for w in new] == [np.float32, np.float32]
    assert not any(np.shares_memory(a, b) for a in new for b in g)


def test_aggregators_preserve_float32_dtype():
    stacks = [[np.ones((2,), dtype=np.float32) * i] for i in range(1, 6)]
    assert F.fedavg([(ws, 1) for ws in stacks])[0].dtype == np.float32
    assert F.trimmed_mean(stacks, 1)[0].dtype == np.float32
    assert F.median(stacks)[0].dtype == np.float32
    out = F.fltrust(stacks[0], stacks[1:3], stacks[3])
    assert out[0].dtype == np.float32


@pytest.mark.parametrize("n_clients", [3, 4])
def test_identical_clients_leave_their_weights_bit_for_bit(n_clients):
    # a degenerate round: every client sends the same float32 weights
    rng = np.random.default_rng(5)
    w = [rng.normal(size=s).astype(np.float32) for s in ((3, 3, 2, 4), (4,), (6, 3))]
    g = [rng.normal(size=x.shape).astype(np.float32) for x in w]
    stacks = [[x.copy() for x in w] for _ in range(n_clients)]
    outs = [F.fedavg([(ws, 7 + i) for i, ws in enumerate(stacks)]),
            F.trimmed_mean(stacks, 0), F.trimmed_mean(stacks, 1), F.median(stacks),
            F.fltrust(g, stacks, [x.copy() for x in w])]
    for out in outs:
        assert [x.dtype for x in out] == [np.float32] * len(w)
        assert [x.tobytes() for x in out] == [x.tobytes() for x in w]


def test_median_of_an_even_count_with_tied_middle_values_is_that_value():
    w = np.random.default_rng(6).normal(size=(5, 3)).astype(np.float32)
    stacks = [[w - 1], [w.copy()], [w.copy()], [w + 2]]
    assert F.median(stacks)[0].tobytes() == w.tobytes()


# ---------------------------------------------------------------- selection


def test_select_clients_is_deterministic_and_exhaustive():
    a = F.select_clients(10, 4, seed=7, round_index=3)
    b = F.select_clients(10, 4, seed=7, round_index=3)
    np.testing.assert_array_equal(a, b)
    assert len(set(a.tolist())) == 4
    assert all(0 <= c < 10 for c in a)
    c = F.select_clients(10, 4, seed=7, round_index=4)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError, match="cannot select"):
        F.select_clients(3, 4, seed=0, round_index=0)


def test_assign_roles_counts_and_determinism():
    roles = F.assign_roles(10, 0.3, seed=5)
    assert roles.count(F.ADVERSARIAL) == 3
    assert roles == F.assign_roles(10, 0.3, seed=5)
    assert F.assign_roles(10, 0.0, seed=5).count(F.ADVERSARIAL) == 0
    assert F.assign_roles(10, 1.0, seed=5).count(F.BENIGN) == 0
    with pytest.raises(ValueError, match="adv_ratio"):
        F.assign_roles(10, 1.5, seed=0)


# ---------------------------------------------------------------- rounds

SMALL_GRID = A.GridSpec(hue=(0.0, 0.1), alpha=(0.8, 1.2), per_channel=False,
                        gamma=(1.0,), beta=(0.0,), composites=False)


@pytest.fixture(scope="module")
def fl_setup():
    spec = M.ModelSpec(arch="ARCH_A", input_size=16, classes=4)
    train = D.generate_shapes(80, classes=4, size=16, seed=11)
    shards = D.partition(train, 4, D.IID, seed=11)
    weights = M.build(spec, seed=11)
    weights = M.train(spec, weights, train, epochs=2, seed=11)
    return spec, weights, [train.subset(idx) for idx in shards], train


def test_run_round_is_deterministic(fl_setup):
    spec, weights, shards, _ = fl_setup
    cfg = F.FLConfig(select_k=2, local_epochs=1)
    w1 = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 3, 1)
    w2 = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 3, 1)
    for a, b in zip(w1, w2):
        np.testing.assert_array_equal(a, b)
    assert any(not np.array_equal(a, b) for a, b in zip(w1, weights))


def test_run_round_with_adversaries_diverges_from_benign_round(fl_setup):
    spec, weights, shards, _ = fl_setup
    cfg = F.FLConfig(select_k=2, local_epochs=1)
    w_benign = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 3, 1)
    w_adv = F.run_round(spec, weights, shards, frozenset(range(len(shards))), cfg,
                        SMALL_GRID, 3, 1)
    assert any(not np.array_equal(a, b) for a, b in zip(w_benign, w_adv))


@pytest.mark.parametrize("adversaries", [(), frozenset({1, 3})],
                         ids=["none", "ids_1_3"])
def test_run_round_poisons_exactly_the_selected_adversaries(fl_setup, monkeypatch,
                                                            adversaries):
    spec, weights, shards, _ = fl_setup
    cfg = F.FLConfig(n_clients=4, select_k=3, local_epochs=0)
    poisoned = []

    def spy_poison(spec_, weights_, dataset, grid):
        poisoned.append(next(cid for cid, s in enumerate(shards) if s is dataset))
        return dataset, []

    monkeypatch.setattr(A, "poison_dataset", spy_poison)
    want = []
    for t in range(1, 7):
        F.run_round(spec, weights, shards, adversaries, cfg, SMALL_GRID, 3, t)
        picked = F.select_clients(len(shards), cfg.select_k, 3, t).tolist()
        want += [cid for cid in picked if cid in adversaries]
    assert poisoned == want  # [] with no adversaries
    if adversaries:  # some round picks both adversaries, some only one
        assert 6 < len(want) < 12


def test_run_round_zero_epochs_leaves_global_unchanged(fl_setup):
    spec, weights, shards, _ = fl_setup
    cfg = F.FLConfig(select_k=3, local_epochs=0)
    w = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 3, 1)
    for a, b in zip(w, weights):
        np.testing.assert_array_equal(a, b)


def test_run_round_single_client_returns_its_local_weights(fl_setup):
    spec, weights, shards, _ = fl_setup
    cfg = F.FLConfig(select_k=1, local_epochs=1)
    w = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 6, 2)
    cid = int(F.select_clients(len(shards), 1, 6, 2)[0])
    local_seed = F._child_seed(6, F._TAG_LOCAL, 2, cid)
    expect = M.train(spec, weights, shards[cid], 1,
                     lr=cfg.lr, batch=cfg.batch, seed=local_seed)
    for a, b in zip(w, expect):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-7)


def test_run_round_emits_metrics_against_reference(fl_setup):
    spec, weights, shards, train = fl_setup
    cfg = F.FLConfig(select_k=2, local_epochs=1)
    w = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 3, 1)
    metrics, cams = F.compute_round_metrics(spec, weights, w, train.images[:8],
                                            train.subset(range(8)), round_index=1)
    assert cams.shape == (8, 16, 16)
    assert metrics.round == 1
    assert metrics.adv_ratio == 0.0
    assert 0.0 <= metrics.fidelity_pct <= 100.0
    assert -1.0 <= metrics.ssim_gc_mean <= 1.0


def test_run_round_fltrust_requires_root(fl_setup):
    spec, weights, shards, train = fl_setup
    cfg = F.FLConfig(select_k=2, aggregator=F.FLTRUST)
    with pytest.raises(ValueError, match="server_root"):
        F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 3, 1)
    root = train.subset(range(16))
    w = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 3, 1, server_root=root)
    assert any(not np.array_equal(a, b) for a, b in zip(w, weights))


def test_round_metrics_are_exact_for_identical_models(fl_setup):
    spec, weights, _, train = fl_setup
    probe = train.images[:12]
    test = train.subset(range(20))
    m, _ = F.compute_round_metrics(spec, weights, [w.copy() for w in weights],
                                   probe, test, round_index=7, adv_ratio=0.3)
    assert m.round == 7
    assert m.adv_ratio == 0.3
    assert m.as_row() == tuple(getattr(m, f) for f in F.RoundMetrics.FIELDS)
    assert m.ssim_gc_mean == 1.0 and m.ssim_gc_std == 0.0
    assert m.ssim_gcpp_mean == 1.0
    assert m.peak_pct_mean == 100.0
    assert m.l1_mean == 0.0
    assert m.fidelity_pct == 100.0
    assert 0.0 <= m.accuracy <= 100.0


@pytest.mark.parametrize("arch,capture", [("ARCH_A", "conv3"), ("ARCH_B", "conv2")])
def test_shared_round_metrics_equal_the_computed_ones(fl_setup, arch, capture):
    # weights passed twice as one object take the shared round's shortcut,
    # which scores no map; a copy takes the computed path, whose columns
    # and maps the shortcut must give bit for bit, at every n_maps
    _, _, _, train = fl_setup
    spec = M.ModelSpec(arch=arch, input_size=16, classes=4, capture=capture)
    weights = M.train(spec, M.build(spec, seed=4), train, epochs=1, seed=4)
    probe, test = train.images[:12], train.subset(range(20, 60))
    for n_maps in (0, 1, len(probe), len(probe) + 3):
        shared, shared_maps = F.compute_round_metrics(
            spec, weights, weights, probe, test, round_index=3, adv_ratio=0.5,
            n_maps=n_maps)
        computed, computed_maps = F.compute_round_metrics(
            spec, weights, [w.copy() for w in weights], probe, test, round_index=3,
            adv_ratio=0.5, n_maps=n_maps)
        assert repr(shared) == repr(computed)
        assert shared_maps.tobytes() == computed_maps.tobytes()
        for maps in (shared_maps, computed_maps):
            assert maps.shape == (min(n_maps, len(probe)), 16, 16)
            assert maps.flags.owndata


def test_round_metrics_equal_the_separate_predict_and_cam_passes(fl_setup):
    # one forward per model and image set: the reference labels come from
    # its CAM pass, and each model's test predictions feed accuracy and
    # fidelity (the reference's give the twin accuracy); the numbers must
    # be exactly those of separate label and CAM passes, and the returned
    # maps exactly the current model's Grad-CAMs for the reference labels
    spec, weights, shards, train = fl_setup
    cfg = F.FLConfig(select_k=2, local_epochs=1, lr=0.2)
    moved = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 9, 1)
    probe = train.images[:12]
    test = train.subset(range(20, 80))
    m, cams = F.compute_round_metrics(spec, weights, moved, probe, test,
                                      round_index=1, adv_ratio=0.25)
    ref_labels = M.predict_labels(spec, weights, probe)
    _, gc_ref, gpp_ref = S.predict_grad_cams(spec, weights, probe, ref_labels)
    _, gc_cur, gpp_cur = S.predict_grad_cams(spec, moved, probe, ref_labels)
    ssim_gc, ssim_gpp = S.ssim(gc_ref, gc_cur), S.ssim(gpp_ref, gpp_cur)
    peaks = np.array([S.peak_overlap(a, b) for a, b in zip(gc_ref, gc_cur)])
    ref_preds = M.predict_labels(spec, weights, test.images)
    cur_preds = M.predict_labels(spec, moved, test.images)
    expect = [1, 0.25, 100.0 * M.hit_rate(cur_preds, test.labels),
              100.0 * M.hit_rate(ref_preds, cur_preds),
              float(ssim_gc.mean()), float(ssim_gc.std()), float(ssim_gpp.mean()),
              float(ssim_gpp.std()), float(peaks.mean()),
              float(S.l1_distance(gc_ref, gc_cur).mean()),
              100.0 * M.hit_rate(ref_preds, test.labels)]
    got = list(m.as_row()) + [m.reference_accuracy]
    assert repr(got) == repr(expect)
    assert cams.dtype == gc_cur.dtype and cams.tobytes() == gc_cur.tobytes()
    assert m.ssim_gc_mean < 1.0 and 0.0 < m.fidelity_pct < 100.0


def test_round_metrics_detect_weight_change(fl_setup):
    spec, weights, shards, train = fl_setup
    cfg = F.FLConfig(select_k=2, local_epochs=1, lr=0.2)
    moved = F.run_round(spec, weights, shards, (), cfg, SMALL_GRID, 9, 1)
    m, _ = F.compute_round_metrics(spec, weights, moved, train.images[:12],
                                   train.subset(range(12)))
    assert m.ssim_gc_mean < 1.0
    assert m.l1_mean > 0.0


# ---------------------------------------------------------------- drift fit


def test_fit_drift_slope_recovers_exact_linear_series():
    series = [(t, r, 0.05 * r * t) for t in range(1, 16)
              for r in (0.0, 0.1, 0.3, 0.5)]
    alpha = F.fit_drift_slope(series)
    assert alpha == pytest.approx(0.05, abs=1e-12)
    assert F.drift_r_squared(series, alpha) == pytest.approx(1.0, abs=1e-12)


def test_fit_drift_slope_matches_closed_form_on_noisy_data():
    rng = np.random.default_rng(0)
    series = []
    for t in range(1, 11):
        for r in (0.1, 0.5):
            series.append((t, r, 0.03 * r * t + rng.normal(0, 0.01)))
    alpha = F.fit_drift_slope(series)
    x = np.array([t * r for t, r, _ in series])
    d = np.array([dd for _, _, dd in series])
    assert alpha == pytest.approx(float((x @ d) / (x @ x)), abs=1e-12)
    expect_r2 = 1.0 - float(((d - alpha * x) ** 2).sum() / (d ** 2).sum())
    assert F.drift_r_squared(series, alpha) == pytest.approx(expect_r2, abs=1e-12)


def test_fit_drift_slope_rejects_degenerate_series():
    with pytest.raises(ValueError, match="empty"):
        F.fit_drift_slope([])
    with pytest.raises(ValueError, match="no attacked rounds"):
        F.fit_drift_slope([(t, 0.0, 0.0) for t in range(1, 5)])
    assert F.drift_r_squared([(1, 0.0, 0.0)], 0.0) == 1.0


def test_flconfig_validation():
    with pytest.raises(ValueError, match="aggregator"):
        F.FLConfig(aggregator="krum")
    with pytest.raises(ValueError, match="select_k"):
        F.FLConfig(select_k=0)
    with pytest.raises(ValueError, match="select_k"):
        F.FLConfig(n_clients=4, select_k=5)
    with pytest.raises(ValueError, match="trim_k"):
        F.FLConfig(trim_k=-1)
    with pytest.raises(ValueError, match="trim_k"):
        F.FLConfig(aggregator=F.TRIMMED_MEAN, select_k=2, trim_k=1)
