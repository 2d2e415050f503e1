"""Grid attack and random-skew baseline checks.

The attack is validated two ways: an exact re-scoring that mirrors the
batched evaluation (must agree on the chosen candidate index), and a fully
independent per-sample loop (must agree on feasibility and scores within
float-noise tolerance).
"""

import os

import numpy as np
import pytest

from chromafl import attack as A
from chromafl import color as C
from chromafl import data as D
from chromafl import models as M
from chromafl import parallel as P
from chromafl import saliency as S

SMALL_GRID = A.GridSpec(hue=(0.0, 0.1, -0.1), alpha=(0.8, 1.0, 1.2),
                        per_channel=False, gamma=(0.8, 1.0, 1.2), beta=(0.0,),
                        composites=False)


@pytest.fixture(scope="module")
def trained():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=3)
    data = D.generate_shapes(60, classes=3, size=16, seed=100)
    ws = M.train(spec, M.build(spec, seed=0), data, epochs=4, lr=0.05, batch=16, seed=0)
    assert M.hit_rate(M.predict_labels(spec, ws, data.images), data.labels) > 0.9
    return spec, ws, data


# ---------------------------------------------------------------- grids

def test_default_grid_structure():
    grid = A.GridSpec()
    cands = grid.candidates()
    assert cands[0] == C.PerturbationParams()
    rows = [c.as_row() for c in cands]
    assert len(rows) == len(set(rows)), "duplicate candidates"
    # singles: 6 hue + 4 uniform alpha + 12 per-channel + 8 jitter,
    # composites: 6*4 + 6*8 + 4*8
    assert len(cands) == 1 + 6 + 4 + 12 + 8 + 24 + 48 + 32
    for c in cands:
        assert all(0.5 <= a <= 1.5 for a in c.alpha), c
        assert c.gamma > 0, c


def test_grid_truncation_keeps_identity():
    grid = A.GridSpec(max_candidates=5)
    cands = grid.candidates()
    assert len(cands) == 5
    assert cands[0] == C.PerturbationParams()


def _single_operator_grids(grid):
    """The ablation's single-operator grids over ``grid``'s values."""
    arms = grid.single_operator()
    assert list(arms) == ["hue", "rescale", "jitter"]
    return tuple(arms.values())


def test_single_operator_grids_are_pure():
    hue, rescale, jitter = _single_operator_grids(A.GridSpec())
    # 6 hue shifts; 4 uniform + 12 single-channel rescales; 8 jitters
    assert [len(g.candidates()) for g in (hue, rescale, jitter)] == [7, 17, 9]
    for cand in hue.candidates()[1:]:
        assert cand.delta != 0.0
        assert cand.alpha == (1.0, 1.0, 1.0) and cand.gamma == 1.0 and cand.beta == 0.0
    for cand in rescale.candidates()[1:]:
        assert cand.delta == 0.0 and cand.gamma == 1.0 and cand.beta == 0.0
        assert cand.alpha != (1.0, 1.0, 1.0)
    for cand in jitter.candidates()[1:]:
        assert cand.delta == 0.0 and cand.alpha == (1.0, 1.0, 1.0)
        assert (cand.gamma, cand.beta) != (1.0, 0.0)


def test_combined_grid_is_superset_of_singles():
    combined = {c.as_row() for c in A.GridSpec().candidates()}
    for sub in _single_operator_grids(A.GridSpec()):
        assert {c.as_row() for c in sub.candidates()} <= combined


def test_single_operator_grids_keep_every_grid_field():
    grid = A.GridSpec(hue=(0.0, 0.2), alpha=(0.7,), per_channel=False,
                      gamma=(1.3,), beta=(0.05,), max_candidates=2)
    arms = grid.single_operator()
    assert arms["rescale"].per_channel is False
    for arm in arms.values():
        assert arm.max_candidates == 2 and not arm.composites
    assert [c.delta for c in arms["hue"].candidates()] == [0.0, 0.2]
    assert [c.alpha for c in arms["rescale"].candidates()] == [(1.0,) * 3, (0.7,) * 3]
    assert [(c.gamma, c.beta) for c in arms["jitter"].candidates()] == [
        (1.0, 0.0), (1.3, 0.05)]


def _seen_set_candidates(grid):
    """Oracle: the candidate list as ``candidates()`` once built it, a
    seen-set loop over the rendered list that stops at ``max_candidates``."""
    hues = [d for d in grid.hue if d != 0.0]
    alphas = [a for a in grid.alpha if a != 1.0]
    jitters = [(g, b) for g in grid.gamma for b in grid.beta
               if not (g == 1.0 and b == 0.0)]
    out = [C.PerturbationParams()]
    out += [C.PerturbationParams(delta=d) for d in hues]
    out += [C.PerturbationParams(alpha=(a, a, a)) for a in alphas]
    if grid.per_channel:
        out += [C.PerturbationParams(alpha=tuple(a if c == ch else 1.0 for c in range(3)))
                for ch in range(3) for a in alphas]
    out += [C.PerturbationParams(gamma=g, beta=b) for g, b in jitters]
    if grid.composites:
        out += [C.PerturbationParams(delta=d, alpha=(a, a, a)) for d in hues for a in alphas]
        out += [C.PerturbationParams(delta=d, gamma=g, beta=b) for d in hues for g, b in jitters]
        out += [C.PerturbationParams(alpha=(a, a, a), gamma=g, beta=b)
                for a in alphas for g, b in jitters]
    seen, unique = set(), []
    for theta in out:
        key = theta.as_row()
        if key not in seen:
            seen.add(key)
            unique.append(theta)
        if len(unique) == grid.max_candidates:
            break
    return unique


@pytest.mark.parametrize("max_candidates", [1, 5, 40])
@pytest.mark.parametrize("per_channel,composites", [(True, True), (False, True), (True, False)])
def test_candidates_equal_the_seen_set_loop(max_candidates, per_channel, composites):
    # repeated values, and -0.0 next to 0.0 in either order
    grid = A.GridSpec(hue=(0.0, 0.05, 0.05, -0.0, -0.05), alpha=(0.8, 0.8, 1.0, 1.2),
                      per_channel=per_channel, gamma=(1.0, 1.2, 1.2),
                      beta=(-0.0, 0.0, 0.1), composites=composites,
                      max_candidates=max_candidates)
    got = grid.candidates()
    want = _seen_set_candidates(grid)
    # repr tells -0.0 from 0.0, so each kept entry is the first occurrence
    assert [repr(t) for t in got] == [repr(t) for t in want]


def test_grid_validation():
    with pytest.raises(ValueError, match="alpha"):
        A.GridSpec(alpha=(0.4,))
    with pytest.raises(ValueError, match="gamma"):
        A.GridSpec(gamma=(0.0,))
    with pytest.raises(ValueError, match="max_candidates"):
        A.GridSpec(max_candidates=0)


# ---------------------------------------------------------------- attack

def test_cpm_preserves_prediction_exactly(trained):
    spec, ws, data = trained
    for i in range(12):
        x = data.images[i]
        before = M.predict_labels(spec, ws, x[None])[0]
        out, outcome = A.cpm_perturb(spec, ws, x, SMALL_GRID)
        after = M.predict_labels(spec, ws, out[None])[0]
        assert after == before
        assert outcome.label == before
        assert -1.0 <= outcome.ssim <= 1.0


def test_cpm_identity_only_grid_falls_back(trained):
    spec, ws, data = trained
    grid = A.GridSpec(hue=(0.0,), alpha=(1.0,), per_channel=False,
                      gamma=(1.0,), beta=(0.0,), composites=False)
    x = data.images[0]
    out, outcome = A.cpm_perturb(spec, ws, x, grid)
    assert np.array_equal(out, x)
    assert outcome.fallback
    assert outcome.ssim == 1.0
    assert outcome.n_feasible == 1
    assert outcome.theta == C.PerturbationParams()
    assert outcome.delta_e == 0.0


def test_cpm_matches_batch_identical_rescoring(trained):
    spec, ws, data = trained
    thetas = SMALL_GRID.candidates()
    for i in range(6):
        x = data.images[i]
        out, outcome = A.cpm_perturb(spec, ws, x, SMALL_GRID)
        # replicate the batched evaluation independently
        imgs = np.stack([C.apply(t, x) for t in thetas])
        labels = M.predict_labels(spec, ws, imgs)
        feasible = np.flatnonzero(labels == labels[0])
        cams = S.predict_grad_cams(spec, ws, imgs[feasible], int(labels[0]))[1]
        base = int(np.flatnonzero(feasible == 0)[0])
        scores = S.ssim(np.broadcast_to(cams[base], cams.shape), cams)
        best = 0
        for pos in range(len(feasible)):
            if scores[pos] < scores[best]:
                best = pos
        assert outcome.theta == thetas[int(feasible[best])]
        assert outcome.ssim == pytest.approx(float(scores[best]), abs=1e-12)
        assert np.array_equal(out, imgs[int(feasible[best])])


def _two_pass_search(spec, ws, x, grid):
    """The search written as a plain prediction pass, then a Grad-CAM pass
    over the feasible candidates: (image, theta, n_feasible, ssim)."""
    thetas = grid.candidates()
    imgs = np.stack([C.apply(t, x) for t in thetas])
    labels = M.predict_labels(spec, ws, imgs)
    feasible = np.flatnonzero(labels == labels[0])
    cams = S.predict_grad_cams(spec, ws, imgs[feasible], int(labels[0]))[1]
    scores = S.ssim(np.broadcast_to(cams[0], cams.shape), cams)
    best = int(feasible[int(np.argmin(scores))])  # first minimum wins
    return imgs[best], thetas[best], len(feasible), float(scores.min())


@pytest.mark.parametrize("grid", [SMALL_GRID, A.GridSpec()], ids=["small", "default"])
def test_cpm_is_exactly_the_two_pass_search(trained, grid):
    spec, ws, data = trained
    # an untrained ARCH_B flips more candidates and pools at its capture stage
    spec_b = M.ModelSpec("ARCH_B", input_size=16, classes=3)
    ws_b = M.build(spec_b, seed=5)
    for model_spec, weights in ((spec, ws), (spec_b, ws_b)):
        for i in range(3):
            x = data.images[i]
            out, outcome = A.cpm_perturb(model_spec, weights, x, grid)
            img, theta, n_feasible, ssim = _two_pass_search(model_spec, weights, x, grid)
            assert outcome.theta == theta
            assert outcome.n_feasible == n_feasible
            assert outcome.ssim == ssim
            assert out.dtype == img.dtype and out.tobytes() == img.tobytes()


def test_apply_each_renders_every_candidate_with_one_hue_shift_per_delta(monkeypatch):
    x = np.random.default_rng(3).uniform(0.0, 1.0, size=(16, 16, 3)).astype(np.float32)
    thetas = A.GridSpec().candidates()
    want = np.stack([C.apply(t, x) for t in thetas])
    deltas = []
    hue_shift = C.hue_shift

    def counting(img, delta):
        deltas.append(delta)
        return hue_shift(img, delta)
    monkeypatch.setattr(C, "hue_shift", counting)
    got = C.apply_each(thetas, x)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(deltas) == 1
    assert sorted(deltas[0]) == sorted({t.delta for t in thetas} - {0.0})


def test_cpm_agrees_with_independent_per_sample_loop(trained):
    spec, ws, data = trained
    thetas = SMALL_GRID.candidates()
    for i in range(4):
        x = data.images[i]
        _, outcome = A.cpm_perturb(spec, ws, x, SMALL_GRID)
        base_label = int(M.predict_labels(spec, ws, x[None])[0])
        cam0 = S.predict_grad_cams(spec, ws, x[None], base_label)[1][0]
        best_ssim = None
        n_feasible = 0
        for theta in thetas:
            cand = C.apply(theta, x)
            lab = M.predict_labels(spec, ws, cand[None])[0]
            if lab != base_label:
                continue
            n_feasible += 1
            s = S.ssim(cam0, S.predict_grad_cams(spec, ws, cand[None], base_label)[1][0])
            if best_ssim is None or s < best_ssim - 1e-9:
                best_ssim = s
        assert outcome.n_feasible == n_feasible
        assert outcome.ssim == pytest.approx(best_ssim, abs=1e-5)


def test_cpm_returns_an_image_that_owns_its_memory(trained):
    # a view would pin the whole candidate stack for as long as the caller
    # keeps the image
    spec, ws, data = trained
    out, _ = A.cpm_perturb(spec, ws, data.images[0], SMALL_GRID)
    assert out.base is None


def test_cpm_rejects_batches():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=3)
    ws = M.build(spec, seed=0)
    with pytest.raises(ValueError, match="one"):
        A.cpm_perturb(spec, ws, np.zeros((2, 16, 16, 3), dtype=np.float32), SMALL_GRID)


def test_poison_dataset_preserves_labels_and_is_deterministic(trained):
    spec, ws, data = trained
    subset = data.subset(np.arange(10))
    pois1, out1 = A.poison_dataset(spec, ws, subset, SMALL_GRID)
    pois2, out2 = A.poison_dataset(spec, ws, subset, SMALL_GRID)
    assert np.array_equal(pois1.labels, subset.labels)
    assert pois1.labels is not subset.labels
    assert np.array_equal(pois1.images, pois2.images)
    assert out1 == out2
    assert len(out1) == 10
    # the same bytes and outcomes as attacking one image at a time
    loop = [A.cpm_perturb(spec, ws, x, SMALL_GRID) for x in subset.images]
    images, outcomes = A.attack_images(spec, ws, subset.images, SMALL_GRID)
    for got in (images, pois1.images):
        assert got.dtype == subset.images.dtype
        assert got.tobytes() == np.stack([img for img, _ in loop]).tobytes()
    assert outcomes == out1 == [o for _, o in loop]
    # a one-image stack, as inspect attacks its sample
    (one,), (one_outcome,) = A.attack_images(spec, ws, subset.images[:1], SMALL_GRID)
    assert one.dtype == loop[0][0].dtype and one.tobytes() == loop[0][0].tobytes()
    assert one_outcome == loop[0][1]
    # at least some images actually moved
    changed = sum(not np.array_equal(pois1.images[i], subset.images[i])
                  for i in range(10))
    assert changed >= 1


def _pid(_):
    return os.getpid()


def test_attack_images_on_a_pool_matches_the_serial_map_and_one_call_per_image(
        trained, monkeypatch):
    # the worker attacks the second block of images and sends it back
    monkeypatch.setenv("CHROMAFL_WORKERS", "2")
    spec, ws, data = trained
    images = data.images[:5]
    loop = [A.cpm_perturb(spec, ws, x, SMALL_GRID) for x in images]
    serial, serial_outcomes = A.attack_images(spec, ws, images, SMALL_GRID)
    with P.Workers() as pool:
        assert pool.map(_pid, range(2))[1] != os.getpid()
        pooled, pooled_outcomes = A.attack_images(spec, ws, images, SMALL_GRID, pool)
    for got in (serial, pooled):
        assert got.dtype == images.dtype
        assert got.tobytes() == np.stack([img for img, _ in loop]).tobytes()
    assert pooled_outcomes == serial_outcomes == [o for _, o in loop]


def test_summarize_outcomes_shape(trained):
    spec, ws, data = trained
    _, outcomes = A.poison_dataset(spec, ws, data.subset(np.arange(8)), SMALL_GRID)
    stats = A.summarize_outcomes(outcomes)
    # the names and order of baseline's summary.csv columns after attack_acc_pct
    assert list(stats) == ["n", "ssim_mean", "ssim_std", "frac_below_0.7", "success_pct",
                           "delta_e_mean", "fallback_rate"]
    assert stats["n"] == 8
    assert 0.0 <= stats["ssim_mean"] <= 1.0
    assert 0.0 <= stats["fallback_rate"] <= 1.0
    assert stats["success_pct"] == pytest.approx(100.0 * (1.0 - stats["fallback_rate"]))


# ---------------------------------------------------------------- skew

SKEW_OPERATORS = ("hue_shift", "saturation_scale", "channel_rescale")


@pytest.fixture
def skew_calls(monkeypatch):
    """The color operators ``random_skew`` applies, as (name, argument), in
    call order."""
    calls = []
    for name in SKEW_OPERATORS:
        real = getattr(C, name)
        monkeypatch.setattr(C, name, lambda x, arg, name=name, real=real:
                            calls.append((name, arg)) or real(x, arg))
    return calls


def _skew(x, seed, calls, scale=1.0):
    """``random_skew``'s image and the operator calls it made."""
    calls.clear()
    out = A.random_skew(x, seed=seed, scale=scale)
    return out, list(calls)


def test_random_skew_is_deterministic_per_seed(skew_calls):
    rng = np.random.default_rng(60)
    x = rng.uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
    a1, p1 = _skew(x, 5, skew_calls)
    a2, p2 = _skew(x, 5, skew_calls)
    b, pb = _skew(x, 6, skew_calls)
    assert np.array_equal(a1, a2)
    assert p1 == p2
    assert not np.array_equal(a1, b) or p1 != pb


def test_random_skew_applies_at_least_one_operator(skew_calls):
    rng = np.random.default_rng(61)
    x = rng.uniform(0.2, 0.8, size=(16, 16, 3)).astype(np.float32)
    for seed in range(30):
        out, calls = _skew(x, seed, skew_calls)
        names = [name for name, _ in calls]
        # a non-empty subset of the operators, each once, in hue, saturation,
        # channel order
        assert names and names == [n for n in SKEW_OPERATORS if n in names]
        assert out.shape == x.shape
        assert not np.shares_memory(out, x)


def test_random_skew_parameters_respect_ranges(skew_calls):
    x = np.random.default_rng(62).uniform(0, 1, size=(8, 8, 3)).astype(np.float32)
    for seed in range(40):
        for name, arg in _skew(x, seed, skew_calls)[1]:
            if name == "hue_shift":
                assert abs(arg) <= 1.0 / 12.0 + 1e-12
            elif name == "saturation_scale":
                assert 0.5 <= arg <= 1.5
            else:
                assert len(arg) == 3 and all(0.8 <= a <= 1.2 for a in arg)


def test_random_skew_scale_shrinks_perceptual_distance():
    x = np.random.default_rng(63).uniform(0.1, 0.9, size=(16, 16, 3)).astype(np.float32)
    full = np.mean([C.mean_delta_e(x, A.random_skew(x, seed=s, scale=1.0))
                    for s in range(20)])
    small = np.mean([C.mean_delta_e(x, A.random_skew(x, seed=s, scale=0.2))
                     for s in range(20)])
    assert small < full


def test_random_skew_validates_scale():
    x = np.zeros((8, 8, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="scale"):
        A.random_skew(x, seed=0, scale=0.0)
    with pytest.raises(ValueError, match="scale"):
        A.random_skew(x, seed=0, scale=1.5)
