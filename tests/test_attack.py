"""Grid attack and random-skew baseline checks.

The attack is validated two ways: an exact re-scoring that mirrors the
batched evaluation (must agree on the chosen candidate index), and a fully
independent per-sample loop (must agree on feasibility and scores within
float-noise tolerance).
"""

import numpy as np
import pytest

from chromafl import attack as A
from chromafl import color as C
from chromafl import data as D
from chromafl import models as M
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
    assert cands[0].is_identity()
    rows = [c.as_row() for c in cands]
    assert len(rows) == len(set(rows)), "duplicate candidates"
    # singles: 6 hue + 4 uniform alpha + 12 per-channel + 8 jitter,
    # composites: 6*4 + 6*8 + 4*8
    assert len(cands) == 1 + 6 + 4 + 12 + 8 + 24 + 48 + 32
    for c in cands:
        c.validate()


def test_grid_truncation_keeps_identity():
    grid = A.GridSpec(max_candidates=5)
    cands = grid.candidates()
    assert len(cands) == 5
    assert cands[0].is_identity()


def test_single_operator_grids_are_pure():
    for cand in A.GridSpec.hue_only().candidates()[1:]:
        assert cand.delta != 0.0
        assert cand.alpha == (1.0, 1.0, 1.0) and cand.gamma == 1.0 and cand.beta == 0.0
    for cand in A.GridSpec.rescale_only().candidates()[1:]:
        assert cand.delta == 0.0 and cand.gamma == 1.0 and cand.beta == 0.0
        assert cand.alpha != (1.0, 1.0, 1.0)
    for cand in A.GridSpec.jitter_only().candidates()[1:]:
        assert cand.delta == 0.0 and cand.alpha == (1.0, 1.0, 1.0)
        assert (cand.gamma, cand.beta) != (1.0, 0.0)


def test_combined_grid_is_superset_of_singles():
    combined = {c.as_row() for c in A.GridSpec().candidates()}
    for sub in (A.GridSpec.hue_only(), A.GridSpec.rescale_only(),
                A.GridSpec.jitter_only()):
        assert {c.as_row() for c in sub.candidates()} <= combined


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
    assert outcome.theta.is_identity()
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
        cams = S.grad_cam(spec, ws, imgs[feasible], int(labels[0]))
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
    cams = S.grad_cam(spec, ws, imgs[feasible], int(labels[0]))
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
    assert sorted(deltas) == sorted({t.delta for t in thetas} - {0.0})


def test_cpm_agrees_with_independent_per_sample_loop(trained):
    spec, ws, data = trained
    thetas = SMALL_GRID.candidates()
    for i in range(4):
        x = data.images[i]
        _, outcome = A.cpm_perturb(spec, ws, x, SMALL_GRID)
        base_label = int(M.predict_labels(spec, ws, x[None])[0])
        cam0 = S.grad_cam(spec, ws, x, base_label)
        best_ssim = None
        n_feasible = 0
        for theta in thetas:
            cand = C.apply(theta, x)
            lab = M.predict_labels(spec, ws, cand[None])[0]
            if lab != base_label:
                continue
            n_feasible += 1
            s = S.ssim(cam0, S.grad_cam(spec, ws, cand, base_label))
            if best_ssim is None or s < best_ssim - 1e-9:
                best_ssim = s
        assert outcome.n_feasible == n_feasible
        assert outcome.ssim == pytest.approx(best_ssim, abs=1e-5)


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
    assert pois1.name.endswith("+grid")
    # at least some images actually moved
    changed = sum(not np.array_equal(pois1.images[i], subset.images[i])
                  for i in range(10))
    assert changed >= 1


def test_summarize_outcomes_shape(trained):
    spec, ws, data = trained
    _, outcomes = A.poison_dataset(spec, ws, data.subset(np.arange(8)), SMALL_GRID)
    stats = A.summarize_outcomes(outcomes)
    assert stats["n"] == 8
    assert 0.0 <= stats["ssim_mean"] <= 1.0
    assert stats["ssim_p10"] <= stats["ssim_p50"] <= stats["ssim_p90"]
    assert 0.0 <= stats["fallback_rate"] <= 1.0
    assert stats["attack_success_pct"] == pytest.approx(
        100.0 * (1.0 - stats["fallback_rate"]))


# ---------------------------------------------------------------- skew

def test_random_skew_is_deterministic_per_seed():
    rng = np.random.default_rng(60)
    x = rng.uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
    a1, p1 = A.random_skew(x, seed=5)
    a2, p2 = A.random_skew(x, seed=5)
    b, pb = A.random_skew(x, seed=6)
    assert np.array_equal(a1, a2)
    assert p1 == p2
    assert not np.array_equal(a1, b) or p1 != pb


def test_random_skew_applies_at_least_one_operator():
    rng = np.random.default_rng(61)
    x = rng.uniform(0.2, 0.8, size=(16, 16, 3)).astype(np.float32)
    for seed in range(30):
        out, params = A.random_skew(x, seed=seed)
        assert params.use_hue or params.use_saturation or params.use_channels
        assert out.shape == x.shape


def test_random_skew_parameters_respect_ranges():
    x = np.random.default_rng(62).uniform(0, 1, size=(8, 8, 3)).astype(np.float32)
    for seed in range(40):
        _, p = A.random_skew(x, seed=seed)
        assert abs(p.delta) <= 1.0 / 12.0 + 1e-12
        assert 0.5 <= p.saturation <= 1.5 or not p.use_saturation
        for a in p.alpha:
            assert 0.8 <= a <= 1.2 or not p.use_channels


def test_random_skew_scale_shrinks_perceptual_distance():
    x = np.random.default_rng(63).uniform(0.1, 0.9, size=(16, 16, 3)).astype(np.float32)
    full = np.mean([C.mean_delta_e(x, A.random_skew(x, seed=s, scale=1.0)[0])
                    for s in range(20)])
    small = np.mean([C.mean_delta_e(x, A.random_skew(x, seed=s, scale=0.2)[0])
                     for s in range(20)])
    assert small < full


def test_random_skew_validates_scale():
    x = np.zeros((8, 8, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="scale"):
        A.random_skew(x, seed=0, scale=0.0)
    with pytest.raises(ValueError, match="scale"):
        A.random_skew(x, seed=0, scale=1.5)
