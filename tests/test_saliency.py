"""Saliency producers and map metrics against brute-force oracles.

The SSIM/upsampling/top-K oracles here are deliberately written as plain
loops so the vectorized implementations have something independent to match.
The CAM oracles use the closed-form gradient of the dense head: when the
capture stage feeds the classifier directly, d(logit_c)/d(activation) is just
the dense weight column reshaped to the feature map, so Grad-CAM and
Grad-CAM++ can be recomputed from forward activations alone.
"""

import numpy as np
import pytest

from chromafl import models as M
from chromafl import saliency as S


# ---------------------------------------------------------------- oracles

def gaussian_2d(n=11, sigma=1.5):
    d = np.arange(n) - (n - 1) / 2.0
    k = np.exp(-(d * d) / (2 * sigma * sigma))
    k = k / k.sum()
    return np.outer(k, k)


def ssim_bruteforce(a, b, n=11):
    kern = gaussian_2d(n)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, w = a.shape
    vals = []
    for y in range(h - n + 1):
        for x in range(w - n + 1):
            wa = a[y:y + n, x:x + n]
            wb = b[y:y + n, x:x + n]
            mua = (kern * wa).sum()
            mub = (kern * wb).sum()
            va = (kern * wa * wa).sum() - mua * mua
            vb = (kern * wb * wb).sum() - mub * mub
            cov = (kern * wa * wb).sum() - mua * mub
            num = (2 * mua * mub + c1) * (2 * cov + c2)
            den = (mua * mua + mub * mub + c1) * (va + vb + c2)
            vals.append(num / den)
    return float(np.mean(vals))


def topk_bruteforce(m, k):
    flat = m.reshape(-1)
    order = sorted(range(flat.size), key=lambda i: (-flat[i], i))
    return set(order[:k])


def upsample_bruteforce(m, oh, ow):
    h, w = m.shape
    out = np.zeros((oh, ow))
    for oy in range(oh):
        for ox in range(ow):
            sy = (oy + 0.5) * h / oh - 0.5
            sx = (ox + 0.5) * w / ow - 0.5
            y0 = min(max(int(np.floor(sy)), 0), h - 1)
            x0 = min(max(int(np.floor(sx)), 0), w - 1)
            y1 = min(y0 + 1, h - 1)
            x1 = min(x0 + 1, w - 1)
            fy = min(max(sy - y0, 0.0), 1.0)
            fx = min(max(sx - x0, 0.0), 1.0)
            top = m[y0, x0] * (1 - fx) + m[y0, x1] * fx
            bot = m[y1, x0] * (1 - fx) + m[y1, x1] * fx
            out[oy, ox] = top * (1 - fy) + bot * fy
    return out


# ---------------------------------------------------------------- ssim

def test_ssim_matches_bruteforce_on_random_maps():
    rng = np.random.default_rng(30)
    for _ in range(8):
        a = rng.uniform(0, 1, size=(16, 16))
        b = np.clip(a + rng.normal(0, 0.2, size=(16, 16)), 0, 1)
        assert S.ssim(a, b) == pytest.approx(ssim_bruteforce(a, b), abs=1e-6)


def test_ssim_identical_maps_is_exactly_one():
    rng = np.random.default_rng(31)
    a = rng.uniform(0, 1, size=(32, 32))
    assert S.ssim(a, a) == 1.0
    assert S.ssim(a.copy(), a.copy()) == 1.0


def test_ssim_constant_maps_closed_form():
    zero = np.zeros((16, 16))
    one = np.ones((16, 16))
    expect = S.SSIM_C1 / (1.0 + S.SSIM_C1)
    assert S.ssim(zero, one) == pytest.approx(expect, abs=1e-12)


def test_ssim_is_symmetric_and_batched():
    rng = np.random.default_rng(32)
    a = rng.uniform(0, 1, size=(3, 16, 16))
    b = rng.uniform(0, 1, size=(3, 16, 16))
    fwd = S.ssim(a, b)
    rev = S.ssim(b, a)
    assert fwd.shape == (3,)
    assert np.allclose(fwd, rev, atol=1e-12)
    for i in range(3):
        assert fwd[i] == pytest.approx(S.ssim(a[i], b[i]), abs=1e-12)


def test_ssim_rejects_small_or_mismatched_maps():
    with pytest.raises(ValueError, match="11x11"):
        S.ssim(np.zeros((8, 8)), np.zeros((8, 8)))
    with pytest.raises(ValueError, match="differ"):
        S.ssim(np.zeros((16, 16)), np.zeros((16, 12)))


# ---------------------------------------------------------------- l1 / peaks

def test_l1_distance_matches_loop():
    rng = np.random.default_rng(33)
    a = rng.uniform(0, 1, size=(12, 12))
    b = rng.uniform(0, 1, size=(12, 12))
    manual = sum(abs(a[y, x] - b[y, x]) for y in range(12) for x in range(12)) / 144
    assert S.l1_distance(a, b) == pytest.approx(manual, abs=1e-12)
    assert S.l1_distance(a, a) == 0.0


def test_peak_overlap_handcrafted_quarters():
    a = np.zeros((4, 4))
    a.flat[[0, 1, 2, 3]] = [9, 8, 7, 6]
    b = np.zeros((4, 4))
    b.flat[[2, 3, 8, 9]] = [9, 8, 7, 6]
    assert S.peak_overlap(a, a, 0.25) == 100.0
    assert S.peak_overlap(a, b, 0.25) == 50.0
    c = np.zeros((4, 4))
    c.flat[[12, 13, 14, 15]] = [4, 3, 2, 1]
    assert S.peak_overlap(a, c, 0.25) == 0.0


def test_peak_overlap_ties_resolve_row_major():
    flat_a = np.ones((4, 4))  # all tied: top-4 must be cells 0..3 for both
    flat_b = np.ones((4, 4))
    assert S.peak_overlap(flat_a, flat_b, 0.25) == 100.0


def test_peak_overlap_matches_bruteforce():
    rng = np.random.default_rng(34)
    for _ in range(10):
        a = rng.uniform(0, 1, size=(8, 8))
        b = rng.uniform(0, 1, size=(8, 8))
        a.flat[rng.integers(0, 64, 8)] = 0.5  # inject ties
        b.flat[rng.integers(0, 64, 8)] = 0.5
        k = int(np.floor(0.1 * 64 + 0.5))
        expect = 100.0 * len(topk_bruteforce(a, k) & topk_bruteforce(b, k)) / k
        assert S.peak_overlap(a, b, 0.1) == pytest.approx(expect, abs=1e-12)


def test_peak_overlap_validates_k():
    a = np.zeros((4, 4))
    with pytest.raises(ValueError, match="zero cells"):
        S.peak_overlap(a, a, 0.01)
    with pytest.raises(ValueError, match="k_fraction"):
        S.peak_overlap(a, a, 1.5)


# ---------------------------------------------------------------- resize

def test_upsample_matches_bruteforce():
    rng = np.random.default_rng(35)
    for hw, out in [((8, 8), (32, 32)), ((5, 7), (13, 11)), ((4, 4), (9, 9))]:
        m = rng.uniform(0, 1, size=hw)
        got = S.upsample_bilinear(m, *out)
        assert np.abs(got - upsample_bruteforce(m, *out)).max() < 1e-12


def test_upsample_same_size_is_identity():
    rng = np.random.default_rng(36)
    m = rng.uniform(0, 1, size=(8, 8))
    assert np.array_equal(S.upsample_bilinear(m, 8, 8), m)


def test_normalize_map_range_and_flat_rule():
    rng = np.random.default_rng(37)
    m = rng.uniform(3, 9, size=(6, 6))
    out = S.normalize_map(m)
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.array_equal(S.normalize_map(np.full((6, 6), 4.2)), np.zeros((6, 6)))


# ---------------------------------------------------------------- CAM oracles

def _capture_tail_model(seed, classes=3, size=16):
    """ARCH_A model whose capture stage feeds the dense head directly."""
    spec = M.ModelSpec("ARCH_A", input_size=size, classes=classes)
    ws = M.build(spec, seed=seed)
    # a little training signal so activations are not accidental zeros
    return spec, ws


def _forward_activations(spec, ws, x):
    logits, captured, _ = M.forward(spec, ws, x[None] if x.ndim == 3 else x)
    return logits.data, captured.data


def grad_cam_oracle(spec, ws, x, class_id):
    """Grad-CAM recomputed from activations + closed-form dense gradient."""
    logits, acts = _forward_activations(spec, ws, x)
    a = acts[0].astype(np.float64)  # (h, w, K)
    h, w, k = a.shape
    wdense = np.asarray(ws[-2], dtype=np.float64)
    gcol = wdense[:, class_id].reshape(h, w, k)  # d logit / d activation
    weights = gcol.mean(axis=(0, 1))
    cam = np.maximum((a * weights).sum(axis=2), 0.0)
    up = upsample_bruteforce(cam, spec.input_size, spec.input_size)
    lo, hi = up.min(), up.max()
    return np.zeros_like(up) if hi == lo else (up - lo) / (hi - lo)


def grad_cam_pp_oracle(spec, ws, x, class_id):
    logits, acts = _forward_activations(spec, ws, x)
    a = acts[0].astype(np.float64)
    h, w, k = a.shape
    wdense = np.asarray(ws[-2], dtype=np.float64)
    g = wdense[:, class_id].reshape(h, w, k)
    g2, g3 = g * g, g * g * g
    chan_sum = a.sum(axis=(0, 1))
    denom = 2.0 * g2 + chan_sum[None, None, :] * g3
    alpha = np.where(np.abs(denom) < 1e-12, 0.0,
                     g2 / np.where(np.abs(denom) < 1e-12, 1.0, denom))
    weights = (alpha * np.maximum(g, 0.0)).sum(axis=(0, 1))
    cam = np.maximum((a * weights).sum(axis=2), 0.0)
    up = upsample_bruteforce(cam, spec.input_size, spec.input_size)
    lo, hi = up.min(), up.max()
    return np.zeros_like(up) if hi == lo else (up - lo) / (hi - lo)


def test_grad_cam_matches_closed_form_oracle():
    spec, ws = _capture_tail_model(seed=40)
    rng = np.random.default_rng(41)
    for trial in range(3):
        x = rng.uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
        for cls in range(spec.classes):
            got = S.grad_cam(spec, ws, x, cls)
            assert np.abs(got - grad_cam_oracle(spec, ws, x, cls)).max() < 1e-5


def test_grad_cam_pp_matches_closed_form_oracle():
    spec, ws = _capture_tail_model(seed=42)
    rng = np.random.default_rng(43)
    for trial in range(3):
        x = rng.uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
        for cls in range(spec.classes):
            got = S.predict_grad_cams(spec, ws, x[None], cls)[2][0]
            assert np.abs(got - grad_cam_pp_oracle(spec, ws, x, cls)).max() < 1e-5


def test_grad_cam_batch_agrees_with_singles():
    spec, ws = _capture_tail_model(seed=44)
    rng = np.random.default_rng(45)
    xs = rng.uniform(0, 1, size=(4, 16, 16, 3)).astype(np.float32)
    ids = np.array([0, 1, 2, 0])
    batch = S.grad_cam(spec, ws, xs, ids)
    assert batch.shape == (4, 16, 16)
    for i in range(4):
        assert np.abs(batch[i] - S.grad_cam(spec, ws, xs[i], ids[i])).max() < 1e-6
    assert np.array_equal(S.predict_grad_cams(spec, ws, xs, ids)[1], batch)


def test_grad_cam_zero_model_yields_zero_map():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=3)
    ws = [np.zeros_like(w) for w in M.build(spec, seed=0)]
    x = np.random.default_rng(46).uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
    assert np.array_equal(S.grad_cam(spec, ws, x, 0), np.zeros((16, 16)))


def test_grad_cam_values_in_unit_range():
    spec, ws = _capture_tail_model(seed=47)
    x = np.random.default_rng(48).uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
    m = S.grad_cam(spec, ws, x, 1)
    assert m.shape == (16, 16)
    assert m.min() >= 0.0 and m.max() <= 1.0


# ---------------------------------------------------------------- export

def test_save_pgm_writes_header_and_payload(tmp_path):
    m = np.linspace(0, 1, 12).reshape(3, 4)
    path = tmp_path / "map.pgm"
    S.save_pgm(path, m)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert len(blob) == len(b"P5\n4 3\n255\n") + 12
    assert blob[-1] == 255  # last value is 1.0
