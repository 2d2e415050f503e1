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
from numpy.lib.stride_tricks import sliding_window_view

from chromafl import color as C
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



def ssim_matmul(a, b):
    """SSIM with each Gaussian pass a ``sliding_window_view @ kernel``.

    numpy's matmul adds the taps in order (``0 + m[0]*k[0] + ...``) except
    where it hands a layout to BLAS: C-ordered first-pass windows go to
    gemv.  So this is a byte oracle for stacks laid out batch-innermost
    (as Grad-CAM stacks come out) with at least two maps, and only for
    those.
    """
    k = S._gaussian_kernel()

    def filt(m):
        rows = sliding_window_view(m, 11, axis=1) @ k
        return sliding_window_view(rows, 11, axis=2) @ k

    mu_a, mu_b = filt(a), filt(b)
    var_a = filt(a * a) - mu_a * mu_a
    var_b = filt(b * b) - mu_b * mu_b
    cov = filt(a * b) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + S.SSIM_C1) * (2.0 * cov + S.SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + S.SSIM_C1) * (var_a + var_b + S.SSIM_C2)
    return (num / den).mean(axis=(1, 2))


def batch_innermost(maps):
    """The same maps laid out (H, W, B) in memory, as CAM stacks are."""
    return np.ascontiguousarray(maps.transpose(1, 2, 0)).transpose(2, 0, 1)


def upsample_gather(maps, out_h, out_w):
    """Bilinear resize as four corner gathers blended across, then down."""
    b, h, w = maps.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    tl = maps[:, y0[:, None], x0[None, :]]
    tr = maps[:, y0[:, None], x1[None, :]]
    bl = maps[:, y1[:, None], x0[None, :]]
    br = maps[:, y1[:, None], x1[None, :]]
    top = tl * (1 - fx) + tr * fx
    bot = bl * (1 - fx) + br * fx
    return top * (1 - fy) + bot * fy


def topk_stable(m, k):
    """Indices of the K largest values: the first K of a stable descending
    sort, so ties go row-major and NaN cells rank last."""
    return np.argsort(-m.reshape(-1), kind="stable")[:k]


def peak_overlap_loop(a, b, k):
    return np.array([100.0 * np.intersect1d(topk_stable(x, k), topk_stable(y, k)).size / k
                     for x, y in zip(a, b)])


def layout(a):
    """Strides of the axes longer than one, which fix the memory order."""
    return tuple(st for n, st in zip(a.shape, a.strides) if n > 1)


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
    for bad in (np.zeros(16), np.zeros((1, 1, 16, 16))):
        with pytest.raises(ValueError, match=r"first map must be \(H, W\) or \(B, H, W\)"):
            S.ssim(bad, np.zeros((16, 16)))
        with pytest.raises(ValueError, match=r"second map must be \(H, W\) or \(B, H, W\)"):
            S.l1_distance(np.zeros((16, 16)), bad)



@pytest.mark.parametrize("batch", [2, 7, 135])
@pytest.mark.parametrize("hw", [(32, 32), (16, 20), (12, 13)])
def test_ssim_matches_the_matmul_filter_bytes(batch, hw):
    rng = np.random.default_rng(batch * 100 + hw[1])
    raw = S._normalize(S._upsample(rng.uniform(0, 1, (batch, 8, 8)), *hw))
    other = batch_innermost(np.clip(raw + rng.normal(0, 0.1, raw.shape), 0, 1))
    assert raw.strides[0] == 8  # the upsample hands back batch-innermost stacks
    assert S.ssim(raw, other).tobytes() == ssim_matmul(raw, other).tobytes()
    # a reference map against the stack: the oracle sees a batch-innermost
    # stack of copies, so no window goes to BLAS
    copies = batch_innermost(np.broadcast_to(raw[0], raw.shape).copy())
    assert S.ssim(raw, raw[0]).tobytes() == ssim_matmul(raw, copies).tobytes()


def test_ssim_bits_do_not_depend_on_layout():
    rng = np.random.default_rng(38)
    a = rng.uniform(0, 1, size=(5, 16, 18))
    b = np.clip(a + rng.normal(0, 0.2, a.shape), 0, 1)
    want = S.ssim(batch_innermost(a), batch_innermost(b)).tobytes()
    for order in (np.ascontiguousarray, np.asfortranarray, batch_innermost):
        assert S.ssim(order(a), order(b)).tobytes() == want
    assert S.ssim(a, np.asfortranarray(b)).tobytes() == want
    assert S.ssim(a[1], b[1]) == S.ssim(a, b)[1]
    assert S.ssim(a[1], a[1]) == 1.0


def test_ssim_scores_a_single_map_against_a_stack():
    rng = np.random.default_rng(39)
    stack = batch_innermost(rng.uniform(0, 1, size=(6, 16, 16)))
    ref = np.ascontiguousarray(stack[2])
    want = S.ssim(stack, ref)
    assert want.shape == (6,) and want[2] == 1.0
    assert S.ssim(ref, stack).tobytes() == want.tobytes()
    assert S.ssim(np.broadcast_to(ref, stack.shape), stack).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="differ"):
        S.ssim(stack[:3], stack[:2])
    with pytest.raises(ValueError, match="differ"):
        S.ssim(stack, ref[:, :12])

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



def test_peak_overlap_stack_equals_the_per_map_loop():
    rng = np.random.default_rng(49)
    k = int(np.floor(0.1 * 144 + 0.5))
    cases = [rng.uniform(0, 1, size=(2, 9, 12, 12)),
             rng.integers(0, 3, size=(2, 9, 12, 12)).astype(np.float64),  # many ties
             rng.choice([0.0, -0.0], size=(2, 9, 12, 12)),
             rng.choice([0.0, -0.0, 1.0], size=(2, 9, 12, 12)),
             rng.choice([np.nan, 0.3, 1.0], size=(2, 9, 12, 12), p=[0.9, 0.05, 0.05])]
    for a, b in cases:
        got = S.peak_overlap(a, b)
        assert got.shape == (9,)
        assert got.tobytes() == peak_overlap_loop(a, b, k).tobytes()
        single = S.peak_overlap(a[4], b[4])
        assert type(single) is float and single == got[4]
    with pytest.raises(ValueError, match="differ"):
        S.peak_overlap(cases[0][0], cases[0][1][:3])


@pytest.mark.parametrize("order", [np.ascontiguousarray, batch_innermost])
def test_l1_and_peak_overlap_score_a_single_map_against_a_stack(order):
    rng = np.random.default_rng(50)
    stack = order(rng.integers(0, 4, size=(7, 12, 12)) / 3.0)  # with ties
    ref = rng.uniform(0, 1, size=(12, 12))
    # l1's mean sums in memory order, so the copies share the stack's layout
    copies = order(np.broadcast_to(ref, stack.shape))
    for metric in (S.l1_distance, S.peak_overlap):
        want = metric(copies, stack)
        assert want.shape == (7,)
        assert metric(ref, stack).tobytes() == want.tobytes()
        assert metric(stack, ref).tobytes() == metric(stack, copies).tobytes()
        with pytest.raises(ValueError, match="differ"):
            metric(stack[:3], stack[:2])

# ---------------------------------------------------------------- resize

def test_upsample_matches_bruteforce():
    rng = np.random.default_rng(35)
    for hw, out in [((8, 8), (32, 32)), ((5, 7), (13, 11)), ((4, 4), (9, 9))]:
        m = rng.uniform(0, 1, size=hw)
        got = S._upsample(m[None], *out)[0]
        assert np.abs(got - upsample_bruteforce(m, *out)).max() < 1e-12


def test_upsample_same_size_is_identity():
    rng = np.random.default_rng(36)
    m = rng.uniform(0, 1, size=(8, 8))
    assert np.array_equal(S._upsample(m[None], 8, 8)[0], m)



@pytest.mark.parametrize("batch", [1, 7, 135])
@pytest.mark.parametrize("src, out", [((8, 8), (32, 32)), ((5, 7), (16, 20))])
def test_upsample_matches_the_four_gather_formula_in_bytes_and_layout(batch, src, out):
    maps = np.random.default_rng(batch).uniform(0, 1, size=(batch,) + src)
    want = upsample_gather(maps, *out)
    for given in (maps, np.asfortranarray(maps), batch_innermost(maps)):
        got = S._upsample(given, *out)
        assert got.tobytes() == want.tobytes()
        assert layout(got) == layout(want)

def test_normalize_map_range_and_flat_rule():
    rng = np.random.default_rng(37)
    m = rng.uniform(3, 9, size=(6, 6))
    out = S._normalize(m[None])[0]
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.array_equal(S._normalize(np.full((1, 6, 6), 4.2))[0], np.zeros((6, 6)))


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
            got = S.predict_grad_cams(spec, ws, x[None], cls)[1][0]
            assert np.abs(got - grad_cam_oracle(spec, ws, x, cls)).max() < 1e-5


def test_grad_cam_pp_matches_closed_form_oracle():
    spec, ws = _capture_tail_model(seed=42)
    rng = np.random.default_rng(43)
    for trial in range(3):
        x = rng.uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
        for cls in range(spec.classes):
            got = S.predict_grad_cams(spec, ws, x[None], cls)[2][0]
            assert np.abs(got - grad_cam_pp_oracle(spec, ws, x, cls)).max() < 1e-5


@pytest.mark.parametrize("arch,capture", [("ARCH_A", "conv3"), ("ARCH_A", "conv2"),
                                          ("ARCH_B", "conv3"), ("ARCH_B", "conv1")])
def test_grad_cam_batch_agrees_with_singles(arch, capture):
    # a command scores a whole stack in one pass and dumps single maps from it
    spec = M.ModelSpec(arch, input_size=16, classes=3, capture=capture)
    ws = M.build(spec, seed=44)
    rng = np.random.default_rng(45)
    xs = rng.uniform(0, 1, size=(5, 16, 16, 3)).astype(np.float32)
    ids = np.array([0, 1, 2, 0, 1])
    labels, gc, gcpp = S.predict_grad_cams(spec, ws, xs, ids)
    assert gc.shape == gcpp.shape == (5, 16, 16)
    for i in range(5):
        one = S.predict_grad_cams(spec, ws, xs[i:i + 1], ids[i])
        assert np.array_equal(one[0], labels[i:i + 1])
        assert np.array_equal(one[1][0], gc[i])
        assert np.array_equal(one[2][0], gcpp[i])


@pytest.mark.parametrize("arch,capture", [("ARCH_A", "conv3"), ("ARCH_A", "conv2"),
                                          ("ARCH_B", "conv3"), ("ARCH_B", "conv1")])
def test_label_grads_rows_do_not_depend_on_the_other_rows_targets(arch, capture):
    # the grid search targets each candidate's own label: the rows that share
    # a class id get the bits they get when every row targets that id
    spec = M.ModelSpec(arch, input_size=16, classes=3, capture=capture)
    ws = M.build(spec, seed=49)
    xs = np.random.default_rng(50).uniform(0, 1, size=(M.FORWARD_BLOCK + 8, 16, 16, 3)
                                           ).astype(np.float32)
    mixed = np.arange(len(xs)) % 3
    labels, g_mixed, acts = S.label_grads(spec, ws, xs, mixed)
    for cls in range(3):
        rows = mixed == cls
        labels_c, g_c, acts_c = S.label_grads(spec, ws, xs, cls)
        assert labels_c.tobytes() == labels.tobytes() and acts_c.tobytes() == acts.tobytes()
        assert g_c[rows].tobytes() == g_mixed[rows].tobytes(), cls
    own, g_own, _ = S.label_grads(spec, ws, xs)
    assert own.tobytes() == labels.tobytes()
    rows = own == own[0]
    assert g_own[rows].tobytes() == S.label_grads(spec, ws, xs, own[0])[1][rows].tobytes()
    gc = S.grad_cam_maps(g_own, acts, spec.input_size)
    assert gc.tobytes() == S.predict_grad_cams(spec, ws, xs)[1].tobytes()


@pytest.mark.parametrize("arch,capture", [("ARCH_A", "conv3"), ("ARCH_A", "conv2"),
                                          ("ARCH_B", "conv3"), ("ARCH_B", "conv1")])
def test_grad_cam_maps_of_selected_rows_widen_only_those_rows(arch, capture):
    # the grid search selects its feasible rows from label_grads' float32
    # arrays; the oracle is the path that widened every row to float64
    # first and then selected
    spec = M.ModelSpec(arch, input_size=16, classes=3, capture=capture)
    ws = M.build(spec, seed=51)
    xs = np.random.default_rng(52).uniform(0, 1, size=(M.FORWARD_BLOCK + 8, 16, 16, 3)
                                           ).astype(np.float32)
    _, g, acts = S.label_grads(spec, ws, xs)
    assert g.dtype == acts.dtype == np.float32
    g64, acts64 = g.astype(np.float64), acts.astype(np.float64)
    for rows in (np.arange(len(xs)), np.array([0]), np.arange(1, len(xs), 3)):
        want = S._weighted_cam(g64[rows].mean(axis=(1, 2)), acts64[rows], spec.input_size)
        got = S.grad_cam_maps(g[rows], acts[rows], spec.input_size)
        assert got.tobytes() == want.tobytes(), rows


@pytest.mark.parametrize("arch,capture", [("ARCH_A", "conv3"), ("ARCH_A", "conv2"),
                                          ("ARCH_B", "conv3"), ("ARCH_B", "conv1")])
def test_label_grads_g_owns_at_most_its_own_bytes(arch, capture):
    # a convolution after the capture stage computes its input gradient in a
    # padded buffer; g must not be a view that keeps that buffer alive
    spec = M.ModelSpec(arch, input_size=32, classes=3, capture=capture)
    ws = M.build(spec, seed=53)
    xs = np.random.default_rng(54).uniform(0, 1, size=(6, 32, 32, 3)).astype(np.float32)
    _, g, acts = S.label_grads(spec, ws, xs)
    assert g.shape == acts.shape
    assert g.flags.c_contiguous
    assert g.base is None or g.base.nbytes <= g.nbytes


def test_grad_cam_zero_model_yields_zero_map():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=3)
    ws = [np.zeros_like(w) for w in M.build(spec, seed=0)]
    x = np.random.default_rng(46).uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
    assert np.array_equal(S.predict_grad_cams(spec, ws, x[None], 0)[1][0], np.zeros((16, 16)))


def test_grad_cam_values_in_unit_range():
    spec, ws = _capture_tail_model(seed=47)
    x = np.random.default_rng(48).uniform(0, 1, size=(16, 16, 3)).astype(np.float32)
    m = S.predict_grad_cams(spec, ws, x[None], 1)[1][0]
    assert m.shape == (16, 16)
    assert m.min() >= 0.0 and m.max() <= 1.0


# ---------------------------------------------------------------- export

def test_save_pgm_writes_header_and_payload(tmp_path):
    # a saliency map is exported as a P5 PGM through color.write_ppm
    m = np.linspace(0, 1, 12).reshape(3, 4)
    path = tmp_path / "map.pgm"
    C.write_ppm(path, m)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n4 3\n255\n")
    assert len(blob) == len(b"P5\n4 3\n255\n") + 12
    assert blob[-1] == 255  # last value is 1.0
