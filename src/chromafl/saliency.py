"""Saliency maps for the small CNNs and metrics for comparing them.

All map producers return float64 arrays normalized to [0, 1] at input
resolution; a map that comes out flat (all equal) normalizes to all zeros
rather than dividing by zero.  This module is the one place that knows how
a Grad-CAM is computed.  :func:`label_grads` is the one taped pass: a
batch's labels and the class gradients at the capture stage, in the
capture stage's dtype (float32 in the pipeline).  :func:`grad_cam_maps`
widens those to float64 on entry and turns them into Grad-CAM maps, and
:func:`predict_grad_cams` gives a batch's labels, Grad-CAM and Grad-CAM++
maps from one such pass.  Metric functions accept single maps ``(H, W)`` or
stacks ``(B, H, W)``; :func:`ssim` also scores one map against a stack.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5) with C1=(0.01)^2,
C2=(0.03)^2 on a unit dynamic range, averaged over valid windows only.
"""

from __future__ import annotations

import numpy as np

from . import models as M
from . import tensor as T

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


# ---------------------------------------------------------------- helpers

def _as_maps(x, name="map") -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        return arr[None], True
    if arr.ndim == 3:
        return arr, False
    raise ValueError(f"{name} must be (H, W) or (B, H, W), got shape {arr.shape}")


def _unbatch(maps: np.ndarray, single: bool):
    return maps[0] if single else maps


def normalize_map(m):
    """Min-max normalize to [0, 1]; a flat map becomes all zeros."""
    maps, single = _as_maps(m)
    lo = maps.min(axis=(1, 2), keepdims=True)
    hi = maps.max(axis=(1, 2), keepdims=True)
    span = hi - lo
    flat = (span == 0.0)
    out = np.where(flat, 0.0, (maps - lo) / np.where(flat, 1.0, span))
    return _unbatch(out, single)


def upsample_bilinear(m, out_h: int, out_w: int):
    """Bilinear resize with half-pixel alignment and edge clamping.

    Each source row is resampled along W once, then pairs of those rows are
    blended down H: the same two-step formula per output cell as a
    four-corner gather.  A stack comes back with the batch axis innermost
    (a transposed ``(out_h, out_w, B)`` array), because the reductions over
    its maps downstream (:func:`l1_distance`'s mean) sum in memory order, so
    the layout is part of their bits.
    """
    maps, single = _as_maps(m)
    b, h, w = maps.shape
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys), 0, h - 1).astype(np.int64)
    x0 = np.clip(np.floor(xs), 0, w - 1).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[:, None]
    src = maps.transpose(1, 2, 0)  # (h, w, B)
    rows = src[:, x0] * (1 - fx) + src[:, x1] * fx  # (h, out_w, B)
    out = rows[y0] * (1 - fy) + rows[y1] * fy
    return _unbatch(out.transpose(2, 0, 1), single)


# ---------------------------------------------------------------- producers

def _capture_grads(logits: T.Tensor, captured: T.Tensor, tape: T.Tape, class_id):
    """d(logit_class)/d(capture activation) and the activation, from the
    result of a taped :func:`models.forward`, whose tape holds only the
    layers after the capture stage; the replay runs them all.  When a
    convolution follows the capture stage, its input gradient is a view into
    a padded buffer, so ``g`` is copied out of it rather than pinning it."""
    ids = np.broadcast_to(np.asarray(class_id, dtype=np.int64), (logits.shape[0],))
    score = T.class_score(tape, logits, ids)
    g = np.ascontiguousarray(T.grad_wrt(tape, score, captured))
    return g, captured.data  # (B, h, w, K) each


def _weighted_cam(w_k: np.ndarray, acts: np.ndarray, size: int) -> np.ndarray:
    """ReLU of the channel-weighted activations, upsampled and normalized."""
    cam = np.maximum(np.einsum("bk,bhwk->bhw", w_k, acts), 0.0)
    return normalize_map(upsample_bilinear(cam, size, size))


def label_grads(spec: M.ModelSpec, weights, xs, class_id=None):
    """Predicted labels of a batch, and g = d(logit_class)/d(activation) at
    the capture stage with that activation, all from one taped pass;
    ``class_id=None`` targets each image's predicted class.  ``g`` and the
    activation keep the capture stage's dtype (float32 in the pipeline);
    the map producers widen them to float64, so a caller that scores only
    some rows selects them first and widens no others.  The labels equal
    :func:`models.predict_labels`' on a batch of up to
    ``models.PREDICT_CHUNK`` images.  For given class ids, each image's
    ``g`` does not depend on the other images of the batch."""
    logits, captured, tape = M.forward(spec, weights, xs, tape=T.Tape())
    labels = logits.data.argmax(axis=1)
    g, acts = _capture_grads(logits, captured, tape,
                             labels if class_id is None else class_id)
    return labels, g, acts


def grad_cam_maps(g: np.ndarray, acts: np.ndarray, size: int) -> np.ndarray:
    """Grad-CAM maps from :func:`label_grads`' ``g`` and ``acts``, or from
    a selection of their rows: the channel weights are the spatial averages
    of ``g``.  Both are widened to float64 first, an elementwise cast, so
    a row's map does not depend on whether it was selected before or after."""
    g, acts = np.asarray(g, dtype=np.float64), np.asarray(acts, dtype=np.float64)
    return _weighted_cam(g.mean(axis=(1, 2)), acts, size)


def predict_grad_cams(spec: M.ModelSpec, weights, xs, class_id=None):
    """Predicted labels, Grad-CAM maps and Grad-CAM++ maps of a batch, all
    from one :func:`label_grads` pass; for given class ids, each map's bits
    do not depend on the other images of the batch.

    Both maps are the ReLU of the capture stage's channel-weighted
    activations, upsampled and min-max normalized.  Grad-CAM++ pixel
    weights are a = g^2 / (2 g^2 + sum(A) * g^3), zero wherever the
    denominator is smaller than 1e-12; its channel weights are
    sum(a * relu(g)).
    """
    labels, g, acts = label_grads(spec, weights, xs, class_id)
    g, acts = np.asarray(g, dtype=np.float64), np.asarray(acts, dtype=np.float64)
    gc = grad_cam_maps(g, acts, spec.input_size)
    g2 = g * g
    g3 = g2 * g
    chan_sum = acts.sum(axis=(1, 2))  # (B, K)
    denom = 2.0 * g2 + chan_sum[:, None, None, :] * g3
    a = np.where(np.abs(denom) < 1e-12, 0.0, g2 / np.where(np.abs(denom) < 1e-12, 1.0, denom))
    w_k = (a * np.maximum(g, 0.0)).sum(axis=(1, 2))  # (B, K)
    gcpp = _weighted_cam(w_k, acts, spec.input_size)
    return labels, gc, gcpp


# ---------------------------------------------------------------- metrics

def _gaussian_kernel(n: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    d = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    k = np.exp(-(d * d) / (2.0 * sigma * sigma))
    return k / k.sum()


_SSIM_K = _gaussian_kernel()


def _gauss_filter_valid(maps: np.ndarray) -> np.ndarray:
    """Separable Gaussian over valid windows: (H, W, B) -> (H-10, W-10, B).

    Each pass adds the kernel taps' products in tap order, ``m[0]*k[0] +
    … + m[10]*k[10]``, first down H, then along W; every product and every
    sum is rounded on its own, so each output depends on its window's values
    only, whatever the layout of ``maps``.
    """
    h = maps.shape[0] - SSIM_WINDOW + 1
    w = maps.shape[1] - SSIM_WINDOW + 1
    tmp = np.empty((h,) + maps.shape[1:])  # each product, before its add
    rows = _tap_sum([maps[t:t + h] for t in range(SSIM_WINDOW)], tmp)
    return _tap_sum([rows[:, t:t + w] for t in range(SSIM_WINDOW)], tmp[:, :w])


def _tap_sum(taps, tmp: np.ndarray) -> np.ndarray:
    acc = taps[0] * _SSIM_K[0]
    for t in range(1, SSIM_WINDOW):
        acc += np.multiply(taps[t], _SSIM_K[t], out=tmp)
    return acc


def ssim(a, b):
    """Mean local SSIM between two maps (unit dynamic range).

    Either argument may be a single map ``(H, W)`` and the other a stack
    ``(B, H, W)`` of the same spatial shape: the single map is scored
    against every map of the stack, and its mean and E[a^2] are filtered
    once.  ``ssim(stack, ref)``, ``ssim(ref, stack)`` and ``ssim(stack of
    copies of ref, stack)`` give the same bits.

    The Gaussian filter sums the kernel taps in order (see
    :func:`_gauss_filter_valid`), and each map's local scores are summed
    row by row (each row along W, then the row sums in order), so a map's
    score depends on its values only: not on the arrays' memory layout, and
    not on the other maps of its stack.
    """
    am, single_a = _as_maps(a, "first map")
    bm, single_b = _as_maps(b, "second map")
    if am.shape[1:] != bm.shape[1:] or not (
            am.shape[0] == bm.shape[0] or single_a or single_b):
        raise ValueError(f"map shapes differ: {am.shape} vs {bm.shape}")
    if am.shape[1] < SSIM_WINDOW or am.shape[2] < SSIM_WINDOW:
        raise ValueError(f"maps must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for SSIM")
    at = am.transpose(1, 2, 0)  # (H, W, B) views: the filters run over stacks
    bt = bm.transpose(1, 2, 0)
    mu_a = _gauss_filter_valid(at)
    mu_b = _gauss_filter_valid(bt)
    var_a = _gauss_filter_valid(at * at) - mu_a * mu_a
    var_b = _gauss_filter_valid(bt * bt) - mu_b * mu_b
    cov = _gauss_filter_valid(at * bt) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    # (h, B, w): each row of local scores summed along w, then the row sums in order
    local = np.ascontiguousarray((num / den).transpose(0, 2, 1))
    s = np.cumsum(local.sum(axis=2), axis=0)[-1] / (local.shape[0] * local.shape[2])
    return float(s[0]) if (single_a and single_b) else s


def l1_distance(a, b):
    """Mean absolute difference between two maps."""
    am, single_a = _as_maps(a, "first map")
    bm, single_b = _as_maps(b, "second map")
    if am.shape != bm.shape:
        raise ValueError(f"map shapes differ: {am.shape} vs {bm.shape}")
    d = np.abs(am - bm).mean(axis=(1, 2))
    return float(d[0]) if (single_a and single_b) else d


def _topk_mask(maps: np.ndarray, k: int) -> np.ndarray:
    """Row-major (B, H*W) mask of each map's K largest cells.

    Cells above the K-th largest value are all taken, and cells equal to it
    in row-major order until there are K: the first K of a stable
    descending sort.  NaN cells rank below every number, as in that sort.
    """
    part = np.negative(maps, order="C").reshape(len(maps), -1)
    part.partition(k - 1, axis=1)
    kth = -part[:, k - 1, None, None]  # NaN only when fewer than K cells are numbers
    del part
    if np.isnan(kth).any():
        nan = np.isnan(maps)
        above = np.where(np.isnan(kth), ~nan, maps > kth)
        tied = np.where(np.isnan(kth), nan, maps == kth)
    else:
        above, tied = maps > kth, maps == kth
    above = above.reshape(len(maps), -1)
    tied = tied.reshape(len(maps), -1)
    need = k - above.sum(axis=1, keepdims=True)
    return above | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= need))


def peak_overlap(a, b, k_fraction: float = 0.1):
    """Percentage overlap of two maps' top-K cells (K = k_fraction of all).

    Stacks ``(B, H, W)`` of equal shape give one percentage per map pair.
    Ties at the K-th value go to the cells first in row-major order.
    """
    am, single_a = _as_maps(a, "first map")
    bm, single_b = _as_maps(b, "second map")
    if am.shape != bm.shape:
        raise ValueError(f"map shapes differ: {am.shape} vs {bm.shape}")
    if not 0.0 < k_fraction < 1.0:
        raise ValueError(f"k_fraction must be in (0, 1), got {k_fraction}")
    n = am.shape[1] * am.shape[2]
    k = int(np.floor(k_fraction * n + 0.5))
    if k == 0:
        raise ValueError(f"k_fraction {k_fraction} selects zero cells on {am.shape[1:]} maps")
    ta = _topk_mask(am, k)
    tb = _topk_mask(bm, k)
    pct = 100.0 * (ta & tb).sum(axis=1) / k
    return float(pct[0]) if (single_a and single_b) else pct


def save_pgm(path, m) -> None:
    """Write a single map in [0,1] as a binary P5 PGM, maxval 255."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"PGM export expects (H, W), got shape {arr.shape}")
    h, w = arr.shape
    data = np.floor(np.clip(arr, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())
