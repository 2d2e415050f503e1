"""Saliency maps for the small CNNs and metrics for comparing them.

All map producers return float64 arrays normalized to [0, 1] at input
resolution; a map that comes out flat (all equal) normalizes to all zeros
rather than dividing by zero.  :func:`grad_cam` gives the Grad-CAM of one
image or a batch; :func:`predict_grad_cams` gives a batch's labels, Grad-CAM
and Grad-CAM++ maps from one taped pass.  Metric functions accept single
maps ``(H, W)`` or stacks ``(B, H, W)``.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5) with C1=(0.01)^2,
C2=(0.03)^2 on a unit dynamic range, averaged over valid windows only.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    """Bilinear resize with half-pixel alignment and edge clamping."""
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
    fy = np.clip(ys - y0, 0.0, 1.0)[None, :, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, None, :]
    tl = maps[:, y0[:, None], x0[None, :]]
    tr = maps[:, y0[:, None], x1[None, :]]
    bl = maps[:, y1[:, None], x0[None, :]]
    br = maps[:, y1[:, None], x1[None, :]]
    top = tl * (1 - fx) + tr * fx
    bot = bl * (1 - fx) + br * fx
    out = top * (1 - fy) + bot * fy
    return _unbatch(out, single)


# ---------------------------------------------------------------- producers

def _capture_grads(logits: T.Tensor, captured: T.Tensor, tape: T.Tape, class_id):
    """d(logit_class)/d(capture activation) and the activation, from the
    result of a taped :func:`models.forward`; the tape replays only the
    layers after the capture stage."""
    ids = np.broadcast_to(np.asarray(class_id, dtype=np.int64), (logits.shape[0],))
    score = T.class_score(tape, logits, ids)
    g = T.grad_wrt(tape, score, captured).astype(np.float64)  # (B, h, w, K)
    return g, captured.data.astype(np.float64)


def _weighted_cam(w_k: np.ndarray, acts: np.ndarray, size: int) -> np.ndarray:
    """ReLU of the channel-weighted activations, upsampled and normalized."""
    cam = np.maximum(np.einsum("bk,bhwk->bhw", w_k, acts), 0.0)
    return normalize_map(upsample_bilinear(cam, size, size))


def grad_cam(spec: M.ModelSpec, weights, x, class_id):
    """Grad-CAM at the capture stage, upsampled and min-max normalized.

    Channel weights are the spatial averages of d(logit_class)/d(activation);
    the weighted activation sum passes through a ReLU before upsampling.
    """
    xb, single = M._batched(x)
    g, acts = _capture_grads(*M.forward(spec, weights, xb, tape=T.Tape()), class_id)
    return _unbatch(_weighted_cam(g.mean(axis=(1, 2)), acts, spec.input_size), single)


def predict_grad_cams(spec: M.ModelSpec, weights, xs, class_id=None):
    """Predicted labels, Grad-CAM maps and Grad-CAM++ maps of a batch, all
    from one taped pass; ``class_id=None`` targets each image's predicted
    class.  The labels equal :func:`models.predict_labels`' on a batch of up
    to ``models.PREDICT_CHUNK`` images.

    The Grad-CAM maps equal :func:`grad_cam`'s.  Grad-CAM++ pixel weights are
    a = g^2 / (2 g^2 + sum(A) * g^3), zero wherever the denominator is
    smaller than 1e-12; its channel weights are sum(a * relu(g)).
    """
    logits, captured, tape = M.forward(spec, weights, xs, tape=T.Tape())
    labels = logits.data.argmax(axis=1)
    g, acts = _capture_grads(logits, captured, tape,
                             labels if class_id is None else class_id)
    del tape  # its buffers are not needed for the maps; free them first
    gc = _weighted_cam(g.mean(axis=(1, 2)), acts, spec.input_size)
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
    """Separable Gaussian over valid windows: (B,H,W) -> (B,H-10,W-10)."""
    rows = sliding_window_view(maps, SSIM_WINDOW, axis=1) @ _SSIM_K
    return sliding_window_view(rows, SSIM_WINDOW, axis=2) @ _SSIM_K


def ssim(a, b):
    """Mean local SSIM between two maps (unit dynamic range)."""
    am, single_a = _as_maps(a, "first map")
    bm, single_b = _as_maps(b, "second map")
    if am.shape != bm.shape:
        raise ValueError(f"map shapes differ: {am.shape} vs {bm.shape}")
    if am.shape[1] < SSIM_WINDOW or am.shape[2] < SSIM_WINDOW:
        raise ValueError(f"maps must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for SSIM")
    mu_a = _gauss_filter_valid(am)
    mu_b = _gauss_filter_valid(bm)
    e_aa = _gauss_filter_valid(am * am)
    e_bb = _gauss_filter_valid(bm * bm)
    e_ab = _gauss_filter_valid(am * bm)
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    s = (num / den).mean(axis=(1, 2))
    return float(s[0]) if (single_a and single_b) else s


def l1_distance(a, b):
    """Mean absolute difference between two maps."""
    am, single_a = _as_maps(a, "first map")
    bm, single_b = _as_maps(b, "second map")
    if am.shape != bm.shape:
        raise ValueError(f"map shapes differ: {am.shape} vs {bm.shape}")
    d = np.abs(am - bm).mean(axis=(1, 2))
    return float(d[0]) if (single_a and single_b) else d


def _topk_indices(m: np.ndarray, k: int) -> np.ndarray:
    """Indices of the K largest values; ties favour row-major order."""
    flat = m.reshape(-1)
    order = np.argsort(-flat, kind="stable")
    return order[:k]


def peak_overlap(a, b, k_fraction: float = 0.1) -> float:
    """Percentage overlap of the two maps' top-K cells (K = k_fraction of all)."""
    am, _ = _as_maps(a, "first map")
    bm, _ = _as_maps(b, "second map")
    if am.shape != bm.shape:
        raise ValueError(f"map shapes differ: {am.shape} vs {bm.shape}")
    if am.shape[0] != 1:
        raise ValueError("peak_overlap compares two single maps")
    if not 0.0 < k_fraction < 1.0:
        raise ValueError(f"k_fraction must be in (0, 1), got {k_fraction}")
    n = am.shape[1] * am.shape[2]
    k = int(np.floor(k_fraction * n + 0.5))
    if k == 0:
        raise ValueError(f"k_fraction {k_fraction} selects zero cells on {am.shape[1:]} maps")
    ta = _topk_indices(am[0], k)
    tb = _topk_indices(bm[0], k)
    inter = np.intersect1d(ta, tb, assume_unique=True).size
    return 100.0 * inter / k


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
