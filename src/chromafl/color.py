"""Color operators, perceptual difference, and PPM/PGM export.

Images are float arrays in [0, 1] with a trailing RGB axis.  Conversions and
operators run internally in float64 and hand back a float input's own dtype
and float64 for any other input, so a float32 pipeline stays float32 without
losing the 1e-6 round-trip guarantee, and an integer image is read as the
same values in float64.

The three perturbation operators compose in a fixed order (hue shift, then
channel rescale, then contrast jitter); operators at their identity settings
are skipped outright, which makes the identity parameters an exact identity
map and a partial parameter set equal to the lone active operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

def _clamped01(x: np.ndarray) -> np.ndarray:
    """Clamp out-of-[0,1] input instead of failing; in-range input passes as is."""
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        return np.clip(x, 0.0, 1.0)
    return x


def _check_rgb(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim < 1 or arr.shape[-1] != 3:
        raise ValueError(f"expected a trailing RGB axis of size 3, got shape {arr.shape}")
    return arr


def _rgb_to_hsv64(rgb: np.ndarray) -> np.ndarray:
    """Hexcone RGB -> float64 HSV with H in [0, 1); achromatic pixels get H = 0."""
    rgb = _clamped01(rgb.astype(np.float64, copy=True))
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    delta = maxc - minc
    chromatic = delta > 0

    safe = np.where(chromatic, delta, 1.0)
    h = np.zeros_like(maxc)
    h = np.where(chromatic & (maxc == r), np.mod((g - b) / safe, 6.0), h)
    h = np.where(chromatic & (maxc == g) & (maxc != r), (b - r) / safe + 2.0, h)
    h = np.where(chromatic & (maxc == b) & (maxc != r) & (maxc != g),
                 (r - g) / safe + 4.0, h)
    h = np.mod(h / 6.0, 1.0)

    s = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    return np.stack([h, s, maxc], axis=-1)


def _cast_like(out: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """A float64 result in ``arr``'s dtype if that is a float, else as it is."""
    return out.astype(arr.dtype, copy=False) if arr.dtype.kind == "f" else out


def _hsv_to_rgb64(hsv: np.ndarray) -> np.ndarray:
    hsv = hsv.astype(np.float64, copy=True)
    h = np.mod(hsv[..., 0], 1.0)
    sv = _clamped01(hsv[..., 1:])
    s, v = sv[..., 0], sv[..., 1]

    h6 = h * 6.0
    i = np.floor(h6).astype(np.int64) % 6
    f = h6 - np.floor(h6)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))

    # hexcone sector table: i -> (r, g, b)
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def hsv_to_rgb(x) -> np.ndarray:
    """Hexcone HSV -> RGB; H wraps modulo 1, S and V clamp to [0, 1]."""
    arr = _check_rgb(x)
    return _cast_like(_hsv_to_rgb64(arr), arr)


def hue_shift(x, delta) -> np.ndarray:
    """Rotate hue by ``delta`` (in turns) through HSV and back.

    A 1-D array of deltas gives one image per delta, stacked along a new
    leading axis, from one RGB -> HSV conversion of ``x``; each equals the
    scalar call's image.
    """
    arr = _check_rgb(x)
    d = np.asarray(delta, dtype=np.float64)
    if d.ndim > 1:
        raise ValueError(f"delta must be a scalar or 1-D, got shape {d.shape}")
    hsv = _rgb_to_hsv64(arr)
    if d.ndim:
        hsv = np.broadcast_to(hsv, d.shape + hsv.shape).copy()
        d = d.reshape(d.shape + (1,) * (arr.ndim - 1))
    hsv[..., 0] = np.mod(hsv[..., 0] + d, 1.0)
    return _cast_like(np.clip(_hsv_to_rgb64(hsv), 0.0, 1.0), arr)


def saturation_scale(x, factor: float) -> np.ndarray:
    """Scale HSV saturation by ``factor`` (clamped to [0, 1] saturation)."""
    if factor < 0:
        raise ValueError(f"saturation factor must be non-negative, got {factor}")
    arr = _check_rgb(x)
    hsv = _rgb_to_hsv64(arr)
    hsv[..., 1] = np.clip(hsv[..., 1] * factor, 0.0, 1.0)
    return _cast_like(np.clip(_hsv_to_rgb64(hsv), 0.0, 1.0), arr)


def channel_rescale(x, alpha) -> np.ndarray:
    """Scale each RGB channel by alpha_c in [0.5, 1.5], clamped to [0, 1]."""
    arr = _check_rgb(x)
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"alpha must have three entries, got shape {a.shape}")
    if (a < 0.5).any() or (a > 1.5).any():
        raise ValueError(f"channel scales must lie in [0.5, 1.5], got {a.tolist()}")
    return _cast_like(np.clip(arr.astype(np.float64) * a, 0.0, 1.0), arr)


def contrast_jitter(x, gamma: float, beta: float) -> np.ndarray:
    """x -> gamma * (x - mean(x)) + mean(x) + beta, clamped to [0, 1]."""
    if gamma <= 0:
        raise ValueError(f"contrast gamma must be positive, got {gamma}")
    arr = _check_rgb(x)
    xd = arr.astype(np.float64)
    mu = xd.mean(dtype=np.float64)
    return _cast_like(np.clip(gamma * (xd - mu) + mu + beta, 0.0, 1.0), arr)


@dataclass(frozen=True)
class PerturbationParams:
    """One point of the color-transform search space."""

    delta: float = 0.0
    alpha: tuple[float, float, float] = (1.0, 1.0, 1.0)
    gamma: float = 1.0
    beta: float = 0.0

    def as_row(self) -> tuple:
        return (self.delta, *self.alpha, self.gamma, self.beta)


def apply(theta: PerturbationParams, x) -> np.ndarray:
    """Apply hue shift, channel rescale and contrast jitter, in that order.

    Operators sitting at their identity parameters are skipped, so the
    identity theta returns ``x`` values untouched (as a fresh array).  An
    out-of-range alpha or gamma raises ``ValueError`` from its operator.
    """
    arr = _check_rgb(x)
    out = arr
    if theta.delta != 0.0:
        out = hue_shift(out, theta.delta)
    if tuple(theta.alpha) != (1.0, 1.0, 1.0):
        out = channel_rescale(out, theta.alpha)
    if theta.gamma != 1.0 or theta.beta != 0.0:
        out = contrast_jitter(out, theta.gamma, theta.beta)
    return arr.copy() if out is arr else out


def apply_each(thetas, x) -> np.ndarray:
    """``np.stack([apply(t, x) for t in thetas])``, hue-shifting ``x`` to every
    distinct non-zero delta in one call and applying the other operators on
    top."""
    arr = _check_rgb(x)
    deltas = [d for d in dict.fromkeys(t.delta for t in thetas) if d != 0.0]
    hued = dict(zip(deltas, hue_shift(arr, deltas))) if deltas else {}
    return np.stack([apply(replace(t, delta=0.0), hued.get(t.delta, arr))
                     for t in thetas])


# ------------------------------------------------------------------ CIEDE2000

# sRGB -> XYZ (D65), IEC 61966-2-1
_SRGB_TO_XYZ = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
_WHITE_D65 = np.array([0.95047, 1.0, 1.08883])


def srgb_to_lab(x) -> np.ndarray:
    """sRGB in [0,1] -> CIELAB (D65 white), vectorized over leading axes."""
    arr = _check_rgb(x).astype(np.float64)
    arr = np.clip(arr, 0.0, 1.0)
    linear = np.where(arr <= 0.04045, arr / 12.92, ((arr + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _SRGB_TO_XYZ.T
    t = xyz / _WHITE_D65
    eps = 216.0 / 24389.0
    kappa = 24389.0 / 27.0
    f = np.where(t > eps, np.cbrt(t), (kappa * t + 16.0) / 116.0)
    fx, fy, fz = f[..., 0], f[..., 1], f[..., 2]
    return np.stack([116.0 * fy - 16.0, 500.0 * (fx - fy), 200.0 * (fy - fz)], axis=-1)


def delta_e2000_lab(lab1, lab2) -> np.ndarray:
    """CIEDE2000 between Lab arrays (kL = kC = kH = 1), elementwise."""
    lab1 = np.asarray(lab1, dtype=np.float64)
    lab2 = np.asarray(lab2, dtype=np.float64)
    l1, a1, b1 = lab1[..., 0], lab1[..., 1], lab1[..., 2]
    l2, a2, b2 = lab2[..., 0], lab2[..., 1], lab2[..., 2]

    c1 = np.hypot(a1, b1)
    c2 = np.hypot(a2, b2)
    cbar = 0.5 * (c1 + c2)
    g = 0.5 * (1.0 - np.sqrt(cbar ** 7 / (cbar ** 7 + 25.0 ** 7)))
    a1p = (1.0 + g) * a1
    a2p = (1.0 + g) * a2
    c1p = np.hypot(a1p, b1)
    c2p = np.hypot(a2p, b2)

    h1p = np.degrees(np.arctan2(b1, a1p))
    h1p = np.where((b1 == 0) & (a1p == 0), 0.0, np.mod(h1p, 360.0))
    h2p = np.degrees(np.arctan2(b2, a2p))
    h2p = np.where((b2 == 0) & (a2p == 0), 0.0, np.mod(h2p, 360.0))

    dlp = l2 - l1
    dcp = c2p - c1p

    zero_chroma = (c1p * c2p) == 0
    hdiff = h2p - h1p
    dhp = np.where(np.abs(hdiff) <= 180.0, hdiff,
                   np.where(hdiff > 180.0, hdiff - 360.0, hdiff + 360.0))
    dhp = np.where(zero_chroma, 0.0, dhp)
    dhbig = 2.0 * np.sqrt(c1p * c2p) * np.sin(np.radians(dhp) / 2.0)

    lbp = 0.5 * (l1 + l2)
    cbp = 0.5 * (c1p + c2p)
    hsum = h1p + h2p
    hbp = np.where(np.abs(h1p - h2p) <= 180.0, 0.5 * hsum,
                   np.where(hsum < 360.0, 0.5 * (hsum + 360.0), 0.5 * (hsum - 360.0)))
    hbp = np.where(zero_chroma, hsum, hbp)

    t = (1.0
         - 0.17 * np.cos(np.radians(hbp - 30.0))
         + 0.24 * np.cos(np.radians(2.0 * hbp))
         + 0.32 * np.cos(np.radians(3.0 * hbp + 6.0))
         - 0.20 * np.cos(np.radians(4.0 * hbp - 63.0)))
    dtheta = 30.0 * np.exp(-(((hbp - 275.0) / 25.0) ** 2))
    rc = 2.0 * np.sqrt(cbp ** 7 / (cbp ** 7 + 25.0 ** 7))
    sl = 1.0 + 0.015 * (lbp - 50.0) ** 2 / np.sqrt(20.0 + (lbp - 50.0) ** 2)
    sc = 1.0 + 0.045 * cbp
    sh = 1.0 + 0.015 * cbp * t
    rt = -np.sin(np.radians(2.0 * dtheta)) * rc

    return np.sqrt((dlp / sl) ** 2 + (dcp / sc) ** 2 + (dhbig / sh) ** 2
                   + rt * (dcp / sc) * (dhbig / sh))


def mean_delta_e(x, y) -> float:
    """Mean per-pixel CIEDE2000 between two same-shape RGB images."""
    a = _check_rgb(x)
    b = _check_rgb(y)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    return float(delta_e2000_lab(srgb_to_lab(a), srgb_to_lab(b)).mean())


# ------------------------------------------------------------------ PPM I/O

def quantize_u8(x) -> np.ndarray:
    """[0,1] floats -> u8 with round-half-up, exact inverse of /255 decode."""
    arr = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    return np.floor(arr * 255.0 + 0.5).astype(np.uint8)


def write_ppm(path, img) -> None:
    """Write an (H, W, 3) image in [0,1] as a binary P6 PPM, or an (H, W) map
    in [0,1] as a binary P5 PGM; maxval 255 either way."""
    arr = np.asarray(img)
    if arr.ndim not in (2, 3) or arr.shape[2:] not in ((), (3,)):
        raise ValueError(f"PPM export expects (H, W, 3) or (H, W), got shape {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{'P6' if arr.ndim == 3 else 'P5'}\n{w} {h}\n255\n".encode("ascii"))
        f.write(quantize_u8(arr).tobytes())
