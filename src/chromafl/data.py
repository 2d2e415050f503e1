"""Datasets: a CIFAR-10 binary reader, a synthetic shapes generator, partitioning.

Images are float32 in [0, 1], channel-last.  The CIFAR-10 reader consumes the
standard binary batch layout (label byte followed by three 1024-byte color
planes per record) and refuses anything structurally off.  The shapes
generator builds class-colored geometric figures whose foreground color is
perceptually distinct from the background by construction: every
foreground its draw box allows sits at least ~13.7 CIEDE2000 units from every
background it allows, so each image draws one background.  It works in
whole-chunk array passes (one random draw, one color conversion and one
contrast check per chunk of images), with the same bytes as drawing each
value in turn.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import color as C

CIFAR10_RECORD = 3073  # 1 label byte + 3 * 32 * 32

IID = "iid"
LABEL_SKEW = "label_skew"


class DataError(ValueError):
    """A data file or dataset that violates its format contract."""


@dataclass
class LabeledDataset:
    """Images (N, H, W, 3) float32 in [0,1] with integer labels (N,)."""

    images: np.ndarray
    labels: np.ndarray
    classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels)
        if self.images.ndim != 4 or self.images.shape[3] != 3:
            raise DataError(f"images must be (N, H, W, 3), got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"labels must be ({self.images.shape[0]},), got shape {self.labels.shape}")
        if self.images.shape[0] and (self.labels.min() < 0
                                     or self.labels.max() >= self.classes):
            raise DataError("labels out of range for the declared class count")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices)
        return LabeledDataset(self.images[idx], self.labels[idx], self.classes)


# ---------------------------------------------------------------- CIFAR

def _decode_cifar_planes(raw: np.ndarray) -> np.ndarray:
    # (N, 3072) of R-plane, G-plane, B-plane -> (N, 32, 32, 3)
    planes = raw.reshape(-1, 3, 32, 32)
    return (planes.transpose(0, 2, 3, 1).astype(np.float32) / np.float32(255.0))


def _cifar_files(path) -> list[str]:
    """The batch files to read: ``path`` itself, or the regular ``.bin``
    files of the directory ``path``, in name order."""
    if os.path.isdir(path):
        try:
            names = sorted(n for n in os.listdir(path)
                           if n.endswith(".bin") and os.path.isfile(os.path.join(path, n)))
        except OSError as e:
            raise DataError(f"{path}: cannot read: {e.strerror or e}") from e
        if not names:
            raise DataError(f"{path}: directory holds no .bin batch files")
        return [os.path.join(path, n) for n in names]
    if os.path.isfile(path):
        return [str(path)]
    raise DataError(f"{path}: no such file or directory")


def _read_records(path: str, record: int) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from e
    if len(blob) == 0 or len(blob) % record:
        raise DataError(
            f"{path}: size {len(blob)} is not a positive multiple of {record}")
    return np.frombuffer(blob, dtype=np.uint8).reshape(-1, record)


def load_cifar10(path, limit: int | None = None) -> LabeledDataset:
    """Read CIFAR-10 binary batches from a file or a directory of files."""
    recs = []
    for f in _cifar_files(path):
        part = _read_records(f, CIFAR10_RECORD)
        if part[:, 0].max() > 9:
            raise DataError(f"{f}: label byte exceeds 9")
        recs.append(part)
    recs = np.concatenate(recs, axis=0)
    if limit is not None:
        if limit < 1:
            raise DataError(f"limit must be >= 1, got {limit}")
        recs = recs[:limit]
    labels = recs[:, 0].astype(np.int64)
    images = _decode_cifar_planes(recs[:, 1:])
    return LabeledDataset(images, labels, classes=10)


def write_cifar10(path, dataset: LabeledDataset) -> None:
    """Encode a 32x32 dataset into the CIFAR-10 binary batch layout.

    Quantization is round-half-up, the exact inverse of the reader's /255,
    so decode -> encode round-trips byte-for-byte.
    """
    if dataset.images.shape[1:] != (32, 32, 3):
        raise DataError(
            f"CIFAR-10 records are 32x32x3, got images {dataset.images.shape[1:]}")
    if len(dataset) and dataset.labels.max() > 9:
        raise DataError("CIFAR-10 labels must be 0..9")
    u8 = C.quantize_u8(dataset.images)  # (N, 32, 32, 3)
    planes = u8.transpose(0, 3, 1, 2).reshape(len(dataset), 3072)
    recs = np.concatenate(
        [dataset.labels.astype(np.uint8)[:, None], planes], axis=1)
    with open(path, "wb") as f:
        f.write(recs.tobytes())


# ---------------------------------------------------------------- shapes

def _shape_mask(shape_id: int, yy: np.ndarray, xx: np.ndarray,
                cy: float, cx: float, r: float) -> np.ndarray:
    """Pixels of shape ``shape_id`` centred at (cy, cx) with size ``r`` on the
    float64 row and column grids ``yy`` and ``xx``."""
    dy = yy - cy
    dx = xx - cx
    if shape_id == 0:  # disc
        return dy * dy + dx * dx <= r * r
    if shape_id == 1:  # square
        return (np.abs(dy) <= r) & (np.abs(dx) <= r)
    if shape_id == 2:  # upward triangle
        return (dy >= -r) & (dy <= r) & (np.abs(dx) <= (dy + r) / 2.0)
    if shape_id == 3:  # diamond
        return np.abs(dy) + np.abs(dx) <= r
    if shape_id == 4:  # plus
        arm = r / 3.0
        return ((np.abs(dy) <= arm) & (np.abs(dx) <= r)) | \
               ((np.abs(dx) <= arm) & (np.abs(dy) <= r))
    if shape_id == 5:  # ring
        d2 = dy * dy + dx * dx
        return (d2 <= r * r) & (d2 >= (0.55 * r) ** 2)
    if shape_id == 6:  # horizontal bar
        return (np.abs(dy) <= r / 2.5) & (np.abs(dx) <= r)
    if shape_id == 7:  # vertical bar
        return (np.abs(dx) <= r / 2.5) & (np.abs(dy) <= r)
    if shape_id == 8:  # X cross
        band = r / 2.8
        return (np.abs(dy - dx) <= band) & (np.abs(dy) <= r) & (np.abs(dx) <= r) | \
               (np.abs(dy + dx) <= band) & (np.abs(dy) <= r) & (np.abs(dx) <= r)
    if shape_id == 9:  # hollow square
        inside = (np.abs(dy) <= r) & (np.abs(dx) <= r)
        hole = (np.abs(dy) <= 0.5 * r) & (np.abs(dx) <= 0.5 * r)
        return inside & ~hole
    raise ValueError(f"no shape with id {shape_id}")


MIN_FG_BG_DELTA_E = 10.0

# images built per pass of generate_shapes
SHAPES_CHUNK = 32

# (lo, hi) of the per-pixel noise, drawn after an image's 9 scalars
_NOISE = (-0.02, 0.02)


def _draw_box(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high ends of the 9 uniform scalars each image draws, in draw
    order: foreground hue offset, S and V; background H, S and V; centre
    offsets (y, x); radius in units of ``size``."""
    e = size / 8.0
    return (np.array([-0.02, 0.8, 0.75, 0.0, 0.0, 0.05, -e, -e, 0.26]),
            np.array([0.02, 1.0, 0.95, 1.0, 0.2, 0.35, e, e, 0.36]))


def generate_shapes(n: int, classes: int = 10, size: int = 32,
                    seed: int = 0) -> LabeledDataset:
    """Synthesize the shapes dataset: one geometric figure per image.

    Classes map one-to-one onto shapes, and each class owns a band of hue
    (bands are 1/classes wide, so mean per-class hues sit at least 0.05
    apart for <= 10 classes).  Foreground and background colors differ by
    at least 10 CIEDE2000 units.

    Images are built ``SHAPES_CHUNK`` at a time from one ``rng.random`` draw
    per chunk, each row one image's scalars and then its noise.  A column
    maps as ``lo + (hi - lo) * u``, which is how ``Generator.uniform``
    computes its values, so the images are those of drawing each value with
    ``uniform`` in turn.  Each image draws one background: over the whole
    draw box the smallest foreground/background CIEDE2000 is about 13.7, so
    the contrast check always passes, and a failure raises ``RuntimeError``.
    The check runs on the whole chunk's Lab arrays, whose last bits may
    differ from a one-pair call; that cannot flip a threshold with a
    3.7-unit margin.
    """
    if not 2 <= classes <= 10:
        raise ValueError(f"classes must be in 2..10, got {classes}")
    if size < 16:
        raise ValueError(f"size must be >= 16, got {size}")
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A9E5)))
    images = np.empty((n, size, size, 3), dtype=np.float32)
    labels = (np.arange(n) % classes).astype(np.int64)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    lo, hi = _draw_box(size)
    span = hi - lo
    chunk = min(n, SHAPES_CHUNK)
    draws = np.empty((chunk, 9 + 3 * size * size))
    canvas = np.empty((chunk, size, size, 3))
    masks = np.empty((chunk, size, size), dtype=bool)
    for start in range(0, n, chunk):
        k = min(chunk, n - start)
        u = rng.random(out=draws[:k])
        scalars = lo + span * u[:, :9]
        # (image, fg/bg, 1, HSV): srgb_to_lab then multiplies 1x3 rows, which
        # numpy hands to gemv; a float64 GEMM would touch OpenBLAS buffer pages
        # that the float32 models never do (0.45 MB more peak RSS in `fl`)
        hsv = scalars[:, :6].reshape(k, 2, 1, 3)
        hsv[:, 0, 0, 0] = (labels[start:start + k] / classes + hsv[:, 0, 0, 0]) % 1.0
        rgb = C.hsv_to_rgb(hsv)
        lab = C.srgb_to_lab(rgb)
        if (C.delta_e2000_lab(lab[:, 0], lab[:, 1]) < MIN_FG_BG_DELTA_E).any():
            raise RuntimeError(f"a foreground/background pair is under "
                               f"{MIN_FG_BG_DELTA_E} CIEDE2000 units")
        cy = size / 2.0 + scalars[:, 6, None, None]
        cx = size / 2.0 + scalars[:, 7, None, None]
        r = size * scalars[:, 8, None, None]
        mask = masks[:k]
        for first in range(min(classes, k)):  # rows of one class are `classes` apart
            rows = slice(first, k, classes)
            mask[rows] = _shape_mask(int(labels[start + first]), yy, xx,
                                     cy[rows], cx[rows], r[rows])
        noise = u[:, 9:]  # in place on 2-D views: a 4-D view would be copied
        noise *= _NOISE[1] - _NOISE[0]
        noise += _NOISE[0]
        img = canvas[:k]
        img[:] = rgb[:, 1, None]
        np.copyto(img, rgb[:, 0, None], where=mask[..., None])
        flat = img.reshape(k, -1)
        flat += noise
        np.clip(flat, 0.0, 1.0, out=flat)
        images[start:start + k] = img
    return LabeledDataset(images, labels, classes=classes)


# ---------------------------------------------------------------- partition

def partition(dataset: LabeledDataset, n_clients: int, mode: str = IID,
              seed: int = 0) -> list[np.ndarray]:
    """Split sample indices across clients; the union is exactly the dataset.

    ``iid`` shuffles once and hands out contiguous near-equal slices.
    ``label_skew`` gives each client two dominant classes that supply ~80%
    of its samples, the rest drawn from the remaining pool.
    """
    n = len(dataset)
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if n_clients > n:
        raise ValueError(f"cannot split {n} samples across {n_clients} clients")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9A27)))
    sizes = np.full(n_clients, n // n_clients, dtype=np.int64)
    sizes[: n % n_clients] += 1

    if mode == IID:
        order = rng.permutation(n)
        cuts = np.cumsum(sizes)[:-1]
        return [np.sort(part) for part in np.split(order, cuts)]

    if mode != LABEL_SKEW:
        raise ValueError(f"unknown partition mode {mode!r}")

    classes = dataset.classes
    pools = {c: list(rng.permutation(np.flatnonzero(dataset.labels == c)))
             for c in range(classes)}
    assignments: list[list[int]] = [[] for _ in range(n_clients)]
    # dominant draw: ~80% of each client's quota from its two dominant classes
    for i in range(n_clients):
        dom = (2 * i) % classes, (2 * i + 1) % classes
        want = int(round(0.8 * sizes[i]))
        for k in range(want):
            pool = pools[dom[k % 2]] or pools[dom[(k + 1) % 2]]
            if not pool:
                break
            assignments[i].append(pool.pop())
    # everything left over is shuffled and fills the remaining quotas exactly
    leftovers = [idx for c in range(classes) for idx in pools[c]]
    leftovers = list(rng.permutation(np.array(leftovers, dtype=np.int64))) \
        if leftovers else []
    for i in range(n_clients):
        while len(assignments[i]) < sizes[i]:
            assignments[i].append(leftovers.pop())
    return [np.sort(np.array(a, dtype=np.int64)) for a in assignments]

