"""The two small CNNs, weight initialization, training, and prediction.

Both architectures share the layer vocabulary of :mod:`chromafl.tensor`.
A *stage* is a convolution, its ReLU, and (for some stages) an immediately
following 2x2 max pool; the tensor captured for saliency is a stage's final
activation, i.e. after its ReLU and pooling.  With 32x32 inputs the default
capture stage of either architecture produces an 8x8 feature map.

* ``ARCH_A``: conv3x3(3->16)+pool, conv3x3(16->32)+pool, conv3x3(32->32),
  dense(2048->classes)
* ``ARCH_B``: conv3x3(3->8), conv3x3(8->16)+pool, conv3x3(16->32)+pool,
  dense(2048->classes)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T

KERNEL = 3
PREDICT_CHUNK = 256  # images per forward in predict_labels; bounds its dense input
FORWARD_BLOCK = 32  # most images per block of a forward's untaped conv stages


@dataclass(frozen=True)
class _Stage:
    name: str
    cin: int
    cout: int
    pool: bool


_ARCHS: dict[str, tuple[_Stage, ...]] = {
    "ARCH_A": (
        _Stage("conv1", 3, 16, True),
        _Stage("conv2", 16, 32, True),
        _Stage("conv3", 32, 32, False),
    ),
    "ARCH_B": (
        _Stage("conv1", 3, 8, False),
        _Stage("conv2", 8, 16, True),
        _Stage("conv3", 16, 32, True),
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture selector plus the saliency capture point."""

    arch: str = "ARCH_A"
    input_size: int = 32
    classes: int = 10
    capture: str = "conv3"

    def __post_init__(self):
        if self.arch not in _ARCHS:
            raise ValueError(f"unknown architecture {self.arch!r}; "
                             f"choose from {sorted(_ARCHS)}")
        if self.classes < 2:
            raise ValueError(f"need at least two classes, got {self.classes}")
        names = [s.name for s in _ARCHS[self.arch]]
        if self.capture not in names:
            raise ValueError(f"capture stage {self.capture!r} not in {names}")
        if self.feature_size(names[-1]) < 1:
            raise ValueError(f"input size {self.input_size} too small for {self.arch}")

    @property
    def stages(self) -> tuple[_Stage, ...]:
        return _ARCHS[self.arch]

    def feature_size(self, stage_name: str) -> int:
        """Spatial side of a stage's output.  The walk to it halves the side
        at every pooling stage and raises ``ValueError`` at the first one
        that gets an odd side, or when no stage has that name."""
        size = self.input_size
        for st in self.stages:
            if st.pool:
                if size % 2:
                    raise ValueError(
                        f"input size {self.input_size} does not pool evenly at {st.name}")
                size //= 2
            if st.name == stage_name:
                return size
        raise ValueError(f"unknown stage {stage_name!r}")

    def flat_features(self) -> int:
        last = self.stages[-1]
        return self.feature_size(last.name) ** 2 * last.cout


def _weight_shapes(spec: ModelSpec) -> list[tuple[int, ...]]:
    """The weight list's shapes: each stage's kernel and bias, then the
    dense head's weight and bias."""
    shapes = []
    for st in spec.stages:
        shapes += [(KERNEL, KERNEL, st.cin, st.cout), (st.cout,)]
    return shapes + [(spec.flat_features(), spec.classes), (spec.classes,)]


def build(spec: ModelSpec, seed: int) -> list[np.ndarray]:
    """He-uniform conv/dense weights and zero biases, in the order of
    :func:`_weight_shapes`; the fan-in of a weight is all but its last axis."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights: list[np.ndarray] = []
    for shape in _weight_shapes(spec):
        limit = np.sqrt(6.0 / math.prod(shape[:-1]))
        weights.append(rng.uniform(-limit, limit, size=shape).astype(T.DTYPE)
                       if len(shape) > 1 else np.zeros(shape, dtype=T.DTYPE))
    return weights


def _check_weights(spec: ModelSpec, weights) -> list[np.ndarray]:
    shapes = _weight_shapes(spec)
    ws = [np.asarray(w) for w in weights]
    got = [w.shape for w in ws]
    if got != shapes:
        raise ValueError(f"weights do not fit {spec.arch}: expected {shapes}, got {got}")
    return ws


def _stages(spec: ModelSpec, params: list[T.Tensor], h, tape: T.Tape | None,
            ks: range) -> T.Tensor:
    """Stages ``ks`` (conv, ReLU, pool where the stage has one) applied to ``h``."""
    for k in ks:
        h = T.relu(tape, T.conv2d(tape, h, params[2 * k], params[2 * k + 1]))
        if spec.stages[k].pool:
            h = T.maxpool2(tape, h)
    return h


def _run_stages(spec: ModelSpec, params: list[T.Tensor], x: np.ndarray,
                tape: T.Tape | None, want: str | None) -> tuple[T.Tensor, T.Tensor | None]:
    """Logits and the ``want`` stage's activation.

    The stages up to and including ``want`` run untaped, on near-equal
    blocks of at most ``FORWARD_BLOCK`` images, so their im2col buffers and
    activations stay the size of a block; each output row of a convolution
    is the same GEMM row whatever the block, so the bits do not depend on
    it.  The blocks' activations are gathered into ``captured``.  The later
    stages and ``dense`` run once on the whole batch, recorded on ``tape``:
    all that a gradient w.r.t. ``captured`` can reach.  ``dense`` is not
    blocked because BLAS may round a GEMM with few rows differently, which
    would move logit bits.

    ``want=None`` (training) runs every layer on the whole batch and tapes
    it.  The image batch ``x`` goes in as an ndarray, a constant to the
    tape, so no backward forms its gradient."""
    names = [st.name for st in spec.stages]
    cut = 0 if want is None else names.index(want) + 1
    h = x
    captured = None
    if cut:
        edges = T._block_edges(x.shape[0], FORWARD_BLOCK)
        parts = [_stages(spec, params, x[lo:hi], None, range(cut)).data
                 for lo, hi in zip(edges, edges[1:])]
        h = captured = T.Tensor(parts[0] if len(parts) == 1 else np.concatenate(parts))
    h = _stages(spec, params, h, tape, range(cut, len(names)))
    logits = T.dense(tape, h, params[-2], params[-1])
    return logits, captured


def forward(spec: ModelSpec, weights, x, tape: T.Tape | None = None):
    """Run the network on a batch ``x`` of shape (B, H, W, 3); returns
    ``(logits, captured, tape)`` as tape tensors.  A single image is
    passed as a batch of one (``x[None]``).

    ``captured`` is the final activation of ``spec.capture``, the stage
    that ``ModelSpec`` checked, and sits on the same tape as the logits, so
    saliency code can differentiate through it.
    The stages up to it run on blocks of at most ``FORWARD_BLOCK`` images
    and the later ones and ``dense`` on the whole batch, with the bits of
    one whole-batch pass (see :func:`_run_stages`).
    The tape holds only the layers after the capture stage, so it gives
    gradients w.r.t. ``captured`` and later tensors; asking it for a
    gradient w.r.t. an earlier weight raises ``ValueError``.  Non-finite
    logits raise ``FloatingPointError``.
    """
    ws = _check_weights(spec, weights)
    xb = np.asarray(x)
    if xb.ndim != 4:
        raise ValueError(f"images must be (B, H, W, 3), got shape {xb.shape}")
    if xb.shape[1] != spec.input_size or xb.shape[2] != spec.input_size or xb.shape[3] != 3:
        raise ValueError(f"expected {spec.input_size}x{spec.input_size} RGB input, "
                         f"got shape {xb.shape[1:]}")
    params = [T.Tensor(w) for w in ws]
    # an overflow shows as non-finite logits, which raise: no warning needed
    with np.errstate(over="ignore", invalid="ignore"):
        logits, captured = _run_stages(spec, params, xb, tape, spec.capture)
    if not np.isfinite(logits.data).all():
        raise FloatingPointError(f"{spec.arch} produced non-finite logits")
    return logits, captured, tape


def train(spec: ModelSpec, weights, dataset, epochs: int, lr: float = 0.05,
          batch: int = 32, seed: int = 0) -> list[np.ndarray]:
    """Plain SGD on softmax cross-entropy; returns new weights.

    The minibatch order is a pure function of ``seed`` and the epoch index,
    so identical inputs give bit-identical weights.  ``dataset`` is anything
    with ``images`` (N, H, W, 3) and integer ``labels`` (N,).  A step whose
    loss is not finite raises ``FloatingPointError``.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")
    images = np.asarray(dataset.images)
    labels = np.asarray(dataset.labels)
    n = images.shape[0]
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if labels.shape != (n,):
        raise ValueError(f"labels must be ({n},), got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= spec.classes:
        raise ValueError("labels out of range for the model's class count")

    ws = [np.asarray(w).copy() for w in _check_weights(spec, weights)]
    # an overflow shows as a non-finite loss (or, after the last step, as
    # non-finite logits in the next forward), which raise: no warning needed
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = np.random.default_rng(
                np.random.SeedSequence((seed, epoch))).permutation(n)
            for start in range(0, n, batch):
                idx = order[start:start + batch]
                tape = T.Tape()
                params = [T.Tensor(w) for w in ws]
                logits, _ = _run_stages(spec, params, images[idx], tape, None)
                loss = T.softmax_cross_entropy(tape, logits, labels[idx])
                if not np.isfinite(loss.data):
                    raise FloatingPointError(
                        f"training loss is not finite (epoch {epoch}, step {start // batch})")
                grads = tape.gradients(loss, params)
                ws = T.sgd_step(ws, grads, lr)
    return ws


def predict_labels(spec: ModelSpec, weights, images) -> np.ndarray:
    """Predicted class of every image, run through the model
    ``PREDICT_CHUNK`` at a time; ties resolve to the lower class index.

    Each chunk's convolution stages run on blocks of ``FORWARD_BLOCK``
    images, which bound the buffers; its ``dense`` runs on the whole chunk,
    so the chunking still sets the bits of the last chunk's logits."""
    images = np.asarray(images)
    return np.concatenate([
        forward(spec, weights, images[start:start + PREDICT_CHUNK])[0].data.argmax(axis=1)
        for start in range(0, images.shape[0], PREDICT_CHUNK)])


def hit_rate(preds, labels) -> float:
    """Fraction of positions where two label arrays agree."""
    preds = np.asarray(preds)
    return int(np.count_nonzero(preds == np.asarray(labels))) / preds.shape[0]
