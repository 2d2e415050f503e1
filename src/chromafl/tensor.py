"""Dense tensors with reverse-mode differentiation for small CNNs.

Primitives cover exactly what the model zoo needs: stride-1 zero-padded
convolution, 2x2 max pooling, ReLU, dense layers and a fused softmax
cross-entropy (:func:`global_avg_pool` serves the acceptance suite only).
Every primitive optionally records onto a :class:`Tape`; gradients of any
recorded scalar with respect to any recorded tensor are obtained by
replaying the whole tape in reverse.  A tape records only what it is
handed: training tapes every layer, while a Grad-CAM forward
(``models.forward`` with a tape) holds only the layers after the capture
stage, which are all its gradient can reach.

A tape keeps only what a backward reads.  It tracks tensors by serial
number, not by holding them, and each backward closure captures only the
arrays it reads plus the shapes and dtypes it needs: :func:`conv2d` keeps
its zero-padded input and not its im2col columns (``kh * kw`` times larger;
the backward rebuilds the same bytes for the weight gradient and drops them
before the input gradient), :func:`maxpool2` its window indices,
:func:`relu` its mask.  So an activation is freed in the forward pass once
the next layer has consumed it, and the replay drops a tensor's adjoint
once its producer's backward has run.

``models.forward`` runs the untaped convolution stages on blocks of at most
``models.FORWARD_BLOCK`` images, so their im2col buffers stay in cache, and
:func:`conv2d` forms its input gradient on blocks of at most ``DX_BLOCK``
images.  Each row of either GEMM is one row of the whole-batch GEMM (its
reduction runs over taps or channels, never over images), so no block
moves a bit.  :func:`dense` always sees the whole batch, as BLAS may round
a GEMM with few rows differently.

Conventions:

* arrays are batch-first; images are ``(B, H, W, C)``,
* compute dtype follows the inputs (the pipeline feeds float32; reductions
  such as means and bias gradients accumulate in float64 before casting back),
* all primitives are bitwise deterministic for fixed inputs,
* a plain ndarray passed where a primitive takes a Tensor is a constant: no
  caller holds a tensor for it, so no gradient target can name it, and
  :func:`conv2d` forms no input gradient for it (the image batch is one),
* :func:`conv2d` builds im2col by copying each kernel row's ``kw * Cin``
  contiguous run of the padded input as one item, and scatters the input
  gradient tap by tap: each tap's column gradient is copied to one
  contiguous block, so each of the ``kh * kw`` ordered adds into the zeroed
  buffer runs over whole rows,
* :func:`maxpool2` takes each window's maximum by ``np.maximum``, which
  keeps the first NaN's bits; equal values other than signed zeros have
  equal bits, so which of them wins a tie moves no byte.
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable, NamedTuple, Sequence

import numpy as np

DTYPE = np.float32
DX_BLOCK = 8  # most images per block of conv2d's input gradient

WEIGHTS_MAGIC = b"CDWT"
WEIGHTS_VERSION = 1


_serials = itertools.count()


class Tensor:
    """A shaped float array with a process-wide serial number, which is
    what tapes track.

    Thin wrapper over a numpy array.  Operations never mutate ``data`` in
    place.  Unlike ``id()``, a serial is never reused, so a tape can name
    a tensor that has since been freed.
    """

    __slots__ = ("data", "serial")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.size == 0:
            raise ValueError("tensor dimensions must all be >= 1")
        self.data = arr
        self.serial = next(_serials)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a scalar tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class _Node(NamedTuple):
    """One primitive application: the serials of its output and inputs, and
    the backward that maps the output's adjoint to the inputs' adjoints."""

    out: int
    inputs: tuple[int, ...]
    backward: Callable[[np.ndarray], tuple]


def _block_edges(n: int, most: int) -> list[int]:
    """Edges of the fewest near-equal blocks of at most ``most`` items that
    cover ``range(n)``, so that no block is a sliver."""
    blocks = max(1, -(-n // most))
    return [n * i // blocks for i in range(blocks + 1)]


class Tape:
    """Ordered record of primitive applications.

    The tape holds the serials of the tensors it has seen, not the tensors,
    and each node's backward holds only what it reads, so recording pins no
    activation.  It can be replayed any number of times.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._seen: set[int] = set()

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...],
               backward: Callable[[np.ndarray], tuple]) -> None:
        serials = tuple(t.serial for t in inputs)
        self._nodes.append(_Node(out.serial, serials, backward))
        self._seen.add(out.serial)
        self._seen.update(serials)

    def recorded(self, t: Tensor) -> bool:
        return t.serial in self._seen

    def gradients(self, output: Tensor, targets: Sequence[Tensor]) -> list[np.ndarray]:
        """Adjoints of a recorded scalar w.r.t. each target, in target order.

        A recorded target that the output genuinely does not depend on gets a
        zero adjoint; an unrecorded target is an error (it was never part of
        this computation, so asking for its gradient is a bug).

        The whole tape is replayed, last node first.  No node recorded
        before a tensor's producer can feed it, so once the producer's
        backward has run the tensor's adjoint is dropped, unless it is a
        target.  Every target the commands ask for is a leaf that no node
        produced (a weight, or a Grad-CAM ``captured`` built untaped), so
        each node may feed one.
        """
        if output.size != 1:
            raise ValueError("gradients() expects a scalar output tensor")
        if not self.recorded(output):
            raise ValueError("output tensor was not recorded on this tape")
        for t in targets:
            if not self.recorded(t):
                raise ValueError("gradient target was not recorded on this tape")
        keep = {t.serial for t in targets}
        table: dict[int, np.ndarray] = {output.serial: np.ones_like(output.data)}
        for node in reversed(self._nodes):
            g = table.get(node.out) if node.out in keep else table.pop(node.out, None)
            if g is None:
                continue
            for s, gi in zip(node.inputs, node.backward(g)):
                if gi is None:
                    continue
                prev = table.get(s)
                table[s] = gi if prev is None else prev + gi
        return [table.get(t.serial, np.zeros_like(t.data)) for t in targets]


def grad_wrt(tape: Tape, scalar_output: Tensor, target: Tensor) -> np.ndarray:
    """Gradient of a recorded scalar with respect to one recorded tensor."""
    return tape.gradients(scalar_output, [target])[0]


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The ``(B * H * W, kh * kw * Cin)`` columns of a C-order padded input
    ``(B, H + kh - 1, W + kw - 1, Cin)``.

    Kernel row i of output pixel (y, x) is the contiguous run
    ``xp[:, y + i, x:x + kw, :]``; one void item per run copies it whole.
    """
    bsz, hp, wp, ci = xp.shape
    h, wdt = hp - kh + 1, wp - kw + 1
    sb, sh, sw, _ = xp.strides
    run = np.dtype((np.void, kw * ci * xp.itemsize))
    rows = np.ndarray((bsz, h, wdt, kh), dtype=run, buffer=xp,
                      strides=(sb, sh, sw, sh))
    cols = np.ascontiguousarray(rows).view(xp.dtype)
    return cols.reshape(bsz * h * wdt, kh * kw * ci)


def conv2d(tape: Tape | None, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Stride-1 convolution with zero padding that preserves H and W.

    ``x`` is ``(B, H, W, Cin)``, ``w`` is ``(kh, kw, Cin, Cout)`` with odd
    kernel sides, ``b`` is ``(Cout,)``.  An ``x`` given as a plain ndarray is
    a constant: the backward returns ``None`` for its gradient.
    """
    x_const = not isinstance(x, Tensor)
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 4:
        raise ValueError(f"conv2d input must be (B, H, W, C), got shape {xd.shape}")
    if wd.ndim != 4:
        raise ValueError(f"conv2d weight must be (kh, kw, Cin, Cout), got shape {wd.shape}")
    kh, kw, ci, co = wd.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("conv2d kernel sides must be odd for same-padding")
    if xd.shape[3] != ci:
        raise ValueError(
            f"conv2d channel mismatch: input has {xd.shape[3]}, weight expects {ci}")
    if bd.shape != (co,):
        raise ValueError(f"conv2d bias must be ({co},), got shape {bd.shape}")
    bsz, h, wdt, _ = xd.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((bsz, h + 2 * ph, wdt + 2 * pw, ci), dtype=xd.dtype)  # C order
    xp[:, ph:ph + h, pw:pw + wdt, :] = xd
    wmat = wd.reshape(kh * kw * ci, co)
    y = _im2col(xp, kh, kw) @ wmat
    # the bias goes into the GEMM result in place unless it widens the dtype
    y = np.add(y, bd, out=y) if np.can_cast(bd.dtype, y.dtype) else y + bd
    out = Tensor(y.reshape(bsz, h, wdt, co))
    if tape is not None:
        # the backward reads the padded input and wmat, never x; it rebuilds
        # the columns (the same bytes) for dw and drops them before dx
        wshape, bdtype, dtype = wd.shape, bd.dtype, xd.dtype

        def backward(g: np.ndarray):
            gmat = g.reshape(bsz * h * wdt, co)
            dw = (_im2col(xp, kh, kw).T @ gmat).reshape(wshape)
            db = gmat.sum(axis=0, dtype=np.float64).astype(bdtype, copy=False)
            if x_const:
                return None, dw, db
            dxp = np.zeros((bsz, h + 2 * ph, wdt + 2 * pw, ci), dtype=dtype)
            edges = _block_edges(bsz, DX_BLOCK)
            for lo, hi in zip(edges, edges[1:]):
                # a block's dcols rows are the whole batch's rows (K = Cout)
                dcols = gmat[lo * h * wdt:hi * h * wdt] @ wmat.T
                dcols = dcols.reshape(hi - lo, h, wdt, kh, kw, ci)
                dblk = dxp[lo:hi]
                for i in range(kh):
                    for j in range(kw):
                        # one contiguous copy of the tap lets the add run whole rows
                        dblk[:, i:i + h, j:j + wdt, :] += np.ascontiguousarray(
                            dcols[:, :, :, i, j, :])
            dx = dxp[:, ph:ph + h, pw:pw + wdt, :]
            return dx, dw, db
        tape.record(out, (x, w, b), backward)
    return out


def relu(tape: Tape | None, x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0))
    if tape is not None:
        mask = x.data > 0  # subgradient 0 at the kink

        def backward(g: np.ndarray):
            return (g * mask,)
        tape.record(out, (x,), backward)
    return out


def _window(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four elements of each 2x2 window as strided views; element
    k = 2 * i + j sits at ``v[:, i::2, j::2]``."""
    return v[:, 0::2, 0::2], v[:, 0::2, 1::2], v[:, 1::2, 0::2], v[:, 1::2, 1::2]


def maxpool2(tape: Tape | None, x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2.  A window holding a NaN outputs its
    first NaN; the gradient goes to the first maximum in row-major window
    order."""
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"maxpool2 input must be (B, H, W, C), got shape {xd.shape}")
    h, wdt = xd.shape[1:3]
    if h % 2 or wdt % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {h}x{wdt}")
    a, b, c, d = _window(xd)
    ab, cd = np.maximum(a, b), np.maximum(c, d)
    out = Tensor(np.maximum(ab, cd))
    if tape is not None:
        top, bottom, lower = b > a, d > c, cd > ab
        # idx = 2 + bottom where lower holds, else top
        idx = lower.view(np.int8) << 1
        idx |= (top ^ (lower & (top ^ bottom))).view(np.int8)
        shape, dtype = xd.shape, xd.dtype  # the backward does not pin x
        bits = np.dtype(f"u{xd.dtype.itemsize}")

        def backward(g: np.ndarray):
            gbits = np.asarray(g, dtype=dtype).view(bits)
            dx = np.empty(shape, dtype)  # the four strided views cover every element
            dxbits = dx.view(bits)
            for k in range(4):
                np.bitwise_and(gbits, np.negative(idx == k, dtype=bits),
                               out=dxbits[:, k // 2::2, k % 2::2])
            return (dx,)
        tape.record(out, (x,), backward)
    return out


def dense(tape: Tape | None, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fully connected layer; flattens everything after the batch axis."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim < 2:
        raise ValueError(f"dense input must be batched, got shape {xd.shape}")
    bsz = xd.shape[0]
    xf = xd.reshape(bsz, -1)
    if wd.ndim != 2 or xf.shape[1] != wd.shape[0]:
        raise ValueError(
            f"dense shape mismatch: input flattens to {xf.shape[1]}, weight is {wd.shape}")
    if bd.shape != (wd.shape[1],):
        raise ValueError(f"dense bias must be ({wd.shape[1]},), got shape {bd.shape}")
    out = Tensor(xf @ wd + bd)
    if tape is not None:
        def backward(g: np.ndarray):
            dw = xf.T @ g
            db = g.sum(axis=0, dtype=np.float64).astype(bd.dtype, copy=False)
            dx = (g @ wd.T).reshape(xd.shape)
            return dx, dw, db
        tape.record(out, (x, w, b), backward)
    return out


def global_avg_pool(tape: Tape | None, x: Tensor) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"global_avg_pool input must be (B, H, W, C), got shape {xd.shape}")
    bsz, h, wdt, c = xd.shape
    out = Tensor(xd.mean(axis=(1, 2), dtype=np.float64).astype(xd.dtype, copy=False))
    if tape is not None:
        def backward(g: np.ndarray):
            dx = np.broadcast_to(g[:, None, None, :] / (h * wdt), xd.shape)
            return (dx.astype(xd.dtype, copy=False),)
        tape.record(out, (x,), backward)
    return out


def softmax_cross_entropy(tape: Tape | None, logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy over the batch, stable via logsumexp."""
    logits = _as_tensor(logits)
    ld = logits.data
    if ld.ndim != 2:
        raise ValueError(f"softmax_cross_entropy expects (B, classes), got shape {ld.shape}")
    lab = np.asarray(labels)
    bsz, nclass = ld.shape
    if lab.shape != (bsz,):
        raise ValueError(f"labels must be ({bsz},), got shape {lab.shape}")
    if lab.min() < 0 or lab.max() >= nclass:
        raise ValueError("labels out of range for the logits")
    z = ld.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    logp = z - np.log(sez)
    loss = Tensor(np.asarray(-logp[np.arange(bsz), lab].mean(), dtype=ld.dtype))
    if tape is not None:
        def backward(g: np.ndarray):
            p = ez / sez
            p[np.arange(bsz), lab] -= 1.0
            dl = p * (float(g.reshape(())) / bsz)
            return (dl.astype(ld.dtype, copy=False),)
        tape.record(loss, (logits,), backward)
    return loss


def class_score(tape: Tape | None, logits: Tensor, class_ids) -> Tensor:
    """Scalar sum of one selected logit per batch row.

    For a single-row batch this is just that row's class logit; for larger
    batches the sum makes one backward pass yield every per-sample gradient
    at once (rows are independent).
    """
    logits = _as_tensor(logits)
    ld = logits.data
    if ld.ndim != 2:
        raise ValueError(f"class_score expects (B, classes), got shape {ld.shape}")
    bsz, nclass = ld.shape
    ids = np.broadcast_to(np.asarray(class_ids, dtype=np.int64), (bsz,))
    if ids.min() < 0 or ids.max() >= nclass:
        raise ValueError("class id out of range for the logits")
    rows = np.arange(bsz)
    # a sum of huge finite logits may overflow the cast; callers read only the
    # gradient, which the backward seeds with g, so the value never matters
    with np.errstate(over="ignore"):
        out = Tensor(np.asarray(ld[rows, ids].sum(dtype=np.float64), dtype=ld.dtype))
    if tape is not None:
        def backward(g: np.ndarray):
            dl = np.zeros_like(ld)
            dl[rows, ids] = float(g.reshape(()))
            return (dl,)
        tape.record(out, (logits,), backward)
    return out


def sgd_step(weights: Sequence[np.ndarray], grads: Sequence[np.ndarray],
             lr: float) -> list[np.ndarray]:
    """One vanilla SGD update; returns new arrays, inputs untouched."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(weights) != len(grads):
        raise ValueError("weights and grads must have the same length")
    stepped = []
    for p, g in zip(weights, grads):
        p = np.asarray(p)
        g = np.asarray(g)
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch in sgd_step: {p.shape} vs {g.shape}")
        stepped.append(p - lr * g.astype(p.dtype, copy=False))
    return stepped


def save_weights(path, weights: Sequence[np.ndarray]) -> None:
    """Write tensors to the binary weights container (bit-exact float32):
    ``CDWT``, then ``<II`` version and count, then per tensor ``<I`` rank,
    ``<{rank}I`` dims and the little-endian float32 payload."""
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<II", WEIGHTS_VERSION, len(weights)))
        for t in weights:
            arr = np.asarray(t, dtype="<f4")  # tobytes() writes C order
            if arr.ndim == 0:
                raise ValueError("cannot serialize rank-0 tensors")
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())
