"""Dense tensors with reverse-mode differentiation for small CNNs.

Primitives cover exactly what the model zoo needs: stride-1 zero-padded
convolution, 2x2 max pooling, ReLU, dense layers, global average pooling and
a fused softmax cross-entropy.  Every primitive optionally records onto a
:class:`Tape`; gradients of any recorded scalar with respect to any recorded
tensor are obtained by replaying the tape in reverse.

Conventions:

* arrays are batch-first; images are ``(B, H, W, C)``,
* compute dtype follows the inputs (the pipeline feeds float32; reductions
  such as means and bias gradients accumulate in float64 before casting back),
* all primitives are bitwise deterministic for fixed inputs,
* a plain ndarray passed where a primitive takes a Tensor is a constant: no
  caller holds a tensor for it, so no gradient target can name it, and
  :func:`conv2d` forms no input gradient for it (the image batch is one),
* :func:`maxpool2` selects with a bitwise blend on unsigned-integer views of
  the values (``first ^ ((first ^ later) & -mask)``), which moves the chosen
  bytes unchanged, signed zeros and NaN payloads included.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPE = np.float32

WEIGHTS_MAGIC = b"CDWT"
WEIGHTS_VERSION = 1


class Tensor:
    """A shaped float array whose identity is what tapes track.

    Thin wrapper over a numpy array.  Operations never mutate ``data`` in
    place, so a Tensor seen by a tape keeps the values it had when recorded.
    """

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.size == 0:
            raise ValueError("tensor dimensions must all be >= 1")
        self.data = arr

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


class _Node:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...],
                 backward: Callable[[np.ndarray], tuple]):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class Tape:
    """Ordered record of primitive applications.

    The tape owns references to every input/output tensor it has seen, so
    python object ids are stable for the tape's lifetime and can serve as
    gradient-table keys.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._seen: set[int] = set()
        self._made_by: dict[int, int] = {}  # id of a node's output -> node index

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor, inputs: tuple[Tensor, ...],
               backward: Callable[[np.ndarray], tuple]) -> None:
        self._made_by[id(out)] = len(self._nodes)
        self._nodes.append(_Node(out, inputs, backward))
        self._seen.add(id(out))
        for t in inputs:
            self._seen.add(id(t))

    def recorded(self, t: Tensor) -> bool:
        return id(t) in self._seen

    def gradients(self, output: Tensor, targets: Sequence[Tensor]) -> list[np.ndarray]:
        """Adjoints of a recorded scalar w.r.t. each target, in target order.

        A recorded target that the output genuinely does not depend on gets a
        zero adjoint; an unrecorded target is an error (it was never part of
        this computation, so asking for its gradient is a bug).

        Only the nodes recorded after the earliest node that produced a target
        are replayed: the nodes before it cannot reach any target, so every
        adjoint keeps its value and summation order.  If a target is a leaf
        (no node produced it, like a weight), the whole tape is replayed.
        """
        if output.size != 1:
            raise ValueError("gradients() expects a scalar output tensor")
        if not self.recorded(output):
            raise ValueError("output tensor was not recorded on this tape")
        for t in targets:
            if not self.recorded(t):
                raise ValueError("gradient target was not recorded on this tape")
        table: dict[int, np.ndarray] = {
            id(output): np.ones_like(output.data)
        }
        start = min((self._made_by.get(id(t), -1) for t in targets),
                    default=len(self._nodes)) + 1
        for node in reversed(self._nodes[start:]):
            g = table.get(id(node.out))
            if g is None:
                continue
            for t, gi in zip(node.inputs, node.backward(g)):
                if gi is None:
                    continue
                prev = table.get(id(t))
                table[id(t)] = gi if prev is None else prev + gi
        return [table.get(id(t), np.zeros_like(t.data)) for t in targets]


def grad_wrt(tape: Tape, scalar_output: Tensor, target: Tensor) -> np.ndarray:
    """Gradient of a recorded scalar with respect to one recorded tensor."""
    return tape.gradients(scalar_output, [target])[0]


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    xp = np.pad(xd, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))  # (B,H,W,Ci,kh,kw)
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    cols = cols.reshape(bsz * h * wdt, kh * kw * ci)
    wmat = wd.reshape(kh * kw * ci, co)
    y = cols @ wmat
    # the bias goes into the GEMM result in place unless it widens the dtype
    y = np.add(y, bd, out=y) if np.can_cast(bd.dtype, y.dtype) else y + bd
    out = Tensor(y.reshape(bsz, h, wdt, co))
    if tape is not None:
        def backward(g: np.ndarray):
            gmat = g.reshape(bsz * h * wdt, co)
            dw = (cols.T @ gmat).reshape(wd.shape)
            db = gmat.sum(axis=0, dtype=np.float64).astype(bd.dtype, copy=False)
            if x_const:
                return None, dw, db
            dcols = (gmat @ wmat.T).reshape(bsz, h, wdt, kh, kw, ci)
            dxp = np.zeros((bsz, h + 2 * ph, wdt + 2 * pw, ci), dtype=xd.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + h, j:j + wdt, :] += dcols[:, :, :, i, j, :]
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


def _later_wins(first: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Where ``later`` replaces ``first`` as the running maximum: it must be
    strictly larger, or NaN where ``first`` is not.  So ties (signed zeros
    included) and NaNs go to the first element, as with ``argmax``."""
    return ~(later <= first) & (first == first)


def _blend(mask: np.ndarray, first: np.ndarray, later: np.ndarray) -> np.ndarray:
    """``later`` where ``mask`` holds, else ``first``, on unsigned-integer
    views of one width; the result is a new array of that unsigned type."""
    bits = first ^ later
    bits &= np.negative(mask, dtype=bits.dtype)  # all ones where mask holds
    bits ^= first
    return bits


def maxpool2(tape: Tape | None, x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2; ties go to the first element in
    row-major window order, and a NaN is the maximum of its window."""
    x = _as_tensor(x)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"maxpool2 input must be (B, H, W, C), got shape {xd.shape}")
    h, wdt = xd.shape[1:3]
    if h % 2 or wdt % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {h}x{wdt}")
    bits = np.dtype(f"u{xd.dtype.itemsize}")
    # window element k = 2 * i + j sits at x[:, i::2, j::2]
    a, b = xd[:, 0::2, 0::2], xd[:, 0::2, 1::2]
    c, d = xd[:, 1::2, 0::2], xd[:, 1::2, 1::2]
    top, bottom = _later_wins(a, b), _later_wins(c, d)
    ab = _blend(top, a.view(bits), b.view(bits))
    cd = _blend(bottom, c.view(bits), d.view(bits))
    lower = _later_wins(ab.view(xd.dtype), cd.view(xd.dtype))
    out = Tensor(_blend(lower, ab, cd).view(xd.dtype))
    if tape is not None:
        # idx = 2 + bottom where lower holds, else top
        idx = lower.view(np.int8) << 1
        idx |= (top ^ (lower & (top ^ bottom))).view(np.int8)

        def backward(g: np.ndarray):
            gbits = np.asarray(g, dtype=xd.dtype).view(bits)
            dx = np.empty_like(xd)  # the four strided views cover every element
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
    """Write tensors to the binary weights container (bit-exact float32)."""
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC)
        f.write(struct.pack("<II", WEIGHTS_VERSION, len(weights)))
        for t in weights:
            arr = np.ascontiguousarray(t, dtype="<f4")
            if arr.ndim == 0:
                raise ValueError("cannot serialize rank-0 tensors")
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_weights(path) -> list[np.ndarray]:
    """Read tensors back from the binary weights container."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12 or blob[:4] != WEIGHTS_MAGIC:
        raise ValueError(f"{path}: not a weights container (bad magic)")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != WEIGHTS_VERSION:
        raise ValueError(f"{path}: unsupported weights container version {version}")
    off = 12
    out: list[np.ndarray] = []
    for i in range(count):
        if off + 4 > len(blob):
            raise ValueError(f"{path}: truncated weights container (tensor {i})")
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        if rank == 0 or off + 4 * rank > len(blob):
            raise ValueError(f"{path}: corrupt tensor header (tensor {i})")
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        if any(d == 0 for d in dims):
            raise ValueError(f"{path}: zero-sized dimension (tensor {i})")
        n = int(np.prod(dims))
        if off + 4 * n > len(blob):
            raise ValueError(f"{path}: truncated tensor payload (tensor {i})")
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(dims)
        out.append(arr.astype(np.float32, copy=True))
        off += 4 * n
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes after last tensor")
    return out
