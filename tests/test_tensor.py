"""Gradient and serialization checks for the tensor core.

Every differentiable primitive is checked against central finite differences
(h = 1e-4, relative tolerance 1e-3), and the composed forward pass against an
independently coded straight-line oracle built from plain loops.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromafl import tensor as T
from readers import load_weights

H_FD = 1e-4
REL_TOL = 1e-3


def rel_close(a, b, rel=REL_TOL, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    err = np.abs(a - b)
    bound = rel * np.maximum(np.abs(a), np.abs(b)) + floor
    return bool((err <= bound).all())


def finite_diff(f, x, h=H_FD):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f(x)
        flat[i] = keep - h
        lo = f(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * h)
    return g


def nudged(rng, shape, margin=5e-2):
    """Uniform values kept away from 0 so ReLU/pool kinks don't bite FD."""
    x = rng.uniform(-1.0, 1.0, size=shape)
    x = np.where(np.abs(x) < margin, np.sign(x) * margin + (x == 0) * margin, x)
    return x


# ---------------------------------------------------------------- forward

def naive_conv2d(x, w, b):
    bsz, h, wd, ci = x.shape
    kh, kw, _, co = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    out = np.zeros((bsz, h, wd, co), dtype=np.float64)
    for n in range(bsz):
        for y in range(h):
            for xx in range(wd):
                for o in range(co):
                    acc = 0.0
                    for i in range(kh):
                        for j in range(kw):
                            for c in range(ci):
                                acc += xp[n, y + i, xx + j, c] * w[i, j, c, o]
                    out[n, y, xx, o] = acc + b[o]
    return out


def naive_maxpool2(x):
    bsz, h, wd, c = x.shape
    out = np.zeros((bsz, h // 2, wd // 2, c), dtype=x.dtype)
    for n in range(bsz):
        for y in range(h // 2):
            for xx in range(wd // 2):
                for ch in range(c):
                    out[n, y, xx, ch] = x[n, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2, ch].max()
    return out


def test_dense_identity_weights_pass_input_through():
    x = np.array([[1.0, 2.0, 3.0]])
    out = T.dense(None, T.Tensor(x), T.Tensor(np.eye(3)), T.Tensor(np.zeros(3)))
    assert np.array_equal(out.data, x)


def test_conv_1x1_weight_two_no_bias_doubles_input():
    x = np.full((1, 4, 4, 1), 0.5)
    w = np.full((1, 1, 1, 1), 2.0)
    b = np.zeros(1)
    out = T.conv2d(None, T.Tensor(x), T.Tensor(w), T.Tensor(b))
    assert np.allclose(out.data, 1.0)
    assert out.shape == (1, 4, 4, 1)


def test_forward_matches_straightline_oracle():
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.normal(size=(2, 6, 6, 3))
        w1 = rng.normal(size=(3, 3, 3, 4)) * 0.5
        b1 = rng.normal(size=4) * 0.1
        w2 = rng.normal(size=(3, 3, 4, 5)) * 0.5
        b2 = rng.normal(size=5) * 0.1
        wd = rng.normal(size=(3 * 3 * 5, 7)) * 0.2
        bd = rng.normal(size=7) * 0.1

        h1 = T.relu(None, T.conv2d(None, T.Tensor(x), T.Tensor(w1), T.Tensor(b1)))
        h1 = T.maxpool2(None, h1)
        h2 = T.relu(None, T.conv2d(None, h1, T.Tensor(w2), T.Tensor(b2)))
        logits = T.dense(None, h2, T.Tensor(wd), T.Tensor(bd))

        o1 = np.maximum(naive_conv2d(x, w1, b1), 0)
        o1 = naive_maxpool2(o1)
        o2 = np.maximum(naive_conv2d(o1, w2, b2), 0)
        ologits = o2.reshape(2, -1) @ wd + bd

        assert np.abs(logits.data - ologits).max() < 1e-6


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    w = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
    b = rng.normal(size=4).astype(np.float32)

    def run():
        tape = T.Tape()
        out = T.maxpool2(tape, T.relu(tape, T.conv2d(tape, T.Tensor(x), T.Tensor(w), T.Tensor(b))))
        return out.data
    assert np.array_equal(run(), run())


# ---------------------------------------------------------------- gradients

def test_grad_linear_layer_is_exact():
    # y = w . x  =>  dy/dx = w
    x = T.Tensor(np.array([[2.0, -1.0, 0.5]]))
    w = T.Tensor(np.array([[3.0], [4.0], [5.0]]))
    b = T.Tensor(np.zeros(1))
    tape = T.Tape()
    y = T.dense(tape, x, w, b)
    g = T.grad_wrt(tape, y, x)
    assert np.array_equal(g, np.array([[3.0, 4.0, 5.0]]))


def test_grad_relu_dead_region_is_zero():
    x = T.Tensor(np.array([[-1.0, 2.0]]))
    tape = T.Tape()
    y = T.class_score(tape, T.relu(tape, x), 0)
    g = T.grad_wrt(tape, y, x)
    assert np.array_equal(g, np.array([[0.0, 0.0]]))


def _loss_of_conv(x, w, b, labels):
    out = T.conv2d(None, T.Tensor(x), T.Tensor(w), T.Tensor(b))
    pooled = T.global_avg_pool(None, out)
    return T.softmax_cross_entropy(None, pooled, labels).item()


@pytest.mark.parametrize("seed", range(5))
def test_conv2d_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.normal(size=(2, 5, 5, 2))
    w = rng.normal(size=(3, 3, 2, 3)) * 0.5
    b = rng.normal(size=3) * 0.1
    labels = rng.integers(0, 3, size=2)

    tape = T.Tape()
    tx, tw, tb = T.Tensor(x), T.Tensor(w), T.Tensor(b)
    loss = T.softmax_cross_entropy(
        tape, T.global_avg_pool(tape, T.conv2d(tape, tx, tw, tb)), labels)
    gx, gw, gb = tape.gradients(loss, [tx, tw, tb])

    assert rel_close(gx, finite_diff(lambda v: _loss_of_conv(v, w, b, labels), x))
    assert rel_close(gw, finite_diff(lambda v: _loss_of_conv(x, v, b, labels), w))
    assert rel_close(gb, finite_diff(lambda v: _loss_of_conv(x, w, v, labels), b))


@pytest.mark.parametrize("seed", range(5))
def test_dense_and_softmax_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(200 + seed)
    x = rng.normal(size=(3, 6))
    w = rng.normal(size=(6, 4)) * 0.5
    b = rng.normal(size=4) * 0.1
    labels = rng.integers(0, 4, size=3)

    def f(xv, wv, bv):
        out = T.dense(None, T.Tensor(xv), T.Tensor(wv), T.Tensor(bv))
        return T.softmax_cross_entropy(None, out, labels).item()

    tape = T.Tape()
    tx, tw, tb = T.Tensor(x), T.Tensor(w), T.Tensor(b)
    loss = T.softmax_cross_entropy(tape, T.dense(tape, tx, tw, tb), labels)
    gx, gw, gb = tape.gradients(loss, [tx, tw, tb])

    assert rel_close(gx, finite_diff(lambda v: f(v, w, b), x))
    assert rel_close(gw, finite_diff(lambda v: f(x, v, b), w))
    assert rel_close(gb, finite_diff(lambda v: f(x, w, v), b))


@pytest.mark.parametrize("seed", range(5))
def test_relu_maxpool_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(300 + seed)
    x = nudged(rng, (2, 4, 4, 3))
    w = rng.normal(size=(3 * 2 * 2, 5)) * 0.3
    b = rng.normal(size=5) * 0.1
    labels = rng.integers(0, 5, size=2)

    def f(xv):
        h = T.maxpool2(None, T.relu(None, T.Tensor(xv)))
        out = T.dense(None, h, T.Tensor(w), T.Tensor(b))
        return T.softmax_cross_entropy(None, out, labels).item()

    tape = T.Tape()
    tx = T.Tensor(x)
    h = T.maxpool2(tape, T.relu(tape, tx))
    loss = T.softmax_cross_entropy(tape, T.dense(tape, h, T.Tensor(w), T.Tensor(b)), labels)
    gx = T.grad_wrt(tape, loss, tx)
    assert rel_close(gx, finite_diff(f, x))


@pytest.mark.parametrize("seed", range(5))
def test_global_avg_pool_and_class_score_gradients(seed):
    rng = np.random.default_rng(400 + seed)
    x = rng.normal(size=(2, 4, 4, 3))
    ids = rng.integers(0, 3, size=2)

    def f(xv):
        pooled = T.global_avg_pool(None, T.Tensor(xv))
        return T.class_score(None, pooled, ids).item()

    tape = T.Tape()
    tx = T.Tensor(x)
    score = T.class_score(tape, T.global_avg_pool(tape, tx), ids)
    gx = T.grad_wrt(tape, score, tx)
    assert rel_close(gx, finite_diff(f, x))


def test_full_chain_gradient_matches_finite_differences():
    rng = np.random.default_rng(500)
    x = nudged(rng, (2, 8, 8, 3))
    w1 = rng.normal(size=(3, 3, 3, 4)) * 0.4
    b1 = np.full(4, 0.05)
    wd = rng.normal(size=(4 * 4 * 4, 3)) * 0.3
    bd = np.zeros(3)
    labels = np.array([0, 2])

    def f(w1v):
        h = T.maxpool2(None, T.relu(None, T.conv2d(None, T.Tensor(x), T.Tensor(w1v), T.Tensor(b1))))
        out = T.dense(None, h, T.Tensor(wd), T.Tensor(bd))
        return T.softmax_cross_entropy(None, out, labels).item()

    tape = T.Tape()
    tw1 = T.Tensor(w1)
    h = T.maxpool2(tape, T.relu(tape, T.conv2d(tape, T.Tensor(x), tw1, T.Tensor(b1))))
    loss = T.softmax_cross_entropy(tape, T.dense(tape, h, T.Tensor(wd), T.Tensor(bd)), labels)
    gw1 = T.grad_wrt(tape, loss, tw1)
    assert rel_close(gw1, finite_diff(f, w1))


def test_every_parameter_receives_a_live_gradient():
    # All parameter blocks must be wired into the tape: perturbing any block
    # changes the loss, and its adjoint is not silently zero.
    rng = np.random.default_rng(600)
    x = np.abs(rng.normal(size=(4, 8, 8, 3))) + 0.1
    params = [
        rng.normal(size=(3, 3, 3, 4)) * 0.4, np.full(4, 0.1),
        rng.normal(size=(3, 3, 4, 4)) * 0.4, np.full(4, 0.1),
        rng.normal(size=(2 * 2 * 4, 5)) * 0.3, np.zeros(5),
    ]
    labels = rng.integers(0, 5, size=4)

    def run(ps, tape=None):
        t = [T.Tensor(p) for p in ps]
        h = T.maxpool2(tape, T.relu(tape, T.conv2d(tape, T.Tensor(x), t[0], t[1])))
        h = T.maxpool2(tape, T.relu(tape, T.conv2d(tape, h, t[2], t[3])))
        loss = T.softmax_cross_entropy(tape, T.dense(tape, h, t[4], t[5]), labels)
        return loss, t

    tape = T.Tape()
    loss, tensors = run(params, tape)
    grads = tape.gradients(loss, tensors)
    base = loss.item()
    for k, g in enumerate(grads):
        assert np.abs(g).max() > 0, f"parameter block {k} has an all-zero gradient"
        bumped = [p.copy() for p in params]
        bumped[k].flat[0] += 1e-3  # one entry; a uniform bump can cancel in softmax
        moved, _ = run(bumped)
        assert abs(moved.item() - base) > 1e-9, \
            f"loss is insensitive to parameter block {k}"


def test_grad_wrt_rejects_unrecorded_target():
    tape = T.Tape()
    x = T.Tensor(np.ones((1, 2)))
    y = T.class_score(tape, x, 0)
    stranger = T.Tensor(np.ones((1, 2)))
    with pytest.raises(ValueError, match="not recorded"):
        T.grad_wrt(tape, y, stranger)
    with pytest.raises(ValueError, match="output tensor was not recorded on this tape"):
        tape.gradients(T.Tensor(np.ones(())), [x])


def test_gradients_reject_nonscalar_output():
    tape = T.Tape()
    x = T.Tensor(np.ones((1, 4)))
    y = T.relu(tape, x)
    with pytest.raises(ValueError, match="scalar"):
        T.grad_wrt(tape, y, x)


def test_maxpool_tie_prefers_first_in_row_major_order():
    x = np.zeros((1, 2, 2, 1))
    x[0, :, :, 0] = [[1.0, 1.0], [1.0, 1.0]]
    tape = T.Tape()
    tx = T.Tensor(x)
    y = T.class_score(tape, T.dense(tape, T.maxpool2(tape, tx),
                                    T.Tensor(np.ones((1, 1))), T.Tensor(np.zeros(1))), 0)
    g = T.grad_wrt(tape, y, tx)
    assert g[0, 0, 0, 0] == 1.0
    assert g[0, 0, 1, 0] == g[0, 1, 0, 0] == g[0, 1, 1, 0] == 0.0


def _full_replay(tape, output, target):
    """Every recorded node in reverse, adjoints summed in arrival order and
    kept to the end; nodes name their tensors by serial."""
    table = {output.serial: np.ones_like(output.data)}
    for node in reversed(tape._nodes):
        g = table.get(node.out)
        if g is None:
            continue
        for s, gi in zip(node.inputs, node.backward(g)):
            if gi is not None:
                table[s] = gi if s not in table else table[s] + gi
    return table[target.serial]


def test_gradient_of_intermediate_equals_a_full_replay():
    rng = np.random.default_rng(700)
    f32 = lambda *shape: (rng.normal(size=shape) * 0.4).astype(np.float32)  # noqa: E731
    x, w1, b1 = f32(3, 8, 8, 3), f32(3, 3, 3, 4), f32(4)
    w2, b2, wd, bd = f32(3, 3, 4, 6), f32(6), f32(4 * 4 * 6, 3), f32(3)
    tape = T.Tape()
    tw1 = T.Tensor(w1)
    h1 = T.maxpool2(tape, T.relu(tape, T.conv2d(tape, T.Tensor(x), tw1, T.Tensor(b1))))
    h2 = T.relu(tape, T.conv2d(tape, h1, T.Tensor(w2), T.Tensor(b2)))
    score = T.class_score(tape, T.dense(tape, h2, T.Tensor(wd), T.Tensor(bd)), [0, 2, 1])
    full_h1 = _full_replay(tape, score, h1)
    full_w1 = _full_replay(tape, score, tw1)
    g_h1, g_w1 = tape.gradients(score, [h1, tw1])
    assert g_h1.tobytes() == full_h1.tobytes() and g_w1.tobytes() == full_w1.tobytes()
    got = T.grad_wrt(tape, score, h1)
    assert got.dtype == full_h1.dtype and got.shape == full_h1.shape
    assert got.tobytes() == full_h1.tobytes()


POOL_VALUES = (-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, float("inf"), float("nan"))
# no sign bit and no NaN, as ReLU outputs: equal values have equal bits, so
# any window maximum is the reference's bytes
RELU_POOL_VALUES = (0.0, 0.5, 1.0, 2.0, float("inf"))


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3),
                       st.integers(1, 3)),
       data=st.data())
def test_maxpool2_matches_argmax_reference(shape, data):
    bsz, oh, ow, c = shape
    n = bsz * 4 * oh * ow * c
    mixed = data.draw(st.lists(st.sampled_from(POOL_VALUES), min_size=n, max_size=n))
    relu_like = data.draw(st.lists(st.sampled_from(RELU_POOL_VALUES), min_size=n, max_size=n))
    for vals in (mixed, relu_like):
        # float64 makes the backward mask uint64 views, float32 uint32 ones
        for dtype in (np.float32, np.float64):
            x = np.array(vals, dtype=dtype).reshape(bsz, 2 * oh, 2 * ow, c)
            # reference: argmax over the window axis in row-major order (the first
            # maximum wins a tie; a NaN is the maximum, the first NaN winning)
            r = x.reshape(bsz, oh, 2, ow, 2, c).transpose(0, 1, 3, 2, 4, 5)
            r = r.reshape(bsz, oh, ow, 4, c)
            idx = r.argmax(axis=3)[:, :, :, None, :]
            ref = np.take_along_axis(r, idx, axis=3)[:, :, :, 0, :]
            # distinct non-zero adjoints, so the backward shows which index was taken
            g = np.arange(1, ref.size + 1, dtype=dtype).reshape(ref.shape)
            scat = np.zeros_like(r)
            np.put_along_axis(scat, idx, g[:, :, :, None, :], axis=3)
            ref_dx = scat.reshape(bsz, oh, ow, 2, 2, c).transpose(0, 1, 3, 2, 4, 5)
            ref_dx = ref_dx.reshape(x.shape)

            tape = T.Tape()
            y = T.maxpool2(tape, T.Tensor(x))
            assert y.dtype == dtype
            (dx,) = tape._nodes[-1].backward(g)
            assert dx.dtype == x.dtype
            assert T.maxpool2(None, T.Tensor(x)).data.tobytes() == y.data.tobytes()
            if vals is relu_like:
                assert y.data.tobytes() == ref.tobytes()
                assert dx.tobytes() == ref_dx.tobytes()
                continue
            # a tie of signed zeros may give either zero, and a window that
            # holds a NaN sends its gradient by comparisons, not to the NaN
            assert np.array_equal(y.data, ref, equal_nan=True)
            keep = ~np.isnan(r).any(axis=3).repeat(2, axis=1).repeat(2, axis=2)
            assert dx[keep].tobytes() == ref_dx[keep].tobytes()


def test_maxpool2_keeps_a_sign_bit_nan_in_relu_output():
    # one NaN with the sign bit set (the x86 default NaN) among non-negative
    # values: np.maximum must carry the NaN's bits through to its window
    x = np.maximum(np.random.default_rng(5).normal(size=(2, 4, 6, 3)), 0).astype(np.float32)
    x[1, 2, 3, 1] = np.array(0xFFC00000, dtype=np.uint32).view(np.float32)
    ref = naive_maxpool2(x).view(np.uint32)
    for tape in (None, T.Tape()):
        y = T.maxpool2(tape, T.Tensor(x)).data
        assert not np.shares_memory(y, x)
        got = y.view(np.uint32)
        assert got[1, 1, 1, 1] == 0xFFC00000
        others = np.ones(got.shape, dtype=bool)
        others[1, 1, 1, 1] = False
        assert got[others].tobytes() == ref[others].tobytes()


def test_maxpool2_takes_integer_inputs():
    x = np.random.default_rng(6).integers(-50, 50, size=(2, 4, 6, 3))
    assert T.maxpool2(None, T.Tensor(x)).data.tobytes() == naive_maxpool2(x).tobytes()


def _conv2d_reference(x, w, b, g):
    """``y``, ``dx``, ``dw``, ``db`` laid out as conv2d once did: im2col by a
    transposed ``sliding_window_view`` copy, and the input gradient by nine
    strided adds of the ``(kh, kw)`` taps read in place."""
    bsz, h, wd, ci = x.shape
    kh, kw, _, co = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3))
    cols = cols.reshape(bsz * h * wd, kh * kw * ci)
    wmat = w.reshape(kh * kw * ci, co)
    y = cols @ wmat
    y = np.add(y, b, out=y).reshape(bsz, h, wd, co)
    gmat = g.reshape(bsz * h * wd, co)
    dw = (cols.T @ gmat).reshape(w.shape)
    db = gmat.sum(axis=0, dtype=np.float64).astype(b.dtype)
    dcols = (gmat @ wmat.T).reshape(bsz, h, wd, kh, kw, ci)
    dxp = np.zeros(xp.shape, dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + h, j:j + wd, :] += dcols[:, :, :, i, j, :]
    return y, dxp[:, ph:ph + h, pw:pw + wd, :], dw, db


@pytest.mark.parametrize("ksize", [(1, 1), (3, 3), (5, 5), (5, 3)])
@pytest.mark.parametrize("ci", [1, 3, 16, 32])
def test_conv2d_matches_the_window_view_reference_bytewise(ci, ksize):
    rng = np.random.default_rng(ci * 10 + ksize[0] + ksize[1])
    for dtype in (np.float32, np.float64):
        # 9 and 17 images split the input gradient into 2 and 3 blocks
        for bsz in (1, 7, 9, 17):
            x = rng.normal(size=(bsz, 6, 5, ci)).astype(dtype)
            w = rng.normal(size=(*ksize, ci, 4)).astype(dtype)
            b = rng.normal(size=4).astype(dtype)
            g = rng.normal(size=(bsz, 6, 5, 4)).astype(dtype)
            ref = _conv2d_reference(x, w, b, g)
            # the im2col runs need C order in the padded copy, whatever x's
            for xin in (T.Tensor(x), x, T.Tensor(np.asfortranarray(x))):
                tape = T.Tape()
                y = T.conv2d(tape, xin, T.Tensor(w), T.Tensor(b))
                dx, dw, db = tape._nodes[-1].backward(g)
                assert y.dtype == dtype and y.data.tobytes() == ref[0].tobytes()
                if xin is x:
                    assert dx is None
                else:
                    assert dx.dtype == dtype and dx.tobytes() == ref[1].tobytes()
                assert dw.tobytes() == ref[2].tobytes() and db.tobytes() == ref[3].tobytes()


def test_a_taped_conv2d_pins_its_padded_input_not_its_columns(traced_mb):
    # ARCH_A's conv2 at a training batch: the im2col columns are 4.7 MB,
    # seven times the 0.66 MB padded input; the backward rebuilds them for dw
    rng = np.random.default_rng(71)
    x = T.Tensor(rng.normal(size=(32, 16, 16, 16)).astype(np.float32))
    w = T.Tensor((rng.normal(size=(3, 3, 16, 32)) * 0.2).astype(np.float32))
    b = T.Tensor(rng.normal(size=32).astype(np.float32))

    def taped():
        tape = T.Tape()
        return tape, T.conv2d(tape, x, w, b)
    (tape, out), held, _ = traced_mb(taped)
    padded = 32 * 18 * 18 * 16 * 4
    assert held < (out.data.nbytes + padded) / 2**20 + 1


@pytest.mark.parametrize("hw,ci", [(16, 16), (8, 32)])
@pytest.mark.parametrize("bsz", [8, 32, 40])
def test_conv2d_blocked_input_gradient_is_bytewise_the_whole_batch_one(hw, ci, bsz):
    # the model's conv2 and conv3 shapes in ARCH_A, at a training batch and
    # around it: one block, four blocks, and five
    rng = np.random.default_rng(hw * bsz + ci)
    x = rng.normal(size=(bsz, hw, hw, ci)).astype(np.float32)
    w = (rng.normal(size=(3, 3, ci, 32)) * 0.2).astype(np.float32)
    b = rng.normal(size=32).astype(np.float32)
    g = rng.normal(size=(bsz, hw, hw, 32)).astype(np.float32)
    ref = _conv2d_reference(x, w, b, g)
    tape = T.Tape()
    T.conv2d(tape, T.Tensor(x), T.Tensor(w), T.Tensor(b))
    dx, dw, db = tape._nodes[-1].backward(g)
    assert dx.tobytes() == ref[1].tobytes()
    assert dw.tobytes() == ref[2].tobytes() and db.tobytes() == ref[3].tobytes()


def test_conv2d_treats_an_ndarray_input_as_a_constant():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6, 5, 2)).astype(np.float32)
    w = T.Tensor(rng.normal(size=(3, 3, 2, 4)).astype(np.float32))
    b = T.Tensor(rng.normal(size=4).astype(np.float32))
    g = rng.normal(size=(3, 6, 5, 4)).astype(np.float32)
    grads = []
    for xin in (T.Tensor(x), x):
        tape = T.Tape()
        y = T.conv2d(tape, xin, w, b)
        grads.append((y.data, *tape._nodes[-1].backward(g)))
    (y_t, dx_t, dw_t, db_t), (y_a, dx_a, dw_a, db_a) = grads
    assert dx_t is not None and dx_t.shape == x.shape
    assert dx_a is None
    assert y_a.tobytes() == y_t.tobytes()
    assert dw_a.tobytes() == dw_t.tobytes() and db_a.tobytes() == db_t.tobytes()


# ---------------------------------------------------------------- sgd

def test_sgd_step_arithmetic():
    w = [np.array([1.0, 2.0]), np.array([[3.0]])]
    g = [np.array([0.5, -0.5]), np.array([[1.0]])]
    out = T.sgd_step(w, g, lr=0.1)
    assert np.allclose(out[0], [0.95, 2.05])
    assert np.allclose(out[1], [[2.9]])
    assert np.array_equal(w[0], [1.0, 2.0])  # inputs untouched


def test_sgd_step_converges_on_quadratic():
    # loss = 0.5 * (p - 3)^2, grad = p - 3; p_k = 3 * (1 - 0.9^k) from p_0 = 0.
    p = np.array([0.0])
    for k in range(1, 11):
        p = T.sgd_step([p], [p - 3.0], lr=0.1)[0]
        assert np.allclose(p, 3.0 * (1.0 - 0.9 ** k))


def test_sgd_step_rejects_bad_lr_and_shapes():
    with pytest.raises(ValueError, match="positive"):
        T.sgd_step([np.ones(2)], [np.ones(2)], lr=0.0)
    with pytest.raises(ValueError, match="mismatch"):
        T.sgd_step([np.ones(2)], [np.ones(3)], lr=0.1)
    with pytest.raises(ValueError, match="weights and grads must have the same length"):
        T.sgd_step([np.ones(2)], [], lr=0.1)


# ---------------------------------------------------------------- weights io

def test_weights_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    ws = [rng.normal(size=s).astype(np.float32)
          for s in [(3, 3, 3, 16), (16,), (2048, 10)]]
    path = tmp_path / "w.bin"
    T.save_weights(path, ws)
    back = load_weights(path)
    assert len(back) == len(ws)
    for a, b in zip(ws, back):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))


def test_tensor_rejects_zero_size():
    with pytest.raises(ValueError):
        T.Tensor(np.zeros((0, 3)))


def _t(*shape):
    return T.Tensor(np.ones(shape))


@pytest.mark.parametrize("call, message", [
    (lambda: _t(2).item(), r"item\(\) requires a scalar tensor"),
    (lambda: T.conv2d(None, _t(4, 4, 3), _t(3, 3, 3, 2), _t(2)),
     r"conv2d input must be \(B, H, W, C\), got shape \(4, 4, 3\)"),
    (lambda: T.conv2d(None, _t(1, 4, 4, 3), _t(3, 3, 3), _t(2)),
     r"conv2d weight must be \(kh, kw, Cin, Cout\), got shape \(3, 3, 3\)"),
    (lambda: T.conv2d(None, _t(1, 4, 4, 3), _t(2, 3, 3, 2), _t(2)),
     "conv2d kernel sides must be odd"),
    (lambda: T.conv2d(None, _t(1, 4, 4, 3), _t(3, 3, 2, 2), _t(2)),
     "conv2d channel mismatch: input has 3, weight expects 2"),
    (lambda: T.conv2d(None, _t(1, 4, 4, 3), _t(3, 3, 3, 2), _t(3)),
     r"conv2d bias must be \(2,\), got shape \(3,\)"),
    (lambda: T.maxpool2(None, _t(4, 4, 3)),
     r"maxpool2 input must be \(B, H, W, C\), got shape \(4, 4, 3\)"),
    (lambda: T.maxpool2(None, _t(1, 3, 4, 1)), "maxpool2 needs even spatial dims, got 3x4"),
    (lambda: T.dense(None, _t(4), _t(4, 2), _t(2)),
     r"dense input must be batched, got shape \(4,\)"),
    (lambda: T.dense(None, _t(1, 5), _t(4, 2), _t(2)),
     r"dense shape mismatch: input flattens to 5, weight is \(4, 2\)"),
    (lambda: T.dense(None, _t(1, 4), _t(4, 2), _t(3)),
     r"dense bias must be \(2,\), got shape \(3,\)"),
    (lambda: T.global_avg_pool(None, _t(4, 4, 3)),
     r"global_avg_pool input must be \(B, H, W, C\), got shape \(4, 4, 3\)"),
    (lambda: T.softmax_cross_entropy(None, _t(3), [0]),
     r"softmax_cross_entropy expects \(B, classes\), got shape \(3,\)"),
    (lambda: T.softmax_cross_entropy(None, _t(2, 3), [0]),
     r"labels must be \(2,\), got shape \(1,\)"),
    (lambda: T.softmax_cross_entropy(None, _t(2, 3), [0, 3]),
     "labels out of range for the logits"),
    (lambda: T.class_score(None, _t(3), 0),
     r"class_score expects \(B, classes\), got shape \(3,\)"),
    (lambda: T.class_score(None, _t(2, 3), [0, 3]), "class id out of range for the logits"),
    (lambda: T.save_weights(os.devnull, [np.ones(2), np.float32(1.0)]),
     "cannot serialize rank-0 tensors"),
])
def test_primitives_reject_malformed_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()
