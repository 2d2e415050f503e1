"""Architecture wiring, determinism, and learning-sanity checks."""

from types import SimpleNamespace

import numpy as np
import pytest

from chromafl import models as M
from chromafl import tensor as T


def color_blobs(n, size=16, classes=2, seed=0):
    """Tiny separable dataset: class k is a distinct solid color + noise."""
    rng = np.random.default_rng(seed)
    palette = np.array([[0.9, 0.1, 0.1], [0.1, 0.9, 0.1],
                        [0.1, 0.1, 0.9], [0.8, 0.8, 0.1]])[:classes]
    labels = np.arange(n) % classes
    images = palette[labels][:, None, None, :] * np.ones((n, size, size, 3))
    images += rng.uniform(-0.05, 0.05, size=images.shape)
    images = np.clip(images, 0, 1).astype(np.float32)
    return SimpleNamespace(images=images, labels=labels.astype(np.int64))


# ---------------------------------------------------------------- specs

def test_arch_a_shapes_and_feature_sizes():
    spec = M.ModelSpec("ARCH_A", input_size=32, classes=10)
    ws = M.build(spec, seed=0)
    shapes = [w.shape for w in ws]
    assert shapes == [(3, 3, 3, 16), (16,), (3, 3, 16, 32), (32,),
                      (3, 3, 32, 32), (32,), (2048, 10), (10,)]
    assert spec.feature_size("conv1") == 16
    assert spec.feature_size("conv2") == 8
    assert spec.feature_size("conv3") == 8
    assert spec.flat_features() == 2048


def test_arch_b_shapes_and_feature_sizes():
    spec = M.ModelSpec("ARCH_B", input_size=32, classes=10)
    ws = M.build(spec, seed=0)
    shapes = [w.shape for w in ws]
    assert shapes == [(3, 3, 3, 8), (8,), (3, 3, 8, 16), (16,),
                      (3, 3, 16, 32), (32,), (2048, 10), (10,)]
    assert spec.feature_size("conv1") == 32
    assert spec.feature_size("conv2") == 16
    assert spec.feature_size("conv3") == 8


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="unknown architecture"):
        M.ModelSpec("ARCH_C")
    with pytest.raises(ValueError, match="capture"):
        M.ModelSpec("ARCH_A", capture="conv9")
    with pytest.raises(ValueError, match="classes"):
        M.ModelSpec("ARCH_A", classes=1)
    with pytest.raises(ValueError, match="pool evenly"):
        M.ModelSpec("ARCH_A", input_size=30)


def test_build_is_deterministic_and_seed_sensitive():
    spec = M.ModelSpec("ARCH_A", classes=4)
    a = M.build(spec, seed=5)
    b = M.build(spec, seed=5)
    c = M.build(spec, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    assert all(w.dtype == np.float32 for w in a)
    # biases start at zero
    assert all(not w.any() for w in a[1::2])


# ---------------------------------------------------------------- forward

def test_forward_shapes_and_capture():
    spec = M.ModelSpec("ARCH_A", input_size=32, classes=10)
    ws = M.build(spec, seed=1)
    x = np.random.default_rng(2).uniform(0, 1, size=(4, 32, 32, 3)).astype(np.float32)
    logits, captured, _ = M.forward(spec, ws, x)
    assert logits.shape == (4, 10)
    assert captured.shape == (4, 8, 8, 32)
    logits1, cap1, _ = M.forward(spec, ws, x, capture="conv1")
    assert cap1.shape == (4, 16, 16, 16)
    assert np.array_equal(logits.data, logits1.data)


def test_forward_single_image_is_batched_internally():
    spec = M.ModelSpec("ARCH_B", input_size=32, classes=5)
    ws = M.build(spec, seed=3)
    x = np.random.default_rng(4).uniform(0, 1, size=(32, 32, 3)).astype(np.float32)
    logits, captured, _ = M.forward(spec, ws, x)
    assert logits.shape == (1, 5)
    assert captured.shape == (1, 8, 8, 32)


def test_forward_rejects_bad_input_and_weights():
    spec = M.ModelSpec("ARCH_A", input_size=32, classes=10)
    ws = M.build(spec, seed=0)
    with pytest.raises(ValueError, match="32x32"):
        M.forward(spec, ws, np.zeros((16, 16, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="do not fit"):
        M.forward(spec, ws[:-1], np.zeros((32, 32, 3), dtype=np.float32))


def test_captured_tensor_is_differentiable_through_tape():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=3)
    ws = M.build(spec, seed=7)
    x = np.random.default_rng(8).uniform(0, 1, size=(2, 16, 16, 3)).astype(np.float32)
    tape = T.Tape()
    logits, captured, _ = M.forward(spec, ws, x, tape=tape)
    score = T.class_score(tape, logits, np.array([0, 1]))
    g = T.grad_wrt(tape, score, captured)
    assert g.shape == captured.shape
    assert np.abs(g).max() > 0


def test_predict_breaks_ties_toward_lower_index():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=4)
    ws = M.build(spec, seed=9)
    ws[-2] = np.zeros_like(ws[-2])  # all logits identical (zero)
    ws[-1] = np.zeros_like(ws[-1])
    xs = np.full((2, 16, 16, 3), 0.5, dtype=np.float32)
    assert M.predict_labels(spec, ws, xs).tolist() == [0, 0]
    logits, _, _ = M.forward(spec, ws, xs)
    assert np.array_equal(logits.data, np.zeros((2, 4), dtype=np.float32))


# ---------------------------------------------------------------- training

def test_train_learns_separable_colors():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=2)
    data = color_blobs(40, classes=2, seed=10)
    ws = M.train(spec, M.build(spec, seed=0), data, epochs=5, lr=0.05, batch=8, seed=0)
    assert M.hit_rate(M.predict_labels(spec, ws, data.images), data.labels) >= 0.95


def test_train_is_bit_deterministic():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=2)
    data = color_blobs(24, classes=2, seed=11)
    w0 = M.build(spec, seed=1)
    a = M.train(spec, w0, data, epochs=2, lr=0.05, batch=8, seed=3)
    b = M.train(spec, w0, data, epochs=2, lr=0.05, batch=8, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = M.train(spec, w0, data, epochs=2, lr=0.05, batch=8, seed=4)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@pytest.mark.parametrize("arch", ["ARCH_A", "ARCH_B"])
def test_train_matches_a_loop_with_a_tensor_image_batch(arch):
    # the image batch goes in as an ndarray, so conv1 forms no input
    # gradient; the weights must not move by a bit against the loop that
    # wrapped each batch in a Tensor and formed it
    spec = M.ModelSpec(arch, input_size=16, classes=3)
    data = color_blobs(20, classes=3, seed=16)
    w0 = M.build(spec, seed=5)
    got = M.train(spec, w0, data, epochs=2, lr=0.05, batch=8, seed=9)
    ws = [w.copy() for w in w0]
    for epoch in range(2):
        order = np.random.default_rng(np.random.SeedSequence((9, epoch))).permutation(20)
        for start in range(0, 20, 8):
            idx = order[start:start + 8]
            tape = T.Tape()
            params = [T.Tensor(w) for w in ws]
            logits, _ = M._run_stages(spec, params, T.Tensor(data.images[idx]), tape,
                                      spec.capture)
            loss = T.softmax_cross_entropy(tape, logits, data.labels[idx])
            ws = T.sgd_step(ws, tape.gradients(loss, params), 0.05)
    assert [w.tobytes() for w in got] == [w.tobytes() for w in ws]


def test_non_finite_logits_and_loss_raise_floating_point_error():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=2)
    data = color_blobs(8, classes=2, seed=17)
    w0 = M.build(spec, seed=6)
    huge = [w * np.float32(1e30) if w.ndim > 1 else w for w in w0]
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        M.predict_labels(spec, huge, data.images)
    with pytest.raises(FloatingPointError, match="loss is not finite"):
        M.train(spec, huge, data, epochs=1, batch=4)
    # at lr 1000 the first epoch's losses stay finite, the second's do not
    with pytest.raises(FloatingPointError, match="loss is not finite"):
        M.train(spec, w0, data, epochs=3, lr=1000.0, batch=4)


def test_train_zero_epochs_returns_equal_weights_untouched():
    spec = M.ModelSpec("ARCH_B", input_size=16, classes=2)
    data = color_blobs(8, classes=2, seed=12)
    w0 = M.build(spec, seed=2)
    out = M.train(spec, w0, data, epochs=0)
    assert all(np.array_equal(x, y) for x, y in zip(w0, out))
    assert all(o is not w for o, w in zip(out, w0))


def test_train_does_not_mutate_input_weights():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=2)
    data = color_blobs(16, classes=2, seed=13)
    w0 = M.build(spec, seed=3)
    snapshot = [w.copy() for w in w0]
    M.train(spec, w0, data, epochs=1, batch=8)
    assert all(np.array_equal(x, y) for x, y in zip(w0, snapshot))


def test_train_validates_inputs():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=2)
    data = color_blobs(8, classes=2, seed=14)
    w0 = M.build(spec, seed=0)
    with pytest.raises(ValueError, match="epochs"):
        M.train(spec, w0, data, epochs=-1)
    with pytest.raises(ValueError, match="batch"):
        M.train(spec, w0, data, epochs=1, batch=0)
    bad = SimpleNamespace(images=data.images, labels=data.labels + 7)
    with pytest.raises(ValueError, match="out of range"):
        M.train(spec, w0, bad, epochs=1)
    empty = SimpleNamespace(images=np.zeros((0, 16, 16, 3), dtype=np.float32),
                            labels=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        M.train(spec, w0, empty, epochs=1)


def test_agreement_of_model_with_itself_is_total():
    spec = M.ModelSpec("ARCH_A", input_size=16, classes=2)
    data = color_blobs(10, classes=2, seed=15)
    ws = M.build(spec, seed=4)
    preds = M.predict_labels(spec, ws, data.images)
    assert M.hit_rate(preds, M.predict_labels(spec, ws, data.images)) == 1.0


def test_predict_labels_runs_the_model_in_chunks(monkeypatch):
    spec = M.ModelSpec("ARCH_A", input_size=8, classes=3)
    ws = M.build(spec, seed=7)
    xs = np.random.default_rng(18).uniform(
        0, 1, (M.PREDICT_CHUNK + 44, 8, 8, 3)).astype(np.float32)
    sizes = []
    forward = M.forward

    def counting(spec, weights, x, *args, **kwargs):
        sizes.append(len(x))
        return forward(spec, weights, x, *args, **kwargs)
    monkeypatch.setattr(M, "forward", counting)
    got = M.predict_labels(spec, ws, xs)
    assert sizes == [M.PREDICT_CHUNK, 44]
    expect = [forward(spec, ws, xs[i:i + M.PREDICT_CHUNK])[0].data.argmax(axis=1)
              for i in (0, M.PREDICT_CHUNK)]
    assert got.tolist() == np.concatenate(expect).tolist()


def test_weights_roundtrip_through_container(tmp_path):
    spec = M.ModelSpec("ARCH_A", input_size=32, classes=10)
    ws = M.build(spec, seed=6)
    path = tmp_path / "model.cdwt"
    T.save_weights(path, ws)
    back = T.load_weights(path)
    assert all(np.array_equal(a, b) for a, b in zip(ws, back))
    # loaded weights drive the model identically
    x = np.random.default_rng(16).uniform(0, 1, (2, 32, 32, 3)).astype(np.float32)
    la, _, _ = M.forward(spec, ws, x)
    lb, _, _ = M.forward(spec, back, x)
    assert np.array_equal(la.data, lb.data)
