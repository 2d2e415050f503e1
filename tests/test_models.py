"""Architecture wiring, determinism, and learning-sanity checks."""

import dataclasses
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from chromafl import attack as A
from chromafl import data as D
from chromafl import models as M
from chromafl import saliency as S
from chromafl import tensor as T
from readers import load_weights


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
    with pytest.raises(ValueError, match="input size 0 too small for ARCH_B"):
        M.ModelSpec("ARCH_B", input_size=0)
    with pytest.raises(ValueError, match="unknown stage 'conv9'"):
        M.ModelSpec("ARCH_A").feature_size("conv9")


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
    logits1, cap1, _ = M.forward(dataclasses.replace(spec, capture="conv1"), ws, x)
    assert cap1.shape == (4, 16, 16, 16)
    assert np.array_equal(logits.data, logits1.data)


def test_forward_takes_a_one_image_batch_and_rejects_an_unbatched_image():
    spec = M.ModelSpec("ARCH_B", input_size=32, classes=5)
    ws = M.build(spec, seed=3)
    x = np.random.default_rng(4).uniform(0, 1, size=(32, 32, 3)).astype(np.float32)
    logits, captured, _ = M.forward(spec, ws, x[None])
    assert logits.shape == (1, 5)
    assert captured.shape == (1, 8, 8, 32)
    with pytest.raises(ValueError, match=r"\(B, H, W, 3\), got shape \(32, 32, 3\)"):
        M.forward(spec, ws, x)


def test_forward_rejects_bad_input_and_weights():
    spec = M.ModelSpec("ARCH_A", input_size=32, classes=10)
    ws = M.build(spec, seed=0)
    with pytest.raises(ValueError, match="32x32"):
        M.forward(spec, ws, np.zeros((1, 16, 16, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="do not fit"):
        M.forward(spec, ws[:-1], np.zeros((1, 32, 32, 3), dtype=np.float32))


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


# ---------------------------------------------------------------- taped forward

# (arch, capture stage, nodes a forward tape holds: the layers after that stage)
CAPTURES = [("ARCH_A", "conv3", 1), ("ARCH_A", "conv2", 3),
            ("ARCH_B", "conv3", 1), ("ARCH_B", "conv1", 7)]
CAM_GRID = A.GridSpec(hue=(0.0, 0.1, -0.1), alpha=(0.8, 1.0, 1.2), per_channel=False,
                      gamma=(0.8, 1.0, 1.2), beta=(0.0,), composites=False)


def _full_tape_run_stages(spec, params, x, tape, want):
    """Oracle: the same forward with every layer on the tape."""
    h = x
    captured = None
    for k, st in enumerate(spec.stages):
        h = T.relu(tape, T.conv2d(tape, h, params[2 * k], params[2 * k + 1]))
        if st.pool:
            h = T.maxpool2(tape, h)
        if st.name == want:
            captured = h
    return T.dense(tape, h, params[-2], params[-1]), captured


@pytest.fixture(scope="module")
def shapes_models():
    data = D.generate_shapes(48, classes=3, size=16, seed=21)
    models = {}
    for arch in ("ARCH_A", "ARCH_B"):
        spec = M.ModelSpec(arch, input_size=16, classes=3)
        models[arch] = M.train(spec, M.build(spec, seed=4), data, epochs=2,
                               lr=0.05, batch=16, seed=1)
    return models, data.images[:6]


def _cam_outputs(spec, ws, images):
    """Labels, maps and attack results as bytes and values, so == is byte equality."""
    labels = M.predict_labels(spec, ws, images)
    cams = S.predict_grad_cams(spec, ws, images, 1)[1]
    pl, gc, gcpp = S.predict_grad_cams(spec, ws, images)
    attacks = [A.cpm_perturb(spec, ws, x, CAM_GRID) for x in images[:3]]
    return ([a.tobytes() for a in (labels, cams, pl, gc, gcpp)],
            [(img.tobytes(), outcome) for img, outcome in attacks])


@pytest.mark.parametrize("arch,capture", [c[:2] for c in CAPTURES])
def test_cam_outputs_equal_the_full_tape_oracle(shapes_models, monkeypatch, arch, capture):
    models, images = shapes_models
    spec = M.ModelSpec(arch, input_size=16, classes=3, capture=capture)
    ws = models[arch]
    got = _cam_outputs(spec, ws, images)
    monkeypatch.setattr(M, "_run_stages", _full_tape_run_stages)
    tape = T.Tape()
    M.forward(spec, ws, images, tape=tape)
    assert len(tape) == 9  # the oracle is in place
    assert got == _cam_outputs(spec, ws, images)


@pytest.mark.parametrize("arch,capture,nodes", CAPTURES)
def test_forward_tape_holds_only_the_layers_after_the_capture_stage(arch, capture, nodes):
    spec = M.ModelSpec(arch, input_size=16, classes=3, capture=capture)
    ws = M.build(spec, seed=2)
    x = np.random.default_rng(3).uniform(0, 1, size=(2, 16, 16, 3)).astype(np.float32)
    tape = T.Tape()
    M.forward(spec, ws, x, tape=tape)
    assert len(tape) == nodes
    # the weights up to the capture stage are not on such a tape
    params = [T.Tensor(w) for w in ws]
    tape = T.Tape()
    logits, _ = M._run_stages(spec, params, x, tape, capture)
    score = T.class_score(tape, logits, 0)
    with pytest.raises(ValueError, match="gradient target was not recorded"):
        tape.gradients(score, params)
    # training tapes every layer
    tape = T.Tape()
    M._run_stages(spec, params, x, tape, None)
    assert len(tape) == 9


@pytest.mark.parametrize("arch", ["ARCH_A", "ARCH_B"])
@pytest.mark.parametrize("capture", ["conv1", "conv2", "conv3"])
def test_blocked_forward_equals_the_whole_batch_chain(arch, capture):
    spec = M.ModelSpec(arch, capture=capture)  # 32x32 inputs, 10 classes
    ws = M.build(spec, seed=11)
    xs = np.random.default_rng(12).uniform(0, 1, (135, 32, 32, 3)).astype(np.float32)
    labels = np.arange(135) % 10
    for n in (1, M.FORWARD_BLOCK - 1, M.FORWARD_BLOCK, M.FORWARD_BLOCK + 1, 135):
        got = M.forward(spec, ws, xs[:n], tape=T.Tape())
        tape = T.Tape()  # the oracle runs every layer once on the whole batch
        want = (*_full_tape_run_stages(spec, [T.Tensor(w) for w in ws], xs[:n], tape,
                                       capture), tape)
        assert got[0].data.tobytes() == want[0].data.tobytes(), n
        assert got[1].data.tobytes() == want[1].data.tobytes(), n
        g_got = S.label_grads(spec, ws, xs[:n], labels[:n])[1]
        g_want = T.grad_wrt(tape, T.class_score(tape, want[0], labels[:n]), want[1])
        assert g_got.tobytes() == g_want.tobytes(), n


def test_default_attack_and_prediction_stay_within_their_memory(traced_mb):
    # the blocked conv stages keep im2col buffers and activations the size
    # of a block; whole-batch stages peaked at 29.6 and 24.9 MB in this test.
    # The search widens only the feasible rows' gradients to float64; with
    # all 135 widened it peaked at 9.6 MB
    spec = M.ModelSpec()
    ws = M.build(spec, seed=0)
    images = D.generate_shapes(120, seed=5).images
    assert traced_mb(lambda: A.cpm_perturb(spec, ws, images[0], A.GridSpec()))[2] < 9
    assert traced_mb(lambda: M.predict_labels(spec, ws, images))[2] < 12


def test_a_training_step_stays_within_its_memory(traced_mb):
    # the tape keeps only what the backward reads and the replay frees
    # spent adjoints; with every intermediate held, a step peaked at 27.6 MB,
    # and with each conv2d's im2col columns held instead of its padded
    # input, at 15.7 MB
    spec = M.ModelSpec()
    ws = M.build(spec, seed=0)
    data = D.generate_shapes(32, seed=5)
    assert traced_mb(lambda: M.train(spec, ws, data, epochs=1, batch=32))[2] < 11


def test_a_taped_forward_frees_activations_the_next_layer_consumed(monkeypatch):
    spec = M.ModelSpec()
    ws = M.build(spec, seed=0)
    data = D.generate_shapes(32, seed=5)
    outputs = []
    relu = T.relu

    def spy(tape, x):
        out = relu(tape, x)
        outputs.append(weakref.ref(out.data))
        return out
    monkeypatch.setattr(T, "relu", spy)
    tape = T.Tape()
    params = [T.Tensor(w) for w in ws]
    logits, _ = M._run_stages(spec, params, data.images, tape, None)
    loss = T.softmax_cross_entropy(tape, logits, data.labels)
    assert len(outputs) == 3 and outputs[0]() is None  # conv1's ReLU output
    # the tape still replays, and replays again to the same bytes
    first = tape.gradients(loss, params)
    assert [g.tobytes() for g in first] == [g.tobytes() for g in tape.gradients(loss, params)]


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
                                      None)
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
    flat = SimpleNamespace(images=data.images, labels=data.labels[:, None])
    with pytest.raises(ValueError, match=r"labels must be \(8,\), got shape \(8, 1\)"):
        M.train(spec, w0, flat, epochs=1)


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
    back = load_weights(path)
    assert all(np.array_equal(a, b) for a, b in zip(ws, back))
    # loaded weights drive the model identically
    x = np.random.default_rng(16).uniform(0, 1, (2, 32, 32, 3)).astype(np.float32)
    la, _, _ = M.forward(spec, ws, x)
    lb, _, _ = M.forward(spec, back, x)
    assert np.array_equal(la.data, lb.data)
