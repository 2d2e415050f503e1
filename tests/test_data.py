"""Dataset readers, the shapes generator, and client partitioning."""

import numpy as np
import pytest

from chromafl import color as C
from chromafl import data as D


def de00(rgb1, rgb2) -> float:
    return float(C.delta_e2000_lab(C.srgb_to_lab(rgb1), C.srgb_to_lab(rgb2)))


# ---------------------------------------------------------------- cifar

def craft_cifar10_bytes(n=4, seed=0):
    """Hand-build CIFAR-10 records: label byte + R, G, B planes."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    planes = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
    recs = np.concatenate([labels[:, None], planes], axis=1)
    return recs.tobytes(), labels, planes


def test_cifar10_reader_decodes_crafted_records(tmp_path):
    blob, labels, planes = craft_cifar10_bytes(n=5, seed=1)
    path = tmp_path / "batch.bin"
    path.write_bytes(blob)
    ds = D.load_cifar10(path)
    assert len(ds) == 5
    assert ds.classes == 10
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    # plane layout: record holds R then G then B planes, row-major
    r_plane = planes[0, :1024].reshape(32, 32)
    assert np.array_equal(ds.images[0, :, :, 0], r_plane.astype(np.float32) / 255.0)
    g_plane = planes[0, 1024:2048].reshape(32, 32)
    assert np.array_equal(ds.images[0, :, :, 1], g_plane.astype(np.float32) / 255.0)
    assert ds.images.dtype == np.float32
    assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0


def test_cifar10_reader_respects_limit_and_directories(tmp_path):
    blob1, labels1, _ = craft_cifar10_bytes(n=3, seed=2)
    blob2, labels2, _ = craft_cifar10_bytes(n=3, seed=3)
    (tmp_path / "data_batch_1.bin").write_bytes(blob1)
    (tmp_path / "data_batch_2.bin").write_bytes(blob2)
    ds = D.load_cifar10(tmp_path)
    assert len(ds) == 6
    assert np.array_equal(ds.labels[:3], labels1.astype(np.int64))
    ds4 = D.load_cifar10(tmp_path, limit=4)
    assert len(ds4) == 4
    assert np.array_equal(ds4.images, ds.images[:4])


def test_cifar10_reader_rejects_bad_sizes_and_labels(tmp_path):
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x00" * 3072)  # one byte shy of a record
    with pytest.raises(D.DataError, match="multiple of 3073"):
        D.load_cifar10(short)
    bad = tmp_path / "badlabel.bin"
    rec = bytearray(3073)
    rec[0] = 11
    bad.write_bytes(bytes(rec))
    with pytest.raises(D.DataError, match="exceeds 9"):
        D.load_cifar10(bad)
    with pytest.raises(D.DataError, match="no such"):
        D.load_cifar10(tmp_path / "missing.bin")
    empty_dir = tmp_path / "empty"
    empty_dir.mkdir()
    with pytest.raises(D.DataError, match="no .bin"):
        D.load_cifar10(empty_dir)
    one = tmp_path / "one.bin"
    one.write_bytes(bytes(3073))
    with pytest.raises(D.DataError, match="limit must be >= 1, got 0"):
        D.load_cifar10(one, limit=0)


def test_cifar10_writer_rejects_bad_sizes_and_labels(tmp_path):
    small = D.LabeledDataset(np.zeros((1, 16, 16, 3), np.float32), np.zeros(1, np.int64), 10)
    with pytest.raises(D.DataError, match=r"32x32x3, got images \(16, 16, 3\)"):
        D.write_cifar10(tmp_path / "small.bin", small)
    eleven = D.LabeledDataset(np.zeros((1, 32, 32, 3), np.float32), np.full(1, 10), 11)
    with pytest.raises(D.DataError, match=r"CIFAR-10 labels must be 0\.\.9"):
        D.write_cifar10(tmp_path / "eleven.bin", eleven)
    assert not (tmp_path / "small.bin").exists() and not (tmp_path / "eleven.bin").exists()


def test_cifar10_decode_encode_roundtrip_is_byte_exact(tmp_path):
    blob, _, _ = craft_cifar10_bytes(n=6, seed=4)
    src = tmp_path / "in.bin"
    src.write_bytes(blob)
    ds = D.load_cifar10(src)
    dst = tmp_path / "out.bin"
    D.write_cifar10(dst, ds)
    assert dst.read_bytes() == blob


# ---------------------------------------------------------------- shapes

def reference_shapes(n, classes, size, seed):
    """The generator drawn one image and one value at a time, with the
    background redrawn until it contrasts: the oracle for the chunked one."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A9E5)))
    images = np.zeros((n, size, size, 3), dtype=np.float32)
    labels = (np.arange(n) % classes).astype(np.int64)
    masks = np.zeros((n, size, size), dtype=bool)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    for i in range(n):
        cls = int(labels[i])
        hue = (cls / classes + rng.uniform(-0.02, 0.02)) % 1.0
        fg = C.hsv_to_rgb(np.array([hue, rng.uniform(0.8, 1.0), rng.uniform(0.75, 0.95)]))
        for _ in range(200):
            bg = C.hsv_to_rgb(np.array([rng.uniform(0.0, 1.0),
                                        rng.uniform(0.0, 0.2),
                                        rng.uniform(0.05, 0.35)]))
            if de00(fg, bg) >= D.MIN_FG_BG_DELTA_E:
                break
        else:
            raise RuntimeError("could not find a contrasting background")
        cy = size / 2.0 + rng.uniform(-size / 8.0, size / 8.0)
        cx = size / 2.0 + rng.uniform(-size / 8.0, size / 8.0)
        r = size * rng.uniform(0.26, 0.36)
        mask = D._shape_mask(cls, yy, xx, cy, cx, r)
        img = np.empty((size, size, 3), dtype=np.float64)
        img[:] = bg
        img[mask] = fg
        img += rng.uniform(-0.02, 0.02, size=img.shape)
        images[i] = np.clip(img, 0.0, 1.0).astype(np.float32)
        masks[i] = mask
    return images, labels, masks


@pytest.mark.parametrize("n, classes, size, seed", [
    (1, 3, 17, 2),
    (D.SHAPES_CHUNK - 1, 10, 32, 0),
    (D.SHAPES_CHUNK, 2, 16, 1),
    (D.SHAPES_CHUNK + 1, 3, 33, 9),
    (D.SHAPES_CHUNK + 1, 10, 24, 4),
    (552, 10, 32, 3),
    (552, 3, 16, 13),
    (2300, 2, 24, 777),
])
def test_shapes_generator_matches_the_per_image_reference_bytewise(n, classes, size, seed):
    ds = D.generate_shapes(n, classes=classes, size=size, seed=seed)
    images, labels, _ = reference_shapes(n, classes, size, seed)
    assert ds.images.tobytes() == images.tobytes()
    assert ds.labels.tobytes() == labels.tobytes()


def test_shapes_draw_box_keeps_fg_bg_contrast_well_above_the_threshold():
    # corners and middles of every S/V range, fg hue over the whole circle
    # (any class count's band lies inside it), bg hue every 5 degrees
    lo, hi = D._draw_box(32)
    ends = lo + (hi - lo) * np.linspace(0.0, 1.0, 3)[:, None]  # (low, middle, high) x 9

    def lab(h, s, v):
        hsv = np.stack(np.broadcast_arrays(h[:, None, None], s[None, :, None],
                                           v[None, None, :]), axis=-1)
        return C.srgb_to_lab(C.hsv_to_rgb(hsv.reshape(-1, 3)))

    fg = lab(np.linspace(0.0, 1.0, 721), ends[:, 1], ends[:, 2])
    bg = lab(np.linspace(0.0, 1.0, 73), ends[:, 4], ends[:, 5])
    low = min(C.delta_e2000_lab(fg[i:i + 64, None], bg[None]).min()
              for i in range(0, len(fg), 64))
    assert low >= 12.0 > D.MIN_FG_BG_DELTA_E


def test_shapes_generator_raises_when_a_pair_lacks_contrast(monkeypatch):
    # the first chunk holds a pair under 40 units, so the check must fire
    monkeypatch.setattr(D, "MIN_FG_BG_DELTA_E", 40.0)
    with pytest.raises(RuntimeError, match="under 40.0 CIEDE2000"):
        D.generate_shapes(D.SHAPES_CHUNK)


@pytest.mark.parametrize("size", [16, 17, 32, 33])
def test_generator_uniform_is_lo_plus_span_times_random(size):
    # the chunked generator draws rng.random and maps it itself
    bounds = list(zip(*D._draw_box(size))) + [D._NOISE]
    for j, (lo, hi) in enumerate(bounds):
        a = np.random.default_rng(j)
        b = np.random.default_rng(j)
        scalars = np.array([a.uniform(lo, hi) for _ in range(200)])
        assert scalars.tobytes() == (lo + (hi - lo) * b.random(200)).tobytes()
        block = a.uniform(lo, hi, size=(7, 3))
        assert block.tobytes() == (lo + (hi - lo) * b.random((7, 3))).tobytes()


def test_shapes_generator_memory_is_its_outputs_plus_one_chunk(traced_mb):
    D.generate_shapes(40)  # first-call allocations are not the generator's
    ds, _, peak = traced_mb(lambda: D.generate_shapes(552))
    outputs = (ds.images.nbytes + ds.labels.nbytes) / 2**20
    assert peak < outputs + 2


def test_shapes_generator_is_deterministic():
    a = D.generate_shapes(20, classes=4, size=32, seed=9)
    b = D.generate_shapes(20, classes=4, size=32, seed=9)
    c = D.generate_shapes(20, classes=4, size=32, seed=10)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_shapes_labels_cover_classes_evenly():
    ds = D.generate_shapes(40, classes=4, size=32, seed=11)
    counts = np.bincount(ds.labels, minlength=4)
    assert np.array_equal(counts, np.full(4, 10))
    assert len(ds) == 40
    assert ds.images.shape == (40, 32, 32, 3)
    assert ds.images.dtype == np.float32


def test_shapes_fg_bg_perceptual_contrast_holds():
    ds = D.generate_shapes(30, classes=10, size=32, seed=12)
    masks = reference_shapes(30, 10, 32, 12)[2]
    for i in range(len(ds)):
        mask = masks[i]
        assert 0 < mask.sum() < mask.size
        fg = ds.images[i][mask].mean(axis=0)
        bg = ds.images[i][~mask].mean(axis=0)
        # mean colors keep most of the generator's >= 10 dE00 guarantee;
        # noise and anti-edge effects may nibble a little
        assert de00(fg, bg) >= 8.0


def test_shapes_classes_use_distinct_hues():
    ds = D.generate_shapes(100, classes=10, size=32, seed=13)
    masks = reference_shapes(100, 10, 32, 13)[2]
    mean_hue = np.zeros(10)
    for c in range(10):
        hues = []
        for i in np.flatnonzero(ds.labels == c):
            fg = ds.images[i][masks[i]].mean(axis=0)
            hues.append(float(C._rgb_to_hsv64(fg)[0]))
        ang = 2 * np.pi * np.asarray(hues)  # circular mean: hue wraps at 1
        mean_hue[c] = np.mod(np.arctan2(np.sin(ang).mean(), np.cos(ang).mean())
                             / (2 * np.pi), 1.0)
    for a in range(10):
        for b in range(a + 1, 10):
            d = abs(mean_hue[a] - mean_hue[b])
            assert min(d, 1.0 - d) >= 0.05, f"classes {a} and {b} hug the same hue"


def test_shapes_validation():
    with pytest.raises(ValueError, match="classes"):
        D.generate_shapes(10, classes=1)
    with pytest.raises(ValueError, match="classes"):
        D.generate_shapes(10, classes=11)
    with pytest.raises(ValueError, match="size"):
        D.generate_shapes(10, classes=4, size=8)
    with pytest.raises(ValueError, match="sample"):
        D.generate_shapes(0, classes=4)
    grid = np.zeros((4, 4))
    with pytest.raises(ValueError, match="no shape with id 10"):
        D._shape_mask(10, grid, grid, 2.0, 2.0, 1.0)


# ---------------------------------------------------------------- partition

def toy_dataset(n, classes=10, seed=0):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0, 1, size=(n, 16, 16, 3)).astype(np.float32)
    labels = (np.arange(n) % classes).astype(np.int64)
    return D.LabeledDataset(images, labels, classes=classes)


def test_partition_iid_ten_over_two():
    ds = toy_dataset(10)
    parts = D.partition(ds, 2, mode=D.IID, seed=0)
    assert [len(p) for p in parts] == [5, 5]
    union = np.sort(np.concatenate(parts))
    assert np.array_equal(union, np.arange(10))


def test_partition_iid_near_equal_and_exact_union():
    ds = toy_dataset(103)
    parts = D.partition(ds, 4, mode=D.IID, seed=1)
    assert sorted(len(p) for p in parts) == [25, 26, 26, 26]
    union = np.sort(np.concatenate(parts))
    assert np.array_equal(union, np.arange(103))


def test_partition_is_deterministic_in_seed():
    ds = toy_dataset(50)
    a = D.partition(ds, 5, mode=D.IID, seed=7)
    b = D.partition(ds, 5, mode=D.IID, seed=7)
    c = D.partition(ds, 5, mode=D.IID, seed=8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_partition_label_skew_dominance_and_union():
    ds = toy_dataset(400, classes=10)
    parts = D.partition(ds, 5, mode=D.LABEL_SKEW, seed=2)
    union = np.sort(np.concatenate(parts))
    assert np.array_equal(union, np.arange(400))
    for i, part in enumerate(parts):
        dom = {(2 * i) % 10, (2 * i + 1) % 10}
        frac = np.isin(ds.labels[part], list(dom)).mean()
        assert frac >= 0.75, f"client {i} got only {frac:.0%} dominant labels"


def test_partition_label_skew_handles_exhausted_pools():
    # only 2 classes: every client's dominant pair collapses onto them
    ds = toy_dataset(60, classes=2)
    parts = D.partition(ds, 6, mode=D.LABEL_SKEW, seed=3)
    union = np.sort(np.concatenate(parts))
    assert np.array_equal(union, np.arange(60))
    assert all(len(p) == 10 for p in parts)


def test_partition_validation():
    ds = toy_dataset(10)
    with pytest.raises(ValueError, match="n_clients"):
        D.partition(ds, 0)
    with pytest.raises(ValueError, match="cannot split"):
        D.partition(ds, 11)
    with pytest.raises(ValueError, match="unknown partition"):
        D.partition(ds, 2, mode="dirichlet")


# ---------------------------------------------------------------- misc

def test_labeled_dataset_validation_and_subset():
    with pytest.raises(D.DataError, match="images"):
        D.LabeledDataset(np.zeros((2, 16, 16)), np.zeros(2), classes=2)
    with pytest.raises(D.DataError, match="labels"):
        D.LabeledDataset(np.zeros((2, 16, 16, 3)), np.zeros(3), classes=2)
    with pytest.raises(D.DataError, match="out of range"):
        D.LabeledDataset(np.zeros((2, 16, 16, 3)), np.array([0, 5]), classes=2)
    ds = toy_dataset(10)
    sub = ds.subset([3, 5, 7])
    assert len(sub) == 3
    assert np.array_equal(sub.images[1], ds.images[5])
