"""Config parsing, command reports, CSV determinism, and CLI exit codes."""

import contextlib
import dataclasses
import errno
import hashlib
import importlib.util
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chromafl
import chromafl.attack as A
import chromafl.cli as cli
import chromafl.color as C
import chromafl.data as D
import chromafl.federated as F
import chromafl.harness as H
import chromafl.models as M
import chromafl.saliency as S
from chromafl.config import ConfigError, ExperimentConfig, load_config, override, parse_config
from readers import load_weights, read_ppm
from report_digests import digests, file_digest

F_FIELDS = F.RoundMetrics.FIELDS


def tiny_doc(out, **extra):
    doc = {
        "dataset": {"kind": "shapes", "n_train": 60, "n_test": 24,
                    "classes": 4, "size": 16},
        "train": {"epochs": 2},
        "fl": {"n_clients": 4, "select_k": 3, "rounds": 2, "adv_ratio": 0.5},
        "grid": {"hue": [0.0, 0.1, -0.1], "alpha": [0.8, 1.2],
                 "per_channel": False, "gamma": [0.8, 1.2], "beta": [0.0],
                 "composites": False},
        "metrics": {"probe_size": 6, "heatmap_dumps": 1},
        "attack": {"n_samples": 8, "compare_samples": 16},
        "out": str(out),
    }
    doc.update(extra)
    return doc


def tiny_cfg(out, **extra) -> ExperimentConfig:
    return parse_config(tiny_doc(out, **extra))


# ---------------------------------------------------------------- config


def test_defaults_config_is_valid():
    cfg = ExperimentConfig()
    assert cfg.dataset.kind == "shapes"
    assert cfg.fl.aggregator == "fedavg"
    assert cfg.grid.max_candidates == 500
    assert isinstance(cfg.grid, A.GridSpec)
    assert isinstance(cfg.fl, F.FLConfig)
    # the default compare set is the whole default test split, not a cut of 200
    assert cfg.attack.compare_samples == cfg.dataset.n_test == 120


def _readme_defaults() -> dict:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Configuration", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


def test_readme_defaults_block_is_the_default_config():
    doc = _readme_defaults()
    assert parse_config(doc) == ExperimentConfig()
    named = set()
    for key, value in doc.items():
        named |= {f"{key}.{k}" for k in value} if isinstance(value, dict) else {key}
    defaults = ExperimentConfig()
    settable = set()
    for f in dataclasses.fields(defaults):
        value = getattr(defaults, f.name)
        settable |= ({f"{f.name}.{g.name}" for g in dataclasses.fields(value)}
                     if dataclasses.is_dataclass(value) else {f.name})
    assert len(settable) == 39
    assert named == settable


def test_unknown_keys_fail_fast():
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config({"datset": {}})
    with pytest.raises(ConfigError, match="fl: unknown key"):
        parse_config({"fl": {"adversarail_ratio": 0.3}})
    with pytest.raises(ConfigError, match="grid: unknown key"):
        parse_config({"grid": {"hues": [0.0]}})


def test_value_validation():
    with pytest.raises(ConfigError, match="adv_ratio"):
        parse_config({"fl": {"adv_ratio": 1.5}})
    with pytest.raises(ConfigError, match="rounds"):
        parse_config({"fl": {"rounds": 0}})
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"dataset": {"kind": "imagenet"}})
    with pytest.raises(ConfigError, match="path is required"):
        parse_config({"dataset": {"kind": "cifar10"}})
    with pytest.raises(ConfigError, match="^dataset: path is read only for cifar10"):
        parse_config({"dataset": {"path": "/data/cifar"}})
    with pytest.raises(ConfigError, match="trim_k"):
        parse_config({"fl": {"aggregator": "trimmed_mean", "select_k": 2,
                             "trim_k": 1}})
    with pytest.raises(ConfigError, match="seed"):
        parse_config({"seed": -1})
    with pytest.raises(ConfigError, match="tau"):
        parse_config({"metrics": {"tau": 0.0}})
    with pytest.raises(ConfigError, match="unknown key.*k_fraction"):
        parse_config({"metrics": {"k_fraction": 0.1}})
    with pytest.raises(ConfigError, match="unknown key.*limit"):
        parse_config({"dataset": {"limit": 5}})
    with pytest.raises(ConfigError, match="fl: trim_k must be >= 0"):
        parse_config({"fl": {"trim_k": -1}})
    with pytest.raises(ConfigError, match="grid: alpha grid value 2.0"):
        parse_config({"grid": {"alpha": [1.0, 2.0]}})
    # the consuming code rejects these too, so the config must
    for section, key, value in [("fl", "lr", 0), ("fl", "lr", -0.1),
                                ("fl", "local_epochs", -1), ("fl", "batch", 0)]:
        with pytest.raises(ConfigError, match=f"^{section}: {key} must be"):
            parse_config({section: {key: value}})
    # NaN and ±Infinity pass every range check, so they are rejected as values
    for section, key, value in [("train", "lr", float("nan")),
                                ("fl", "adv_ratio", float("nan")),
                                ("fl", "lr", float("inf")),
                                ("train", "lr", 10 ** 400),  # overflows a float
                                ("attack", "delta_e_tol", float("-inf")),
                                ("grid", "hue", [0.0, float("nan")]),
                                ("grid", "beta", [float("inf")])]:
        with pytest.raises(ConfigError, match=f"^{section}: {key} must be finite"):
            parse_config({section: {key: value}})
    with pytest.raises(ConfigError, match="^train: lr must be finite"):
        parse_config(json.loads('{"train": {"lr": NaN}}'))
    # a value must have the JSON type of its field's default
    for section, key, value, expected in [
            ("train", "lr", "x", "a number"),
            ("train", "lr", True, "a number"),
            ("train", "epochs", 2.5, "an integer"),
            ("fl", "select_k", False, "an integer"),
            ("fl", "aggregator", 3, "a string"),
            ("grid", "composites", 1, "true or false"),
            ("grid", "hue", "abc", "a list of numbers"),
            ("grid", "alpha", [1.0, "x"], "a list of numbers"),
            ("grid", "gamma", [True], "a list of numbers"),
            ("dataset", "path", 7, "a string or null"),
            ("dataset", "n_train", None, "an integer")]:
        with pytest.raises(ConfigError, match=f"^{section}: {key} must be {expected}"):
            parse_config({section: {key: value}})
    cfg = parse_config({"train": {"lr": 1}, "grid": {"alpha": [1, 1.2]},
                        "dataset": {"path": None}})
    assert cfg.train.lr == 1 and cfg.grid.alpha == (1, 1.2)


def test_integer_values_for_float_fields_become_floats(tmp_path):
    cfg = parse_config({"fl": {"adv_ratio": 0}, "train": {"lr": 1},
                        "grid": {"beta": [-1, 0, 1]}})
    assert type(cfg.fl.adv_ratio) is float and type(cfg.train.lr) is float
    assert all(type(b) is float for b in cfg.grid.beta)
    assert type(cfg.fl.rounds) is int  # integer fields stay integers
    # every report prints the value the same way
    cfg = tiny_cfg(tmp_path, fl={"n_clients": 4, "select_k": 3, "rounds": 1,
                                 "adv_ratio": 0},
                   metrics={"probe_size": 4, "heatmap_dumps": 0})
    rep = H.cmd_fl(cfg)
    printed = set()
    for key in ("rounds_csv", "drift_csv", "summary_csv"):
        header, rows = H.read_csv(rep[key])
        printed.update(row[header.index("adv_ratio")] for row in rows)
    assert printed == {"0.000000000"}


def test_json_lists_become_grid_tuples(tmp_path):
    cfg = tiny_cfg(tmp_path)
    grid = cfg.grid
    assert grid.hue == (0.0, 0.1, -0.1)
    assert grid.per_channel is False


def test_load_config_file_roundtrip_and_errors(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path)))
    cfg = load_config(str(path))
    assert cfg.dataset.n_train == 60
    assert load_config(None) == ExperimentConfig()
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path))


def test_override_applies_seed_out_and_limit(tmp_path):
    cfg = tiny_cfg(tmp_path)
    cfg = override(cfg, seed=9, out="/elsewhere", limit=10)
    assert cfg.seed == 9
    assert cfg.out == "/elsewhere"
    assert cfg.dataset.n_train == 10
    assert cfg.attack.n_samples == 8  # already under the limit
    assert cfg.attack.compare_samples == 10
    with pytest.raises(ConfigError, match="--limit"):
        override(cfg, limit=0)


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "seed must be a non-negative integer"),
    ("seed", True, "seed must be a non-negative integer"),
    ("seed", 1.0, "seed must be a non-negative integer"),
    ("out", "", "out must be a non-empty path string"),
    ("out", None, "out must be a non-empty path string"),
])
def test_every_config_checks_seed_and_out(tmp_path, capsys, field, value, message):
    # the rule lives in ExperimentConfig, so a parsed, an overridden and a
    # replaced config all keep it
    cfg = tiny_cfg(tmp_path / "out")
    with pytest.raises(ConfigError, match=f"^{message}$"):
        dataclasses.replace(cfg, **{field: value})
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config({**tiny_doc(tmp_path / "out"), field: value})
    if field == "seed" and value == -1:
        path = tmp_path / "c.json"
        path.write_text(json.dumps(tiny_doc(tmp_path / "out")))
        assert cli.main(["baseline", "--config", str(path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert sorted(os.listdir(tmp_path)) == ["c.json"]


# ---------------------------------------------------------------- CSV files


def test_malloc_threshold_pinning_is_idempotent_and_skips_a_libc_without_mallopt():
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    chromafl._pin_malloc_thresholds(libc)
    chromafl._pin_malloc_thresholds(libc)
    assert calls == 2 * [(chromafl._M_MMAP_THRESHOLD, 32 << 20),
                         (chromafl._M_TRIM_THRESHOLD, 64 << 20)]
    chromafl._pin_malloc_thresholds()  # the process's own C library, again
    chromafl._pin_malloc_thresholds()
    chromafl._pin_malloc_thresholds(SimpleNamespace())  # no mallopt: returns, raises nothing


_PIN_PROBE = """
import ctypes, json, sys
calls = []

class RecordingLib:
    def __init__(self, name):
        calls.append(("CDLL", name))
        self.mallopt = lambda param, value: calls.append((param, value)) or 1

ctypes.CDLL = RecordingLib
import chromafl.models
print(json.dumps({"calls": calls, "harness": "chromafl.harness" in sys.modules}))
"""


def test_importing_only_models_pins_malloc_thresholds_without_the_harness():
    # a fresh interpreter, so the package is imported for the first time
    src = os.path.dirname(os.path.dirname(chromafl.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _PIN_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["calls"] == [["CDLL", None], [-3, 32 << 20], [-1, 64 << 20]]
    assert not got["harness"]


def test_write_csv_roundtrip_and_timestamp_comment(tmp_path):
    path = str(tmp_path / "t.csv")
    H.write_csv(path, ("a", "b"), [(1, 0.5), (2, float("nan"))])
    raw = open(path).read().splitlines()
    assert raw[0].startswith("# timestamp: ")
    header, rows = H.read_csv(path)
    assert header == ["a", "b"]
    assert rows == [["1", "0.500000000"], ["2", "nan"]]


# ---------------------------------------------------------------- data prep


def test_prepare_data_shapes_split_sizes_and_determinism(tmp_path):
    cfg = tiny_cfg(tmp_path)
    train, test = H.prepare_data(cfg)
    assert (len(train), len(test)) == (60, 24)
    train2, _ = H.prepare_data(cfg)
    np.testing.assert_array_equal(train.images, train2.images)
    # train and test streams must not collide
    assert not np.array_equal(train.images[:24], test.images)
    # the federated commands add a server-root split and leave the others as is
    fl_train, fl_test, root = H.prepare_data(cfg, cfg.fl.root_size)
    assert len(root) == 32
    np.testing.assert_array_equal(fl_train.images, train.images)
    np.testing.assert_array_equal(fl_test.images, test.images)


def _cifar_doc(tmp_path, records: int, seed: int, **dataset):
    ds = D.generate_shapes(records, classes=4, size=32, seed=seed)
    D.write_cifar10(str(tmp_path / "batch_0.bin"), ds)
    doc = tiny_doc(tmp_path / "out")
    doc["dataset"] = {"kind": "cifar10", "path": str(tmp_path), **dataset}
    return doc


def test_prepare_data_cifar_splits_are_disjoint_slices(tmp_path):
    doc = _cifar_doc(tmp_path, 40, 5, n_train=20, n_test=10)
    doc["fl"]["root_size"] = 4
    cfg = parse_config(doc)
    train, test = H.prepare_data(cfg)
    assert (len(train), len(test)) == (20, 10)
    full = D.load_cifar10(str(tmp_path))
    np.testing.assert_array_equal(test.images, full.images[20:30])
    _, _, root = H.prepare_data(cfg, cfg.fl.root_size)
    np.testing.assert_array_equal(root.images, full.images[30:34])
    doc["dataset"]["n_train"] = 60
    with pytest.raises(D.DataError, match=r"need 70 records \(train 60 \+ test 10\)"):
        H.prepare_data(parse_config(doc))


def test_prepare_data_cifar_decodes_only_needed_records(tmp_path, monkeypatch):
    doc = _cifar_doc(tmp_path, 50, 6, n_train=20, n_test=10)
    doc["fl"]["root_size"] = 4
    cfg = parse_config(doc)
    full = D.load_cifar10(str(tmp_path))
    decoded = []
    decode = D._decode_cifar_planes
    monkeypatch.setattr(D, "_decode_cifar_planes",
                        lambda raw: decoded.append(len(raw)) or decode(raw))
    train, test = H.prepare_data(cfg)
    _, _, root = H.prepare_data(cfg, cfg.fl.root_size)
    assert decoded == [30, 34]
    np.testing.assert_array_equal(train.images, full.images[:20])
    np.testing.assert_array_equal(test.labels, full.labels[20:30])
    np.testing.assert_array_equal(root.images, full.images[30:34])


def test_only_fltrust_and_robust_need_the_root_records(tmp_path, capsys):
    # 60 records hold train and test but not the default 32-image root
    doc = _cifar_doc(tmp_path, 60, 7, n_train=40, n_test=20)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    for command in ("baseline", "inspect", "fl"):  # fl under the default fedavg
        assert cli.main([command, "--config", str(path)]) == 0, capsys.readouterr().err
    capsys.readouterr()
    doc["fl"]["aggregator"] = "fltrust"
    doc["out"] = str(tmp_path / "fltrust_out")
    fltrust = tmp_path / "fltrust.json"
    fltrust.write_text(json.dumps(doc))
    for command, config, out in (("fl", fltrust, "fltrust_out"), ("robust", path, "out")):
        assert cli.main([command, "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "need 92 records (train 40 + test 20 + root 32), found 60" in err
        assert not (tmp_path / out / command).exists()


def test_fl_without_fltrust_builds_no_root_split(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    assert cfg.fl.aggregator == F.FEDAVG
    sizes = []
    real = H.prepare_data
    monkeypatch.setattr(H, "prepare_data",
                        lambda c, root_size=0: sizes.append(root_size) or real(c, root_size))
    assert list(H.run_fl(cfg, [F.FEDAVG])) == [F.FEDAVG]
    assert list(H.run_fl(cfg, [F.FEDAVG, F.FLTRUST])) == [F.FEDAVG, F.FLTRUST]
    assert sizes == [0, cfg.fl.root_size]


def _first_round_start(cfg, monkeypatch) -> list[np.ndarray]:
    """The weights the first ``run_round`` call of ``run_fl`` starts from;
    the run stops there."""
    class Started(Exception):
        pass

    def spy_round(spec, weights, *args, **kwargs):
        raise Started(weights)

    monkeypatch.setattr(F, "run_round", spy_round)
    with pytest.raises(Started) as info:
        H.run_fl(cfg, [cfg.fl.aggregator])
    return info.value.args[0]


def test_train_model_trains_only_for_positive_epochs(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    train, _ = H.prepare_data(cfg)
    spec = cfg.model.to_spec(cfg.dataset.size, cfg.dataset.classes)
    built = M.build(spec, seed=F._child_seed(cfg.seed, H._TAG_MODEL))
    # the fl warm start, pretrain_epochs 1, is one epoch at the train section's
    # lr and batch on the model stream's second seed
    warm = M.train(spec, built, train, 1, lr=cfg.train.lr, batch=cfg.train.batch,
                   seed=F._child_seed(cfg.seed, H._TAG_MODEL, 1))
    pretrained = _first_round_start(dataclasses.replace(
        cfg, fl=dataclasses.replace(cfg.fl, pretrain_epochs=1)), monkeypatch)
    assert [w.tobytes() for w in pretrained] == [w.tobytes() for w in warm]

    trained = []
    monkeypatch.setattr(M, "train", lambda *a, **k: trained.append(a))
    got_spec, got = H.train_model(cfg, train, 0)
    assert got_spec == spec
    assert [w.tobytes() for w in got] == [w.tobytes() for w in built]
    assert [w.tobytes() for w in _first_round_start(cfg, monkeypatch)] == \
        [w.tobytes() for w in built]
    assert trained == []


# ---------------------------------------------------------------- baseline


@pytest.fixture(scope="module")
def baseline_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("baseline")
    cfg = tiny_cfg(out)
    return cfg, H.cmd_baseline(cfg)


def test_baseline_report_files_and_preservation(baseline_report):
    cfg, rep = baseline_report
    assert rep["summary"]["attack_acc_pct"] == 100.0
    assert os.path.exists(rep["samples_csv"])
    assert os.path.exists(rep["summary_csv"])
    header, rows = H.read_csv(rep["samples_csv"])
    assert len(rows) == cfg.attack.n_samples
    assert header[:4] == ["sample", "label", "pred", "ssim"]
    # the worst-sample heatmap dump exists as PPM/PGM pairs
    assert os.path.exists(os.path.join(rep["out_dir"], "worst_00_orig.ppm"))
    assert os.path.exists(os.path.join(rep["out_dir"], "worst_00_pert_cam.pgm"))


def test_baseline_summary_columns_are_the_outcome_summary(baseline_report):
    _, rep = baseline_report
    header, (row,) = H.read_csv(rep["summary_csv"])
    stats = A.summarize_outcomes(rep["outcomes"])
    assert header == ["n", "attack_acc_pct", *list(stats)[1:]]
    assert list(rep["summary"]) == header
    assert row[2:] == [H._fmt(v) for v in list(stats.values())[1:]]


def test_baseline_summary_matches_per_sample_rows(baseline_report):
    _, rep = baseline_report
    header, rows = H.read_csv(rep["samples_csv"])
    ssim_col = header.index("ssim")
    ssims = np.array([float(r[ssim_col]) for r in rows])
    assert abs(ssims.mean() - rep["summary"]["ssim_mean"]) < 1e-9
    assert abs(ssims.std() - rep["summary"]["ssim_std"]) < 1e-9
    de_col = header.index("delta_e")
    des = np.array([float(r[de_col]) for r in rows])
    assert abs(des.mean() - rep["summary"]["delta_e_mean"]) < 1e-9


def test_identity_grid_baseline_reports_ssim_one(tmp_path):
    cfg = tiny_cfg(tmp_path, grid={"hue": [0.0], "alpha": [1.0],
                                   "per_channel": False, "gamma": [1.0],
                                   "beta": [0.0], "composites": False})
    cfg = dataclasses.replace(cfg, attack=dataclasses.replace(cfg.attack,
                                                              n_samples=4))
    rep = H.cmd_baseline(cfg)
    assert rep["summary"]["ssim_mean"] == 1.0
    assert rep["summary"]["ssim_std"] == 0.0
    assert rep["summary"]["fallback_rate"] == 1.0


# ---------------------------------------------------------------- fl


def test_fl_round_csv_shape_and_weights_artifact(tmp_path):
    cfg = tiny_cfg(tmp_path)
    rep = H.cmd_fl(cfg)
    header, rows = H.read_csv(rep["rounds_csv"])
    assert tuple(header) == F_FIELDS
    assert len(rows) == cfg.fl.rounds
    loaded = load_weights(os.path.join(rep["out_dir"], "global_weights.cdwt"))
    for a, b in zip(loaded, rep["weights"]):
        np.testing.assert_array_equal(a, b)
    assert os.path.exists(os.path.join(rep["out_dir"], "heatmaps",
                                       "round_01_probe_00.pgm"))
    # the last round's dump is the final global's Grad-CAM of the probe image
    # for the final twin's label, as a single-image pass computes it
    spec = cfg.model.to_spec(cfg.dataset.size, cfg.dataset.classes)
    probe = H.prepare_data(cfg)[1].images
    label = int(M.predict_labels(spec, rep["twin_weights"], probe[:1])[0])
    C.write_ppm(tmp_path / "expect.pgm",
                S.predict_grad_cams(spec, rep["weights"], probe[:1], label)[1][0])
    got = os.path.join(rep["out_dir"], "heatmaps", f"round_{cfg.fl.rounds:02d}_probe_00.pgm")
    with open(got, "rb") as fh:
        assert fh.read() == (tmp_path / "expect.pgm").read_bytes()


def test_fl_with_zero_adversaries_is_exact(tmp_path):
    cfg = tiny_cfg(tmp_path, fl={"n_clients": 4, "select_k": 3, "rounds": 2,
                                 "adv_ratio": 0.0})
    rep = H.cmd_fl(cfg)
    for m in rep["rounds"]:
        assert m.ssim_gc_mean == 1.0
        assert m.ssim_gcpp_mean == 1.0
        assert m.peak_pct_mean == 100.0
        assert m.l1_mean == 0.0
        assert m.fidelity_pct == 100.0
    for a, b in zip(rep["weights"], rep["twin_weights"]):
        np.testing.assert_array_equal(a, b)
    # emitted text carries the exact sentinel values
    _, rows = H.read_csv(rep["rounds_csv"])
    gc = F_FIELDS.index("ssim_gc_mean")
    peak = F_FIELDS.index("peak_pct_mean")
    l1 = F_FIELDS.index("l1_mean")
    for row in rows:
        assert row[gc] == "1.000000000"
        assert row[peak] == "100.000000000"
        assert row[l1] == "0.000000000"


# fl section, seed, and whether each round picks an adversary: none at all
# (under FLTrust); one in every round; and one of four clients, which seed 4
# leaves out of round 1 and picks in round 2, so the streams share round 1
# and diverge after it
STREAM_CASES = {
    "benign": ({"n_clients": 4, "select_k": 3, "rounds": 2, "adv_ratio": 0.0,
                "aggregator": "fltrust", "root_size": 8}, 0, [False, False]),
    "attacked": ({"n_clients": 4, "select_k": 3, "rounds": 2, "adv_ratio": 0.5},
                 0, [True, True]),
    "diverging": ({"n_clients": 4, "select_k": 2, "rounds": 3, "adv_ratio": 0.25},
                  4, [False, True, False]),
}


def _stream_cfg(tmp_path, case) -> ExperimentConfig:
    fl, seed, adversary_picked = STREAM_CASES[case]
    cfg = tiny_cfg(tmp_path, fl=fl, seed=seed)
    roles = F.assign_roles(cfg.fl.n_clients, cfg.fl.adv_ratio, seed)
    assert [any(roles[c] == F.ADVERSARIAL for c in F.select_clients(
        cfg.fl.n_clients, cfg.fl.select_k, seed, t))
        for t in range(1, cfg.fl.rounds + 1)] == adversary_picked
    return cfg


def _unshared_streams(cfg):
    """Both streams of ``run_fl`` rebuilt from ``run_round`` and
    ``compute_round_metrics`` alone, each call on its own weight copies."""
    train, test, root = H.prepare_data(cfg, cfg.fl.root_size)
    spec = cfg.model.to_spec(cfg.dataset.size, cfg.dataset.classes)
    roles = F.assign_roles(cfg.fl.n_clients, cfg.fl.adv_ratio, cfg.seed)
    adversaries = {i for i, role in enumerate(roles) if role == F.ADVERSARIAL}
    adv_share = len(adversaries) / len(roles)
    shards = [train.subset(idx) for idx in
              D.partition(train, cfg.fl.n_clients, cfg.fl.partition, seed=cfg.seed)]
    server_root = root if cfg.fl.aggregator == F.FLTRUST else None
    probe = test.images[:cfg.metrics.probe_size]
    w_init = M.build(spec, seed=F._child_seed(cfg.seed, H._TAG_MODEL))
    w_twin, w_main = [w.copy() for w in w_init], [w.copy() for w in w_init]
    rounds, heatmaps = [], []
    for t in range(1, cfg.fl.rounds + 1):
        w_twin = F.run_round(spec, w_twin, shards, (), cfg.fl, cfg.grid,
                             cfg.seed, t, server_root=server_root)
        w_main = F.run_round(spec, [w.copy() for w in w_main], shards, adversaries,
                             cfg.fl, cfg.grid, cfg.seed, t, server_root=server_root)
        m, cams = F.compute_round_metrics(spec, w_twin, [w.copy() for w in w_main],
                                          probe, test, round_index=t, adv_ratio=adv_share)
        rounds.append(m)
        heatmaps.append(cams[:cfg.metrics.heatmap_dumps])
    return {"weights": w_main, "twin_weights": w_twin, "rounds": rounds,
            "heatmaps": heatmaps}


@pytest.mark.parametrize("case", ["benign", "diverging"])
def test_shared_rounds_equal_the_unshared_streams_bit_for_bit(tmp_path, case):
    cfg = _stream_cfg(tmp_path, case)
    got = H.run_fl(cfg, [cfg.fl.aggregator])[cfg.fl.aggregator]
    want = _unshared_streams(cfg)
    for key in ("weights", "twin_weights"):
        assert [w.tobytes() for w in got[key]] == [w.tobytes() for w in want[key]]
        assert [w.dtype for w in got[key]] == [w.dtype for w in want[key]]
    assert got["rounds"] == want["rounds"]
    assert [[c.tobytes() for c in r] for r in got["heatmaps"]] == \
        [[c.tobytes() for c in r] for r in want["heatmaps"]]
    if case == "diverging":
        assert got["rounds"][1].ssim_gc_mean < 1.0  # the attack moved the maps


@pytest.mark.parametrize("case,per_round", [
    ("benign", [1, 1]),
    ("attacked", [2, 2]),
    ("diverging", [1, 2, 2]),
])
def test_run_fl_runs_a_shared_round_once(tmp_path, monkeypatch, case, per_round):
    # per round: run_round calls, and the probe passes of its metrics; a
    # shared round (one run_round call) builds no Grad-CAM++ and scores no
    # map, so it makes one Grad-CAM pass only when it keeps heatmaps, and a
    # round run per stream makes two CAM passes
    real_round = F.run_round
    rounds_run, cams_after, grads_after = [], [], []

    def spy_round(*args, **kwargs):
        rounds_run.append(args[7])
        return real_round(*args, **kwargs)

    def spy(after, real):
        def call(*args, **kwargs):
            after.append(rounds_run[-1])  # the round whose metrics these are
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(F, "run_round", spy_round)
    # federated's own calls into saliency, not the attack's
    monkeypatch.setattr(F, "S", SimpleNamespace(**{
        **vars(S), "predict_grad_cams": spy(cams_after, S.predict_grad_cams),
        "label_grads": spy(grads_after, S.label_grads)}))
    cfg = _stream_cfg(tmp_path, case)
    rounds = range(1, cfg.fl.rounds + 1)
    for dumps in (1, 0):
        for calls in (rounds_run, cams_after, grads_after):
            calls.clear()
        H.run_fl(dataclasses.replace(cfg, metrics=dataclasses.replace(
            cfg.metrics, heatmap_dumps=dumps)), [cfg.fl.aggregator])
        assert [rounds_run.count(t) for t in rounds] == per_round
        assert [cams_after.count(t) for t in rounds] == [0 if n == 1 else 2 for n in per_round]
        assert [grads_after.count(t) for t in rounds] == \
            [1 if n == 1 and dumps else 0 for n in per_round]


def test_run_fl_frees_the_training_split_before_the_first_round(tmp_path, monkeypatch):
    # every shard is a copy, so a train split kept past the sharding would
    # only add its size to the peak RSS of the rounds
    monkeypatch.setenv("CHROMAFL_WORKERS", "1")  # the spies run in this process
    cfg = tiny_cfg(tmp_path)
    real_prepare, real_round = H.prepare_data, F.run_round
    train_images, alive = [], []

    def spy_prepare(*args, **kwargs):
        splits = real_prepare(*args, **kwargs)
        train_images.append(weakref.ref(splits[0].images))
        return splits

    def spy_round(*args, **kwargs):
        alive.append(train_images[0]() is not None)
        return real_round(*args, **kwargs)

    monkeypatch.setattr(H, "prepare_data", spy_prepare)
    monkeypatch.setattr(F, "run_round", spy_round)
    H.run_fl(cfg, [cfg.fl.aggregator])
    assert len(train_images) == 1
    assert alive and not any(alive)


def test_fl_reports_drift_fit_when_attacked(tmp_path):
    cfg = tiny_cfg(tmp_path)
    rep = H.cmd_fl(cfg)
    assert np.isfinite(rep["summary"]["alpha_hat"])
    assert np.isfinite(rep["summary"]["r_squared"])
    header, rows = H.read_csv(rep["drift_csv"])
    assert header == ["round", "adv_ratio", "drift", "accuracy",
                      "twin_accuracy"]
    assert len(rows) == cfg.fl.rounds


@pytest.mark.parametrize("adv_ratio, realized", [(0.6, 0.5), (0.1, 0.0)])
def test_fl_drift_is_fitted_on_the_realized_adversary_share(tmp_path, adv_ratio, realized):
    # 4 clients hold round(4 * r) adversaries: 2 for 0.6, none for 0.1
    cfg = tiny_cfg(tmp_path, fl={"n_clients": 4, "select_k": 3, "rounds": 2,
                                 "adv_ratio": adv_ratio})
    rep = H.cmd_fl(cfg)
    _, rounds = H.read_csv(rep["rounds_csv"])
    _, drift = H.read_csv(rep["drift_csv"])
    assert [r[1] for r in drift] == [r[1] for r in rounds] == [f"{realized:.9f}"] * 2
    header, (summary,) = H.read_csv(rep["summary_csv"])
    summary = dict(zip(header, summary))
    assert summary["adv_ratio"] == f"{adv_ratio:.9f}"  # the config echo
    fit = (summary["alpha_hat"], summary["r_squared"])
    if realized:
        assert all(np.isfinite(float(v)) for v in fit)
    else:  # no round is attacked, so there is no slope to fit
        assert fit == ("nan", "nan")


def _load_perfbench(name, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def test_perfbench_tracer_wraps_the_commands(tmp_path, monkeypatch):
    # the benchmark's tracer wraps the package's public functions and binds
    # counter arguments by name: a renamed parameter breaks a traced run
    tracing = _load_perfbench("tracing", monkeypatch)
    bench = _load_perfbench("spec", monkeypatch)
    tracer = tracing.Tracer("smoke")
    tracer.install(chromafl)
    try:
        tracer.call(tracing.ROOT, lambda: (H.cmd_baseline(tiny_cfg(tmp_path / "b")),
                                           H.cmd_fl(tiny_cfg(tmp_path / "f"))), (), {})
    finally:
        tracer.uninstall()
    summary = tracer.summary()  # raises unless there is exactly one root span
    assert summary["negative_self"] == 0
    metrics = tracing.layer_metrics(tracing.merge([summary]), 0.0)
    assert {m.name for m in bench.PER_LAYER} <= set(metrics)
    assert not hasattr(H.prepare_data, "__wrapped__")  # uninstalled


@pytest.fixture
def perfbench(monkeypatch):
    """``_load_perfbench``, leaving ``sys.path`` and the modules under
    ``perfbench/`` in ``sys.modules`` as it found them."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    before = set(sys.modules)
    yield lambda name: _load_perfbench(name, monkeypatch)
    here = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    for name, mod in list(sys.modules.items()):
        path = getattr(mod, "__file__", None)
        if name not in before and path and os.path.dirname(os.path.realpath(path)) == here:
            del sys.modules[name]


def test_perfbench_reads_the_package_and_checks_its_reports(perfbench, baseline_report,
                                                            tmp_path):
    # run.py picks each workload's config seeds through the config parser,
    # the role draw and the selection; child.py checks the command reports.
    # A break in either shows otherwise only when a benchmark run fails.
    run, child = perfbench("run"), perfbench("child")
    got = {w: run.workload_inputs(w, 0, 30) for w in ("baseline", "fl_benign", "fl_attacked")}
    assert (got["baseline"]["config_seeds"], got["baseline"]["images"]) == ([0, 1, 2], 16)
    assert (got["fl_benign"]["config_seeds"], got["fl_benign"]["rounds"]) == ([0], 15)
    assert (got["fl_attacked"]["config_seeds"], got["fl_attacked"]["images"]) == ([3], 80)
    assert child.check_baseline(H, baseline_report[1]) == (0, [])
    cfg = tiny_cfg(tmp_path, fl={"n_clients": 4, "select_k": 3, "rounds": 2,
                                 "adv_ratio": 0.0})
    assert child.check_fl(H, H.cmd_fl(cfg), benign=True, rounds=cfg.fl.rounds) == (0, [])


# ---------------------------------------------------------------- ablation


def test_ablation_combined_dominates_singles(tmp_path):
    cfg = tiny_cfg(tmp_path, grid={"hue": [0.0, 0.1, -0.1],
                                   "alpha": [0.8, 1.0, 1.2],
                                   "per_channel": False,
                                   "gamma": [0.9, 1.0, 1.1],
                                   "beta": [0.0], "composites": True})
    rep = H.cmd_ablation(cfg)
    stats = rep["by_operator"]
    assert set(stats) == {"hue", "rescale", "jitter", "combined"}
    for name in ("hue", "rescale", "jitter"):
        assert stats["combined"]["ssim_mean"] <= stats[name]["ssim_mean"] + 1e-12
        assert stats["combined"]["success_pct"] >= stats[name]["success_pct"]
    header, rows = H.read_csv(rep["ablation_csv"])
    assert [r[0] for r in rows] == ["hue", "rescale", "jitter", "combined"]


def test_ablation_arms_keep_the_grid_candidate_cap(tmp_path, monkeypatch):
    # the default grid's rescale arm has 17 candidates, its combined grid 135
    cfg = tiny_cfg(tmp_path, grid={"max_candidates": 8})
    real = A.attack_images
    searched = []

    def spy(spec, weights, images, grid):
        searched.append(len(grid.candidates()))
        return real(spec, weights, images, grid)

    monkeypatch.setattr(A, "attack_images", spy)
    rep = H.cmd_ablation(dataclasses.replace(cfg, attack=dataclasses.replace(
        cfg.attack, n_samples=2)))
    assert searched == [7, 8, 8, 8]
    assert [r[1] for r in rep["rows"]] == [2, 2, 2, 2]


# ---------------------------------------------------------------- compare


def _spy_skew_scales(monkeypatch) -> list[float]:
    """The ``scale`` of every ``random_skew`` call, in call order."""
    scales, real = [], A.random_skew
    monkeypatch.setattr(A, "random_skew",
                        lambda x, seed, scale: scales.append(scale) or real(x, seed, scale))
    return scales


def test_compare_rows_and_cpm_preservation(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    scales = _spy_skew_scales(monkeypatch)
    rep = H.cmd_compare(cfg)
    assert rep["cpm"]["preserved_pct"] == 100.0
    assert rep["cpm"]["flips"] == 0
    assert rep["skew_matched"]["delta_e_mean"] > 0.0
    header, rows = H.read_csv(rep["compare_csv"])
    assert [r[0] for r in rows] == ["cpm", "skew_full", "skew_matched"]
    # the full-strength skew recolors less than the grid attack, by more
    # than the tolerance (about 4.3 against 8.9 ΔE00, tol 2.0); the strength
    # cannot exceed 1, so the matched arm is the full arm, rendered once
    assert rep["skew_full"]["delta_e_mean"] < rep["cpm"]["delta_e_mean"] - cfg.attack.delta_e_tol
    assert rep["skew_matched"]["scale"] == 1.0
    assert rows[2][1:] == rows[1][1:]
    assert scales == [1.0] * cfg.attack.compare_samples


def test_compare_matched_arm_equals_an_inline_skew_oracle(tmp_path, monkeypatch):
    # a grid of small hue shifts only: the full-strength skew recolors far
    # more, so the skew strength is bisected down
    cfg = tiny_cfg(tmp_path, grid={"hue": [0.0, 0.02, -0.02], "alpha": [1.0],
                                   "per_channel": False, "gamma": [1.0],
                                   "beta": [0.0], "composites": False})
    scales = _spy_skew_scales(monkeypatch)
    rep = H.cmd_compare(cfg)
    n, scale = cfg.attack.compare_samples, rep["skew_matched"]["scale"]
    assert scale < 1.0
    # each strength is rendered once, each probe's stack whole, and the
    # matched arm is the last probe
    probes = scales[::n]
    assert scales == [s for s in probes for _ in range(n)]
    assert len(set(probes)) == len(probes) > 1 and probes[0] == 1.0 and probes[-1] == scale

    train, test = H.prepare_data(cfg)
    spec, weights = H.train_model(cfg, train, cfg.train.epochs)
    images = test.images[:n]
    base = M.predict_labels(spec, weights, images)
    skewed = np.stack([A.random_skew(x, F._child_seed(cfg.seed, H._TAG_SKEW, i), scale)
                       for i, x in enumerate(images)])
    delta_e = float(np.array([C.mean_delta_e(x, y) for x, y in zip(images, skewed)]).mean())
    preds = M.predict_labels(spec, weights, skewed)
    ssim = S.ssim(S.predict_grad_cams(spec, weights, images, base)[1],
                  S.predict_grad_cams(spec, weights, skewed, base)[1])
    want = ("skew_matched", scale, n, int((preds != base).sum()),
            100.0 * float((preds == base).mean()), float(ssim.mean()), delta_e)
    assert rep["rows"][2] == want
    assert abs(delta_e - rep["cpm"]["delta_e_mean"]) <= 0.25 * cfg.attack.delta_e_tol


# ---------------------------------------------------------------- transfer


def test_transfer_same_arch_is_preserved_and_cross_reported(tmp_path):
    cfg = tiny_cfg(tmp_path)
    rep = H.cmd_transfer(cfg)
    same, cross = rep["rows"]
    assert same[0] == "same_arch" and cross[0] == "cross_arch"
    assert same[2] == 100.0
    assert cross[2] <= 100.0
    assert -1.0 <= cross[3] <= 1.0
    assert cross[1] == "ARCH_B"


# ---------------------------------------------------------------- one pass


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("command, stacks", [
    ("baseline", 2),  # the originals and the perturbed images
    ("compare", 3),  # originals, perturbed, full-strength skew
    ("transfer", 4),  # originals and perturbed, on each model
    ("inspect", 1),  # the original and its perturbation, stacked
])
def test_each_scored_stack_runs_through_a_model_once(tmp_path, monkeypatch, command, stacks):
    monkeypatch.setenv("CHROMAFL_WORKERS", "1")  # the spies count in this process
    seen = []
    in_attack = []
    forward, cpm_perturb = M.forward, A.cpm_perturb

    def spy_forward(spec, weights, x, tape=None):
        if not in_attack:
            seen.append(_digest(x, *weights) + spec.arch)
        return forward(spec, weights, x, tape)

    def spy_cpm(*args, **kwargs):
        in_attack.append(1)
        try:
            return cpm_perturb(*args, **kwargs)
        finally:
            in_attack.pop()
    monkeypatch.setattr(M, "forward", spy_forward)
    monkeypatch.setattr(A, "cpm_perturb", spy_cpm)
    cfg = tiny_cfg(tmp_path)
    if command == "inspect":
        H.cmd_inspect(cfg, sample_id=3)
    else:
        getattr(H, f"cmd_{command}")(cfg)
    assert len(seen) == len(set(seen)) == stacks


def test_inspect_attacks_its_sample_through_attack_images(tmp_path, monkeypatch):
    cfg = tiny_cfg(tmp_path)
    train, test = H.prepare_data(cfg)
    spec, weights = H.train_model(cfg, train, cfg.train.epochs)
    _, want = A.cpm_perturb(spec, weights, test.images[3], cfg.grid)
    real, stacks = A.attack_images, []

    def spy(spec, weights, images, grid):
        stacks.append(images.shape)
        return real(spec, weights, images, grid)
    monkeypatch.setattr(A, "attack_images", spy)
    rep = H.cmd_inspect(cfg, sample_id=3)
    assert stacks == [(1, 16, 16, 3)]
    assert rep["outcome"] == want
    assert rep["line"] == (f"sample 3: label={int(test.labels[3])} pred={want.label} "
                           f"ssim={want.ssim:.4f} delta_e={want.delta_e:.2f} "
                           f"fallback={want.fallback} theta={want.theta.as_row()}")


def test_inspect_checks_the_sample_id_before_any_data(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(H, "prepare_data", lambda *args: calls.append(args))
    assert cli.main(["inspect", "--sample", "100000", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("config error: sample id 100000 outside test set "
                                       "(0..119)\n")
    assert calls == []
    assert not (tmp_path / "inspect").exists()


# ---------------------------------------------------------------- robust


def test_robust_emits_one_row_per_aggregator(tmp_path):
    cfg = tiny_cfg(tmp_path)
    roles = F.assign_roles(cfg.fl.n_clients, cfg.fl.adv_ratio, cfg.seed)
    assert any(roles[c] == F.ADVERSARIAL for c in F.select_clients(
        cfg.fl.n_clients, cfg.fl.select_k, cfg.seed, 1))
    rep = H.cmd_robust(cfg)
    header, rows = H.read_csv(rep["robust_csv"])
    assert [r[0] for r in rows] == ["fedavg", "trimmed_mean", "median",
                                    "fltrust"]
    for row in rows:
        assert 0.0 <= float(row[1]) <= 100.0
    # each aggregator's streams, run from the one shared setup, equal a
    # standalone run of that aggregator bit for bit
    for agg in F.AGGREGATORS:
        sub = dataclasses.replace(cfg, fl=dataclasses.replace(cfg.fl, aggregator=agg))
        want = H.run_fl(sub, [agg])[agg]
        assert rep["runs"][agg]["rounds"] == want["rounds"], agg
        for key in ("weights", "twin_weights"):
            assert [w.tobytes() for w in rep["runs"][agg][key]] == \
                [w.tobytes() for w in want[key]], (agg, key)


def test_robust_builds_its_data_and_pretrained_global_once(tmp_path, monkeypatch):
    monkeypatch.setenv("CHROMAFL_WORKERS", "1")  # the spies count in this process
    cfg = tiny_cfg(tmp_path, fl={"n_clients": 4, "select_k": 3, "rounds": 1,
                                 "adv_ratio": 0.5, "pretrain_epochs": 1})
    pretrain_seed = F._child_seed(cfg.seed, H._TAG_MODEL, 1)
    real_prepare, real_train = H.prepare_data, M.train
    prepared, pretrained = [], []

    def spy_prepare(*args, **kwargs):
        prepared.append(1)
        return real_prepare(*args, **kwargs)

    def spy_train(*args, **kwargs):
        pretrained.append(kwargs["seed"] == pretrain_seed)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(H, "prepare_data", spy_prepare)
    monkeypatch.setattr(M, "train", spy_train)
    H.cmd_robust(cfg)
    assert len(prepared) == 1
    assert pretrained.count(True) == 1


def test_robust_rejects_untrimmable_selection(tmp_path):
    cfg = tiny_cfg(tmp_path, fl={"n_clients": 4, "select_k": 2, "rounds": 1,
                                 "adv_ratio": 0.5})
    with pytest.raises(ConfigError, match="trim_k"):
        H.cmd_robust(cfg)


# ---------------------------------------------------------------- repro


def test_rerun_reproduces_csv_bytes_modulo_timestamp(tmp_path):
    reports = []
    for run in ("a", "b"):
        cfg = tiny_cfg(tmp_path / run)
        for command in (H.cmd_baseline, H.cmd_fl, H.cmd_ablation, H.cmd_compare,
                        H.cmd_transfer, H.cmd_robust):
            command(cfg)
        H.cmd_inspect(cfg, sample_id=3)
        reports.append(dict(digests(tmp_path / run)))
    a, b = reports
    assert sorted(a) == sorted(b)
    assert {name.split("/")[0] for name in a} == {
        "baseline", "fl", "ablation", "compare", "transfer", "robust", "inspect"}
    assert {os.path.splitext(name)[1] for name in a} == {".csv", ".ppm", ".pgm", ".cdwt"}
    for name in a:
        assert a[name] == b[name], name


def test_different_seed_changes_report(tmp_path):
    cfg_a = tiny_cfg(tmp_path / "a")
    cfg_b = dataclasses.replace(tiny_cfg(tmp_path / "b"), seed=1)
    rep_a = H.cmd_baseline(cfg_a)
    rep_b = H.cmd_baseline(cfg_b)
    assert file_digest(rep_a["samples_csv"]) != file_digest(rep_b["samples_csv"])


# ---------------------------------------------------------------- cli


def test_cli_every_command_runs_its_harness_command_and_only_inspect_takes_sample(capsys):
    # subcommand x-y runs harness.cmd_x_y
    assert all(callable(getattr(H, "cmd_" + c.replace("-", "_"))) for c in cli.COMMANDS)
    assert cli.build_parser().parse_args(["inspect"]).sample == 0
    with pytest.raises(SystemExit) as exit_:
        cli.main(["baseline", "--sample", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --sample 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fl", "robust"])
def test_cli_too_many_clients_claims_no_limit(tmp_path, capsys, command):
    # the same words whether n_train comes from the config or from --limit
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"dataset": {"n_train": 5}}))
    for flags in (["--config", str(small)], ["--limit", "5"]):
        assert cli.main([command, "--out", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err == ("config error: fl.n_clients=10 exceeds "
                                           "dataset.n_train=5: each client needs a "
                                           "training image\n")
    assert not (tmp_path / command).exists()


def test_cli_baseline_exit_zero_and_output(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "out")))
    rc = cli.main(["baseline", "--config", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "attack_acc_pct: 100.0" in out
    assert (tmp_path / "out" / "baseline" / "samples.csv").exists()


def test_cli_gen_data_and_inspect(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "out")))
    assert cli.main(["gen-data", "--config", str(path), "--limit", "12"]) == 0
    assert (tmp_path / "out" / "gen_data" / "labels.csv").exists()
    assert cli.main(["inspect", "--config", str(path), "--sample", "2"]) == 0
    out = capsys.readouterr().out
    assert "sample 2:" in out
    assert (tmp_path / "out" / "inspect" / "sample_00002_orig.ppm").exists()


def test_cli_gen_data_rejects_a_cifar10_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"kind": "cifar10",
                                            "path": str(tmp_path / "nodir")},
                                "out": str(tmp_path / "out")}))
    assert cli.main(["gen-data", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: gen-data writes the synthetic shapes dataset only; "
                   "dataset.kind is 'cifar10'\n")
    assert not (tmp_path / "out").exists()


def test_cli_exit_codes_for_config_and_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fl": {"bogus_key": 1}}))
    assert cli.main(["fl", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    cifar = tmp_path / "cifar.json"
    cifar.write_text(json.dumps({"dataset": {"kind": "cifar10",
                                             "path": str(tmp_path / "nodir")}}))
    assert cli.main(["baseline", "--config", str(cifar), "--out", str(tmp_path)]) == 3
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "baseline").exists()
    # fewer training samples than clients: caught before any data is built
    assert cli.main(["fl", "--limit", "5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_clients" in err
    assert "Traceback" not in err
    assert not (tmp_path / "fl").exists()
    assert cli.main(["robust", "--limit", "5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n_clients" in err
    assert "Traceback" not in err
    assert not (tmp_path / "robust").exists()
    # robust always runs trimmed_mean, which needs select_k > 2*trim_k
    untrimmable = tmp_path / "untrimmable.json"
    untrimmable.write_text(json.dumps({"fl": {"select_k": 2, "trim_k": 1},
                                       "out": str(tmp_path)}))
    assert cli.main(["robust", "--config", str(untrimmable)]) == 2
    assert capsys.readouterr().err == ("config error: fl: select_k=2 must exceed "
                                       "2*trim_k=2 for trimmed_mean\n")
    assert not (tmp_path / "robust").exists()
    # a value FLConfig rejects is a config error at parse time
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"fl": {"trim_k": -1}, "out": str(tmp_path)}))
    assert cli.main(["fl", "--config", str(negative)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "trim_k" in err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "fl").exists()
    # a non-finite number is a config error, not a report full of NaN
    nan_lr = tmp_path / "nan_lr.json"
    nan_lr.write_text('{"train": {"lr": NaN}, "out": "%s"}' % tmp_path)
    assert cli.main(["baseline", "--config", str(nan_lr)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: train: lr must be finite")
    assert "Traceback" not in err
    assert not (tmp_path / "baseline").exists()
    # json refuses integers longer than 4300 digits, and bytes that are not UTF-8
    for name, blob in (("long_int.json", b'{"seed": ' + b"1" * 5000 + b"}"),
                       ("latin1.json", b'{"out": "caf\xe9"}')):
        (tmp_path / name).write_bytes(blob)
        assert cli.main(["baseline", "--config", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "invalid JSON" in err
        assert "Traceback" not in err
    # a diverged model (finite weights, infinite logits) is a numerical failure
    diverged = tmp_path / "diverged.json"
    diverged.write_text(json.dumps({"train": {"lr": 1000.0, "epochs": 1},
                                    "dataset": {"n_train": 40, "n_test": 20},
                                    "attack": {"n_samples": 4},
                                    "metrics": {"heatmap_dumps": 0},
                                    "out": str(tmp_path)}))
    assert cli.main(["baseline", "--config", str(diverged)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "baseline").exists()
    # a diverged fl run: huge but finite logits reach the attack's Grad-CAM
    # score before a forward fails; a warning would be a second stderr line
    diverged_fl = tmp_path / "diverged_fl.json"
    diverged_fl.write_text(json.dumps({
        "train": {"lr": 1000.0},
        "fl": {"pretrain_epochs": 1, "rounds": 2, "n_clients": 4, "select_k": 2},
        "dataset": {"n_train": 40, "n_test": 20, "size": 16},
        "metrics": {"probe_size": 8, "heatmap_dumps": 2}, "out": str(tmp_path)}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["fl", "--config", str(diverged_fl)]) == 4
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "fl").exists()



_CONFIG_ERRORS = [
    ({"dataset": {"size": 8}}, "dataset: size must be >= 16 for shapes, got 8"),
    ({"dataset": {"classes": 11}}, "dataset: classes must be in 2..10 for shapes, got 11"),
    ({"dataset": {"classes": 1}}, "dataset: classes must be in 2..10 for shapes, got 1"),
    ({"dataset": {"kind": "cifar10", "path": "data", "size": 16}},
     "dataset: cifar10 images are 32x32 in 10 classes"),
    ({"dataset": {"kind": "cifar10", "path": "data", "classes": 4}},
     "dataset: cifar10 images are 32x32 in 10 classes"),
    ({"dataset": {"path": "/data/cifar"}},
     "dataset: path is read only for cifar10; kind is 'shapes'"),
    ({"dataset": {"n_train": 0}}, "dataset: n_train and n_test must be >= 1"),
    ({"dataset": {"n_test": 0}}, "dataset: n_train and n_test must be >= 1"),
    ({"train": {"epochs": -1}}, "train: epochs must be >= 0"),
    ({"train": {"lr": 0}}, "train: lr must be > 0"),
    ({"train": {"batch": 0}}, "train: batch must be >= 1"),
    ({"metrics": {"probe_size": 0}}, "metrics: probe_size must be >= 1"),
    ({"metrics": {"heatmap_dumps": -1}}, "metrics: heatmap_dumps must be >= 0"),
    ({"attack": {"n_samples": 0}}, "attack: n_samples and compare_samples must be >= 1"),
    ({"attack": {"compare_samples": 0}},
     "attack: n_samples and compare_samples must be >= 1"),
    ({"attack": {"delta_e_tol": 0}}, "attack: delta_e_tol must be > 0"),
    ({"fl": {"partition": "dirichlet"}}, "fl: partition must be 'iid' or 'label_skew'"),
    ({"fl": {"root_size": 0}}, "fl: root_size must be >= 1"),
    ({"fl": {"pretrain_epochs": -1}}, "fl: pretrain_epochs must be >= 0"),
    ({"train": [1]}, "train: expected an object, got list"),
    ([{"dataset": {}}], "config root must be a JSON object"),
]


# each case's id is its section and index, then its message
@pytest.mark.parametrize("doc, message", _CONFIG_ERRORS, ids=[
    f"{next(iter(doc)) if isinstance(doc, dict) else 'root'}{i}-{message}"
    for i, (doc, message) in enumerate(_CONFIG_ERRORS)])
def test_cli_dataset_size_and_classes_out_of_range_are_config_errors(
        tmp_path, capsys, doc, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    for command in ("gen-data", "baseline"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_an_unused_transfer_model_section_is_still_checked(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"transfer_model": {"arch": "ARCH_Z", "capture": "conv9"},
                                "out": str(tmp_path / "out")}))
    for command in ("baseline", "transfer"):
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: transfer_model: unknown architecture 'ARCH_Z'")
        assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_gen_data_checks_the_model_section(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": {"capture": "conv9"},
                                "out": str(tmp_path / "out")}))
    assert cli.main(["gen-data", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: model: capture stage 'conv9' not in")
    assert not (tmp_path / "out").exists()


def test_cli_a_size_the_model_cannot_pool_fails_before_any_data(tmp_path, capsys,
                                                                 monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("generate_shapes ran")
    monkeypatch.setattr(D, "generate_shapes", no_data)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dataset": {"size": 18}, "out": str(tmp_path / "out")}))
    for command in ("gen-data", "baseline"):
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: model: input size 18 does not pool evenly at conv2\n"
    assert not (tmp_path / "out").exists()


def _csv_cells(path):
    """(row name, column, cell) triples of a report CSV, comment lines
    skipped; a row's name is its first cell."""
    header, rows = H.read_csv(path)
    return [(row[0], col, cell) for row in rows for col, cell in zip(header, row)]


def _non_finite(cell) -> bool:
    try:
        return not np.isfinite(float(cell))
    except ValueError:  # a name, not a number
        return False


@st.composite
def _fl_sections(draw):
    """Valid ``fl`` sections: ``select_k`` within ``n_clients``, and
    trimmed_mean only where ``select_k`` exceeds ``2 * trim_k``."""
    n_clients = draw(st.integers(1, 4))
    select_k = draw(st.integers(1, n_clients))
    aggregators = ["fedavg", "median", "fltrust"] + ["trimmed_mean"] * (select_k > 2)
    return {"rounds": draw(st.integers(1, 2)), "n_clients": n_clients,
            "select_k": select_k, "adv_ratio": draw(st.sampled_from([0.0, 0.5, 1.0])),
            "aggregator": draw(st.sampled_from(aggregators)),
            "partition": draw(st.sampled_from(["iid", "label_skew"])),
            "pretrain_epochs": draw(st.integers(0, 1)),
            "root_size": draw(st.sampled_from([1, 4]))}


_TINY_DOCS = st.fixed_dictionaries({
    "dataset": st.fixed_dictionaries({
        "size": st.sampled_from([16, 24]),
        "classes": st.integers(2, 10),
        "n_train": st.integers(1, 40),
        "n_test": st.integers(1, 40)}),
    "train": st.fixed_dictionaries({"epochs": st.integers(0, 1)}),
    "fl": _fl_sections(),
    "grid": st.fixed_dictionaries({
        # hue deltas are turns: 0.75 and -0.6 wrap around the hue circle
        "hue": st.sampled_from([[], [0.0], [0.0, 0.1], [0.1, -0.1], [0.75, -0.6]]),
        "alpha": st.sampled_from([[], [1.0], [0.8, 1.2]]),
        "per_channel": st.booleans(),
        "gamma": st.sampled_from([[], [1.0], [0.8]]),
        "beta": st.sampled_from([[], [0.0], [0.1]]),
        "composites": st.booleans(),
        "max_candidates": st.integers(1, 6)}),
    "metrics": st.fixed_dictionaries({
        # 33 probe images run the blocked forward on two blocks
        "probe_size": st.sampled_from([1, 2, 3, 4, 33]), "heatmap_dumps": st.integers(0, 2)}),
    "attack": st.fixed_dictionaries({"n_samples": st.integers(1, 3)}),
    "seed": st.integers(0, 3),
})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(doc=_TINY_DOCS)
# config errors, which every command reports with exit 2
@example(doc={"dataset": {"size": 8}})
@example(doc={"dataset": {"size": 17}})
@example(doc={"dataset": {"classes": 1}})
@example(doc={"dataset": {"classes": 11}})
@example(doc={"fl": {"n_clients": 2, "select_k": 3}})
@example(doc={"fl": {"aggregator": "trimmed_mean", "select_k": 2}})
@example(doc={"dataset": {"size": 16, "classes": 3, "n_train": 24, "n_test": 34},
              "train": {"epochs": 1},
              "fl": {"rounds": 1, "n_clients": 3, "select_k": 3, "root_size": 2},
              "grid": {"hue": [0.0, 0.1], "alpha": [1.0], "per_channel": False,
                       "gamma": [1.0], "beta": [0.0], "composites": False},
              "metrics": {"probe_size": 33}, "attack": {"n_samples": 1}})
# an --out under a regular file (the config file itself), relative to the run's
# temporary directory
@example(doc={"out": "c.json/sub"})
# a one-image FLTrust root, a label-skewed partition, a pretrained global,
# wrapping hue deltas, and empty and one-value grid lists
@example(doc={"dataset": {"size": 16, "classes": 4, "n_train": 16, "n_test": 6},
              "train": {"epochs": 1},
              "fl": {"rounds": 2, "n_clients": 4, "select_k": 3, "adv_ratio": 0.5,
                     "aggregator": "fltrust", "root_size": 1,
                     "partition": "label_skew", "pretrain_epochs": 1},
              "grid": {"hue": [0.75, -0.6], "alpha": [], "per_channel": True,
                       "gamma": [0.8], "beta": [], "composites": True,
                       "max_candidates": 3},
              "metrics": {"probe_size": 2, "heatmap_dumps": 1},
              "attack": {"n_samples": 2}})
def test_cli_fuzzed_tiny_configs_keep_the_exit_code_contract(doc):
    # an exception escaping cli.main is the traceback the contract forbids
    n_test = doc.get("dataset", {}).get("n_test", ExperimentConfig().dataset.n_test)
    fl = {**dataclasses.asdict(ExperimentConfig().fl), **doc.get("fl", {})}
    adversaries = F.assign_roles(fl["n_clients"], fl["adv_ratio"], 0).count(F.ADVERSARIAL)
    calls = [[c] for c in ("gen-data", "baseline", "fl", "ablation", "compare",
                           "transfer", "robust")]
    calls += [["inspect", "--sample", str(n_test - 1)], ["inspect", "--sample", str(n_test)]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for call in calls:
            command = call[0]
            out = os.path.join(tmp, doc.get("out", "_".join(call)))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = cli.main(call + ["--config", path, "--out", out])
            assert rc in (0, 2), (call, rc, err.getvalue())
            # an FLTrust round with no trusted update is skipped, and says so
            assert all(str(w.message).startswith("fltrust: ") for w in caught), call
            assert "Traceback" not in err.getvalue()
            if call[-1] == str(n_test) or "out" in doc:
                assert rc == 2, (call, err.getvalue())
            if rc != 0:
                assert not os.path.exists(out), (call, rc, err.getvalue())
                continue
            for root, _, names in os.walk(out):
                for name in names:
                    if not name.endswith(".csv"):
                        continue
                    for first, col, cell in _csv_cells(os.path.join(root, name)):
                        # the drift fit is undefined when no client is
                        # adversarial, and compare's grid arm has no skew scale
                        undefined = ((name == "summary.csv" and command == "fl"
                                      and col in ("alpha_hat", "r_squared")
                                      and not adversaries)
                                     or (name == "compare.csv" and col == "scale"
                                         and first == "cpm"))
                        assert _non_finite(cell) == undefined, (call, name, col, cell)


def test_cli_fl_non_finite_aggregate_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHROMAFL_WORKERS", "1")  # "second" is an order in one process
    # the second client trained in round 1 comes back with one NaN weight;
    # fedavg carries it into the global, and the round must stop there
    real_train = M.train
    calls = []

    def train_one_nan_client(*args, **kwargs):
        ws = real_train(*args, **kwargs)
        calls.append(len(calls))
        if len(calls) == 2:
            ws[0] = ws[0].copy()
            ws[0].flat[0] = np.nan
        return ws

    monkeypatch.setattr(M, "train", train_one_nan_client)
    path = tmp_path / "nan_client.json"
    path.write_text(json.dumps({
        "fl": {"aggregator": "fedavg", "pretrain_epochs": 0, "rounds": 2,
               "n_clients": 4, "select_k": 2},
        "dataset": {"n_train": 40, "n_test": 20, "size": 16},
        "metrics": {"probe_size": 8, "heatmap_dumps": 2}, "out": str(tmp_path)}))
    assert cli.main(["fl", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err == "numerical failure: round 1: fedavg aggregation gave non-finite weights\n"
    assert len(calls) == 2
    assert not (tmp_path / "fl").exists()


@pytest.mark.parametrize("threads", ["abc", "0", "-1", "1.5", ""])
def test_cli_rejects_a_thread_count_that_is_not_a_positive_integer(
        tmp_path, capsys, monkeypatch, threads):
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas_vars:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("CHROMAFL_THREADS", threads)
    assert cli.main(["gen-data", "--limit", "12", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: CHROMAFL_THREADS must be a positive integer, got {threads!r}\n"
    assert not (tmp_path / "gen_data").exists()
    assert not any(var in os.environ for var in blas_vars)


def test_cli_thread_count_fills_only_unset_blas_variables(tmp_path, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("CHROMAFL_THREADS", "1")
    assert cli.main(["gen-data", "--limit", "12", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "gen_data" / "labels.csv").exists()
    assert [os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")] == ["1", "2", "1"]


def test_cli_seed_and_out_flags_override_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "ignored")))
    rc = cli.main(["baseline", "--config", str(path), "--seed", "7",
                   "--out", str(tmp_path / "flagged")])
    assert rc == 0
    assert (tmp_path / "flagged" / "baseline" / "summary.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_empty_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "cfgout")))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="out must be a non-empty path string"):
        override(tiny_cfg(tmp_path), out="")
    assert cli.main(["baseline", "--config", str(path), "--out", ""]) == 2
    assert capsys.readouterr().err == "config error: out must be a non-empty path string\n"
    monkeypatch.setenv("CHROMAFL_OUT", "")
    assert cli.main(["baseline", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: out must be a non-empty path string\n"
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


def test_cli_filesystem_errors_are_config_errors(tmp_path, capsys, monkeypatch):
    def one_config_error_line(fragment):
        err = capsys.readouterr().err
        assert err.startswith("config error:") and fragment in err, err
        assert err.count("\n") == 1 and "Traceback" not in err

    assert cli.main(["baseline", "--config", str(tmp_path)]) == 2
    one_config_error_line("cannot read config file")
    # an unusable --out is found before any data is built
    monkeypatch.setattr(D, "generate_shapes",
                        lambda *a, **k: pytest.fail("data built before the --out check"))
    afile = tmp_path / "afile"
    afile.write_text("")
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / "baseline").write_text("")
    for command, out in (("gen-data", afile / "sub"), ("fl", afile),
                         ("baseline", tmp_path / "o")):
        assert cli.main([command, "--out", str(out), "--limit", "5"]) == 2
        one_config_error_line("is not a directory")
    assert afile.read_text() == "" and sorted(os.listdir(tmp_path / "o")) == ["baseline"]


def test_cli_cifar_read_errors_are_data_errors(tmp_path, capsys, monkeypatch):
    def one_data_error_line(fragment):
        err = capsys.readouterr().err
        assert err.startswith("data error:") and fragment in err, err
        assert err.count("\n") == 1 and "Traceback" not in err

    # a directory named like a batch file is not read as one
    (tmp_path / "only_dir" / "data_batch_1.bin").mkdir(parents=True)
    doc = tiny_doc(tmp_path / "out")
    doc["dataset"] = {"kind": "cifar10", "path": str(tmp_path / "only_dir")}
    (tmp_path / "c.json").write_text(json.dumps(doc))
    assert cli.main(["baseline", "--config", str(tmp_path / "c.json")]) == 3
    one_data_error_line("holds no .bin batch files")
    mixed = tmp_path / "mixed"
    (mixed / "data_batch_1.bin").mkdir(parents=True)
    D.write_cifar10(str(mixed / "data_batch_2.bin"), D.generate_shapes(3, seed=1))
    assert len(D.load_cifar10(str(mixed))) == 3
    # a batch file that cannot be read
    (tmp_path / "d").mkdir()
    (tmp_path / "d.json").write_text(json.dumps(_cifar_doc(tmp_path / "d", 30, 7)))

    def unreadable(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    monkeypatch.setattr(D, "open", unreadable, raising=False)
    assert cli.main(["baseline", "--config", str(tmp_path / "d.json")]) == 3
    one_data_error_line(f"batch_0.bin: cannot read: {os.strerror(errno.EACCES)}")
    assert not (tmp_path / "out").exists() and not (tmp_path / "d" / "out").exists()


def _raw_bytes(out) -> dict:
    """Every file under ``out`` whole, timestamp lines included."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _fails_on_call(real, n, error):
    """``real``, except that its ``n``-th call raises ``error``."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == n:
            raise error
        return real(*args, **kwargs)
    wrapper.calls = calls
    return wrapper


def test_cli_a_report_that_cannot_be_written_is_a_config_error(tmp_path, capsys,
                                                                monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "out")))
    enospc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    message = (f"config error: out: cannot write {tmp_path / 'out' / 'baseline'}: "
               f"{os.strerror(errno.ENOSPC)}\n")
    with monkeypatch.context() as m:
        m.setattr(H, "write_csv", _fails_on_call(H.write_csv, 1, enospc))
        assert cli.main(["baseline", "--config", str(path)]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()  # this run made it, so it goes
    # an earlier run survives a failed rerun byte for byte
    assert cli.main(["baseline", "--config", str(path)]) == 0
    earlier = _raw_bytes(tmp_path / "out")
    capsys.readouterr()
    monkeypatch.setattr(H, "write_csv", _fails_on_call(H.write_csv, 2, enospc))
    assert cli.main(["baseline", "--config", str(path)]) == 2
    assert capsys.readouterr().err == message
    assert _raw_bytes(tmp_path / "out") == earlier
    assert os.listdir(tmp_path / "out") == ["baseline"]


def test_cli_a_failed_write_removes_the_directories_the_run_made(tmp_path, capsys,
                                                                 monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "unused")))
    # samples.csv is written, summary.csv not
    failing = _fails_on_call(H.write_csv, 2, OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    monkeypatch.setattr(H, "write_csv", failing)
    out = tmp_path / "o2" / "fresh"
    assert cli.main(["baseline", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: out: cannot write") and err.count("\n") == 1
    assert failing.calls[0] == str(out / f".baseline.partial-{os.getpid()}" / "samples.csv")
    assert not (tmp_path / "o2").exists()


# ---------------------------------------------------------------- publish


def _csv(value) -> tuple:
    return ("x",), [(value,)]


def _text(value):
    return lambda path: Path(path).write_text(value)


def test_publish_an_interrupt_mid_write_keeps_the_earlier_run(tmp_path):
    cfg = parse_config({"out": str(tmp_path / "out")})
    H.publish(cfg, "baseline", {"a.csv": _csv(1), "b.pgm": _text("b")})
    earlier = _raw_bytes(tmp_path / "out")

    def interrupted(path):
        with open(path, "w") as fh:
            fh.write("half")
            raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        H.publish(cfg, "baseline", {"a.csv": _csv(2), "b.pgm": interrupted})
    assert _raw_bytes(tmp_path / "out") == earlier
    assert os.listdir(tmp_path / "out") == ["baseline"]


def test_publish_a_failed_swap_puts_the_earlier_run_back(tmp_path, monkeypatch):
    cfg = parse_config({"out": str(tmp_path / "out")})
    H.publish(cfg, "baseline", {"a.csv": _csv(1)})
    earlier = _raw_bytes(tmp_path / "out")
    # the first rename moves the earlier run aside, the second would publish
    monkeypatch.setattr(os, "rename", _fails_on_call(os.rename, 2, OSError(
        errno.EXDEV, os.strerror(errno.EXDEV))))
    with pytest.raises(ConfigError, match=f"cannot write {tmp_path / 'out' / 'baseline'}: "):
        H.publish(cfg, "baseline", {"a.csv": _csv(2)})
    assert _raw_bytes(tmp_path / "out") == earlier
    assert os.listdir(tmp_path / "out") == ["baseline"]


def test_publish_drops_a_leftover_partial_directory(tmp_path):
    cfg = parse_config({"out": str(tmp_path)})
    stray = tmp_path / f".baseline.partial-{os.getpid()}" / "stray.csv"
    stray.parent.mkdir()
    stray.write_text("stale")
    report = H.publish(cfg, "baseline", {"a.csv": _csv(1)})
    assert report == {"out_dir": str(tmp_path / "baseline"),
                      "a_csv": str(tmp_path / "baseline" / "a.csv")}
    assert os.listdir(tmp_path / "baseline") == ["a.csv"]
    assert sorted(os.listdir(tmp_path)) == ["baseline"]


def test_publish_gives_the_mode_of_a_plain_makedirs(tmp_path):
    os.makedirs(tmp_path / "plain")
    H.publish(parse_config({"out": str(tmp_path / "out")}), "fl",
              {"heatmaps/h.pgm": _text("")})
    modes = {stat.S_IMODE(os.stat(p).st_mode) for p in (
        tmp_path / "plain", tmp_path / "out", tmp_path / "out" / "fl",
        tmp_path / "out" / "fl" / "heatmaps")}
    assert len(modes) == 1


def test_publish_unlinks_a_symlinked_report_directory(tmp_path):
    target = tmp_path / "elsewhere"
    target.mkdir()
    (target / "keep.csv").write_text("kept")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "baseline").symlink_to(target)
    H.publish(parse_config({"out": str(tmp_path / "out")}), "baseline", {"a.csv": _csv(1)})
    assert not (tmp_path / "out" / "baseline").is_symlink()
    assert os.listdir(tmp_path / "out" / "baseline") == ["a.csv"]
    assert os.listdir(target) == ["keep.csv"] and (target / "keep.csv").read_text() == "kept"
    assert os.listdir(tmp_path / "out") == ["baseline"]


def test_a_rerun_leaves_no_file_of_an_earlier_run(tmp_path):
    """Fewer heatmap dumps, another inspect sample and a smaller gen-data
    replace the earlier files instead of adding to them."""
    for dumps in (3, 1):
        (tmp_path / f"d{dumps}.json").write_text(json.dumps(
            tiny_doc(tmp_path / "unused", metrics={"probe_size": 6, "heatmap_dumps": dumps})))

    def run(out, dumps, sample, limit):
        config = ["--config", str(tmp_path / f"d{dumps}.json"), "--out", str(out)]
        for call in (["baseline"], ["fl"], ["inspect", "--sample", str(sample)],
                     ["gen-data", "--limit", str(limit)]):
            assert cli.main(call + config) == 0, call

    run(tmp_path / "reused", 3, 0, 12)
    run(tmp_path / "reused", 1, 1, 3)
    run(tmp_path / "fresh", 1, 1, 3)
    assert digests(tmp_path / "reused") == digests(tmp_path / "fresh")


def test_cli_gen_data_prints_its_summary_and_directory_once(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "out")))
    assert cli.main(["gen-data", "--config", str(path), "--limit", "12"]) == 0
    assert capsys.readouterr().out == (
        f"count: 12\nclasses: 4\nreports written to {tmp_path / 'out' / 'gen_data'}\n")


def test_gen_data_dumps_the_train_split_as_ppm_and_a_labels_index(tmp_path):
    cfg = tiny_cfg(tmp_path, dataset={"kind": "shapes", "n_train": 4, "n_test": 2,
                                      "classes": 4, "size": 16})
    report = H.cmd_gen_data(cfg)
    train = H.prepare_data(cfg)[0]
    out = tmp_path / "gen_data"
    assert report["out_dir"] == str(out)
    assert sorted(os.listdir(out)) == ["labels.csv", "sample_00000.ppm", "sample_00001.ppm",
                                       "sample_00002.ppm", "sample_00003.ppm"]
    img = read_ppm(out / "sample_00002.ppm")
    assert np.abs(img - train.images[2]).max() <= 0.5 / 255.0 + 1e-9
    lines = (out / "labels.csv").read_text().splitlines()
    assert lines == ["index,label"] + [f"{i},{int(y)}" for i, y in enumerate(train.labels)]


def test_cli_out_env_fallback(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "cfgout")))
    monkeypatch.setenv("CHROMAFL_OUT", str(tmp_path / "envout"))
    assert cli.main(["gen-data", "--config", str(path)]) == 0
    assert (tmp_path / "envout" / "gen_data" / "labels.csv").exists()
