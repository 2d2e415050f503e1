"""Config parsing, command reports, CSV determinism, and CLI exit codes."""

import dataclasses
import importlib.util
import json
import os
import sys
import warnings

import numpy as np
import pytest

import chromafl
import chromafl.attack as A
import chromafl.cli as cli
import chromafl.data as D
import chromafl.federated as F
import chromafl.harness as H
import chromafl.models as M
import chromafl.saliency as S
import chromafl.tensor as T
from chromafl.config import ConfigError, ExperimentConfig, load_config, override, parse_config

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


# ---------------------------------------------------------------- CSV files


def test_write_csv_roundtrip_and_timestamp_comment(tmp_path):
    path = str(tmp_path / "t.csv")
    H.write_csv(path, ("a", "b"), [(1, 0.5), (2, float("nan"))])
    raw = open(path).read().splitlines()
    assert raw[0].startswith("# timestamp: ")
    header, rows = H.read_csv(path)
    assert header == ["a", "b"]
    assert rows == [["1", "0.500000000"], ["2", "nan"]]


def strip_timestamp(path):
    with open(path, "rb") as fh:
        return b"".join(ln for ln in fh if not ln.startswith(b"#"))


# ---------------------------------------------------------------- data prep


def test_prepare_data_shapes_split_sizes_and_determinism(tmp_path):
    cfg = tiny_cfg(tmp_path)
    train, test, root = H.prepare_data(cfg)
    assert (len(train), len(test), len(root)) == (60, 24, 32)
    train2, _, _ = H.prepare_data(cfg)
    np.testing.assert_array_equal(train.images, train2.images)
    # train and test streams must not collide
    assert not np.array_equal(train.images[:24], test.images)


def test_prepare_data_cifar_splits_are_disjoint_slices(tmp_path):
    ds = D.generate_shapes(40, classes=4, size=32, seed=5)
    D.write_cifar10(str(tmp_path / "batch_0.bin"), ds)
    doc = tiny_doc(tmp_path)
    doc["dataset"] = {"kind": "cifar10", "path": str(tmp_path),
                      "n_train": 20, "n_test": 10}
    doc["fl"]["root_size"] = 4
    cfg = parse_config(doc)
    train, test, root = H.prepare_data(cfg)
    assert (len(train), len(test), len(root)) == (20, 10, 4)
    full = D.load_cifar10(str(tmp_path))
    np.testing.assert_array_equal(test.images, full.images[20:30])
    doc["dataset"]["n_train"] = 60
    with pytest.raises(D.DataError, match="need"):
        H.prepare_data(parse_config(doc))


def test_prepare_data_cifar_decodes_only_needed_records(tmp_path, monkeypatch):
    ds = D.generate_shapes(50, classes=4, size=32, seed=6)
    D.write_cifar10(str(tmp_path / "batch_0.bin"), ds)
    full = D.load_cifar10(str(tmp_path))
    decoded = []
    decode = D._decode_cifar_planes
    monkeypatch.setattr(D, "_decode_cifar_planes",
                        lambda raw: decoded.append(len(raw)) or decode(raw))
    doc = tiny_doc(tmp_path)
    doc["dataset"] = {"kind": "cifar10", "path": str(tmp_path),
                      "n_train": 20, "n_test": 10}
    doc["fl"]["root_size"] = 4
    train, test, root = H.prepare_data(parse_config(doc))
    assert decoded == [34]
    np.testing.assert_array_equal(train.images, full.images[:20])
    np.testing.assert_array_equal(test.labels, full.labels[20:30])
    np.testing.assert_array_equal(root.images, full.images[30:34])


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
    loaded = T.load_weights(rep["weights_path"])
    for a, b in zip(loaded, rep["weights"]):
        np.testing.assert_array_equal(a, b)
    assert os.path.exists(os.path.join(rep["out_dir"], "heatmaps",
                                       "round_01_probe_00.pgm"))
    # the last round's dump is the final global's Grad-CAM of the probe image
    # for the final twin's label, as a single-image pass computes it
    spec, probe = rep["spec"], rep["probe"]
    label = int(M.predict_labels(spec, rep["twin_weights"], probe[:1])[0])
    S.save_pgm(tmp_path / "expect.pgm", S.grad_cam(spec, rep["weights"], probe[0], label))
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


def test_fl_reports_drift_fit_when_attacked(tmp_path):
    cfg = tiny_cfg(tmp_path)
    rep = H.cmd_fl(cfg)
    assert np.isfinite(rep["alpha"])
    assert np.isfinite(rep["r_squared"])
    header, rows = H.read_csv(rep["drift_csv"])
    assert header == ["round", "adv_ratio", "drift", "accuracy",
                      "twin_accuracy"]
    assert len(rows) == cfg.fl.rounds


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
        assert stats["combined"]["attack_success_pct"] >= stats[name]["attack_success_pct"]
    header, rows = H.read_csv(rep["ablation_csv"])
    assert [r[0] for r in rows] == ["hue", "rescale", "jitter", "combined"]


# ---------------------------------------------------------------- compare


def test_compare_rows_and_cpm_preservation(tmp_path):
    cfg = tiny_cfg(tmp_path)
    rep = H.cmd_compare(cfg)
    assert rep["cpm"]["preserved_pct"] == 100.0
    assert rep["cpm"]["flips"] == 0
    assert rep["skew_matched"]["delta_e_mean"] > 0.0
    header, rows = H.read_csv(rep["compare_csv"])
    assert [r[0] for r in rows] == ["cpm", "skew_full", "skew_matched"]
    assert 0.0 < rep["skew_matched"]["scale"] <= 1.0


# ---------------------------------------------------------------- transfer


def test_transfer_same_arch_is_preserved_and_cross_reported(tmp_path):
    cfg = tiny_cfg(tmp_path)
    rep = H.cmd_transfer(cfg)
    same, cross = rep["same_arch"], rep["cross_arch"]
    assert same[0] == "same_arch" and cross[0] == "cross_arch"
    assert same[2] == 100.0
    assert cross[2] <= 100.0
    assert -1.0 <= cross[3] <= 1.0
    assert cross[1] == "ARCH_B"


# ---------------------------------------------------------------- robust


def test_robust_emits_one_row_per_aggregator(tmp_path):
    cfg = tiny_cfg(tmp_path)
    rep = H.cmd_robust(cfg)
    header, rows = H.read_csv(rep["robust_csv"])
    assert [r[0] for r in rows] == ["fedavg", "trimmed_mean", "median",
                                    "fltrust"]
    for row in rows:
        assert 0.0 <= float(row[1]) <= 100.0


def test_robust_rejects_untrimmable_selection(tmp_path):
    cfg = tiny_cfg(tmp_path, fl={"n_clients": 4, "select_k": 2, "rounds": 1,
                                 "adv_ratio": 0.5})
    with pytest.raises(ConfigError, match="trim_k"):
        H.cmd_robust(cfg)


# ---------------------------------------------------------------- repro


def test_rerun_reproduces_csv_bytes_modulo_timestamp(tmp_path):
    cfg_a = tiny_cfg(tmp_path / "a")
    cfg_b = tiny_cfg(tmp_path / "b")
    rep_a = H.cmd_baseline(cfg_a)
    rep_b = H.cmd_baseline(cfg_b)
    assert strip_timestamp(rep_a["samples_csv"]) == strip_timestamp(rep_b["samples_csv"])
    assert strip_timestamp(rep_a["summary_csv"]) == strip_timestamp(rep_b["summary_csv"])
    fl_a = H.cmd_fl(cfg_a)
    fl_b = H.cmd_fl(cfg_b)
    assert strip_timestamp(fl_a["rounds_csv"]) == strip_timestamp(fl_b["rounds_csv"])


def test_different_seed_changes_report(tmp_path):
    cfg_a = tiny_cfg(tmp_path / "a")
    cfg_b = dataclasses.replace(tiny_cfg(tmp_path / "b"), seed=1)
    rep_a = H.cmd_baseline(cfg_a)
    rep_b = H.cmd_baseline(cfg_b)
    assert strip_timestamp(rep_a["samples_csv"]) != strip_timestamp(rep_b["samples_csv"])


# ---------------------------------------------------------------- cli


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
    # robust always runs trimmed_mean, which needs select_k > 2*trim_k
    untrimmable = tmp_path / "untrimmable.json"
    untrimmable.write_text(json.dumps({"fl": {"select_k": 2, "trim_k": 1},
                                       "out": str(tmp_path)}))
    assert cli.main(["robust", "--config", str(untrimmable)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
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


def test_cli_seed_and_out_flags_override_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "ignored")))
    rc = cli.main(["baseline", "--config", str(path), "--seed", "7",
                   "--out", str(tmp_path / "flagged")])
    assert rc == 0
    assert (tmp_path / "flagged" / "baseline" / "summary.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_cli_out_env_fallback(tmp_path, monkeypatch):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(tiny_doc(tmp_path / "cfgout")))
    monkeypatch.setenv("CHROMAFL_OUT", str(tmp_path / "envout"))
    assert cli.main(["gen-data", "--config", str(path)]) == 0
    assert (tmp_path / "envout" / "gen_data" / "labels.csv").exists()
