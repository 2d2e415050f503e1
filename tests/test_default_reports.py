"""tools/default_reports.py, which runs every command and lists the reports."""

import json
import os
import subprocess
import sys

import chromafl
import chromafl.data as D
import default_reports
from report_digests import digests

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
TINY = os.path.join(os.path.dirname(__file__), "golden", "tiny.json")


def _tool(name, *args):
    return subprocess.run([sys.executable, os.path.join(TOOLS, name), *map(str, args)],
                          capture_output=True, text=True, timeout=600)


def test_lists_the_reports_of_all_eight_commands(tmp_path):
    out = tmp_path / "out"
    done = _tool("default_reports.py", out, "--config", TINY)
    assert done.returncode == 0, done.stderr
    listing = done.stdout
    dirs = {line.split("  ", 1)[1].split("/", 1)[0] for line in listing.splitlines()}
    assert dirs == {"baseline", "fl", "ablation", "compare", "transfer", "robust",
                    "gen_data", "inspect"}
    assert listing == _tool("report_digests.py", out).stdout


def test_run_twice_in_one_process(tmp_path, monkeypatch):
    # from a path without this checkout's src, as the tool starts, the first
    # call adds it and the second neither adds it again nor writes other bytes
    monkeypatch.setenv("CHROMAFL_THREADS", "1")
    monkeypatch.setattr(sys, "path", [p for p in sys.path if p != default_reports.SRC])
    outs = [str(tmp_path / name) for name in ("first", "second")]
    for out in outs:
        assert default_reports.run(out, ["--config", TINY]) is None
    assert digests(outs[0]) == digests(outs[1])
    assert sys.path.count(default_reports.SRC) == 1
    assert chromafl.__file__.startswith(default_reports.SRC + os.sep)


def test_arguments_the_cli_rejects_fail_the_first_command(tmp_path, monkeypatch):
    # argparse exits instead of returning; run reports it like any failure
    monkeypatch.setenv("CHROMAFL_THREADS", "1")
    assert default_reports.run(str(tmp_path / "out"), ["--bogus"]) == ("baseline", 2)


def test_a_failing_command_is_named_and_nothing_is_listed(tmp_path):
    done = _tool("default_reports.py", tmp_path / "out", "--limit", "0")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "default_reports: baseline exited with 2" in done.stderr
    assert not (tmp_path / "out").exists()


def test_a_cifar_config_runs_every_command_but_gen_data(tmp_path, monkeypatch):
    # gen-data writes the synthetic shapes set only and exits 2 on CIFAR-10,
    # so the tool leaves it out there and lists the other seven
    monkeypatch.setenv("CHROMAFL_THREADS", "1")
    shapes = D.generate_shapes(100, classes=10, size=32, seed=3)
    D.write_cifar10(str(tmp_path / "batch_0.bin"), shapes)
    with open(TINY) as f:
        doc = json.load(f)
    doc["dataset"] = {"kind": "cifar10", "path": str(tmp_path / "batch_0.bin"),
                      "n_train": 40, "n_test": 12, "classes": 10, "size": 32}
    config = tmp_path / "cifar.json"
    config.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert default_reports.run(out, ["--config", str(config)]) is None
    assert {rel.split("/", 1)[0] for rel, _ in digests(out)} == {
        "baseline", "fl", "ablation", "compare", "transfer", "robust", "inspect"}
