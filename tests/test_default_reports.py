"""tools/default_reports.py, which runs every command and lists the reports."""

import json
import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")

TINY = {
    "dataset": {"kind": "shapes", "n_train": 40, "n_test": 12, "classes": 4, "size": 16},
    "train": {"epochs": 1},
    "fl": {"n_clients": 4, "select_k": 3, "rounds": 1, "adv_ratio": 0.5},
    "grid": {"hue": [0.0, 0.1], "alpha": [1.2], "per_channel": False,
             "gamma": [1.0], "beta": [0.0], "composites": False},
    "metrics": {"probe_size": 4, "heatmap_dumps": 1},
    "attack": {"n_samples": 2, "compare_samples": 4},
}


def _tool(name, *args):
    return subprocess.run([sys.executable, os.path.join(TOOLS, name), *map(str, args)],
                          capture_output=True, text=True, timeout=600)


def test_lists_the_reports_of_all_eight_commands(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    done = _tool("default_reports.py", out, "--config", config)
    assert done.returncode == 0, done.stderr
    listing = done.stdout
    dirs = {line.split("  ", 1)[1].split("/", 1)[0] for line in listing.splitlines()}
    assert dirs == {"baseline", "fl", "ablation", "compare", "transfer", "robust",
                    "gen_data", "inspect"}
    assert listing == _tool("report_digests.py", out).stdout


def test_a_failing_command_is_named_and_nothing_is_listed(tmp_path):
    done = _tool("default_reports.py", tmp_path / "out", "--limit", "0")
    assert done.returncode == 1
    assert done.stdout == ""
    assert "default_reports: baseline exited with 2" in done.stderr
    assert not (tmp_path / "out").exists()
