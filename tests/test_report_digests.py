"""tools/report_digests.py, the digest listing that compares two report trees."""

import os
import subprocess
import sys

import numpy as np

import chromafl.color as C

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "report_digests.py")


def _tree(root, stamp: str):
    """A small report tree: a timestamped CSV, a PPM and a nested file."""
    os.makedirs(root / "fl" / "heatmaps")
    (root / "fl" / "summary.csv").write_text(f"# timestamp: {stamp}\na,b\n1,2\n")
    (root / "fl" / "heatmaps" / "round_01.pgm").write_bytes(b"P5\n1 1\n255\n\x80")
    C.write_ppm(root / "baseline.ppm", np.full((2, 2, 3), 0.5))
    return root


def _listing(root) -> str:
    return subprocess.run([sys.executable, TOOL, str(root)], check=True,
                          capture_output=True, text=True).stdout


def test_trees_that_differ_only_in_timestamps_list_the_same(tmp_path):
    a = _listing(_tree(tmp_path / "a", "2026-01-01T00:00:00+00:00"))
    b = _listing(_tree(tmp_path / "b", "2026-01-02T12:34:56.789+00:00"))
    assert a == b
    paths = [line.split("  ", 1)[1] for line in a.splitlines()]
    assert paths == ["baseline.ppm", "fl/heatmaps/round_01.pgm", "fl/summary.csv"]


def test_one_flipped_image_byte_or_csv_value_changes_the_listing(tmp_path):
    base = _listing(_tree(tmp_path / "a", "2026-01-01T00:00:00+00:00"))
    flipped = _tree(tmp_path / "b", "2026-01-01T00:00:00+00:00")
    data = bytearray((flipped / "baseline.ppm").read_bytes())
    data[-1] ^= 1
    (flipped / "baseline.ppm").write_bytes(bytes(data))
    changed = _listing(flipped)
    assert changed != base
    assert [line for line in changed.splitlines() if line not in base.splitlines()] == [
        line for line in changed.splitlines() if line.endswith("  baseline.ppm")]

    edited = _tree(tmp_path / "c", "2026-01-01T00:00:00+00:00")
    (edited / "fl" / "summary.csv").write_text("# timestamp: x\na,b\n1,3\n")
    assert _listing(edited) != base
