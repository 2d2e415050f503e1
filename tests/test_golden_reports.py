"""The report bytes of all eight commands at three small configs, checked
against the listings recorded in ``tests/golden/``.

``tests/golden/<name>.json`` is a config, and ``<name>.digests`` is one
``# numpy <version>, <BLAS name> <version>`` line followed by the
``tools/default_reports.py`` listing of every command run at that config:

- ``tiny``: every command at a small size;
- ``variant``: ARCH_B captured at ``conv2``, FLTrust over a ``label_skew``
  split for 2 rounds, and a per-channel, jitter and composite grid cut to
  30 candidates.  It runs on 2 workers, so the fork side of the maps runs;
  the other two run on 1;
- ``benign``: ``tiny`` with no adversary, a grid of hue shifts of ±0.02
  only, and ``attack.delta_e_tol`` 0.05.  It reaches ``compare``'s
  bisection both ways (``hi = scale`` and ``lo = scale``), ``fl``'s shared
  rounds (``w_main = w_twin``) and its NaN drift fit.

The digests hold for the numpy and BLAS build named in the first line; on
another build the failure message names both.  A change that moves report
bytes on purpose rewrites one golden listing with::

    PYTHONPATH=tools python3 tests/test_golden_reports.py NAME

and the diff of ``tests/golden/`` shows the moved files.

At one worker, ``tools/unreached_lines.py`` on the three configs together
leaves 200 lines of ``src/chromafl`` unrun (``raise`` lines not counted).
The count is the lines common to the three sorted listings::

    out=$(mktemp -d)
    for n in tiny variant benign; do
        python3 tools/unreached_lines.py "$out/$n" --config "tests/golden/$n.json" |
            sort > "$out/$n.txt"
    done
    comm -12 "$out/tiny.txt" "$out/variant.txt" | comm -12 - "$out/benign.txt" | wc -l

By module:

- ``parallel`` 61: the fork side of the maps, which the tool pins off;
- ``data`` 57: the CIFAR-10 reader and writer;
- ``harness`` 21: ``publish``'s rollback, the CIFAR split, ``read_csv``
  and ``run_fl``'s rewrap of a rejected aggregator;
- ``tensor`` 18: ``global_avg_pool``, ``Tensor`` conveniences and the
  replay's skip of a node that no adjoint reached;
- ``config`` 17: error exits, the ``--seed`` and ``--limit`` overrides and
  the CIFAR size rule;
- ``cli`` 14: the error exits and ``__main__``;
- ``federated`` 8: FLTrust's skipped rounds, R²'s zero-total branch and
  the empty map stack of a shared round that keeps no heatmap;
- ``color`` 2: the input clamp and ``apply``'s hue step;
- ``__init__`` 2: the fallback when ``mallopt`` is missing.
"""

import os
import sys
import tempfile

import pytest

import default_reports
from report_digests import digests

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
WORKERS = {"tiny": "1", "variant": "2", "benign": "1"}


def build() -> str:
    """``numpy <version>, <BLAS name> <version>`` of the running numpy."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def listing(name: str, out: str) -> list[str]:
    """The ``default_reports`` listing of every command run at ``name``."""
    failed = default_reports.run(out, ["--config", os.path.join(GOLDEN, f"{name}.json")])
    assert failed is None, "{} exited with {}".format(*failed)
    return [f"{digest}  {rel}" for rel, digest in digests(out)]


def _by_path(lines: list[str]) -> dict[str, str]:
    return {rel: digest for digest, rel in (line.split("  ", 1) for line in lines)}


@pytest.mark.parametrize("name", list(WORKERS))
def test_reports_match_the_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.setenv("CHROMAFL_WORKERS", WORKERS[name])
    monkeypatch.setenv("CHROMAFL_THREADS", "1")
    with open(os.path.join(GOLDEN, f"{name}.digests"), encoding="utf-8") as fh:
        head, *want = fh.read().splitlines()
    got = listing(name, str(tmp_path / "out"))
    if got != want:
        old, new = _by_path(want), _by_path(got)
        moved = sorted(rel for rel in old.keys() & new.keys() if old[rel] != new[rel])
        pytest.fail(f"{name}: moved {moved}, missing {sorted(old.keys() - new.keys())}, "
                    f"extra {sorted(new.keys() - old.keys())}; recorded on "
                    f"{head.removeprefix('# ')}, running on {build()}")


if __name__ == "__main__":
    os.environ["CHROMAFL_WORKERS"] = WORKERS[sys.argv[1]]  # as the test checks it
    with tempfile.TemporaryDirectory() as tmp:
        lines = listing(sys.argv[1], os.path.join(tmp, "out"))
    with open(os.path.join(GOLDEN, f"{sys.argv[1]}.digests"), "w", encoding="utf-8") as fh:
        fh.write("\n".join([f"# {build()}", *lines]) + "\n")
