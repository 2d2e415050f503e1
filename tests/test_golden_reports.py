"""The report bytes of all eight commands at four small configs, checked
against the listings recorded in ``tests/golden/``.

``tests/golden/<name>.json`` is a config, and ``<name>.digests`` is one
``# numpy <version>, <BLAS name> <version>`` line followed by the
``tools/default_reports.py`` listing of every command run at that config:

- ``tiny``: every command at a small size;
- ``variant``: ARCH_B captured at ``conv2``, FLTrust over a ``label_skew``
  split for 2 rounds, and a per-channel, jitter and composite grid cut to
  30 candidates.  It runs on 2 workers, so the pool's worker side runs;
  the other three run on 1;
- ``benign``: ``tiny`` with no adversary, a grid of hue shifts of ±0.02
  only, and ``attack.delta_e_tol`` 0.05.  It reaches ``compare``'s
  bisection both ways (``hi = scale`` and ``lo = scale``), ``fl``'s shared
  rounds (``w_main = w_twin``) and its NaN drift fit;
- ``cifar``: ``tiny`` on a CIFAR-10 batch file of 32x32 images in 10
  classes, with an 8-image FLTrust root, so the CIFAR reader and split
  run.  :func:`write_data` writes the file from a seeded shapes set before
  the commands run, and ``gen-data``, which writes shapes only, is left
  out.

The digests hold for the numpy and BLAS build named in the first line; on
another build the failure message names both.  A change that moves report
bytes on purpose rewrites one golden listing with::

    PYTHONPATH=tools python3 tests/test_golden_reports.py NAME

and the diff of ``tests/golden/`` shows the moved files.

At one worker, ``tools/unreached_lines.py`` on the four configs together
leaves 212 lines of ``src/chromafl`` unrun (``raise`` lines not counted).
The count is the lines common to the four sorted listings, made in one
directory, where ``cifar``'s data file is written first::

    root=$PWD; out=$(mktemp -d); cd "$out"
    export PYTHONPATH="$root/tools:$root/tests"
    python3 -c 'import test_golden_reports as g; g.write_data("cifar")'
    for n in tiny variant benign cifar; do
        python3 "$root/tools/unreached_lines.py" "$n" --config "$root/tests/golden/$n.json" |
            sort > "$n.txt"
    done
    comm -12 tiny.txt variant.txt | comm -12 - benign.txt | comm -12 - cifar.txt | wc -l

By module:

- ``parallel`` 101: the pool's forked side, which the tool pins off;
- ``data`` 35: the CIFAR-10 writer (the data file is written before the
  trace), the reader's directory branch and read error, the shapes of
  classes 4 to 9, which no config draws itself, and ``label_skew``'s
  stop when both dominant classes run out;
- ``tensor`` 18: ``global_avg_pool``, ``Tensor`` conveniences and the
  replay's skip of a node that no adjoint reached;
- ``harness`` 16: ``publish``'s rollback, the CIFAR split's short-file
  error, ``read_csv`` and ``run_fl``'s rewrap of a rejected aggregator;
- ``config`` 16: error exits and the ``--seed`` and ``--limit`` overrides;
- ``cli`` 14: the error exits and ``__main__``;
- ``federated`` 8: FLTrust's skipped rounds, R²'s zero-total branch and
  the empty map stack of a shared round that keeps no heatmap;
- ``color`` 2: the input clamp and ``apply``'s hue step;
- ``__init__`` 2: the fallback when ``mallopt`` is missing.
"""

import json
import os
import sys
import tempfile

import pytest

import default_reports
from report_digests import digests

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
WORKERS = {"tiny": "1", "variant": "2", "benign": "1", "cifar": "1"}


def build() -> str:
    """``numpy <version>, <BLAS name> <version>`` of the running numpy."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}"


def write_data(name: str) -> None:
    """At a ``cifar10`` config, write the batch file its ``dataset.path``
    names, relative to the working directory: as many seeded shapes images
    as its train, test and root splits take.  Nothing at another config."""
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    ds = doc["dataset"]
    if ds["kind"] != "cifar10":
        return
    if default_reports.SRC not in sys.path:
        sys.path.insert(0, default_reports.SRC)
    os.environ.setdefault("CHROMAFL_THREADS", "1")  # as default_reports.run pins it,
    from chromafl import parallel as P
    P.apply_thread_env()  # before numpy loads with chromafl.data
    from chromafl import data as D
    n = ds["n_train"] + ds["n_test"] + doc["fl"]["root_size"]
    D.write_cifar10(ds["path"], D.generate_shapes(n, classes=10, size=32, seed=0))


def listing(name: str, out: str) -> list[str]:
    """The ``default_reports`` listing of every command run at ``name``,
    from the parent directory of ``out`` (an absolute path), where
    :func:`write_data` writes first."""
    cwd = os.getcwd()
    os.chdir(os.path.dirname(out))
    try:
        write_data(name)
        failed = default_reports.run(out, ["--config", os.path.join(GOLDEN, f"{name}.json")])
    finally:
        os.chdir(cwd)
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
