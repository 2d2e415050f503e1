"""The fork map: order, errors, reaping, nesting, the worker count, and
report bytes that do not depend on how many workers ran a command."""

import json
import os
import subprocess
import sys
import time

import pytest

import chromafl.cli as cli
import chromafl.data as D
import chromafl.federated as F
import chromafl.models as M
from chromafl import parallel as P
from chromafl.config import parse_config

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class Boom(Exception):
    """An exception type of this module, so its type survives the pipe."""


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    def set_workers(n):
        monkeypatch.setenv("CHROMAFL_WORKERS", str(n))
    return set_workers


# ---------------------------------------------------------------- map


@pytest.mark.parametrize("n_workers, n_items", [(2, 7), (3, 7), (3, 9), (4, 2), (3, 1),
                                                (2, 0)])
def test_fork_map_keeps_input_order(workers, n_workers, n_items):
    workers(n_workers)
    got = P.fork_map(lambda x: (x * x, os.getpid()), range(n_items))
    assert [v for v, _ in got] == [x * x for x in range(n_items)]
    # contiguous blocks, one per worker, the first run by the caller
    pids = [pid for _, pid in got]
    assert len(set(pids)) == min(n_workers, n_items)
    assert pids[:1] == [os.getpid()] * min(1, n_items)
    assert pids == sorted(pids, key=pids.index)
    assert_no_child_left()


@pytest.mark.parametrize("failing, raised", [
    ({1: ValueError, 4: KeyError}, ValueError),  # the caller's own block
    ({3: Boom, 4: ValueError}, Boom),  # a worker's block, before a later worker's
    ({5: D.DataError, 4: FloatingPointError}, FloatingPointError),  # one worker's block
])
def test_fork_map_raises_the_lowest_index_failure(workers, failing, raised):
    workers(3)  # blocks [0, 1], [2, 3], [4, 5]

    def fn(x):
        if x in failing:
            raise failing[x](f"item {x}")
        return x

    with pytest.raises(raised) as info:
        P.fork_map(fn, range(6))
    assert type(info.value) is raised
    assert info.value.args == (f"item {min(failing)}",)
    assert_no_child_left()


def test_a_caller_interrupt_kills_the_workers(workers):
    workers(3)

    def fn(x):
        if x == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        P.fork_map(fn, range(3))
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_worker_that_dies_without_results_is_an_error(workers):
    workers(2)
    with pytest.raises(RuntimeError, match="without sending its results"):
        P.fork_map(lambda x: os._exit(1) if x == 1 else x, range(2))
    assert_no_child_left()


def test_a_nested_map_in_a_worker_runs_serially(workers):
    workers(2)
    outer = os.getpid()
    got = P.fork_map(lambda x: (os.getpid(), P.fork_map(lambda y: os.getpid(), range(4))),
                     range(2))
    (pid0, inner0), (pid1, inner1) = got
    assert pid0 == outer and len(set(inner0)) == 2  # the caller's block may fork
    assert pid1 != outer and inner1 == [pid1] * 4
    assert_no_child_left()


# ---------------------------------------------------------------- worker count


@pytest.mark.parametrize("env, want", [
    ({}, 1),  # an unpinned BLAS uses every CPU already
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ({"OMP_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 1),
    ({"OPENBLAS_NUM_THREADS": "1", "CHROMAFL_WORKERS": "3"}, 3),
    ({"CHROMAFL_WORKERS": "7"}, 7),
])
def test_worker_count_default_rule(monkeypatch, env, want):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CHROMAFL_WORKERS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert P.worker_count() == want


@pytest.mark.parametrize("value", ["abc", "0", "-1", ""])
def test_cli_rejects_a_worker_count_that_is_not_a_positive_integer(
        tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("CHROMAFL_WORKERS", value)
    assert cli.main(["gen-data", "--limit", "12", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: CHROMAFL_WORKERS must be a positive integer, got {value!r}\n"
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------- commands

TINY = {
    "dataset": {"kind": "shapes", "n_train": 60, "n_test": 24, "classes": 4, "size": 16},
    "train": {"epochs": 2},
    "fl": {"n_clients": 4, "select_k": 3, "rounds": 2, "adv_ratio": 0.5},
    "grid": {"hue": [0.0, 0.1, -0.1], "alpha": [0.8, 1.2], "per_channel": False,
             "gamma": [0.8, 1.2], "beta": [0.0], "composites": False},
    "metrics": {"probe_size": 6, "heatmap_dumps": 1},
}


def _report_bytes(out) -> dict:
    """Every file under ``out``: CSVs below their timestamp line, the rest whole."""
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".csv"):
                assert data.startswith(b"# timestamp:")
                data = data.split(b"\n", 1)[1]
            files[os.path.relpath(path, out)] = data
    return files


def test_fl_and_robust_reports_do_not_depend_on_workers_or_threads(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    script = ("import sys; from chromafl import cli; "
              "sys.exit(cli.main(['fl', '--config', sys.argv[1], '--out', sys.argv[2]]) "
              "or cli.main(['robust', '--config', sys.argv[1], '--out', sys.argv[2]]))")
    reports = {}
    for workers, threads in [(1, 1), (2, 1), (2, 2)]:
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update(CHROMAFL_WORKERS=str(workers), CHROMAFL_THREADS=str(threads),
                   PYTHONPATH=SRC)
        out = tmp_path / f"w{workers}t{threads}"
        proc = subprocess.run([sys.executable, "-c", script, str(config), str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reports[workers, threads] = _report_bytes(out)
    want = reports[1, 1]
    assert {"fl/rounds.csv", "fl/global_weights.cdwt", "fl/heatmaps/round_02_probe_00.pgm",
            "robust/robust.csv"} <= set(want)
    assert reports[2, 1] == want
    assert reports[2, 2] == want


@pytest.mark.parametrize("error, code, line", [
    (D.DataError, 3, "data error: shard unreadable"),
    (FloatingPointError, 4, "numerical failure: shard unreadable"),
])
def test_an_error_in_a_worker_keeps_its_exit_code_and_message(
        tmp_path, capsys, monkeypatch, error, code, line):
    doc = {**TINY, "out": str(tmp_path / "out")}
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(doc))
    cfg = parse_config(doc)
    # the last local training of the first round, which a second worker runs
    last = F.select_clients(cfg.fl.n_clients, cfg.fl.select_k, cfg.seed, 1)[-1]
    target = F._child_seed(cfg.seed, F._TAG_LOCAL, 1, int(last))
    real_train = M.train

    def failing_train(*args, seed, **kwargs):
        if seed == target:
            (tmp_path / f"raised-in-{os.getpid()}").touch()
            raise error("shard unreadable")
        return real_train(*args, seed=seed, **kwargs)

    monkeypatch.setattr(M, "train", failing_train)
    seen = {}
    for n in (1, 2):
        monkeypatch.setenv("CHROMAFL_WORKERS", str(n))
        assert cli.main(["fl", "--config", str(config)]) == code
        seen[n] = capsys.readouterr().err
        marks = [p for p in tmp_path.iterdir() if p.name.startswith("raised-in-")]
        assert len(marks) == 1
        assert (marks[0].name == f"raised-in-{os.getpid()}") == (n == 1)
        marks[0].unlink()
    assert seen[1] == seen[2] == line + "\n"
    assert not (tmp_path / "out").exists()
    assert_no_child_left()
