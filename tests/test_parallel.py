"""The fork map (``Workers.map``, a map over forked workers): order,
errors, reaping, nesting, pinning, the worker count, and report bytes that
do not depend on how many workers ran a command."""

import contextlib
import errno
import functools
import json
import os
import signal
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
from report_digests import digests

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
# a map pickles its function, so the jobs below are module-level functions


def _square_and_pid(x):
    return x * x, os.getpid()


def _pid(x):
    return os.getpid()


def _fail_at(failing, x):
    if x in failing:
        raise failing[x](f"item {x}")
    return x


def _interrupt_or_sleep(x):
    if x == 0:
        raise KeyboardInterrupt
    time.sleep(60)


def _exit_at_one(x):
    if x == 1:
        os._exit(1)
    return x


def _nested(x):
    with P.Workers() as inner:
        return os.getpid(), inner.map(_pid, range(4))


def _unpicklable(x):
    if x == 1:
        raise Boom(lambda: None)  # an exception that cannot be pickled
    return (lambda: None) if x == 3 else x  # a result that cannot be pickled


def _mask(x):
    return os.sched_getaffinity(0)


def _shared(pair):
    return pair[0] is pair[1]


@pytest.mark.parametrize("n_workers, n_items", [(2, 7), (3, 7), (3, 9), (4, 2), (3, 1),
                                                (2, 0)])
def test_fork_map_keeps_input_order(workers, n_workers, n_items):
    workers(n_workers)
    with P.Workers() as pool:
        got = pool.map(_square_and_pid, range(n_items))
    assert [v for v, _ in got] == [x * x for x in range(n_items)]
    # contiguous blocks, one per process, the first run by the caller
    pids = [pid for _, pid in got]
    assert len(set(pids)) == min(n_workers, n_items)
    assert pids[:1] == [os.getpid()] * min(1, n_items)
    assert pids == sorted(pids, key=pids.index)
    assert_no_child_left()


def test_workers_fork_once_for_every_map_of_the_block(workers):
    workers(3)
    with P.Workers() as pool:
        maps = [pool.map(_pid, range(n)) for n in (6, 3, 9)]
    assert set(maps[0]) == set(maps[1]) == set(maps[2])
    assert len(set(maps[0])) == 3
    assert_no_child_left()


def test_a_map_outside_a_block_runs_in_the_caller(workers):
    workers(3)
    assert P.Workers().map(_pid, range(5)) == [os.getpid()] * 5


@pytest.mark.parametrize("failing, raised", [
    ({1: ValueError, 4: KeyError}, ValueError),  # the caller's own block
    ({3: Boom, 4: ValueError}, Boom),  # a worker's block, before a later worker's
    ({5: D.DataError, 4: FloatingPointError}, FloatingPointError),  # one worker's block
])
def test_fork_map_raises_the_lowest_index_failure(workers, failing, raised):
    workers(3)  # blocks [0, 1], [2, 3], [4, 5]
    with P.Workers() as pool:
        with pytest.raises(raised) as info:
            pool.map(functools.partial(_fail_at, failing), range(6))
        assert type(info.value) is raised
        assert info.value.args == (f"item {min(failing)}",)
        # a worker's failure leaves the pool whole; one in the caller's own
        # block kills the workers, so the block's later maps run serially
        pids = pool.map(_pid, range(6))
        assert (len(set(pids)) == 1) == (min(failing) < 2)
    assert_no_child_left()


@pytest.mark.parametrize("items", [[0, 1], [0, 3]])  # an exception, a result
def test_an_outcome_that_cannot_be_pickled_is_an_error(workers, items):
    workers(2)  # the second item is the worker's
    with P.Workers() as pool:
        with pytest.raises(RuntimeError, match="outcome cannot be pickled"):
            pool.map(_unpicklable, items)
    assert_no_child_left()


def test_a_caller_interrupt_kills_the_workers(workers):
    workers(3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        with P.Workers() as pool:
            pool.map(_interrupt_or_sleep, range(3))
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_worker_that_dies_without_results_is_an_error(workers):
    workers(2)
    with P.Workers() as pool:
        with pytest.raises(RuntimeError, match="without sending its results"):
            pool.map(_exit_at_one, range(2))
        assert pool.map(_pid, range(2)) == [os.getpid()] * 2  # the rest runs here
    assert_no_child_left()


def test_a_worker_killed_between_maps_is_an_error(workers):
    workers(2)
    with P.Workers() as pool:
        os.kill(pool.map(_pid, range(2))[1], signal.SIGKILL)
        with pytest.raises(RuntimeError, match="without sending its results"):
            pool.map(_pid, range(2))
    assert_no_child_left()


def test_a_nested_map_in_a_worker_runs_serially(workers):
    workers(2)
    outer = os.getpid()
    with P.Workers() as pool:
        (pid0, inner0), (pid1, inner1) = pool.map(_nested, range(2))
    assert pid0 == outer and len(set(inner0)) == 2  # the caller's block may fork
    assert pid1 != outer and inner1 == [pid1] * 4
    assert_no_child_left()


def test_a_pipe_that_cannot_be_made_leaves_fewer_workers(workers, monkeypatch):
    workers(3)  # two pipes per worker; the second worker's first pipe fails
    real_pipe, calls = os.pipe, []

    def pipe_fails_third():
        calls.append(None)
        if len(calls) == 3:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return real_pipe()

    monkeypatch.setattr(os, "pipe", pipe_fails_third)
    with P.Workers() as pool:
        got = pool.map(_square_and_pid, range(6))
    assert [v for v, _ in got] == [x * x for x in range(6)]
    pids = [pid for _, pid in got]  # blocks [0, 1, 2] here and [3, 4, 5] on the worker
    assert pids[:3] == [os.getpid()] * 3 and len(set(pids[3:])) == 1
    assert os.getpid() not in pids[3:]
    assert len(calls) == 3
    assert_no_child_left()


def test_a_shared_object_stays_shared_in_the_worker(workers):
    workers(2)
    a, b = [1.0], [1.0]
    with P.Workers() as pool:
        assert pool.map(_shared, [(a, b), (a, a), (b, b), (a, b)]) == \
            [False, True, True, False]
    assert_no_child_left()


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="no CPU affinity on this platform")


@needs_affinity
@pytest.mark.parametrize("fails", [False, True])
def test_the_block_restores_the_callers_cpu_mask(workers, fails):
    workers(2)
    before = os.sched_getaffinity(0)
    with contextlib.ExitStack() as stack:
        if fails:
            stack.enter_context(pytest.raises(Boom))
        with P.Workers() as pool:
            pool.map(_pid, range(4))
            if fails:
                raise Boom
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


@needs_affinity
@pytest.mark.parametrize("extra", [0, 1])
def test_each_process_is_pinned_to_its_own_cpus(workers, extra):
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("one usable CPU: no worker to pin")
    n = min(len(cpus), 4) + extra  # with extra, the processes outnumber the CPUs
    workers(n)
    with P.Workers() as pool:
        masks = pool.map(_mask, range(n))
    if n > len(cpus):
        assert masks == [cpus] * n
    else:  # one CPU each when there are as many processes as CPUs
        assert [len(m) for m in masks] == [len(cpus) // n] * n
        assert len(set().union(*masks)) == sum(map(len, masks)) and set().union(*masks) <= cpus
    assert os.sched_getaffinity(0) == cpus
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


@pytest.mark.parametrize("var", ["CHROMAFL_WORKERS", "CHROMAFL_THREADS"])
def test_cli_help_works_with_a_bad_worker_or_thread_count(capsys, monkeypatch, var):
    monkeypatch.setenv(var, "abc")
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: chromafl") and err == ""


# ---------------------------------------------------------------- commands

TINY = {
    "dataset": {"kind": "shapes", "n_train": 60, "n_test": 24, "classes": 4, "size": 16},
    "train": {"epochs": 2},
    "fl": {"n_clients": 4, "select_k": 3, "rounds": 2, "adv_ratio": 0.5},
    "grid": {"hue": [0.0, 0.1, -0.1], "alpha": [0.8, 1.2], "per_channel": False,
             "gamma": [0.8, 1.2], "beta": [0.0], "composites": False},
    "metrics": {"probe_size": 6, "heatmap_dumps": 1},
}


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
        reports[workers, threads] = dict(digests(out))
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
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
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
    assert mask is None or os.sched_getaffinity(0) == mask
