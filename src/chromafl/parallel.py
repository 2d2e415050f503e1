"""One function over independent work items, on forked worker processes.

:func:`fork_map` splits its items into contiguous blocks, one per worker.
The calling process runs the first block itself and forks one child for
each other block.  A child sends back its results, or the exception it
raised, pickled over a pipe, and leaves with ``os._exit``.  A fork copies
the caller, so ``fn`` may be any callable (a closure over arrays or a
patched module function included); only results and exceptions are
pickled.  Results come back in input order, and no child outlives the call.
Fork rather than spawn, because a worker then starts from the caller's
memory: the datasets and weights built before the map are shared
copy-on-write instead of pickled, and nothing is imported again.

The worker count is :func:`worker_count`.  A child runs any nested map
serially, and where ``os.fork`` is missing every map is serial.  This
module uses the standard library only and imports no numpy, so the CLI can
check ``CHROMAFL_WORKERS`` before numpy loads.
"""

from __future__ import annotations

import os
import pickle
import signal

WORKERS_ENV = "CHROMAFL_WORKERS"


def _positive(value) -> bool:
    return value is not None and value.isascii() and value.isdigit() and int(value) > 0


def worker_count() -> int:
    """``CHROMAFL_WORKERS`` when set, which must be a positive integer
    (``ValueError`` otherwise).  By default, the usable CPUs divided by the
    BLAS thread count, at least 1.  The BLAS thread count is
    the first positive one of ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS``
    (OpenBLAS's own rule), else every usable CPU, so an unpinned BLAS,
    which spreads each GEMM over all CPUs, gets one worker."""
    value = os.environ.get(WORKERS_ENV)
    if value is not None:
        if not _positive(value):
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {value!r}")
        return int(value)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    pinned = [int(v) for v in map(os.environ.get, ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS")) if _positive(v)]
    return max(1, cpus // (pinned[0] if pinned else cpus))


def fork_map(fn, items) -> list:
    """``[fn(x) for x in items]``, with the items after the first block run
    in forked workers.  On any exception, ``KeyboardInterrupt`` included,
    the workers are killed; every worker is reaped before this returns or
    raises.  When several items fail, the exception of the lowest-index
    failing item is raised, with its own type."""
    items = list(items)
    n = min(worker_count(), len(items)) if hasattr(os, "fork") else 1
    if n <= 1:
        return [fn(x) for x in items]
    edges = [len(items) * k // n for k in range(n + 1)]
    blocks = [items[lo:hi] for lo, hi in zip(edges, edges[1:])]
    pids, fds = [], []
    try:
        for block in blocks[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest runs here
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _serve(fn, block, r, w)
            os.close(w)
            pids.append(pid)
            fds.append(r)
        results = [fn(x) for x in blocks[0]]
        for r in fds:
            results += _receive(r)
        for block in blocks[1 + len(pids):]:
            results += [fn(x) for x in block]
        return results
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # an unreaped child can still be signalled
        raise
    finally:
        for r in fds:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)


def _serve(fn, block, r: int, w: int) -> None:
    """A worker's whole life: run ``block``, write the pickled outcome to
    ``w`` and leave without running the parent's exit handlers."""
    try:
        os.close(r)
        os.environ[WORKERS_ENV] = "1"  # a nested map runs in this process
        try:
            outcome = (True, [fn(x) for x in block])
        except BaseException as e:  # the first failing item of the block
            outcome = (False, e)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            if not outcome[0]:
                pickle.loads(data)  # an exception whose class cannot be rebuilt
        except Exception as e:
            data = pickle.dumps((False, RuntimeError(
                f"a worker's outcome cannot be pickled: {e!r}")))
        with open(w, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _receive(r: int) -> list:
    """A worker's results from its pipe; raises the exception it sent."""
    chunks = []
    while chunk := os.read(r, 1 << 20):
        chunks.append(chunk)
    if not chunks:
        raise RuntimeError("a worker process ended without sending its results")
    ok, value = pickle.loads(b"".join(chunks))
    if not ok:
        raise value
    return value
