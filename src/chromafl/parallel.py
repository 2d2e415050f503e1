"""A pool of forked worker processes that maps one function over
independent work items.

:class:`Workers` is a context manager.  On entry it forks one worker fewer
than :func:`worker_count`, once for the whole block; each waits on its own
pipes.
``map(fn, items)`` splits the items into contiguous blocks, one per
process: the caller runs the first block itself and sends each worker its
block as one length-prefixed pickle of ``(fn, block)``; the worker sends
back its results, or the exception its first failing item raised, the same
way.  Results come back in input order.  Fork rather than spawn, because a
worker then starts from the caller's memory: the data built before the
block is shared copy-on-write, and nothing is imported again.  Forking once
per block rather than once per map keeps the copy-on-write faults a fork
puts on the caller off every later map.

What a map sends is pickled, so ``fn`` must pickle: a module-level function,
or a ``functools.partial`` of one over picklable arguments.  A function is
pickled by reference to its module attribute, so the worker calls its own
copy of that attribute, which the fork copied as the caller had it when the
block began.  An item's objects travel in one pickle with the rest of its
block, so objects shared within a block stay shared in the worker.

While the block runs, each process, the caller included, is pinned to its
own share of the caller's usable CPUs (one CPU each when there are as many
processes as CPUs), so the kernel does not leave a new worker on its
parent's CPU.  Nothing is pinned when the processes outnumber the CPUs or
``os.sched_setaffinity`` is missing.  The caller's own mask is restored
when the block ends.

A worker runs any pool of its own serially, and where ``os.fork`` is
missing every map is serial, as is a ``Workers`` that was never entered.
This module uses the standard library only and imports no numpy, so the
CLI can check ``CHROMAFL_WORKERS`` and apply ``CHROMAFL_THREADS``
(:func:`apply_thread_env`) before numpy loads.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys

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


def apply_thread_env() -> None:
    """Copy ``CHROMAFL_THREADS`` into each BLAS thread variable not already
    set; a value that is not a positive integer raises ``ValueError`` before
    any variable is set.  BLAS reads these variables when numpy loads, so
    this runs before that."""
    threads = os.environ.get("CHROMAFL_THREADS")
    if threads is None:
        return
    if not _positive(threads):
        raise ValueError(f"CHROMAFL_THREADS must be a positive integer, got {threads!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)


class Workers:
    """Forked worker processes for the life of a ``with`` block; see the
    module docstring.  If a pipe or a fork fails on entry, the pool runs
    with the workers it has.  On leaving the block the workers read EOF and
    exit; on an exception, ``KeyboardInterrupt`` included, they are killed
    first.  Either way every worker is reaped and the caller's CPU mask is
    restored before the block ends."""

    def __init__(self):
        self._procs: list[tuple[int, int, int]] = []  # (pid, job fd, reply fd)
        self._mask = None  # the caller's CPU mask while the pool pins it

    def __enter__(self) -> Workers:
        n = worker_count() if hasattr(os, "fork") else 1
        if n <= 1:
            return self
        # read before pinning: a pinned caller sees one CPU
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        share = len(cpus) // n  # 0 when the processes outnumber the CPUs
        try:
            for k in range(1, n):
                if not self._fork(cpus[k * share:(k + 1) * share]):
                    break  # no descriptor or process to spare
            if self._procs and share:
                self._mask = set(cpus)
                _pin(cpus[:share])
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        return self

    def _fork(self, cpus) -> bool:
        fds = []
        try:
            for _ in range(2):
                fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return False
        job_r, job_w, reply_r, reply_w = fds
        if pid == 0:
            # so the caller holds the only other end of every worker's pipes
            for fd in [job_w, reply_r] + [fd for _, *pair in self._procs for fd in pair]:
                os.close(fd)
            _worker_loop(job_r, reply_w, cpus)
        os.close(job_r)
        os.close(reply_w)
        self._procs.append((pid, job_w, reply_r))
        return True

    def map(self, fn, items) -> list:
        """``[fn(x) for x in items]``, with the blocks after the first run by
        the workers.  When several items fail, the exception of the
        lowest-index failing item is raised, with its own type; an outcome
        that cannot be pickled, or a worker that ends without replying, is
        a ``RuntimeError``.  Anything raised in the caller's part of the map
        (its block, an unpicklable ``fn``, an interrupt) kills the workers,
        so the block's later maps run serially."""
        items = list(items)
        n = min(len(self._procs) + 1, len(items))
        if n <= 1:
            return [fn(x) for x in items]
        edges = [len(items) * k // n for k in range(n + 1)]
        blocks = [items[lo:hi] for lo, hi in zip(edges, edges[1:])]
        busy = self._procs[:n - 1]
        try:
            for (_, job_w, _), block in zip(busy, blocks[1:]):
                try:
                    _send(job_w, pickle.dumps((fn, block), pickle.HIGHEST_PROTOCOL))
                except BrokenPipeError:  # a dead worker: its reply reads as missing
                    pass
            results = [fn(x) for x in blocks[0]]
            replies = [_recv(reply_r) for _, _, reply_r in busy]
        except BaseException:
            self._stop(signal.SIGKILL)
            raise
        if any(data is None for data in replies):
            self._stop(signal.SIGKILL)
        for data in replies:
            if data is None:
                raise RuntimeError("a worker process ended without sending its results")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results += value
        return results

    def _stop(self, sig=None) -> None:
        """Close the pipes, which ends an idle worker, after sending ``sig``
        to every worker if given; then reap them all."""
        procs, self._procs = self._procs, []
        for pid, job_w, reply_r in procs:
            if sig is not None:
                os.kill(pid, sig)  # an unreaped child can still be signalled
            os.close(job_w)
            os.close(reply_r)
        for pid, _, _ in procs:
            os.waitpid(pid, 0)

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._stop(signal.SIGKILL if exc_type is not None else None)
        finally:
            if self._mask is not None:
                _pin(self._mask)
                self._mask = None


def _pin(cpus) -> None:
    """Set this process's CPU mask, if there is one to set; a mask the
    kernel refuses (say, a CPU taken away since it was read) is skipped."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _worker_loop(job_r: int, reply_w: int, cpus) -> None:
    """A worker's whole life: for each ``(fn, block)`` read from ``job_r``,
    write the pickled outcome to ``reply_w``; at EOF, leave without running
    the caller's exit handlers."""
    try:
        os.environ[WORKERS_ENV] = "1"  # a pool opened in a job maps serially
        _pin(cpus)
        while (data := _recv(job_r)) is not None:
            try:
                fn, block = pickle.loads(data)
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
            _send(reply_w, data)
    finally:
        os._exit(0)


def _send(fd: int, data: bytes) -> None:
    """Write ``data`` to ``fd`` behind its 8-byte length."""
    for part in (len(data).to_bytes(8, "little"), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _recv(fd: int) -> bytearray | None:
    """One message :func:`_send` wrote to the other end of ``fd``; None at
    EOF, or when the writer ended part way."""
    head = _read(fd, 8)
    return None if head is None else _read(fd, int.from_bytes(head, "little"))


def _read(fd: int, n: int) -> bytearray | None:
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        k = os.readv(fd, [view[got:]])
        if not k:
            return None
        got += k
    return buf
