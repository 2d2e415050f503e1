"""Shared pytest hooks and fixtures.

The suite runs with one BLAS thread, as the CLI does under
``CHROMAFL_THREADS=1`` and as the benchmark does, so ``worker_count()``
gives one worker per usable CPU and the fork maps fork.  The pin must
happen before numpy loads: when numpy is already imported the environment
is left alone, since two workers over a multi-threaded BLAS run slower
than one.  A variable that is already set keeps its value.

The acceptance suite (test_acceptance.py) records one line per numbered
criterion on the pytest config object; print them after the run so the
verdicts are visible even when per-test output is captured.
"""

import os
import sys
import tracemalloc

import pytest

if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def _traced_mb(fn):
    """Run ``fn`` under tracemalloc.  Returns its result, the memory numpy
    and python still hold when it returned (the result included) and the
    peak while it ran, both in MB."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held / 2**20, peak / 2**20


@pytest.fixture
def traced_mb():
    """:func:`_traced_mb`, the one memory probe of the memory-budget tests."""
    return _traced_mb
