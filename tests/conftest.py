"""Shared pytest hooks and fixtures.

The acceptance suite (test_acceptance.py) records one line per numbered
criterion on the pytest config object; print them after the run so the
verdicts are visible even when per-test output is captured.
"""

import tracemalloc

import pytest


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
