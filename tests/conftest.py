"""Pytest configuration: acceptance-criterion result reporting.

Acceptance tests wrap their body in the :func:`criterion` context manager;
a pass/fail line per criterion is printed in the terminal summary of every
run that executed them.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from stovar import DEFAULT_TOLERANCE, set_tolerance

_RESULTS: list[tuple[int, str, bool]] = []


@pytest.fixture(autouse=True)
def _reset_tolerance():
    # commands keep their tolerance to themselves, but a test that calls
    # set_tolerance directly changes the context later tests run in
    yield
    set_tolerance(DEFAULT_TOLERANCE)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        _RESULTS.append((number, description, False))
        raise
    _RESULTS.append((number, description, True))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, ok in sorted(_RESULTS):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} - {description}")
