"""Shared pytest wiring: acceptance verdict lines in the summary, a time limit per test."""

import faulthandler
import os
import sys

import pytest

_ACCEPTANCE_LINES: list[str] = []

# seconds a test may run, set-up and teardown included, before the run prints every
# thread's traceback and exits: above the timeout=600 of the tests that run a pytest
# subprocess, so a worker reply left unread fails the run instead of hanging it
TEST_TIME_LIMIT_S = 900
_STDERR: list[int] = []  # a copy of the terminal's stderr, taken before output is captured


@pytest.fixture(scope="session")
def criteria_log() -> list:
    """Sink for one pass/fail line per acceptance criterion."""
    return _ACCEPTANCE_LINES


def pytest_configure(config):
    _STDERR.append(os.dup(sys.stderr.fileno()))


def pytest_unconfigure(config):
    os.close(_STDERR.pop())


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=_STDERR[0])
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.line(line)
