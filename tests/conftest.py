"""A wall-clock limit on each test's call: a test that hangs fails with the
limit's message, and the run goes on to the next test.

The limit rides on SIGALRM, so it holds where the platform has that signal
and tests run in the main thread; elsewhere tests run unlimited.  The slowest
test takes a few seconds, so the limit catches only a hang.
"""

import signal

import pytest

LIMIT_S = 30


class Overtime(BaseException):
    """Raised in a test that runs past LIMIT_S.  Not an Exception, so an
    `except Exception` passes it on, and hypothesis re-raises it at once
    instead of shrinking a hanging example."""


def _overtime(signum, frame):
    raise Overtime(f"test ran past the {LIMIT_S} s limit per test")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
