"""Checks that hold for every test of the suite."""

import os
import signal

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped: running, or
    exited without a wait, as a child the oracle column failed to stop
    would."""
    yield
    if os.name != "posix":
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + (f"unreaped (pid {pid})" if pid else "running"))


@pytest.fixture(autouse=True)
def sigterm_restored():
    """Fail a test that leaves SIGTERM handled otherwise than it found
    it, as an oracle column that did not restore its handler would."""
    before = signal.getsignal(signal.SIGTERM)
    yield
    after = signal.getsignal(signal.SIGTERM)
    if after != before:
        signal.signal(signal.SIGTERM, before)
        pytest.fail(f"the test left SIGTERM handled by {after!r},"
                    f" not {before!r}")
