"""Checks that hold for every test of the suite."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped: running, or
    exited without a wait, as a worker the pool failed to stop would."""
    yield
    if os.name != "posix":
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + (f"unreaped (pid {pid})" if pid else "running"))
