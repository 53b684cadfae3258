"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which this process has a child, running or not
    yet reaped: a pool must end and reap every worker it forks."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + (f"{pid}, now reaped" if pid else "running"))
