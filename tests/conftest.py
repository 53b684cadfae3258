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


@pytest.fixture(autouse=True)
def no_fd_left():
    """Fail a test after which this process holds a file descriptor it did
    not hold before: a pool's raw pipe ends must all be closed, and no
    warning flags a raw descriptor left open.  Skipped where there is no
    ``/proc/self/fd`` to read."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        yield
        return
    # each listing holds one descriptor of its own, the lowest free one,
    # which a leak shifts to a number the first listing did not hold
    before = set(os.listdir(fd_dir))
    yield
    left = set(os.listdir(fd_dir)) - before
    if left:
        pytest.fail(f"the test left file descriptors open: {sorted(left)}")
