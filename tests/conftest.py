import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    # every process a test starts, or a scan or walk line forks for it, is
    # waited for before the test ends: a child still running, or one that
    # exited and was never reaped, fails the test.  A helper that outlived
    # its test would hold pytest's stdout open after the run
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid:
        pytest.fail(f"child process {pid} ended (status {status}) but was never waited for")
    pytest.fail("a child process is still running after the test")
