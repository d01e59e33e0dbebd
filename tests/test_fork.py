"""The contract of _fork._Helpers, the one lifecycle of every forked helper.

`with _Helpers(name, runs) as ends:` forks a helper per run, joined to this
process by a pipe each way; leaving closes this process's ends, waits for
every helper (after a SIGKILL if the block raised), sets the CPU mask back
and, after a clean block, raises the first helper's error.  Each helper
here ends within the test, as tests/conftest.py checks.
"""

import os
import select
import signal
import time

import pytest

from collatzkit._fork import _Helpers

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="helpers are forked where os.fork exists"
)


def failing(exc):
    def run(reader, writer):
        raise exc

    return run


@pytest.mark.parametrize(
    "exc,expected,message",
    [
        (RuntimeError("any error"), ChildProcessError, "a test helper exited with status 2"),
        (BrokenPipeError(), BrokenPipeError, "a test helper met a closed pipe"),
    ],
)
def test_a_clean_block_raises_its_helpers_status_on_leaving(exc, expected, message):
    with pytest.raises(expected, match=message):
        with _Helpers("a test helper", [failing(exc)]) as ends:
            assert len(ends) == 1
            assert ends[0][0].read() == b""  # the helper is gone, and only it held the write end


def test_a_closed_pipe_ranks_below_a_graver_helper_error():
    # the scan's case: a helper dies, and closing this process's ends breaks
    # the pipe of another that was still writing
    runs = [failing(BrokenPipeError()), failing(RuntimeError("any error"))]
    with pytest.raises(ChildProcessError, match="exited with status 2"):
        with _Helpers("a test helper", runs):
            pass


def blocked(reader, writer):
    # tells this process it runs, then blocks on a pipe that never ends (it
    # holds the write end itself), for 10 s at most
    never, _ = os.pipe()
    os.write(writer, b"ready")
    select.select([never], [], [], 10)


def test_a_block_that_raises_gets_its_helper_killed_and_the_cpus_back():
    cpus = os.sched_getaffinity(0)
    began = time.monotonic()
    with pytest.raises(LookupError, match="the block's own"):
        with _Helpers("a test helper", [blocked]) as ends:
            assert ends[0][0].read(5) == b"ready"
            assert len(cpus) < 2 or os.sched_getaffinity(0) < cpus  # this process's slice
            raise LookupError("the block's own")
    assert time.monotonic() - began < 5
    assert os.sched_getaffinity(0) == cpus


def reads_to_eof(reader, writer):
    # exits 0 after reading exactly b"hello" and then EOF; 2 if EOF does not
    # come within 10 s
    data = b""
    while select.select([reader], [], [], 10)[0]:
        chunk = os.read(reader.fileno(), 100)
        if not chunk:
            if data != b"hello":
                raise ValueError(data)
            return
        data += chunk
    raise TimeoutError("no EOF")


def test_a_helper_reading_until_eof_ends_on_its_own_when_the_block_leaves():
    # leaving closes this process's ends before it waits, so the helper sees
    # EOF: waiting first would time the helper out, which exits 2
    began = time.monotonic()
    with _Helpers("a test helper", [reads_to_eof]) as ends:
        os.write(ends[0][1], b"hello")
    assert time.monotonic() - began < 5


def test_a_failed_second_fork_gives_no_ends_and_reaps_the_first_helper(monkeypatch):
    fork, forks = os.fork, []

    def failing_fork():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", failing_fork)
    cpus = os.sched_getaffinity(0)
    with _Helpers("a test helper", [blocked, blocked]) as ends:
        assert ends == []
        assert os.sched_getaffinity(0) == cpus
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(forks[0], 0)


def test_a_ctrl_c_during_the_forks_reaps_the_helpers_and_gives_the_cpus_back(monkeypatch):
    # SIGINT is held across the forks, so a Ctrl-C that comes in meanwhile
    # is raised once it is let through: the helper already forked must then
    # be killed and reaped, and the CPU mask set back
    fork = os.fork

    def fork_then_ctrl_c():
        pid = fork()
        if pid:
            os.kill(os.getpid(), signal.SIGINT)  # pending while SIGINT is held
        return pid

    monkeypatch.setattr(os, "fork", fork_then_ctrl_c)
    cpus = os.sched_getaffinity(0)
    with pytest.raises(KeyboardInterrupt):
        with _Helpers("a test helper", [blocked]):
            pytest.fail("the block ran")
    assert os.sched_getaffinity(0) == cpus


def test_a_ctrl_c_during_the_kills_still_gives_the_cpus_back(monkeypatch):
    kill = os.kill

    def kill_then_ctrl_c(pid, sig):
        kill(pid, sig)
        kill(os.getpid(), signal.SIGINT)  # pending while SIGINT is held

    monkeypatch.setattr(os, "kill", kill_then_ctrl_c)
    cpus = os.sched_getaffinity(0)
    with pytest.raises(KeyboardInterrupt):
        with _Helpers("a test helper", [blocked]) as ends:
            assert ends[0][0].read(5) == b"ready"
            raise LookupError("the block's own")
    assert os.sched_getaffinity(0) == cpus
