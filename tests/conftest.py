import os
import stat
import sys

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


def _ancestors() -> set[str]:
    # this process and every process above it, as /proc entry names
    pids, pid = set(), str(os.getpid())
    while pid not in pids and pid != "0":
        pids.add(pid)
        with open(f"/proc/{pid}/stat") as f:
            pid = f.read().rpartition(")")[2].split()[1]  # the field after the state
    return pids


def pipe_writers() -> list[tuple[int, str]]:
    """(pid, command line) of each process outside this one and its ancestors that may write to stdout's or stderr's pipe.

    Linux only: the pipes are matched by their /proc/*/fd link, and an end
    is a write end when its fdinfo flags open it for writing.  Processes
    whose /proc entries may not be read are skipped.
    """
    pipes = {os.readlink(f"/proc/self/fd/{fd}") for fd in (1, 2) if stat.S_ISFIFO(os.fstat(fd).st_mode)}
    if not pipes:
        return []
    skip, holders = _ancestors(), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        if pid in skip:
            continue
        try:
            for fd in os.listdir(f"/proc/{pid}/fd"):
                if os.readlink(f"/proc/{pid}/fd/{fd}") not in pipes:
                    continue
                with open(f"/proc/{pid}/fdinfo/{fd}") as f:
                    flags = int(next(line for line in f if line.startswith("flags:")).split()[1], 8)
                if flags & os.O_ACCMODE != os.O_RDONLY:
                    with open(f"/proc/{pid}/cmdline", "rb") as f:
                        holders.append((int(pid), f.read().replace(b"\0", b" ").decode(errors="replace").strip()))
                    break
        except OSError:  # gone, or not ours to read
            continue
    return holders


def pytest_sessionfinish(session):
    # a process that still holds a write end of pytest's stdout or stderr
    # pipe keeps the pipe's reader waiting after pytest has exited: fail the
    # run and name it, rather than leave the wait silent
    if not sys.platform.startswith("linux") or not os.path.isdir("/proc/self/fd"):
        return
    holders = pipe_writers()
    if holders:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter:
            reporter.write_line("")  # ends the progress line
        for pid, command in holders:
            line = f"process {pid} still holds pytest's stdout or stderr open for writing: {command}"
            if reporter:
                reporter.write_line(line, red=True)
            else:
                print(line, file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
