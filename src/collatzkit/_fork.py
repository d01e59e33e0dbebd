"""The process rules of the two places that fork: a scan's chunks and a long walk line.

A scan (analysis._run_chunks) imports this module once it has enough
chunks and workers to share, and a walk line (trajectory._write_walk) once
it is long enough to share; no other command loads it.  The signal module
loads only when a helper is forked, so a scan that _may_fork then refuses
(one usable CPU, a second thread) loads nothing more.  Both callers run
their helpers through _Helpers, which owns a helper's whole life: the
fork, its pipes, the fallback when no process is spare, the waits and
what an exit status means.
"""

from __future__ import annotations

import os
import sys
from typing import BinaryIO, Callable


def _may_fork() -> bool:
    # os.fork and os.sched_getaffinity exist, two CPUs or more are usable,
    # and no second thread runs: a fork copies only the calling thread, so a
    # lock that another thread holds would stay held in the helper.  Without
    # sched_getaffinity (macOS, whose system libraries may start threads)
    # nothing forks
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    return alone and hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def _pin(cpus: list[int]) -> None:
    # this process runs on cpus from now on; where the kernel refuses the
    # mask (an empty slice, a cpuset that shrank) it runs where it ran
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


class _Helpers:
    """A context manager that forks one helper per callable in runs, each on its own slice of this process's CPUs.

    with _Helpers(name, runs) as ends: forks helper r (from 1) for runs[r - 1]
    and joins it to this process by a pipe each way.  The helper calls
    run(reader, writer_fd), with reader a binary file of what this process
    writes and writer_fd a descriptor that this process reads, and ends by
    os._exit: status 0 after run returns, 1 after a BrokenPipeError and 2
    after any other error; os._exit flushes none of the buffers it
    inherited.  ends holds this process's (reader, writer_fd) per helper,
    in fork order; each helper holds only its own ends, so a helper that
    dies leaves its reader at EOF.  Where a fork fails (no process to
    spare), the helpers already forked are killed and reaped and ends is
    []: the caller then does the work alone.

    SIGINT is held across the forks, so no process can miss it or see it
    early, and the helpers ignore it: Ctrl-C reaches the whole process
    group, and only this process reports it.  A Ctrl-C that came during
    the forks is raised once they are done, after the helpers are killed
    and reaped and this process's CPUs set back.  The CPUs this process may
    run on, sorted, are cut into len(runs) + 1 slices of near-equal size:
    helper r runs on slice r, and this process on slice 0 until it leaves.
    Left to the scheduler, a forked process tends to run on the CPU of the
    process that woke it, and the two take turns on one CPU.  A mask that
    the kernel refuses leaves that process where it ran.

    Leaving closes this process's ends and then waits for every helper,
    after a SIGKILL if the block raised, and sets this process's CPUs
    back.  After a block that did not raise, the first helper's error is
    raised: BrokenPipeError for status 1, and ChildProcessError for any
    other nonzero status or a signal, each calling the helper name.  A
    status 1 ranks below the others: closing this process's ends is what
    breaks the pipe of a helper still writing when another has died.  The
    waits are interrupted by Ctrl-C, and the helpers not yet reaped are
    then killed; a second Ctrl-C waits until the kills are reaped.
    """

    def __init__(self, name: str, runs: list[Callable[[BinaryIO, int], object]]):
        self.name, self.runs, self.parts = name, runs, len(runs) + 1
        self.cpus, self.pids, self.ends = sorted(os.sched_getaffinity(0)), [], []

    def _slice(self, role: int) -> list[int]:
        n = len(self.cpus)
        return self.cpus[role * n // self.parts : (role + 1) * n // self.parts]

    def __enter__(self) -> list[tuple[BinaryIO, int]]:
        import signal

        try:
            held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                for run in self.runs:
                    self._fork(run, signal, held)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)  # raises a Ctrl-C that came meanwhile
            _pin(self._slice(0))
        except BaseException as exc:
            # with calls no __exit__ when __enter__ raises: kill and reap the helpers already forked here
            self.__exit__(type(exc), exc, None)
            if not isinstance(exc, OSError):
                raise
        return self.ends

    def _fork(self, run: Callable[[BinaryIO, int], object], signal, held: set) -> None:
        # forks one helper while SIGINT is blocked; held is the mask from before, which the helper restores
        down = up = ()  # this process writes down[1] and reads up[0]; the helper the other two
        try:
            down = os.pipe()
            up = os.pipe()
            pid = os.fork()
            if not pid:
                status = 2
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
                    _pin(self._slice(len(self.pids) + 1))
                    for reader, writer in self.ends:
                        reader.close()
                        os.close(writer)
                    os.close(down[1])
                    os.close(up[0])
                    run(open(down[0], "rb"), up[1])
                    status = 0
                except BrokenPipeError:
                    status = 1
                finally:
                    os._exit(status)  # never returns into the caller's frames
            self.pids.append(pid)
            self.ends.append((open(up[0], "rb"), down[1]))
            down, up = down[:1], up[1:]  # the helper's ends, closed here
        finally:
            for fd in (*down, *up):
                os.close(fd)

    def __exit__(self, kind, exc, tb) -> None:
        import signal

        for reader, writer in self.ends:
            reader.close()
            os.close(writer)
        self.ends, statuses = [], []
        try:
            while self.pids and kind is None:
                statuses.append(os.waitstatus_to_exitcode(os.waitpid(self.pids[0], 0)[1]))
                del self.pids[0]
        finally:
            held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                for pid in self.pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:  # reaped above, by a wait that a Ctrl-C cut short
                        continue
                    os.waitpid(pid, 0)
                self.pids = []
            finally:
                _pin(self.cpus)  # before a Ctrl-C that came meanwhile is raised
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
        # the first error, a closed pipe only where no helper has a graver one
        status = min(statuses, key=lambda s: (s == 0, s == 1), default=0)
        if status == 1:
            raise BrokenPipeError(f"{self.name} met a closed pipe")
        if status:
            how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
            raise ChildProcessError(f"{self.name} {how}")
