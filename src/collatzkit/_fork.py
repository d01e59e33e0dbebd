"""The process rules of the two places that fork: a scan's chunks and a long walk line.

A scan (analysis._run_chunks) imports this module once it has enough
chunks and workers to share, and a walk line (trajectory._write_walk) once
it is long enough to share; no other command loads it, or the signal
module it needs.
"""

from __future__ import annotations

import os
import signal
import sys
from typing import Callable


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
    """Helper processes forked from this one, each pinned to its own slice of this one's CPUs.

    The CPUs this process may run on, sorted, are cut into count + 1
    slices of near-equal size: helper r runs on slice r, and this process
    on slice 0 from its first fork until reap, which sets its own mask
    back.  Left to the scheduler, a forked process tends to run on the CPU
    of the process that woke it, and the two take turns on one CPU.  A
    mask that the kernel refuses leaves that process where it ran.  name
    is how errors call a helper.
    """

    def __init__(self, name: str, count: int):
        self.name, self.parts, self.pids = name, count + 1, []
        self.cpus = sorted(os.sched_getaffinity(0))

    def _slice(self, role: int) -> list[int]:
        n = len(self.cpus)
        return self.cpus[role * n // self.parts : (role + 1) * n // self.parts]

    def fork(self, run: Callable[[], object]) -> None:
        """Fork the next helper, which calls run() and ends by os._exit.

        Its status is 0 after run returns, 1 after a BrokenPipeError and
        2 after any other error; os._exit flushes none of the buffers it
        inherited.  SIGINT is held across the fork, so neither process can
        miss it or see it early, and the helper ignores it: Ctrl-C reaches
        the whole process group, and only this process reports it.  An
        OSError from os.fork (no process to spare) is raised here.
        """
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pid = os.fork()
            if not pid:
                status = 2
                try:
                    signal.signal(signal.SIGINT, signal.SIG_IGN)
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
                    _pin(self._slice(len(self.pids) + 1))
                    run()
                    status = 0
                except BrokenPipeError:
                    status = 1
                finally:
                    os._exit(status)  # never returns into the caller's frames
            self.pids.append(pid)
            _pin(self._slice(0))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)

    def reap(self, kill: bool) -> list[int]:
        """Wait for every helper, after a SIGKILL if kill, and set this process's CPUs back.

        Returns their exit statuses (os.waitstatus_to_exitcode), in fork
        order.  The waits without kill are interrupted by Ctrl-C, and the
        helpers not yet reaped are then killed; a second Ctrl-C waits
        until the kills are reaped.
        """
        statuses = []
        try:
            while self.pids and not kill:
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
                    statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
                self.pids = []
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, held)
                _pin(self.cpus)
        return statuses

    def error(self, status: int) -> Exception | None:
        # what a helper's exit status stands for (see fork): None for 0
        if status == 1:
            return BrokenPipeError(f"{self.name} met a closed pipe")
        if status:
            how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
            return ChildProcessError(f"{self.name} {how}")
        return None
