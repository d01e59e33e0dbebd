"""Alpha-run classification, average-drift series, and bounded empirical scans.

Half of the odd integers (those == 3 mod 4) start a run of alpha=1 steps
whose iterates climb by ~3/2 each; the run length is one less than the
number of trailing one-bits, and 2**(h+1)*(2n-1) - 1 enumerates the
integers with run length exactly h.  The weighted series over run lengths
sums to 3 (average climb), while the alpha>=2 population's weighted series
sums to 1/4 (average shrink).  The empirical functions measure per-step
behaviour over every odd start up to a bound; the series and the measured
per-step factor (~3/4) weight different quantities and are reported side
by side, never conflated.

Every scan is a function of a range of odd starts, and one driver,
_run_chunks, runs them all.  It owns the chunking, the pool and what a
worker receives: it slices the range into chunks of _CHUNK_ODDS starts,
made only when each is due, and yields the function's result for each in
chunk order, so results are identical for any worker count.  A scan of
fewer chunks than its pool count runs in the calling process; a larger
one runs in a process pool whose workers each receive the function once,
through the pool's initializer, so a task carries only its chunk.  Each
scan folds the results as they arrive, so an in-process scan's memory
does not grow with the bound, and a pool holds at most 2 * workers
tasks.  Neither the alpha counts nor the drift kernel steps an odd,
because alpha = a holds on exactly one odd class mod 2**(a+1).  The alpha
density and the iterate-class ratio are no scan: they read one
closed-form class size per alpha, in the calling process whatever the
worker count.  The drift kernel uses that a class's iterates run in
steps of 6 (the 6m+1 / 6m+5 sets), so it takes log of the class's starts
and of its iterates as two ranges, through starmap(log, zip(r)): math.log
takes an optional base, so each call gets its arguments as a tuple, which
map would build afresh per call, while starmap passes zip's 1-tuple on and
zip reuses it.  The floats are the same, and so is their fsum.

The theorem scan needs no per-iterate test, because both of its
properties are lemmas:

- no iterate is a multiple of 3: every iterate y satisfies
  y * 2**a == 3x+1 == 1 (mod 3), so 3 does not divide y (this is why
  starters are leaves);
- no walk that reaches 1 repeats a value: a repeated value makes the walk
  periodic from there on, and the only cycle through 1 is 1 -> 1, where
  the walk stops.

So the scan only walks and counts, and its report holds no witnesses (the
CLI prints the zero violation counts as constants).  Its kernels, in
trajectory, join each walk onto a table of the counts of the odd starts
from 1 on, by the one join rule of the trajectory module's docstring, and
walk by that docstring's block rule (k Terras steps in one multiply-add,
with the budget checked per block), so the report and the first failing
start are those of the full walks.  The table fills in the calling
process (trajectory._fill_table): its x == 1 (mod 4) half, whose iterates
decrease at once, is read off the table by alpha class and not walked.
Only the chunks past it run in workers: each worker receives
trajectory._count_walks with the filled table once.  This module imports
trajectory only when verify_theorems runs, so drift and alpha-table never
load it.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import partial
from itertools import chain, starmap
from operator import sub
from typing import NamedTuple

from .core import (
    DEFAULT_MAX_STEPS,
    DomainError,
    _raw_step,
    _require_count,
    _require_odd,
    alpha_residue_class,
)

INCREASE_SERIES_LIMIT = Fraction(3)
DECREASE_SERIES_LIMIT = Fraction(1, 4)
EMPIRICAL_TARGET = 0.75  # heuristic per-step factor reported with the measured value
EMPIRICAL_TOLERANCE = 0.05

_CHUNK_ODDS = 1 << 15  # odd integers per scan task; fixed so worker count cannot change results
# the fewest chunks from which each scan starts a pool: a scan of fewer runs
# in-process whatever the worker count, since there a pool costs more than it
# saves.  Both were set from whole CLI runs of --workers 2 against
# --workers 1 (see README)
_DRIFT_POOL_CHUNKS = 32
_VERIFY_POOL_CHUNKS = 12

# the pool class, imported by _run_chunks only when it starts a pool:
# concurrent.futures loads multiprocessing, logging, pickle, socket and
# subprocess, which no single-process command needs at start-up.  A value
# set from outside (a test double, a traced pool) is used as it is.
ProcessPoolExecutor = None


def __getattr__(name: str):
    # perfbench/tracing.py wraps analysis.trajectory_direct by name; nothing
    # here calls it, and ROADMAP item 1 deletes this
    if name == "trajectory_direct":
        from .trajectory import trajectory_direct

        return trajectory_direct
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _require_run_start(x: int) -> None:
    _require_odd(x)
    if x % 4 != 3:
        raise DomainError(f"x must be == 3 (mod 4); {x} == 1 (mod 4) has no alpha=1 run")


def _trailing_ones(x: int) -> int:
    v = x + 1
    return (v & -v).bit_length() - 1


def alpha_chain_length(x: int) -> int:
    """Number of consecutive alpha=1 steps taken from x (requires x == 3 mod 4).

    Computed as the count of trailing one-bits of x minus 1; the step
    iteration itself serves as the independent check in the tests.
    """
    _require_run_start(x)
    return _trailing_ones(x) - 1


def alpha_table_entry(length: int, index: int) -> int:
    """index-th odd integer (1-based) whose alpha=1 run has exactly this length."""
    _require_count(length, 1, "length")
    _require_count(index, 1, "index")
    return 2 ** (length + 1) * (2 * index - 1) - 1


class AlphaChain(NamedTuple):
    start: int
    length: int
    chain: tuple[int, ...]  # the alpha=1 iterates; the last is == 1 (mod 4)
    exit_iterate: int  # image of the last chain element under its alpha>=2 step


def alpha_chain(x: int) -> AlphaChain:
    """Materialise the alpha=1 run from x plus the iterate that ends it."""
    _require_run_start(x)
    chain: list[int] = []
    cur = x
    while cur % 4 == 3:
        cur = (3 * cur + 1) // 2
        chain.append(cur)
    exit_iterate, _ = _raw_step(cur)
    return AlphaChain(start=x, length=len(chain), chain=tuple(chain), exit_iterate=exit_iterate)


def _geometric_partial(ratio: Fraction, n_terms: int) -> Fraction:
    # sum of ratio**n for n = 1..n_terms
    return ratio * (1 - ratio**n_terms) / (1 - ratio)


def drift_series_increase(n_terms: int) -> Fraction:
    """Partial sum of (3/4)**n for n = 1..n_terms; the full series sums to 3.

    The 2**-h share of odd integers with an alpha=1 run of length h climbs
    by roughly (3/2)**h, giving the weighted terms (3/4)**h.
    """
    _require_count(n_terms, 1, "n_terms")
    return _geometric_partial(Fraction(3, 4), n_terms)


def drift_series_decrease_parts(n_terms: int) -> tuple[Fraction, Fraction]:
    """(odd-alpha, even-alpha) components of the shrink series.

    Each alpha >= 2 step scales by roughly 3/2**alpha and is used by a
    2**-alpha share of the odd integers, so the odd alphas (3, 5, ...)
    contribute (3/4)*sum((1/16)**n) -> 1/20 and the even alphas (2, 4, ...)
    contribute 3*sum((1/16)**n) -> 1/5.
    """
    _require_count(n_terms, 1, "n_terms")
    s = _geometric_partial(Fraction(1, 16), n_terms)
    return Fraction(3, 4) * s, 3 * s


def drift_series_decrease(n_terms: int) -> Fraction:
    """Partial sum of (15/4)*(1/16)**n for n = 1..n_terms; the full series sums to 1/4."""
    odd_part, even_part = drift_series_decrease_parts(n_terms)
    return odd_part + even_part


class AlphaBucket(NamedTuple):
    alpha: int
    count: int
    ratio: float


class AlphaDensityReport(NamedTuple):
    bound: int
    odd_total: int
    buckets: tuple[AlphaBucket, ...]


class DriftReport(NamedTuple):
    n_terms: int | None
    scan_bound: int | None
    series_increase: Fraction | None  # partial sum, limit 3
    series_decrease: Fraction | None  # partial sum, limit 1/4
    empirical_value: float | None  # geometric mean of iterate/x


class TheoremScanReport(NamedTuple):
    bound: int
    trajectories: int
    iterates_checked: int


def _run_chunks(work, starts: range, workers: int, pool_from: int):
    # the one scan driver: yields work(chunk) for each slice of _CHUNK_ODDS
    # of starts, in order.  Slices are made only as they are needed, so an
    # in-process scan holds one at a time however long starts is, and a pool
    # has at most 2 * workers in flight.  A scan of fewer than pool_from
    # chunks starts no pool
    global ProcessPoolExecutor
    import os  # loaded at interpreter start; not a module-level import

    firsts = starts[::_CHUNK_ODDS]
    chunks = (range(x, min(x + firsts.step, starts.stop), starts.step) for x in firsts)
    workers = workers if len(firsts[:pool_from]) == pool_from else 1
    # a fork pool starts every worker up front, so never ask for more
    # workers than there are chunks or CPUs this process may run on (every
    # CPU where sched_getaffinity does not exist, as on macOS; a sliced
    # range has a len() even where the whole one is too long for it)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(firsts[:workers]), len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers <= 1:
        yield from map(work, chunks)
        return
    import signal

    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    # each worker receives work once, as the initializer's argument
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker, initargs=(work,)) as pool:
        pending = deque()
        try:
            for chunk in chunks:
                # submit may fork a worker: SIGINT waits until it returns, so
                # the at-fork hooks cannot swallow it, nor the new worker see it
                held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    pending.append(pool.submit(_run_work, chunk))
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, held)
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            # on an error or an early close, start none of the queued tasks
            for future in pending:
                future.cancel()


_work = None  # a pool worker's scan function, set by _start_worker in the worker only


def _start_worker(work) -> None:
    # Ctrl-C reaches the whole process group: only the parent handles it
    # (one line, exit 1); a worker finishes its task in hand, with no traceback
    global _work
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _work = work


def _run_work(chunk: range):
    return _work(chunk)


def _alpha_counts(bound: int) -> list[int]:
    # counts[a] = number of odd x <= bound whose step divides by exactly 2**a,
    # for every a <= log2(3x+1): the members r, r + m, ... <= bound of the
    # one odd class x == r (mod m = 2**(a+1)) on which alpha = a.  As r < m,
    # the floor is -1 where r > bound; no len(range): bound may pass ssize_t
    counts = [0] * (3 * ((bound - 1) | 1) + 1).bit_length()
    for a in range(1, len(counts)):
        r, m = alpha_residue_class(a)
        counts[a] = (bound - r) // m + 1
    return counts


def _drift_chunk(starts: range) -> float:
    # math.fsum of log(y) - log(x) over the odd starts x, taken class by
    # class: alpha = a on exactly one odd class x == r (mod 2**(a+1)), where
    # y = (3x+1) >> a steps by 6 as x steps by 2**(a+1).  The floats are
    # those of a walk over the starts and fsum is exactly rounded, so the
    # order they come in does not change the sum
    log = math.log
    terms = []
    for a in range(1, (3 * starts[-1] + 1).bit_length()):
        r, m = alpha_residue_class(a)
        xs = starts[(r - starts.start) % m >> 1 :: m >> 1]
        if xs:
            y = (3 * xs[0] + 1) >> a
            terms.append(map(sub, starmap(log, zip(range(y, y + 6 * len(xs), 6))), starmap(log, zip(xs))))
    return math.fsum(chain.from_iterable(terms))


def empirical_alpha_density(bound: int, max_alpha: int) -> AlphaDensityReport:
    """Exact count and share of odd x <= bound using each alpha in 1..max_alpha.

    Each alpha value is taken on exactly one odd residue class mod
    2**(alpha+1), so the shares halve as alpha steps up; requires
    bound >= 2**(max_alpha+1) - 1 so every class is populated (each
    class's least member is an odd number below 2**(alpha+1)).  The counts
    are class sizes, not a scan.
    """
    _require_count(max_alpha, 1, "max_alpha")
    _require_count(bound, 2, "bound")
    if bound < 2 ** (max_alpha + 1) - 1:
        raise DomainError(
            f"bound must be >= 2**(max_alpha+1) - 1 = {2 ** (max_alpha + 1) - 1}, got {bound}"
        )
    counts = _alpha_counts(bound)
    odd_total = (bound + 1) // 2
    buckets = tuple(
        AlphaBucket(alpha=a, count=counts[a], ratio=counts[a] / odd_total)
        for a in range(1, max_alpha + 1)
    )
    return AlphaDensityReport(bound=bound, odd_total=odd_total, buckets=buckets)


def empirical_drift(bound: int, *, workers: int = 1) -> DriftReport:
    """Geometric mean of iterate/x over odd x in [3, bound].

    The mean alpha is 2, so the measured per-step factor settles near 3/4.
    This measures something different from the weighted series above and
    the report keeps the two separate.
    """
    _require_count(bound, 3, "bound")
    _require_count(workers, 1, "workers")
    starts = range(3, bound + 1, 2)
    # fsum adds the chunk sums exactly and rounds once, half to even, as
    # float(sum(map(Fraction, ...))) does: the same float for any chunking
    total = math.fsum(_run_chunks(_drift_chunk, starts, workers, _DRIFT_POOL_CHUNKS))
    return DriftReport(
        n_terms=None,
        scan_bound=bound,
        series_increase=None,
        series_decrease=None,
        empirical_value=math.exp(total / len(starts)),
    )


def empirical_iterate_class_ratio(bound: int) -> tuple[float, float]:
    """Fractions of odd x <= bound whose iterate is == 1 resp. 5 (mod 6).

    Iterates land on 6m+5 exactly when alpha is odd, which happens for
    2/3 of the odd integers, so the pair tends to (1/3, 2/3).  The counts
    are class sizes, not a scan.
    """
    _require_count(bound, 1, "bound")
    counts = _alpha_counts(bound)
    c1 = sum(counts[2::2])
    c5 = sum(counts[1::2])
    total = c1 + c5
    return c1 / total, c5 / total


def verify_theorems(
    bound: int, max_steps: int = DEFAULT_MAX_STEPS, *, workers: int = 1
) -> TheoremScanReport:
    """Walk every odd x <= bound down to 1 and count the iterates.

    No iterate is a multiple of 3 and no walk that reaches 1 repeats a
    value (see the module docstring), so there is nothing else to check;
    a walk over max_steps odd steps raises MaxStepsExceeded for the first
    such start in scan order.
    """
    _require_count(bound, 3, "bound")
    _require_count(max_steps, 1, "max_steps")
    _require_count(workers, 1, "workers")
    odds = range(1, bound + 1, 2)
    from . import trajectory

    # the table fills here, up to an odd top, so that it holds no entry past
    # the bound; the chunks past it only read it, in workers.  Start 1's walk
    # is the one iterate 1, and table[0] = 0
    table = trajectory._fill_table(min(odds[-1], 2 * trajectory._TABLE_STARTS - 1), max_steps)
    work = partial(trajectory._count_walks, max_steps=max_steps, table=table)
    checked = 1 + sum(table) + sum(_run_chunks(work, odds[len(table) :], workers, _VERIFY_POOL_CHUNKS))
    return TheoremScanReport(bound=bound, trajectories=len(odds), iterates_checked=checked)


def drift_report(
    n_terms: int | None = None, scan_bound: int | None = None, *, workers: int = 1
) -> DriftReport:
    """Series partial sums and/or the measured per-step factor, side by side."""
    if n_terms is None and scan_bound is None:
        raise DomainError("need n_terms and/or scan_bound")
    inc = drift_series_increase(n_terms) if n_terms is not None else None
    dec = drift_series_decrease(n_terms) if n_terms is not None else None
    _require_count(workers, 1, "workers")
    emp = None
    if scan_bound is not None:
        emp = empirical_drift(scan_bound, workers=workers).empirical_value
    return DriftReport(
        n_terms=n_terms,
        scan_bound=scan_bound,
        series_increase=inc,
        series_decrease=dec,
        empirical_value=emp,
    )
