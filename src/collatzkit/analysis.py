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
_run_chunks, runs them all.  It owns the chunking and the processes: it
slices the range into chunks of _CHUNK_ODDS starts, made only when each is
due, and yields the function's result for each in chunk order, so results
are identical for any worker count.  A scan of fewer than _FORK_CHUNKS
chunks runs in the calling process; a larger one, with workers > 1, is
shared with forked helpers, each pinned to its own slice of the CPUs and
each inheriting the function, so nothing but results and errors crosses a
pipe.  Each scan folds the results as they arrive, so its memory does not
grow with the bound.  Neither the alpha counts nor the drift kernel steps
an odd, because alpha = a holds on exactly one odd class mod 2**(a+1).
The alpha density and the iterate-class ratio are no scan: they read
one closed-form class size per alpha, in the calling process whatever
the worker count.  The drift kernel uses that a class's iterates run in
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
CLI prints the zero violation counts as constants).  Its kernels join each
walk onto a table of the counts of the odd starts from 1 on, by the one
join rule of the trajectory module's docstring, and walk by the core
module's block rule (k Terras steps in one multiply-add, with the budget
checked per block), so the report and the first failing start are those
of the full walks.  The table fills in the calling process, and only the
chunks past it are shared with helpers, which inherit _count_walks with
the filled table.

The table (_fill_table) holds at most _TABLE_STARTS starts and is filled
by blocks lo..hi, in order, with 3*hi + 1 < 4*lo.  Half of a block is
read off the table, not walked.  Each x == 1 (mod 4) has 3x+1 == 0
(mod 4), so alpha >= 2 and its iterate y = (3x+1) >> alpha is at most
(3x+1)/4 < lo: y's count is already in the table, and x's is that plus
1.  Alpha = a holds on the one odd class x == r (mod m = 2**(a+1)); as x
steps by m, 3x+1 steps by 3m and y by 3m >> a = 6, so y's table index
y >> 1 steps by 3, and the class's counts in the block are one slice of
the table, table[i : i + 3n : 3], plus 1.  The block's x == 3 (mod 4)
are then walked in order by _count_walks, whose reach is x - 2: every odd
start below x is in the table by then.  No entry exceeds max_steps, so a
sliced count is over budget exactly when its table[y] is max_steps; the
walks below the block's first such start go first, and the fill raises
at that start only if none of them fails, so the first failing start is
again that of the full walks.

This module loads trajectory only for the benchmark tracer's
trajectory_direct name (__getattr__), which no command reads; fractions
only where a Fraction is built (the series, and the two series limits on
first read); and _fork only for a scan large enough to share.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, cycle, starmap
from operator import sub
from typing import BinaryIO, NamedTuple

from .core import (
    _JUMP_BITS,
    DEFAULT_MAX_STEPS,
    DomainError,
    MaxStepsExceeded,
    _jump_table,
    _raw_step,
    _require_count,
    _require_odd,
    alpha_residue_class,
)

# INCREASE_SERIES_LIMIT = Fraction(3) and DECREASE_SERIES_LIMIT =
# Fraction(1, 4) are made on first read (__getattr__), so that only code
# that builds a Fraction loads the fractions module
_SERIES_LIMITS = {"INCREASE_SERIES_LIMIT": (3, 1), "DECREASE_SERIES_LIMIT": (1, 4)}
EMPIRICAL_TARGET = 0.75  # heuristic per-step factor reported with the measured value
EMPIRICAL_TOLERANCE = 0.05

_CHUNK_ODDS = 1 << 15  # odd integers per scan task; fixed so worker count cannot change results
# the fewest chunks from which a scan with workers > 1 forks helpers: a
# scan of fewer runs in-process whatever the worker count.  Set from whole
# CLI runs of --workers 2 against --workers 1 on a 2-vCPU host, with the
# second CPU free and with one busy loop running (see README): from 8
# chunks on the fork wins with the CPU free, and from 16 it no longer
# loses with the CPU busy
_FORK_CHUNKS = 16

# no longer used: scans fork their helpers (_run_chunks).  perfbench's
# tracer reads and replaces this name, so it stays until the tracer drops it
ProcessPoolExecutor = None


def __getattr__(name: str):
    if name in _SERIES_LIMITS:
        from fractions import Fraction

        return globals().setdefault(name, Fraction(*_SERIES_LIMITS[name]))
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
    from fractions import Fraction

    _require_count(n_terms, 1, "n_terms")
    return _geometric_partial(Fraction(3, 4), n_terms)


def drift_series_decrease_parts(n_terms: int) -> tuple[Fraction, Fraction]:
    """(odd-alpha, even-alpha) components of the shrink series.

    Each alpha >= 2 step scales by roughly 3/2**alpha and is used by a
    2**-alpha share of the odd integers, so the odd alphas (3, 5, ...)
    contribute (3/4)*sum((1/16)**n) -> 1/20 and the even alphas (2, 4, ...)
    contribute 3*sum((1/16)**n) -> 1/5.
    """
    from fractions import Fraction

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


def _run_chunks(work, starts: range, workers: int):
    # the one scan driver: yields work(chunk) for each slice of _CHUNK_ODDS
    # of starts, in order.  Slices are made only as they are due, in every
    # process, so each holds one at a time however long starts is.  A scan
    # of at least _FORK_CHUNKS chunks with workers > 1 loads _fork, and runs
    # in this process and workers - 1 forked helpers where _fork._may_fork
    # allows, never more processes than chunks or usable CPUs; any other
    # scan, and one whose fork fails, runs here alone.  Of W processes,
    # helper r runs chunks r, r + W, ... and sends each result, or the
    # exception its chunk raised, pickled down its pipe to this process
    # (its pipe from this process is left unread); this process runs chunks
    # 0, W, ... and yields every result, or raises the exception, at its
    # chunk's turn.  So a helper runs ahead by at most what its pipe and
    # this process's read buffer hold.  _fork._Helpers owns the helpers'
    # lives: a scan that ends normally waits for them, as each has sent its
    # last result and is exiting; an error, an early close or Ctrl-C kills
    # them first.  A helper whose pipe ends early raises its exit status's
    # error, or ChildProcessError where that status is 0
    import os  # loaded at interpreter start; not a module-level import

    firsts = starts[::_CHUNK_ODDS]

    def chunk(x: int) -> range:
        return range(x, min(x + firsts.step, starts.stop), starts.step)

    # (a sliced range has a len() even where the whole one is too long for it)
    if workers > 1 and len(firsts[:_FORK_CHUNKS]) == _FORK_CHUNKS:
        from . import _fork

        workers = min(len(firsts[:workers]), len(os.sched_getaffinity(0))) if _fork._may_fork() else 1
    else:
        workers = 1
    if workers == 1:
        yield from map(work, map(chunk, firsts))
        return
    import pickle

    def send(role: int, unread: BinaryIO, fd: int) -> None:
        with open(fd, "wb") as pipe:
            for x in firsts[role::workers]:
                try:
                    message = (True, work(chunk(x)))
                except Exception as exc:  # raised in this process at its chunk's turn
                    message = (False, exc)
                pipe.write(pickle.dumps(message))
                pipe.flush()
                if not message[0]:
                    return

    with _fork._Helpers("a scan helper", [partial(send, role) for role in range(1, workers)]) as ends:
        # where the fork failed, ends is [] and this process runs every chunk
        for role, x in zip(cycle(range(len(ends) + 1)), firsts):
            if not role:
                yield work(chunk(x))
                continue
            try:
                ok, result = pickle.load(ends[role - 1][0])
            except (EOFError, pickle.UnpicklingError):  # the helper is gone: leaving raises its status's error
                break
            if not ok:
                raise result
            yield result
        else:
            return
    raise ChildProcessError("a scan helper closed its pipe early")


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
    total = math.fsum(_run_chunks(_drift_chunk, starts, workers))
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


# odd starts of verify's join table, from 1 on
_TABLE_STARTS = 2**17


def _count_walks(starts: range, max_steps: int, table: list[int]) -> int:
    """The summed odd lengths of starts, each walked by the block rule until it joins table.

    table[i] is the count from 2i+1 down to 1 (0 for 1).  A start x >= 3
    walks until an iterate y <= min(x - 2, the table's last start) and
    counts its steps plus table[y >> 1], by the join rule of the
    trajectory module's docstring.  A start inside the table writes its
    count to its own slot, so the caller fills every slot below x first; a
    start past the table only reads it, so each entry is its own start's
    count in any worker, whatever _TABLE_STARTS it reads.
    """
    k = _JUMP_BITS
    jumps = _jump_table(k)
    low = (1 << k) - 1
    last = 2 * len(table) - 1
    iterates_checked = 0
    for x in starts:
        reach = x - 2 if x <= last else last
        cur = x
        steps = 0
        while True:
            if cur > low:
                c, power, tail, _ = jumps[(cur & low) >> 1]
                t = power * (cur >> k) + tail
                steps += c
            else:
                t = 3 * cur + 1
                steps += 1
            cur = t >> ((t & -t).bit_length() - 1)
            if cur <= reach:
                break
            if steps >= max_steps:
                raise MaxStepsExceeded(x, max_steps)
        count = steps + table[cur >> 1]
        if count > max_steps:
            raise MaxStepsExceeded(x, max_steps)
        iterates_checked += count
        if x <= last:
            table[x >> 1] = count
    return iterates_checked


def _fill_table(top: int, max_steps: int) -> list[int]:
    """verify's join table: entry i is the count of the odd start 2i+1, for 1..top.

    The starts go by blocks lo..hi with 3*hi + 1 < 4*lo.  Each alpha
    class of the block's x == 1 (mod 4) is one slice of the table, read
    off the slice of its iterates, which lie below lo; the block's other
    starts are then walked in order (see the module docstring).  The first
    start over max_steps raises MaxStepsExceeded, as in a walk of them all.
    """
    table = [0] * (top // 2 + 1)
    over = max_steps + 1
    classes = [(a, *alpha_residue_class(a)) for a in range(2, (3 * top + 1).bit_length())]
    lo = 3
    while lo <= top:
        # the largest odd hi with 3*hi + 1 < 4*lo, so no block is empty
        hi = min(top, ((4 * lo - 2) // 3 - 1) | 1)
        for a, r, m in classes:
            x = lo + (r - lo) % m
            if x <= hi:
                # y = (3x+1) >> a steps by 6 as x steps by m: indices by 3
                i = (3 * x + 1) >> (a + 1)
                n = (hi - x) // m + 1
                table[x >> 1 : (hi >> 1) + 1 : m >> 1] = map((1).__add__, table[i : i + 3 * n : 3])
        # a sliced count is over budget only as table[y] + 1: the walks
        # below the first such start come first
        end = hi + 2
        if over in table[lo >> 1 : end >> 1]:
            end = 2 * table.index(over, lo >> 1) + 1
        _count_walks(range(lo | 2, end, 4), max_steps, table)
        if end <= hi:
            raise MaxStepsExceeded(end, max_steps)
        lo = hi + 2
    return table


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
    # the table fills here, up to an odd top, so that it holds no entry past
    # the bound; the chunks past it only read it, in workers.  Start 1's walk
    # is the one iterate 1, and table[0] = 0
    table = _fill_table(min(odds[-1], 2 * _TABLE_STARTS - 1), max_steps)
    work = partial(_count_walks, max_steps=max_steps, table=table)
    checked = 1 + sum(table) + sum(_run_chunks(work, odds[len(table) :], workers))
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
