"""Alpha-run classification, average-drift series, and bounded empirical scans.

Half of the odd integers (those == 3 mod 4) start a run of alpha=1 steps
whose iterates climb by ~3/2 each; the run length is one less than the
number of trailing one-bits, and 2**(h+1)*(2n-1) - 1 enumerates the
integers with run length exactly h.  The weighted series over run lengths
sums to 3 (average climb), while the alpha>=2 population's weighted series
sums to 1/4 (average shrink).  The empirical scans measure per-step
behaviour directly against a brute-force walk; the series and the measured
per-step factor (~3/4) weight different quantities and are reported side
by side, never conflated.

Range scans are split into fixed-size chunks combined in chunk order, so
results are identical for any worker count.  The theorem scan runs its
first _TABLE_CHUNKS chunks in the calling process, recording each start's
odd-step count; every walk stops where it joins a start in that table and
adds the count, so the report is that of the full walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import DEFAULT_MAX_STEPS, DomainError, MaxStepsExceeded, _raw_step, _require_count, _require_odd
from .trajectory import TrajectoryRecord, trajectory_direct

INCREASE_SERIES_LIMIT = Fraction(3)
DECREASE_SERIES_LIMIT = Fraction(1, 4)

_CHUNK_ODDS = 1 << 15  # odd integers per scan task; fixed so worker count cannot change results
_TABLE_CHUNKS = 4  # leading theorem-scan chunks whose odd-step counts later walks join
_FLAGGED = -1  # table entry of a start whose walk showed a violation

# the pool class, imported by _run_chunks only when it starts a pool:
# concurrent.futures loads multiprocessing, logging, pickle, socket and
# subprocess, which no single-process command needs at start-up.  A value
# set from outside (a test double, a traced pool) is used as it is.
ProcessPoolExecutor = None


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


@dataclass(frozen=True)
class AlphaChain:
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


@dataclass(frozen=True)
class AlphaBucket:
    alpha: int
    count: int
    ratio: float


@dataclass(frozen=True)
class AlphaDensityReport:
    bound: int
    odd_total: int
    buckets: tuple[AlphaBucket, ...]


@dataclass(frozen=True)
class DriftReport:
    n_terms: int | None
    scan_bound: int | None
    series_increase: Fraction | None  # partial sum, limit 3
    series_decrease: Fraction | None  # partial sum, limit 1/4
    empirical_value: float | None  # geometric mean of iterate/x
    target: float  # heuristic per-step factor for the empirical value
    tolerance: float


@dataclass(frozen=True)
class TheoremScanReport:
    bound: int
    trajectories: int
    iterates_checked: int
    multiple_of_three: tuple[tuple[int, int], ...]  # (start, offending iterate)
    duplicates: tuple[tuple[int, int], ...]  # (start, repeated value)

    @property
    def violations(self) -> int:
        return len(self.multiple_of_three) + len(self.duplicates)


def _chunk_spans(lo: int, hi: int) -> list[tuple[int, int]]:
    # inclusive spans over odd lo..hi with a fixed odd count per span
    spans = []
    x = lo
    while x <= hi:
        end = min(x + 2 * (_CHUNK_ODDS - 1), hi)
        spans.append((x, end))
        x = end + 2
    return spans


def _run_chunks(worker, tasks, workers: int) -> list:
    global ProcessPoolExecutor
    import os  # loaded at interpreter start; not a module-level import

    # a fork pool starts every worker up front, so never ask for more
    # workers than there are chunks or CPUs
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(t) for t in tasks]
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks))


def _density_chunk(task: tuple[int, int, int]) -> list[int]:
    lo, hi, max_alpha = task
    counts = [0] * (max_alpha + 1)
    for x in range(lo, hi + 1, 2):
        t = 3 * x + 1
        a = (t & -t).bit_length() - 1
        if a <= max_alpha:
            counts[a] += 1
    return counts


def _drift_chunk(span: tuple[int, int]) -> tuple[int, float]:
    lo, hi = span
    log = math.log
    logs = []
    append = logs.append
    for x in range(lo, hi + 1, 2):
        t = 3 * x + 1
        y = t >> ((t & -t).bit_length() - 1)
        append(log(y) - log(x))
    return len(logs), math.fsum(logs)


def _ratio_chunk(span: tuple[int, int]) -> tuple[int, int]:
    lo, hi = span
    c1 = c5 = 0
    for x in range(lo, hi + 1, 2):
        t = 3 * x + 1
        y = t >> ((t & -t).bit_length() - 1)
        if y % 6 == 1:
            c1 += 1
        else:
            c5 += 1
    return c1, c5


def _collect_witnesses(rec: TrajectoryRecord, mult3: list, dups: list) -> None:
    x = rec.start
    # the end integer's own walk is the fixed point 1 -> 1, not a duplicate
    seen = {x} if x != 1 else set()
    for y in rec.iterates:
        if y % 3 == 0:
            mult3.append((x, y))
        if y in seen:
            dups.append((x, y))
        seen.add(y)


def _verify_chunk(task: tuple[int, int, int, list, bool]) -> tuple[int, int, list, list]:
    lo, hi, max_steps, table, grow = task
    # table[i] is the odd-step count from 2i+1 down to 1 (0 for 1, _FLAGGED
    # for a start whose walk showed a violation).  Each walk stops at its
    # first iterate y the table holds: below x when this chunk extends the
    # table, else within its reach.  The rest of the walk is y's, already
    # checked, and a value met both before and after y would put y on a cycle
    mult3 = []
    dups = []
    iterates_checked = 0
    reach = 2 * len(table) - 1
    for x in range(lo, hi + 1, 2):
        if grow:
            reach = x  # cur == x is a repeat, caught first (x == 1 joins 1)
        seen = {x} if x != 1 else set()
        add = seen.add
        cur = x
        for steps in range(1, max_steps + 1):
            t = 3 * cur + 1
            cur = t >> ((t & -t).bit_length() - 1)
            if cur % 3 == 0 or cur in seen:
                count = _FLAGGED
                break
            if cur <= reach:
                count = table[cur >> 1]
                if count != _FLAGGED:
                    count += steps
                break
            add(cur)
        else:
            raise MaxStepsExceeded(x, max_steps)
        if count == _FLAGGED:
            # rewalked through trajectory_direct for its witnesses
            rec = trajectory_direct(x, max_steps)
            iterates_checked += rec.odd_length
            _collect_witnesses(rec, mult3, dups)
        elif count > max_steps:
            raise MaxStepsExceeded(x, max_steps)
        else:
            iterates_checked += count
        if grow and x > 1:
            table.append(count)
    return len(range(lo, hi + 1, 2)), iterates_checked, mult3, dups


def _odd_ceiling(bound: int) -> int:
    return bound if bound % 2 else bound - 1


def empirical_alpha_density(bound: int, max_alpha: int, *, workers: int = 1) -> AlphaDensityReport:
    """Exact count and share of odd x <= bound using each alpha in 1..max_alpha.

    Each alpha value is taken on exactly one odd residue class mod
    2**(alpha+1), so the shares halve as alpha steps up; requires
    bound >= 2**(max_alpha+1) - 1 so every class is populated (each
    class's least member is an odd number below 2**(alpha+1)).
    """
    _require_count(max_alpha, 1, "max_alpha")
    _require_count(bound, 2, "bound")
    if bound < 2 ** (max_alpha + 1) - 1:
        raise DomainError(
            f"bound must be >= 2**(max_alpha+1) - 1 = {2 ** (max_alpha + 1) - 1}, got {bound}"
        )
    _require_count(workers, 1, "workers")
    tasks = [(lo, hi, max_alpha) for lo, hi in _chunk_spans(1, _odd_ceiling(bound))]
    counts = [0] * (max_alpha + 1)
    for chunk_counts in _run_chunks(_density_chunk, tasks, workers):
        for a, c in enumerate(chunk_counts):
            counts[a] += c
    odd_total = (bound + 1) // 2
    buckets = tuple(
        AlphaBucket(alpha=a, count=counts[a], ratio=counts[a] / odd_total)
        for a in range(1, max_alpha + 1)
    )
    return AlphaDensityReport(bound=bound, odd_total=odd_total, buckets=buckets)


def empirical_drift(
    bound: int, *, workers: int = 1, target: float = 0.75, tolerance: float = 0.05
) -> DriftReport:
    """Geometric mean of iterate/x over odd x in [3, bound].

    The mean alpha is 2, so the measured per-step factor settles near 3/4.
    This measures something different from the weighted series above and
    the report keeps the two separate.
    """
    _require_count(bound, 3, "bound")
    _require_count(workers, 1, "workers")
    parts = _run_chunks(_drift_chunk, _chunk_spans(3, _odd_ceiling(bound)), workers)
    count = sum(p[0] for p in parts)
    total = math.fsum(p[1] for p in parts)
    return DriftReport(
        n_terms=None,
        scan_bound=bound,
        series_increase=None,
        series_decrease=None,
        empirical_value=math.exp(total / count),
        target=target,
        tolerance=tolerance,
    )


def empirical_iterate_class_ratio(bound: int, *, workers: int = 1) -> tuple[float, float]:
    """Fractions of odd x <= bound whose iterate is == 1 resp. 5 (mod 6).

    Iterates land on 6m+5 exactly when alpha is odd, which happens for
    2/3 of the odd integers, so the pair tends to (1/3, 2/3).
    """
    _require_count(bound, 1, "bound")
    _require_count(workers, 1, "workers")
    parts = _run_chunks(_ratio_chunk, _chunk_spans(1, _odd_ceiling(bound)), workers)
    c1 = sum(p[0] for p in parts)
    c5 = sum(p[1] for p in parts)
    total = c1 + c5
    return c1 / total, c5 / total


def verify_theorems(
    bound: int, max_steps: int = DEFAULT_MAX_STEPS, *, workers: int = 1
) -> TheoremScanReport:
    """Scan every odd x <= bound for iterates divisible by 3 or repeated in-trajectory values.

    Violations are returned as witness pairs, not raised; a clean scan has
    empty witness tuples.
    """
    _require_count(bound, 3, "bound")
    _require_count(max_steps, 1, "max_steps")
    _require_count(workers, 1, "workers")
    spans = _chunk_spans(1, _odd_ceiling(bound))
    table = [0]
    parts = [_verify_chunk((lo, hi, max_steps, table, True)) for lo, hi in spans[:_TABLE_CHUNKS]]
    tasks = [(lo, hi, max_steps, table, False) for lo, hi in spans[_TABLE_CHUNKS:]]
    parts += _run_chunks(_verify_chunk, tasks, workers)
    trajectories = 0
    iterates_checked = 0
    mult3: list[tuple[int, int]] = []
    dups: list[tuple[int, int]] = []
    for n, checked, m3, du in parts:
        trajectories += n
        iterates_checked += checked
        mult3.extend(m3)
        dups.extend(du)
    return TheoremScanReport(
        bound=bound,
        trajectories=trajectories,
        iterates_checked=iterates_checked,
        multiple_of_three=tuple(mult3),
        duplicates=tuple(dups),
    )


def drift_report(
    n_terms: int | None = None,
    scan_bound: int | None = None,
    *,
    workers: int = 1,
    target: float = 0.75,
    tolerance: float = 0.05,
) -> DriftReport:
    """Series partial sums and/or the measured per-step factor, side by side."""
    if n_terms is None and scan_bound is None:
        raise DomainError("need n_terms and/or scan_bound")
    inc = drift_series_increase(n_terms) if n_terms is not None else None
    dec = drift_series_decrease(n_terms) if n_terms is not None else None
    emp = None
    if scan_bound is not None:
        emp = empirical_drift(scan_bound, workers=workers).empirical_value
    return DriftReport(
        n_terms=n_terms,
        scan_bound=scan_bound,
        series_increase=inc,
        series_decrease=dec,
        empirical_value=emp,
        target=target,
        tolerance=tolerance,
    )
