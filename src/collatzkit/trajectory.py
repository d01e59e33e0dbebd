"""Odd-iterate trajectories, built two independent ways.

trajectory_direct repeats the (3x+1)/2**alpha step; trajectory_lookup
never touches that formula and instead reads each next iterate off the
predecessor-table layout: strip x -> (x-1)/4 while x == 5 (mod 8), then
emit 6*floor(x/4)+5 or 6*floor(x/8)+1 depending on the residue.  The two
routes must agree element for element, alphas included (the lookup route
recovers alpha from the column it stripped through).

Records hold odd iterates only; even intermediates are never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import DEFAULT_MAX_STEPS, DomainError, MaxStepsExceeded, _require_count, _require_odd


@dataclass(frozen=True)
class TrajectoryRecord:
    start: int
    iterates: tuple[int, ...]  # ends at 1
    alphas: tuple[int, ...]  # one per step
    odd_length: int  # number of steps == len(iterates)
    total_divisions: int  # sum of alphas
    peak: int  # maximum iterate (start is held separately and not included)


def _record(start: int, iterates: list[int], alphas: list[int]) -> TrajectoryRecord:
    return TrajectoryRecord(
        start=start,
        iterates=tuple(iterates),
        alphas=tuple(alphas),
        odd_length=len(iterates),
        total_divisions=sum(alphas),
        peak=max(iterates),
    )


def _run(start: int, step: Callable[[int], tuple[int, int]], max_steps: int) -> TrajectoryRecord:
    iterates: list[int] = []
    alphas: list[int] = []
    append_i = iterates.append
    append_a = alphas.append
    cur = start
    for _ in range(max_steps):
        cur, alpha = step(cur)
        append_i(cur)
        append_a(alpha)
        if cur == 1:
            return _record(start, iterates, alphas)
    raise MaxStepsExceeded(start, max_steps)


def trajectory_direct(x: int, max_steps: int = DEFAULT_MAX_STEPS) -> TrajectoryRecord:
    """Record of repeated (3x+1)/2**alpha steps from x down to 1."""
    _require_odd(x)
    _require_count(max_steps, 1, "max_steps")
    iterates: list[int] = []
    alphas: list[int] = []
    append_i = iterates.append
    append_a = alphas.append
    cur = x
    for _ in range(max_steps):
        # the step, inlined: no call per iterate
        t = 3 * cur + 1
        alpha = (t & -t).bit_length() - 1
        cur = t >> alpha
        append_i(cur)
        append_a(alpha)
        if cur == 1:
            return _record(x, iterates, alphas)
    raise MaxStepsExceeded(x, max_steps)


def _lookup_step(x: int) -> tuple[int, int]:
    # next iterate and alpha read straight off the table layout; no 3x+1 arithmetic
    strips = 0
    while x % 8 == 5:
        x = (x - 1) // 4
        strips += 1
    if x % 4 == 3:
        return 6 * (x // 4) + 5, 2 * strips + 1
    return 6 * (x // 8) + 1, 2 * strips + 2


def trajectory_lookup(x: int, max_steps: int = DEFAULT_MAX_STEPS) -> TrajectoryRecord:
    """Same record as trajectory_direct, built by table lookup alone."""
    _require_odd(x)
    _require_count(max_steps, 1, "max_steps")
    return _run(x, _lookup_step, max_steps)


@dataclass(frozen=True)
class FieldStats:
    minimum: int
    maximum: int
    mean: float | int  # int only where the mean is beyond float range


@dataclass(frozen=True)
class TrajectoryStats:
    count: int
    odd_length: FieldStats
    total_divisions: FieldStats
    peak: FieldStats


def _mean(total: int, count: int) -> float | int:
    try:
        return total / count
    except OverflowError:
        from fractions import Fraction

        return round(Fraction(total, count))


def trajectory_stats(records: Iterable[TrajectoryRecord]) -> TrajectoryStats:
    """Aggregate min/max/mean over records in one pass; order-independent.

    Keeps no record.  A mean is total / count as a float, or the nearest
    integer (ties to even) when that float would overflow.
    """
    count = 0
    for rec in records:
        row = (rec.odd_length, rec.total_divisions, rec.peak)
        if count:
            lows = tuple(map(min, lows, row))
            highs = tuple(map(max, highs, row))
            totals = tuple(t + v for t, v in zip(totals, row))
        else:
            lows = highs = totals = row
        count += 1
    if not count:
        raise DomainError("no trajectory records to summarise")
    odd_length, total_divisions, peak = (
        FieldStats(minimum=lo, maximum=hi, mean=_mean(total, count))
        for lo, hi, total in zip(lows, highs, totals)
    )
    return TrajectoryStats(count=count, odd_length=odd_length, total_divisions=total_divisions, peak=peak)


# Iterates of at least this many bits are rendered from the previous one's
# Decimal as (3d+1) // 2**alpha, which is linear in the digit count; str(int)
# is quadratic, but faster below this size.  Per iterate, str vs Decimal,
# Python 3.11 on a 2-vCPU x86-64 host: 2.2-2.5 vs 2.8-3.0 us at 896 bits,
# about equal at 1024-1088, 4.4-5.4 vs 2.6-3.7 us at 1536.
DECIMAL_MIN_BITS = 1024


def iterate_strings(record: TrajectoryRecord) -> Iterable[str]:
    """The decimal strings of record.iterates, equal to map(str, record.iterates)."""
    if record.peak.bit_length() < DECIMAL_MIN_BITS:
        return map(str, record.iterates)
    return _tracked_decimals(record)


def _tracked_decimals(record: TrajectoryRecord) -> Iterator[str]:
    import decimal  # already loaded through fractions; not a module-level import

    # any loss of exactness raises instead of printing a wrong digit
    exact = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
    )
    fma, divide_int = exact.fma, exact.divide_int
    d = None  # the previous iterate as a Decimal, while it is big
    for value, alpha in zip(record.iterates, record.alphas):
        if value.bit_length() < DECIMAL_MIN_BITS:
            d = None
            yield str(value)
        else:
            d = decimal.Decimal(value) if d is None else divide_int(fma(d, 3, 1), 1 << alpha)
            yield str(d)


def record_json(record: TrajectoryRecord) -> str:
    """One JSON line per trajectory, for streaming output.

    Byte-identical to json.dumps(..., separators=(",", ":")) of the record's
    fields, but built directly: every field is an int or a list of ints.
    """
    return (
        f'{{"start":{record.start},"iterates":[{",".join(iterate_strings(record))}],'
        f'"alphas":[{",".join(map(str, record.alphas))}],"odd_length":{record.odd_length},'
        f'"total_divisions":{record.total_divisions},"peak":{record.peak}}}'
    )


def stats_csv(stats: TrajectoryStats) -> str:
    """CSV summary with one row per aggregated metric."""
    lines = ["metric,min,max,mean"]
    for name, field in (
        ("odd_length", stats.odd_length),
        ("total_divisions", stats.total_divisions),
        ("peak", stats.peak),
    ):
        lines.append(f"{name},{field.minimum},{field.maximum},{field.mean!r}")
    return "\n".join(lines) + "\n"
