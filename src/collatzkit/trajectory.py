"""Odd-iterate trajectories, built two independent ways.

trajectory_direct repeats the (3x+1)/2**alpha step; trajectory_lookup
never touches that formula and instead reads each next iterate off the
predecessor-table layout: strip x -> (x-1)/4 while x == 5 (mod 8), then
emit 6*floor(x/4)+5 or 6*floor(x/8)+1 depending on the residue.  It reads
each residue with a bit test (x & 7, x & 3) and each quotient with a shift
(x >> 2, x >> 3; on x == 5 mod 8, x >> 2 is (x-1)/4), so no step divides
the whole bigint.  The two routes must agree element for element, alphas
included (the lookup route recovers alpha from the column it stripped
through).

Records hold odd iterates only; even intermediates are never materialised.

A direct --stats range (_range_stats) builds no record past its first
start.  All three summarised fields add up across a join: if a walk from
x first reaches y, a start already summarised, then odd_length(x) is the
steps to y plus odd_length(y), total_divisions adds the same way, and
peak(x) is the larger of the walk's maximum up to y (y included) and
peak(y), since a peak never counts its own start.  Each walk therefore
steps only until it falls onto an earlier start of the range.  The table
of summarised starts holds at most _MEMO_STARTS entries, whatever the
range's length.
"""

from __future__ import annotations

import io
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, TextIO

from .core import DEFAULT_MAX_STEPS, DomainError, MaxStepsExceeded, _require_count, _require_odd


class TrajectoryRecord(NamedTuple):
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


def trajectory_lookup(x: int, max_steps: int = DEFAULT_MAX_STEPS) -> TrajectoryRecord:
    """Same record as trajectory_direct, built by table lookup alone."""
    _require_odd(x)
    _require_count(max_steps, 1, "max_steps")
    iterates: list[int] = []
    alphas: list[int] = []
    append_i = iterates.append
    append_a = alphas.append
    cur = x
    for _ in range(max_steps):
        # next iterate and alpha read straight off the table layout; no 3x+1 arithmetic
        strips = 0
        while cur & 7 == 5:
            cur >>= 2
            strips += 1
        if cur & 3 == 3:
            cur, alpha = 6 * (cur >> 2) + 5, 2 * strips + 1
        else:
            cur, alpha = 6 * (cur >> 3) + 1, 2 * strips + 2
        append_i(cur)
        append_a(alpha)
        if cur == 1:
            return _record(x, iterates, alphas)
    raise MaxStepsExceeded(x, max_steps)


class FieldStats(NamedTuple):
    minimum: int
    maximum: int
    mean: float | int  # int only where the mean is beyond float range


class TrajectoryStats(NamedTuple):
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


def _summary(count: int, lows, highs, totals) -> TrajectoryStats:
    # lows, highs and totals each hold (odd_length, total_divisions, peak)
    odd_length, total_divisions, peak = (
        FieldStats(minimum=lo, maximum=hi, mean=_mean(total, count))
        for lo, hi, total in zip(lows, highs, totals)
    )
    return TrajectoryStats(count=count, odd_length=odd_length, total_divisions=total_divisions, peak=peak)


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
    return _summary(count, lows, highs, totals)


# starts a direct --stats range keeps summaries of, from its first start on
_MEMO_STARTS = 2**17


def _range_stats(first: TrajectoryRecord, last: int, max_steps: int) -> TrajectoryStats:
    """trajectory_stats of the direct records of the odd starts first.start..last.

    first is the range's first record; every later start x is walked
    without a record until it reaches 1 or an earlier start of the range
    whose summary is in the table (see the module docstring).  A start
    whose walk passes max_steps odd steps raises MaxStepsExceeded, so the
    first failing start is that of the full walks.
    """
    lo = first.start
    lengths = [first.odd_length]
    divisions = [first.total_divisions]
    peaks = [first.peak]
    # entry (y - lo) // 2 summarises start y; starts from cap on add none
    cap = lo + 2 * _MEMO_STARTS
    low_len = high_len = total_len = first.odd_length
    low_div = high_div = total_div = first.total_divisions
    low_peak = high_peak = total_peak = first.peak
    for x in range(lo + 2, last + 1, 2):
        reach = x if x < cap else cap
        cur = x
        divs = peak = 0
        for steps in range(1, max_steps + 1):
            # the step, inlined: no call per iterate
            t = 3 * cur + 1
            alpha = (t & -t).bit_length() - 1
            cur = t >> alpha
            divs += alpha
            if cur > peak:
                peak = cur
            if cur == 1:
                break
            if lo <= cur < reach:
                i = (cur - lo) >> 1
                steps += lengths[i]
                divs += divisions[i]
                if peaks[i] > peak:
                    peak = peaks[i]
                break
        else:
            raise MaxStepsExceeded(x, max_steps)
        if steps > max_steps:
            raise MaxStepsExceeded(x, max_steps)
        if x < cap:
            lengths.append(steps)
            divisions.append(divs)
            peaks.append(peak)
        if steps < low_len:
            low_len = steps
        elif steps > high_len:
            high_len = steps
        if divs < low_div:
            low_div = divs
        elif divs > high_div:
            high_div = divs
        if peak < low_peak:
            low_peak = peak
        elif peak > high_peak:
            high_peak = peak
        total_len += steps
        total_div += divs
        total_peak += peak
    return _summary(
        len(range(lo, last + 1, 2)),
        (low_len, low_div, low_peak),
        (high_len, high_div, high_peak),
        (total_len, total_div, total_peak),
    )


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
    import decimal  # loaded only for walks this big; not a module-level import

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


# iterates per write call of a walk line longer than this, so that no
# string of the whole line is ever built
_BLOCK = 256


def write_record(out: TextIO, record: TrajectoryRecord, fmt: str) -> None:
    """Write record as one text or JSON line, at most _BLOCK iterates per out.write.

    Text is the start and the iterates, space-separated; JSON is the line
    record_json returns.  A record of at most _BLOCK iterates is one write.
    """
    if fmt == "json":
        head, sep = f'{{"start":{record.start},"iterates":[', ","
        tail = (
            f'],"alphas":[{",".join(map(str, record.alphas))}],"odd_length":{record.odd_length},'
            f'"total_divisions":{record.total_divisions},"peak":{record.peak}}}\n'
        )
    else:
        head, sep, tail = f"{record.start} ", " ", "\n"
    strings = iter(iterate_strings(record))
    if record.odd_length <= _BLOCK:
        out.write(head + sep.join(strings) + tail)
        return
    out.write(head + sep.join(islice(strings, _BLOCK)))
    while block := sep.join(islice(strings, _BLOCK)):
        out.write(sep + block)
    out.write(tail)


def record_json(record: TrajectoryRecord) -> str:
    """One JSON line per trajectory, without its newline.

    Byte-identical to json.dumps(..., separators=(",", ":")) of the record's
    fields, but built directly: every field is an int or a list of ints.
    """
    buf = io.StringIO()
    write_record(buf, record, "json")
    return buf.getvalue()[:-1]


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
