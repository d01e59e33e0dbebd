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

A direct range walk joins a table of earlier starts, by one rule for
verify's counts (_count_chunk) and for --stats columns (_range_columns).
The table starts at the scan's first start and gains an entry for the
start right after its last, while it has fewer than _TABLE_STARTS entries;
its reach is its last start, read off len(table).  For --stats the table
is the first of the blocks of (odd_length, total_divisions, peak) columns
that _fold sums up, as it sums up trajectory_stats's; later rows go into
fresh blocks of _BLOCK rows, so the table stops growing once it is full.
A walk steps until it reaches 1 or an iterate y within the reach, and
then adds y's entry.  While the table grows the reach is x - 2,
and once it is full it is below x as well, so a walk that could only come
back to x (a cycle) never joins: it runs out of budget and raises
MaxStepsExceeded at x, as its full walk would; a joined count over the
budget raises at x too, so the first failing start is that of the full
walks.  All three summarised fields add up across a join: odd_length(x) is
the steps to y plus odd_length(y), total_divisions adds the same way, and
peak(x) is the larger of the walk's maximum up to y (y included) and
peak(y), since a peak never counts its own start.

Both kernels walk by blocks of k = _JUMP_BITS Terras steps, T(n) = n/2
for even n and (3n+1)/2 for odd n.  For odd r < 2**k, entry r >> 1 of the
jump table holds c (the odd steps among the first k of r), 3**c, T^k(r)
and a front: the pairs (3**c_i * 2**(k-i), T^i(r)) for the 0 < i < k with
T^i(r) odd, c_i the odd steps among the first i, keeping only the pairs
that no other pair beats in both coordinates.  An odd iterate cur < 2**k
takes one step; one at least 2**k, with a = cur >> k and r its low k bits,
takes a block: t = 3**c * a + T^k(r), the next iterate is t >> z for z
the trailing zero bits of t, odd_length grows by c, total_divisions by
k + z, and peak takes the largest of coef * a + off over the front and
the next iterate.  This holds because:

- T^i(2**k a + r) = 3**c_i * 2**(k-i) * a + T^i(r) for i <= k, by
  induction on i: while i < k the term in a is even, so both sides have
  the parity of T^i(r) and the same step applies to each;
- so the odd values among T^1..T^(k-1) of cur, then t >> z, are cur's
  next c odd iterates (each odd Terras step begins one odd-to-odd step),
  reached with k halvings and z more; none of the first is 1, since for
  i < k, T^i >= 2**(k-i) * a >= 2, so a block never passes the end of a
  walk;
- for a >= 0 a pair beaten in both coordinates has the smaller value, so
  the front's largest value is the largest odd iterate inside the block,
  for every a >= 1.

Joins and the budget check come at block ends only.  These are odd
iterates of the walk, so the join rule and its sums hold as above, and a
cycle still only comes back to x.  Each block adds c >= 1 (cur is odd),
so a start raises MaxStepsExceeded exactly when its full walk has more
than max_steps odd steps: the set of failing starts, and so the first
one, is that of the full walks.

The lines of a direct range (_write_range) join the same way: past y,
x's iterates and alphas are y's, so x's line is its own walk up to y (y
included) followed by y's rendered iterate and alpha strings, with the
summed odd_length and total_divisions and the larger peak.  A line of at
most _BLOCK iterates is rendered once and, but for the last start's, kept
until _MEMO_CHARS characters are; a walk that passes _BLOCK steps joins
nothing and is streamed.

A streamed line (_write_walk) holds no record.  A count pass walks the
start and keeps nothing: _count_chunk with a one-entry table for the
direct route, lookup steps for the lookup one.  It raises MaxStepsExceeded
exactly when the walk is over budget, so such a walk writes no byte.  A
write pass then walks the start again, by the same route, and _write_line
renders and writes each block of _BLOCK iterates as it is made;
write_record feeds _write_line a record's pairs instead.  So no direct
line, of one start or of a range, is built as a record; the CLI's lookup
route streams starts of at least DECIMAL_MIN_BITS bits, and smaller ones
keep their records (cli._cmd_trajectory says why).
"""

from __future__ import annotations

import io
from functools import cache
from itertools import chain, islice
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO

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


def _fold(blocks: Iterable[Sequence[Sequence[int]]]) -> TrajectoryStats:
    # the one --stats summariser: count, and min, max and total of each
    # column, over blocks of (odd_length, total_divisions, peak) columns;
    # each block is summed up by the builtins, and the block summaries merge
    # as the min of the mins, the max of the maxes and the total of the totals
    count = 0
    for block in blocks:
        if block[0]:
            summary = [(min(column), max(column), sum(column)) for column in block]
            if count:
                summary = [
                    (min(low, a), max(high, b), total + c) for (low, high, total), (a, b, c) in zip(merged, summary)
                ]
            merged = summary
            count += len(block[0])
    if not count:
        raise DomainError("no trajectory records to summarise")
    return TrajectoryStats(count, *(FieldStats(low, high, _mean(total, count)) for low, high, total in merged))


# rows of a --stats block past a range walk's join table, and iterates per
# write call of a walk line longer than this, so that no string of the
# whole line is ever built
_BLOCK = 256


def trajectory_stats(records: Iterable[TrajectoryRecord]) -> TrajectoryStats:
    """Aggregate min/max/mean over records in one pass; order-independent.

    Keeps no record, and at most _BLOCK rows of summary fields.  A mean is
    total / count as a float, or the nearest integer (ties to even) when
    that float would overflow.
    """
    rows = map(attrgetter("odd_length", "total_divisions", "peak"), records)
    return _fold(iter(lambda: tuple(zip(*islice(rows, _BLOCK))), ()))


# starts a range walk's join table holds, from the scan's first start on
_TABLE_STARTS = 2**17

# k of the block rule: odd iterates of at least 2**k take k Terras steps
# in one multiply-add.  On a 2-vCPU x86-64 host (Python 3.11) the table
# builds in 0.6 ms at k = 8 and in 13-16 ms at k = 12, more than a short
# verify saves by the longer blocks; k = 10 ran no faster than 8
_JUMP_BITS = 8


@cache
def _jump_table(k: int) -> list[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    # entry r >> 1, for odd r < 2**k: (c, 3**c, T^k(r), front) of the block
    # rule, built on first use per k (a worker that does not inherit it
    # builds its own); the cache keeps a table only once the call returns
    # it whole, so a thread that comes in meanwhile builds its own too
    table = []
    for r in range(1, 1 << k, 2):
        t, c, pairs = r, 0, []
        for i in range(1, k + 1):
            if t & 1:
                t, c = (3 * t + 1) >> 1, c + 1
            else:
                t >>= 1
            if t & 1 and i < k:
                pairs.append((3**c << (k - i), t))
        # the coefficients differ, so by falling coefficient a pair is
        # beaten in both coordinates unless its offset beats all before it
        front, best = [], -1
        for coef, off in sorted(pairs, reverse=True):
            if off > best:
                front.append((coef, off))
                best = off
        table.append((c, 3**c, t, tuple(front)))
    return table


def _count_chunk(task: tuple[int, int, int, list[int]]) -> int:
    """verify's count: the summed odd lengths of the odd starts lo..hi.

    table[i] is the count from 2i+1 down to 1 (0 for 1), joined by the
    module docstring's rule at block ends.  Only the start right after the
    table's last adds an entry, so each entry is its own start's count even
    in a worker that reads another _TABLE_STARTS (a spawned one misses a
    patch).
    """
    lo, hi, max_steps, table = task
    k = _JUMP_BITS
    jumps = _jump_table(k)
    low = (1 << k) - 1
    iterates_checked = 0
    for x in range(lo, hi + 1, 2):
        reach = 2 * len(table) - 1
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
        if x == reach + 2 and len(table) < _TABLE_STARTS:
            table.append(count)
    return iterates_checked


def _range_columns(first: TrajectoryRecord, last: int, max_steps: int) -> Iterator[tuple[list[int], ...]]:
    """_fold's column blocks for the direct records of the odd starts first.start..last.

    first is the range's first record; every later start x is walked, by
    the block rule, without a record until it reaches 1 or an earlier start
    of the range whose summary is in the table (see the module docstring).
    The table is the first block, yielded once it holds _TABLE_STARTS rows
    or at the end; later rows go into fresh blocks of _BLOCK rows.  A start
    whose walk passes max_steps odd steps raises MaxStepsExceeded, so the
    first failing start is that of the full walks.
    """
    lo = first.start
    k = _JUMP_BITS
    jumps = _jump_table(k)
    low = (1 << k) - 1
    # entry (y - lo) // 2 summarises start y; the table is the first block
    lengths, divisions, peaks = block = [first.odd_length], [first.total_divisions], [first.peak]
    size = _TABLE_STARTS
    for x in range(lo + 2, last + 1, 2):
        reach = lo + 2 * len(lengths) - 2
        cur = x
        steps = divs = peak = 0
        while True:
            if cur > low:
                a = cur >> k
                c, power, tail, front = jumps[(cur & low) >> 1]
                for coef, off in front:
                    inside = coef * a + off
                    if inside > peak:
                        peak = inside
                t = power * a + tail
                steps += c
                divs += k
            else:
                # the step, inlined: no call per iterate
                t = 3 * cur + 1
                steps += 1
            alpha = (t & -t).bit_length() - 1
            cur = t >> alpha
            divs += alpha
            if cur > peak:
                peak = cur
            if cur == 1:
                break
            if lo <= cur <= reach:
                i = (cur - lo) >> 1
                steps += lengths[i]
                divs += divisions[i]
                if peaks[i] > peak:
                    peak = peaks[i]
                break
            if steps >= max_steps:
                raise MaxStepsExceeded(x, max_steps)
        if steps > max_steps:
            raise MaxStepsExceeded(x, max_steps)
        if len(block[0]) == size:
            yield block
            block, size = ([], [], []), _BLOCK
        block[0].append(steps)
        block[1].append(divs)
        block[2].append(peak)
    yield block


# Iterates of at least this many bits are rendered from the previous one's
# Decimal as (3d+1) // 2**alpha, which is linear in the digit count; str(int)
# is quadratic, but faster below this size.  Per iterate, str vs Decimal,
# Python 3.11 on a 2-vCPU x86-64 host: 2.2-2.5 vs 2.8-3.0 us at 896 bits,
# about equal at 1024-1088, 4.4-5.4 vs 2.6-3.7 us at 1536.  The CLI's
# lookup route also streams the line of a start this big (_write_walk)
DECIMAL_MIN_BITS = 1024

# trailing zero bits of each byte but 0: _TZ[t & 255] is the alpha of a t
# whose low byte is not 0, read without copying t as t & -t does
_TZ = [0] + [(b & -b).bit_length() - 1 for b in range(1, 256)]


def _direct_steps(x: int) -> Iterator[tuple[int, int]]:
    # (iterate, alpha) of each (3x+1)/2**alpha step from x down to 1
    cur = x
    while True:
        t = 3 * cur + 1
        alpha = _TZ[t & 255] or (t & -t).bit_length() - 1
        cur = t >> alpha
        yield cur, alpha
        if cur == 1:
            return


def _lookup_steps(x: int) -> Iterator[tuple[int, int]]:
    # the same pairs, read off the table layout as trajectory_lookup does
    cur = x
    while True:
        strips = 0
        while cur & 7 == 5:
            cur >>= 2
            strips += 1
        if cur & 3 == 3:
            cur, alpha = 6 * (cur >> 2) + 5, 2 * strips + 1
        else:
            cur, alpha = 6 * (cur >> 3) + 1, 2 * strips + 2
        yield cur, alpha
        if cur == 1:
            return


def _head(fmt: str, start: int) -> str:
    # a walk line up to its first iterate
    return f'{{"start":{start},"iterates":[' if fmt == "json" else f"{start} "


def _tail(fmt: str, alphas: str, odd_length: int, total_divisions: int, peak: int) -> str:
    # a walk line after its last iterate; alphas (the joined alpha string)
    # is read only by JSON
    if fmt == "json":
        return (
            f'],"alphas":[{alphas}],"odd_length":{odd_length},'
            f'"total_divisions":{total_divisions},"peak":{peak}}}\n'
        )
    return "\n"


def _write_line(out: TextIO, start: int, steps: Iterable[tuple[int, int]], fmt: str) -> None:
    """Write the text or JSON line of start's walk, whose (iterate, alpha) pairs steps yields.

    Each out.write holds at most _BLOCK iterates, and a line of at most
    _BLOCK iterates is one write.  One block of pairs and of their strings
    is held at a time, and for JSON the alphas; odd_length,
    total_divisions and peak are summed up block by block.  Iterates of at
    least DECIMAL_MIN_BITS bits are rendered from the previous iterate's
    Decimal, exactly: the bytes are those of str.
    """
    as_json = fmt == "json"
    sep = "," if as_json else " "
    steps = iter(steps)
    alphas: list[int] = []
    length = divisions = peak = 0
    exact = None  # Decimal, fma and divide_int, from the first big iterate on
    d = None  # the previous iterate as a Decimal, while it is big
    text = _head(fmt, start)  # written with the first block
    while block := list(islice(steps, _BLOCK)):
        values, block_alphas = zip(*block)
        first = not length
        length += len(values)
        divisions += sum(block_alphas)
        top = max(values)
        peak = max(peak, top)
        if as_json:
            alphas += block_alphas
        strings = [] if first else [""]  # so a later block's text begins with sep
        if top.bit_length() < DECIMAL_MIN_BITS:
            d = None
            strings += map(str, values)
        else:
            Decimal, fma, divide_int = exact = exact or _exact_decimal()
            for value, alpha in block:
                if value.bit_length() < DECIMAL_MIN_BITS:
                    d = None
                    strings.append(str(value))
                else:
                    d = Decimal(value) if d is None else divide_int(fma(d, 3, 1), 1 << alpha)
                    strings.append(str(d))
        text += sep.join(strings)
        del strings  # not held while the text is written
        if first:
            # the tail goes out with the first block when that is the whole line
            more = next(steps, None) if len(values) == _BLOCK else None
            if more is None:
                break
            steps = chain((more,), steps)
        out.write(text)
        text = ""
    out.write(text + _tail(fmt, ",".join(map(str, alphas)), length, divisions, peak))


def _exact_decimal() -> tuple:
    import decimal  # loaded only for walks this big; not a module-level import

    # any loss of exactness raises instead of printing a wrong digit
    exact = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
    )
    return decimal.Decimal, exact.fma, exact.divide_int


def write_record(out: TextIO, record: TrajectoryRecord, fmt: str) -> None:
    """Write record as one text or JSON line, at most _BLOCK iterates per out.write.

    Text is the start and the iterates, space-separated; JSON is the line
    record_json returns.  A record of at most _BLOCK iterates is one write.
    """
    _write_line(out, record.start, zip(record.iterates, record.alphas), fmt)


def _write_walk(out: TextIO, x: int, fmt: str, max_steps: int, method: str) -> None:
    """write_record of x's record by method ("direct" or "lookup"), without building it.

    A count pass walks x and keeps no iterate; it raises MaxStepsExceeded,
    before any byte is written, exactly when the walk has more than
    max_steps odd steps.  The write pass then walks x again by the same
    method and writes each block of the line as it is made, so the
    memory held is a block, not the record.  _write_range streams each
    direct line longer than _BLOCK iterates through here; the CLI's lookup
    route, each start of at least DECIMAL_MIN_BITS bits.
    """
    _require_odd(x)
    if method == "lookup":
        # counted by lookup steps too: the reference route never evaluates 3x+1
        for last, _ in islice(_lookup_steps(x), max_steps):
            pass
        if last != 1:
            raise MaxStepsExceeded(x, max_steps)
        steps = _lookup_steps(x)
    else:
        _count_chunk((x, x, max_steps, [0]))
        steps = _direct_steps(x)
    _write_line(out, x, steps, fmt)


# characters of iterate and alpha strings a direct range's line memo holds
_MEMO_CHARS = 2**20


def _write_range(out: TextIO, lo: int, last: int, fmt: str, max_steps: int) -> None:
    """write_record of the direct records of the odd starts lo..last, without building them.

    Each start x is walked until it reaches 1 or an earlier start y of the
    range whose line is in the memo; its line is then the walk's own
    iterates followed by y's (see the module docstring).  A line of at most
    _BLOCK iterates is rendered once, written in one write and, but for the
    last start's, kept in the memo; a walk that passes _BLOCK steps is
    streamed by _write_walk.  A start whose walk passes max_steps odd steps
    raises MaxStepsExceeded before any byte of its line, so the lines
    before the first failing start are all written.
    """
    _require_odd(lo)
    as_json = fmt == "json"
    sep = "," if as_json else " "
    # start -> (iterate string, alpha string, odd_length, total_divisions,
    # peak) of lines of at most _BLOCK iterates, until room runs out
    memo: dict[int, tuple[str, str, int, int, int]] = {}
    get = memo.get
    room = _MEMO_CHARS
    for x in range(lo, last + 1, 2):
        iterates = []
        alphas = []
        append_i = iterates.append
        append_a = alphas.append
        cur = x
        for steps in range(1, min(max_steps, _BLOCK) + 1):
            # the step, inlined: no call per iterate
            t = 3 * cur + 1
            alpha = (t & -t).bit_length() - 1
            cur = t >> alpha
            append_i(cur)
            append_a(alpha)
            if cur == 1:
                # a candidate that failed the _BLOCK test below is no join
                joined = None
                break
            if lo <= cur < x and (joined := get(cur)) is not None and steps + joined[2] <= _BLOCK:
                break
        else:
            if max_steps <= _BLOCK:
                raise MaxStepsExceeded(x, max_steps)
            # the bound appends keep the lists alive: empty them, so the
            # partial walk is not held while the line streams
            del iterates[:], alphas[:]
            _write_walk(out, x, fmt, max_steps, "direct")
            continue
        its = sep.join(map(str, iterates))
        alps = ",".join(map(str, alphas)) if as_json else ""
        length, divs, peak = steps, sum(alphas), max(iterates)
        if joined is not None:
            # the walk joined y = cur: x's line is its walk up to y, then y's
            y_its, y_alps, y_len, y_divs, y_peak = joined
            length += y_len
            if length > max_steps:
                raise MaxStepsExceeded(x, max_steps)
            its = f"{its}{sep}{y_its}"
            alps = f"{alps},{y_alps}" if as_json else ""
            divs += y_divs
            peak = max(peak, y_peak)
        out.write(_head(fmt, x) + its + _tail(fmt, alps, length, divs, peak))
        if room > 0 and x < last:
            memo[x] = (its, alps, length, divs, peak)
            room -= len(its) + len(alps)


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
