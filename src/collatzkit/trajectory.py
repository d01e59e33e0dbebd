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
verify's counts (analysis._count_walks) and for --stats columns
(_range_columns).  The table holds at most _TABLE_STARTS starts, from
the scan's first start on.  A walk from x steps until it reaches 1 or an
iterate y within the reach, min(x - 2, the table's last start), and then
adds y's entry.  For --stats the table gains an entry for each start
right after its last, until it is full; it is the first of the blocks
of (odd_length, total_divisions, peak) columns that _fold sums up, as it
sums up trajectory_stats's, and later rows go into fresh blocks of
_BLOCK rows.
The reach is below x, so a walk that could only come back to x (a cycle)
never joins: it runs out of budget and raises MaxStepsExceeded at x, as
its full walk would; a joined count over the budget raises at x too, so
the first failing start is that of the full walks.  All three summarised
fields add up across a join: odd_length(x) is the steps to y plus
odd_length(y), total_divisions adds the same way, and peak(x) is the
larger of the walk's maximum up to y (y included) and peak(y), since a
peak never counts its own start.

Both --stats kernels, _range_columns and the lookup route's
_lookup_rows, join once more, below the range's first start lo.  Once an
earlier start's walk has reached 1, each odd iterate y < lo that it
passed maps to y's own summary: the walk's odd steps and divisions after
y, and peak(y), its largest iterate after y.  The direct route keeps the
block ends of its walks this way, the first start's too, and the lookup
route every iterate.  A later walk that reaches a kept y stops there and
adds the three by the sums above.  This is exact arithmetic: past y, x's
iterates are y's.  While a walk goes on it keeps each iterate y < lo
with the steps and divisions up to y and the largest iterate since the
one kept before (y included); _remember turns these into entries from
the last back.  So peak(y) takes in every iterate after y: the front
values of every later block, the last block's too, the iterate where the
walk itself joined, and that one's peak.  Only starts with a later start
keep iterates, and only while room lasts: each entry costs its key's
bits plus _JOIN_ENTRY_BITS, out of _JOIN_ROOM.  The entries come only
from walks that reached 1, so a walk that cycles never joins one: it
runs out of budget and raises MaxStepsExceeded at its own start, and a
joined count over the budget raises at x too.  So the bytes, the exit
codes and the first failing start are those of the full walks.

The direct range-walk kernels, _range_columns and verify's
analysis._count_walks, walk by the block rule of the core module's
docstring: k = _JUMP_BITS Terras steps in one multiply-add, read off
core._jump_table.  Joins and the budget check come at block ends only.
These are odd iterates of the walk, so the join rule and its sums hold as
above, and a cycle still only comes back to x.  Each block adds c >= 1
(cur is odd), so a start raises MaxStepsExceeded exactly when its full
walk has more than max_steps odd steps: the set of failing starts, and
so the first one, is that of the full walks.

The lines of a direct range (_write_range) join the same way: past y,
x's iterates and alphas are y's, so x's line is its own walk up to y (y
included) followed by y's rendered iterate and alpha strings, with the
summed odd_length and total_divisions and the larger peak.  Each start is
walked at most _BLOCK steps, whatever max_steps is.  A line that ends
within them, at 1 or at a join, has its odd length (its own steps, plus
the joined line's) checked against max_steps once, before it is
rendered; it is then rendered once and, but for the last start's, kept
until _MEMO_CHARS characters are.  A walk that passes _BLOCK steps joins
nothing and is streamed by _write_walk, whose count pass is the one
budget check of every line longer than a block.

Each route walks one start in blocks: _direct_blocks and _lookup_blocks
yield the (iterates, alphas) of at most _BLOCK steps at a time, the last
block being the one that reaches 1.  A record (_record) joins the blocks,
and _budgeted raises MaxStepsExceeded once their summed length passes
max_steps.  A streamed line (_write_walk) holds no record.  A count pass
(_checkpoints) walks the start and keeps no record, only the checkpoints,
the iterate each block starts from: the block rule's jumps for the direct
route, budgeted lookup blocks for the lookup one.  It raises
MaxStepsExceeded exactly when the walk is over budget, so such a walk
writes no byte.  A write pass then walks the start again, by the
same route, and _write_line renders and writes each block as it is made;
write_record feeds _write_line a record's tuples in slices of _BLOCK
instead.  So no direct line, of one start or of a range, is built as a
record; the CLI's lookup route streams starts of at least
DECIMAL_MIN_BITS bits, and smaller ones keep their records
(cli._cmd_trajectory says why).  Neither route's --stats kernel builds a
record.

A streamed line of more than one block from a start of at least
DECIMAL_MIN_BITS bits, long enough to repay a fork (_FORK_WORK), is
written by two processes (_write_forked) where out has a file descriptor
and _fork._may_fork allows a fork: after the count pass the process
forks one helper, and block i is walked, from its checkpoint, and
rendered only by the process whose role is i % 2.  So each block is
walked twice, by the count pass and by the process that renders it.  A
token, sent each way on the two pipes that _fork._Helpers makes between
the processes, hands over the right to write, so the blocks reach out in
order and the bytes are those of one process.  For JSON the token also
carries the block's total_divisions, largest iterate and alpha string,
so whichever process renders the last block writes the tail; odd_length
is that block's index times _BLOCK plus its length.  The two processes
run on disjoint halves of this process's CPUs, so the scheduler cannot
stack them on one CPU, and this process gets its own mask back when the
helper is reaped, which _fork._Helpers does on every exit, as for a
scan's helpers.  _write_line is the one renderer; a process that writes
the whole line is its one-role case.
"""

from __future__ import annotations

import io
import os
from itertools import count, islice
from operator import attrgetter
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .core import (
    _JUMP_BITS,
    DEFAULT_MAX_STEPS,
    DomainError,
    MaxStepsExceeded,
    _jump_table,
    _require_count,
    _require_odd,
)


class TrajectoryRecord(NamedTuple):
    start: int
    iterates: tuple[int, ...]  # ends at 1
    alphas: tuple[int, ...]  # one per step
    odd_length: int  # number of steps == len(iterates)
    total_divisions: int  # sum of alphas
    peak: int  # maximum iterate (start is held separately and not included)


# (iterates, alphas) of at most _BLOCK consecutive steps of a walk
_Block = tuple[Sequence[int], Sequence[int]]


def _budgeted(start: int, blocks: Iterable[_Block], max_steps: int) -> Iterator[_Block]:
    # blocks as they come, raising at start once their summed length passes max_steps
    steps = 0
    for block in blocks:
        steps += len(block[0])
        if steps > max_steps:
            raise MaxStepsExceeded(start, max_steps)
        yield block


def _record(start: int, blocks: Iterable[_Block], max_steps: int) -> TrajectoryRecord:
    # the record of the walk whose (iterates, alphas) blocks are given
    iterates, alphas = [], []
    for block_iterates, block_alphas in _budgeted(start, blocks, max_steps):
        iterates += block_iterates
        alphas += block_alphas
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
    return _record(x, _direct_blocks(x), max_steps)


def trajectory_lookup(x: int, max_steps: int = DEFAULT_MAX_STEPS) -> TrajectoryRecord:
    """Same record as trajectory_direct, built by table lookup alone."""
    _require_odd(x)
    _require_count(max_steps, 1, "max_steps")
    return _record(x, _lookup_blocks(x), max_steps)


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


# rows of a --stats block past a range walk's join table, and steps per
# block of a walk (_direct_blocks, _lookup_blocks): a line longer than this
# goes out one block per write call, so no string of the whole line is built
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

# room of a --stats range's joins below its first start: each entry costs
# its key's bits and this many more, until room runs out
_JOIN_ROOM = 2**25
_JOIN_ENTRY_BITS = 2**11


def _remember(below: dict[int, tuple[int, int, int]], path: list, steps: int, divs: int, peak: int) -> int:
    # empties path, the (y, steps to y, divisions to y, the largest iterate
    # since the previous entry, y included) of a walk's iterates y below the
    # range's first start, into below as y -> y's own (odd_length,
    # total_divisions, peak); the walk had steps odd steps and divs
    # divisions, and peak is its largest iterate past path's last y.
    # Returns the walk's peak
    while path:
        y, s, d, p = path.pop()
        below[y] = (steps - s, divs - d, peak)
        if p > peak:
            peak = p
    return peak


def _range_columns(lo: int, last: int, max_steps: int) -> Iterator[tuple[list[int], ...]]:
    """_fold's column blocks for the direct records of the odd starts lo..last, without records.

    Each start x is walked by the block rule until it reaches 1, an
    earlier start of the range whose summary is in the table, or an odd
    iterate below lo that an earlier start's walk passed through (see the
    module docstring).  The table is the first block, yielded once it holds
    _TABLE_STARTS rows or at the end; later rows go into fresh blocks of
    _BLOCK rows.  A start whose walk passes max_steps odd steps raises
    MaxStepsExceeded, so the first failing start is that of the full walks.
    """
    _require_odd(lo)
    k = _JUMP_BITS
    jumps = _jump_table(k)
    low = (1 << k) - 1
    # entry (y - lo) // 2 summarises start y; the table is the first block
    lengths, divisions, peaks = block = [], [], []
    size = _TABLE_STARTS
    below: dict[int, tuple[int, int, int]] = {}
    get = below.get
    path: list[tuple[int, int, int, int]] = []
    room = _JOIN_ROOM
    for x in range(lo, last + 1, 2):
        if x == last:
            room = 0  # no later start would read its entries
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
            if cur < lo:
                joined = get(cur)
                if joined is not None:
                    steps += joined[0]
                    divs += joined[1]
                    if joined[2] > peak:
                        peak = joined[2]
                    break
                if room > 0:
                    path.append((cur, steps, divs, peak))
                    peak = 0  # from here on, peak is the largest iterate past cur
                    room -= cur.bit_length() + _JOIN_ENTRY_BITS
            elif cur <= reach:
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
        if path:
            peak = _remember(below, path, steps, divs, peak)
        if len(block[0]) == size:
            yield block
            block, size = ([], [], []), _BLOCK
        block[0].append(steps)
        block[1].append(divs)
        block[2].append(peak)
    yield block


class _Row(NamedTuple):
    # the fields trajectory_stats reads off a record
    odd_length: int
    total_divisions: int
    peak: int


def _lookup_rows(starts: Sequence[int], max_steps: int) -> Iterator[_Row]:
    """The summary fields of trajectory_lookup's record of each of the odd starts, without records.

    Each start is walked by lookup steps alone, with no 3x+1, until it
    reaches 1 or an odd iterate below the first start that an earlier
    start's walk passed through (see the module docstring).  A start whose
    walk passes max_steps odd steps raises MaxStepsExceeded, so the first
    failing start is that of the full walks.
    """
    if not starts:
        return
    lo, last = starts[0], starts[-1]
    _require_odd(lo)
    below: dict[int, tuple[int, int, int]] = {}
    get = below.get
    path: list[tuple[int, int, int, int]] = []
    room = _JOIN_ROOM
    for x in starts:
        if x == last:
            room = 0  # no later start would read its entries
        cur = x
        steps = divs = peak = 0
        while True:
            strips = 0
            while cur & 7 == 5:
                cur >>= 2
                strips += 1
            if cur & 3 == 3:
                cur, alpha = 6 * (cur >> 2) + 5, 2 * strips + 1
            else:
                cur, alpha = 6 * (cur >> 3) + 1, 2 * strips + 2
            steps += 1
            divs += alpha
            if cur > peak:
                peak = cur
            if cur == 1:
                break
            if cur < lo:
                joined = get(cur)
                if joined is not None:
                    steps += joined[0]
                    divs += joined[1]
                    if joined[2] > peak:
                        peak = joined[2]
                    break
                if room > 0:
                    path.append((cur, steps, divs, peak))
                    peak = 0  # from here on, peak is the largest iterate past cur
                    room -= cur.bit_length() + _JOIN_ENTRY_BITS
            if steps >= max_steps:
                raise MaxStepsExceeded(x, max_steps)
        if steps > max_steps:
            raise MaxStepsExceeded(x, max_steps)
        if path:
            peak = _remember(below, path, steps, divs, peak)
        yield _Row(steps, divs, peak)


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


def _direct_blocks(x: int) -> Iterator[_Block]:
    # (iterates, alphas) of the (3x+1)/2**alpha steps from x down to 1, at
    # most _BLOCK steps a block; the last block is the one that reaches 1
    cur = x
    while True:
        iterates, alphas = [], []
        append_i, append_a = iterates.append, alphas.append
        for _ in range(_BLOCK):
            # the step, inlined: no call per iterate
            t = 3 * cur + 1
            alpha = _TZ[t & 255] or (t & -t).bit_length() - 1
            cur = t >> alpha
            append_i(cur)
            append_a(alpha)
            if cur == 1:
                yield iterates, alphas
                return
        yield iterates, alphas


def _lookup_blocks(x: int) -> Iterator[_Block]:
    # the same blocks, read off the table layout: no 3x+1 arithmetic
    cur = x
    while True:
        iterates, alphas = [], []
        append_i, append_a = iterates.append, alphas.append
        for _ in range(_BLOCK):
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
                yield iterates, alphas
                return
        yield iterates, alphas


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


def _write_line(
    out: TextIO, start: int, blocks: Iterable[_Block], fmt: str, turn: tuple[int, BinaryIO, int] | None = None
) -> None:
    """Write the text or JSON line of start's walk, whose (iterates, alphas) blocks are given.

    Each block is one out.write, and the tail goes out with the first block
    when that ends at 1 (the whole line), or else in a write of its own.
    One block and its strings are held at a time, and for JSON each block's
    alpha string; total_divisions and peak are summed up block by block,
    and odd_length is the last block's index times _BLOCK plus its length.
    Iterates of at least DECIMAL_MIN_BITS bits are rendered from the
    previous iterate's Decimal, exactly: the bytes are those of str.

    turn is None when this process writes the whole line.  Two processes
    share a line (_write_forked) with turn = (role, token in, token out),
    a binary file to read and a pipe's descriptor to write: blocks then
    yields only this process's blocks, those i with i % 2 == role, and the
    tail goes with the last block, whoever renders it.  Before writing
    block i > 0 a process reads the token, one line, from its token-in
    file; after writing a block it flushes out and, but after the last
    block, writes the token to its token-out pipe.  For JSON the token
    carries the block's total_divisions, largest iterate (in hex) and alpha
    string, so the process that writes the last block has every block's;
    for text it is an empty line.  A token pipe whose other end is gone (so
    is the other process) raises EOFError.
    """
    as_json = fmt == "json"
    sep = "," if as_json else " "
    role, token_in, token_out = turn or (0, None, 0)
    alphas: list[str] = []  # JSON: each block's alpha string, in block order
    divisions = peak = 0
    exact = None  # the exact context's operations and constants, from the first big iterate on
    d = None  # the previous iterate as a Decimal, while it is big
    for i, (values, block_alphas) in zip(count(role, 2 if turn else 1), blocks):
        d = None if turn else d  # this process's blocks are not consecutive
        strings = [""] if i else []  # so a later block's text begins with sep
        top = max(values)
        if top.bit_length() < DECIMAL_MIN_BITS:
            d = None
            strings += map(str, values)
        else:
            Decimal, fma, divide_int, three, one, powers = exact = exact or _exact_decimal()
            powers.extend(Decimal(1 << a) for a in range(len(powers), max(block_alphas) + 1))
            for value, alpha in zip(values, block_alphas):
                if value.bit_length() < DECIMAL_MIN_BITS:
                    d = None
                    strings.append(str(value))
                else:
                    d = Decimal(value) if d is None else divide_int(fma(d, three, one), powers[alpha])
                    strings.append(str(d))
        text = sep.join(strings) if i else _head(fmt, start) + sep.join(strings)
        del strings  # not held while the text is written
        if as_json:
            divisions += sum(block_alphas)
            peak = max(peak, top)
            alphas.append(",".join(map(str, block_alphas)))
        if turn and i:
            token = token_in.readline()
            if not token.endswith(b"\n"):
                raise EOFError("the process sharing the line is gone")
            if as_json:  # the other process's block i - 1, which comes before this one
                other_divisions, other_top, other_alphas = token.split()
                divisions += int(other_divisions)
                peak = max(peak, int(other_top, 16))
                alphas.insert(-1, other_alphas.decode())
        if values[-1] == 1:
            tail = _tail(fmt, ",".join(alphas), i * _BLOCK + len(values), divisions, peak)
            if i:
                out.write(text)
                text = ""
            text += tail
        out.write(text)
        if turn:
            out.flush()
            if values[-1] != 1:
                token = b"%d %x %s\n" % (sum(block_alphas), top, alphas[-1].encode()) if as_json else b"\n"
                try:
                    while token:  # a write that a signal cuts short goes on
                        token = token[os.write(token_out, token) :]
                except BrokenPipeError:  # not out's: the token's reader is gone
                    raise EOFError("the process sharing the line is gone") from None


def _exact_decimal() -> tuple:
    import decimal  # loaded only for walks this big; not a module-level import

    # any loss of exactness raises instead of printing a wrong digit
    exact = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
    )
    # 3, 1 and the table of 2**alpha as Decimals, so no step converts an
    # int; _write_line grows the table to each block's largest alpha
    return decimal.Decimal, exact.fma, exact.divide_int, decimal.Decimal(3), decimal.Decimal(1), []


def write_record(out: TextIO, record: TrajectoryRecord, fmt: str) -> None:
    """Write record as one text or JSON line, at most _BLOCK iterates per out.write.

    Text is the start and the iterates, space-separated; JSON is the line
    record_json returns.  A record of at most _BLOCK iterates is one write.
    """
    its, alps = record.iterates, record.alphas
    blocks = ((its[i : i + _BLOCK], alps[i : i + _BLOCK]) for i in range(0, len(its), _BLOCK))
    _write_line(out, record.start, blocks, fmt)


# a streamed line is shared by two processes only when its odd steps times
# its start's bits reach this (2**5000-1: 1.2e8).  Below it the fork's fixed
# costs (the fork, the pipes, a token per block) eat most of what half the
# rendering saves where the second CPU is free, and the fork loses where it
# is busy.  Whole CLI runs of random starts on a 2-vCPU host, forked at 2**22
# against this (medians of 15 alternating runs, text): 75.4 against 71.8 ms
# at 1500 bits (5.7e6), 74.0 against 70.6 at 2500 (1.5e7), 101.3 against
# 107.9 at 3500 (2.9e7) and 98.7 against 114.0 at 4500 (4.9e7); with one
# busy loop running, 109.9 against 83.9 ms at 3500 bits, 120.6 against 99.5
# at 4500
_FORK_WORK = 2**26


def _write_walk(out: TextIO, x: int, fmt: str, max_steps: int, method: str) -> None:
    """write_record of x's record by method ("direct" or "lookup"), without building it.

    A count pass (_checkpoints) walks x and keeps at most a block and the
    checkpoints, the iterate each block starts from; it raises
    MaxStepsExceeded, before any byte is written or any process forked,
    exactly when the walk has more than max_steps odd steps.  The write
    pass then walks x again by the same method and writes each block of
    the line as it is made, so the memory held is a block and one iterate
    per block, not the record.  A line of more than one block from a
    start of at least DECIMAL_MIN_BITS bits, whose odd steps times its
    start's bits reach _FORK_WORK, is written by two processes, each
    walking and rendering every other block from its checkpoint
    (_write_forked), when out has a file descriptor and _fork._may_fork
    allows a fork (the platform can fork, two usable CPUs or more, no
    second thread); any other line, and one whose fork fails, is written
    by this process alone.  _write_range streams each direct line longer
    than _BLOCK iterates through here; the CLI's lookup route, each start
    of at least DECIMAL_MIN_BITS bits.
    """
    _require_odd(x)
    length, checkpoints = _checkpoints(x, max_steps, method)
    blocks = _lookup_blocks if method == "lookup" else _direct_blocks
    bits = x.bit_length()
    if length > _BLOCK and bits >= DECIMAL_MIN_BITS and length * bits >= _FORK_WORK and _may_share(out):
        _write_forked(out, x, blocks, checkpoints, fmt)
    else:
        _write_line(out, x, blocks(x), fmt)


def _checkpoints(x: int, max_steps: int, method: str) -> tuple[int, list[int]]:
    """x's odd length, counted by method, and the iterate each block of its walk starts from.

    Block i of the walk is its first block from checkpoint i: x for i = 0,
    else the iterate after i * _BLOCK odd steps; the 1 that ends a walk
    whose length is a multiple of _BLOCK starts no block.  The lookup count
    keeps the last iterate of each lookup block, so that route never
    evaluates 3x+1.  The direct count takes the block rule's jumps, as
    the range-walk kernels do, but a single step where a jump would pass a block
    edge, so a checkpoint falls on every edge.  Raises MaxStepsExceeded
    exactly when the walk has more than max_steps odd steps.
    """
    if method == "lookup":
        # each block's length and last iterate, which starts the next block
        ends = [(len(iterates), iterates[-1]) for iterates, _ in _budgeted(x, _lookup_blocks(x), max_steps)]
        return sum(n for n, _ in ends), [x, *(end for _, end in ends[:-1])]
    k = _JUMP_BITS
    jumps, low = _jump_table(k), (1 << k) - 1
    checkpoints, cur, steps, edge = [], x, 0, 0
    while cur > 1 or not steps:
        if steps >= max_steps:
            raise MaxStepsExceeded(x, max_steps)
        if steps == edge:
            checkpoints.append(cur)
            edge += _BLOCK
        c, power, tail, _ = jumps[(cur & low) >> 1]
        if cur > low and steps + c <= edge:
            t = power * (cur >> k) + tail
            steps += c
        else:
            t = 3 * cur + 1
            steps += 1
        cur = t >> ((t & -t).bit_length() - 1)
    if steps > max_steps:
        raise MaxStepsExceeded(x, max_steps)
    return steps, checkpoints


def _may_share(out: TextIO) -> bool:
    # the fork rules (_fork._may_fork), and a file descriptor the helper can write
    from ._fork import _may_fork  # loaded only for a line long enough to share

    try:
        return _may_fork() and out.fileno() >= 0
    except (AttributeError, OSError, ValueError):  # also io.UnsupportedOperation, a closed out
        return False


def _write_forked(
    out: TextIO, x: int, blocks: Callable[[int], Iterator[_Block]], checkpoints: Sequence[int], fmt: str
) -> None:
    """_write_line of x's walk, shared by this process (role 0) and a forked helper (role 1).

    Block i is walked and rendered only by the process whose role is
    i % 2: it takes the first block of blocks, the route's block walker,
    from checkpoints[i] (see _checkpoints), so each process holds one block
    at a time and walks none it does not render.  A token, passed each way
    on the two pipes that join the processes, orders their writes and
    carries what the JSON tail needs of the other's blocks (see
    _write_line).
    The helper's life is _fork._Helpers': the two processes run on
    disjoint halves of this process's CPUs, and the helper ignores SIGINT
    and ends by os._exit.  Leaving waits for the helper; if this process
    raised (a closed pipe, Ctrl-C, out of memory), it kills the helper
    first, and its CPU mask is set back either way.  A helper that ends
    with status 1 raises BrokenPipeError here, and one that ends with any
    other status but 0, or by a signal, raises ChildProcessError.  The
    helper exits 0 only after sending every token this process waits for,
    so a token pipe at EOF always comes with a status that raises.  Where
    the fork fails, this process writes the line alone.
    """
    from ._fork import _Helpers

    out.flush()  # so the helper inherits no buffered text to write again

    def helper(token_in: BinaryIO, token_out: int) -> None:
        own = (next(blocks(checkpoint)) for checkpoint in checkpoints[1::2])
        _write_line(out, x, own, fmt, (1, token_in, token_out))

    with _Helpers("the render helper", [helper]) as ends:
        if not ends:  # no process to spare: this process writes the line alone
            _write_line(out, x, blocks(x), fmt)
            return
        try:
            own = (next(blocks(checkpoint)) for checkpoint in checkpoints[0::2])
            _write_line(out, x, own, fmt, (0, *ends[0]))
        except EOFError:  # the helper is gone: leaving raises its status's error
            pass


# characters of iterate and alpha strings a direct range's line memo holds
_MEMO_CHARS = 2**20


def _write_range(out: TextIO, lo: int, last: int, fmt: str, max_steps: int) -> None:
    """write_record of the direct records of the odd starts lo..last, without building them.

    Each start x is walked until it reaches 1 or an earlier start y of the
    range whose line is in the memo; its line is then the walk's own
    iterates followed by y's (see the module docstring).  Each start is
    walked at most _BLOCK steps.  A line that ends within them is checked
    against max_steps once, then rendered once, written in one write and,
    but for the last start's, kept in the memo; a walk that passes _BLOCK
    steps is streamed by _write_walk, whose count pass checks its budget.
    A start whose walk passes max_steps odd steps raises MaxStepsExceeded
    before any byte of its line, so the lines before the first failing
    start are all written.
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
        for steps in range(1, _BLOCK + 1):
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
            # the bound appends keep the lists alive: empty them, so the
            # partial walk is not held while the line streams
            del iterates[:], alphas[:]
            _write_walk(out, x, fmt, max_steps, "direct")
            continue
        length = steps if joined is None else steps + joined[2]
        if length > max_steps:
            raise MaxStepsExceeded(x, max_steps)
        its = sep.join(map(str, iterates))
        alps = ",".join(map(str, alphas)) if as_json else ""
        divs, peak = sum(alphas), max(iterates)
        if joined is not None:
            # the walk joined y = cur: x's line is its walk up to y, then y's
            y_its, y_alps, _, y_divs, y_peak = joined
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
