import ast
import inspect
import io
import json
import sys
from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzkit import (
    DomainError,
    FieldStats,
    MaxStepsExceeded,
    record_json,
    stats_csv,
    trajectory_direct,
    trajectory_lookup,
    trajectory_stats,
    write_record,
)
from collatzkit.cli import run

import collatzkit.trajectory as trajectory_module
from collatzkit.trajectory import DECIMAL_MIN_BITS, _fold, _mean, _range_columns, _write_range, _write_walk

from reference_windows import TRAJECTORY_27, TRAJECTORY_255

odd_starts = st.integers(min_value=0, max_value=2**40).map(lambda n: 2 * n + 1)


def test_direct_examples():
    assert trajectory_direct(9).iterates == (7, 11, 17, 13, 5, 1)
    assert trajectory_direct(3).iterates == (5, 1)
    assert trajectory_direct(21).iterates == (1,)
    rec = trajectory_direct(1)
    assert rec.iterates == (1,)
    assert rec.odd_length == 1
    assert rec.alphas == (2,)


def test_direct_matches_reference_walks():
    rec = trajectory_direct(27)
    assert rec.odd_length == 41
    assert rec.iterates == TRAJECTORY_27
    assert trajectory_direct(255).iterates == TRAJECTORY_255


def test_record_fields():
    rec = trajectory_direct(9)
    assert rec.start == 9
    assert rec.odd_length == len(rec.iterates) == 6
    assert rec.total_divisions == sum(rec.alphas)
    assert rec.peak == 17


def test_lookup_examples():
    assert trajectory_lookup(27).iterates[0] == 41
    rec = trajectory_lookup(13)
    assert rec.iterates == (5, 1)
    assert rec.alphas == (3, 4)
    assert trajectory_lookup(1).iterates == (1,)


def test_lookup_equals_direct_below_bound():
    for x in range(1, 10_001, 2):
        a = trajectory_direct(x)
        b = trajectory_lookup(x)
        assert a == b, x


def test_lookup_never_evaluates_the_step_formula():
    # the lookup route stays independent of (3x+1)/2**alpha: no product by 3
    # and no call into the direct step anywhere in its body
    tree = ast.parse(inspect.getsource(trajectory_lookup))
    products = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
        and 3 in (getattr(n.left, "value", None), getattr(n.right, "value", None))
    ]
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert products == []
    assert not names & {"_raw_step", "syracuse_step", "alpha_of", "trajectory_direct"}


@given(x=odd_starts)
@settings(max_examples=150, deadline=None)
def test_lookup_equals_direct_random(x):
    assert trajectory_lookup(x) == trajectory_direct(x)


def reference_record(x):
    # a plain walk, independent of both routes
    iterates, alphas = [], []
    while True:
        t = 3 * x + 1
        alpha = 0
        while t % 2 == 0:
            t //= 2
            alpha += 1
        x = t
        iterates.append(x)
        alphas.append(alpha)
        if x == 1:
            break
    return (tuple(iterates), tuple(alphas), len(iterates), sum(alphas), max(iterates))


@given(x=st.integers(min_value=0, max_value=2**1999).map(lambda n: 2 * n + 1))
@settings(max_examples=40, deadline=None)
def test_direct_equals_lookup_and_a_reference_walk_up_to_2000_bits(x):
    direct = trajectory_direct(x)
    assert direct == trajectory_lookup(x)
    fields = (direct.iterates, direct.alphas, direct.odd_length, direct.total_divisions, direct.peak)
    assert direct.start == x
    assert fields == reference_record(x)


@given(
    x=st.integers(min_value=1, max_value=3000)
    .flatmap(lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1))
    .map(lambda n: n | 1)
)
@example(x=2**3000 - 1)
@settings(max_examples=30, deadline=None)
def test_lookup_equals_direct_up_to_3000_bits(x):
    assert trajectory_lookup(x) == trajectory_direct(x)


def test_no_duplicates_and_no_multiples_of_three():
    for x in range(3, 10_001, 2):
        rec = trajectory_direct(x)
        values = (x, *rec.iterates)
        assert len(set(values)) == len(values)
        assert all(v % 3 != 0 for v in rec.iterates)


def test_start_one_is_its_own_iterate():
    # the walk from 1 revisits 1; every other start never repeats a value
    rec = trajectory_direct(1)
    assert (1, *rec.iterates) == (1, 1)


def test_growth_exactly_on_3_mod_4():
    for x in range(1, 4001, 2):
        rec = trajectory_direct(x)
        values = (x, *rec.iterates)
        for prev, nxt in zip(values, values[1:]):
            assert (nxt > prev) == (prev % 4 == 3), (x, prev, nxt)


def test_budget_exhaustion():
    with pytest.raises(MaxStepsExceeded) as exc:
        trajectory_direct(27, max_steps=3)
    assert exc.value.start == 27
    assert exc.value.max_steps == 3
    with pytest.raises(MaxStepsExceeded):
        trajectory_lookup(27, max_steps=3)
    with pytest.raises(DomainError):
        trajectory_direct(27, max_steps=0)


def test_stats_examples():
    assert trajectory_stats([trajectory_direct(9)]).odd_length.mean == 6
    assert trajectory_stats([trajectory_direct(3)]).odd_length.mean == 2
    assert trajectory_stats([trajectory_direct(1)]).peak.maximum == 1


def test_stats_aggregation_and_order_independence():
    records = [trajectory_direct(x) for x in range(1, 200, 2)]
    stats = trajectory_stats(records)
    assert stats.count == 100
    assert stats.odd_length.minimum == 1
    assert stats.odd_length.maximum == max(r.odd_length for r in records)
    assert stats.peak.mean == sum(r.peak for r in records) / 100
    assert trajectory_stats(reversed(records)) == stats


def test_stats_rejects_empty():
    with pytest.raises(DomainError):
        trajectory_stats([])
    with pytest.raises(DomainError):
        trajectory_stats(iter(()))


fold_counts = st.integers(min_value=1, max_value=10**6)
# peaks past 2**1024 take the integer mean
fold_peaks = st.one_of(fold_counts, st.integers(min_value=2**1024, max_value=2**1100))


@given(
    rows=st.lists(st.tuples(fold_counts, fold_counts, fold_peaks), min_size=1, max_size=50),
    cuts=st.lists(st.integers(min_value=0, max_value=50), max_size=8),
)
@example(rows=[(6, 13, 17)], cuts=[])
@example(rows=[(2, 3, 2**1100 - 1)], cuts=[0, 0, 1])
@example(rows=[(1, 4, 1), (2, 5, 2**1024), (3, 2, 2**1024 + 1)], cuts=[1, 1, 2])
@settings(max_examples=100, deadline=None)
def test_fold_equals_builtin_min_max_sum(rows, cuts):
    # both --stats routes go through _fold, so it is checked on its own here,
    # over the rows cut at random into column blocks, empty blocks included
    bounds = [0, *sorted(min(cut, len(rows)) for cut in cuts), len(rows)]
    blocks = [tuple(map(list, zip(*rows[a:b]))) or ([], [], []) for a, b in zip(bounds, bounds[1:])]
    stats = _fold(iter(blocks))
    assert stats.count == len(rows)
    for name, column in zip(("odd_length", "total_divisions", "peak"), zip(*rows)):
        expected = FieldStats(minimum=min(column), maximum=max(column), mean=_mean(sum(column), len(rows)))
        # repr tells an int mean from an equal float one
        assert repr(getattr(stats, name)) == repr(expected)


def test_fold_rejects_no_rows():
    with pytest.raises(DomainError, match="no trajectory records"):
        _fold(iter(()))
    with pytest.raises(DomainError, match="no trajectory records"):
        _fold(iter([([], [], []), ((), (), ())]))


def test_stats_streams_one_pass_over_a_generator():
    starts = range(1, 200, 2)
    stats = trajectory_stats(trajectory_direct(x) for x in starts)
    assert stats == trajectory_stats([trajectory_direct(x) for x in starts])


def test_stats_over_more_than_a_block_folds_blocks_of_at_most_block_rows(monkeypatch):
    # 601 records: two whole blocks of _BLOCK rows, then the rest
    records = [trajectory_direct(x) for x in range(1, 1203, 2)]
    sizes = []

    def spy(blocks):
        blocks = list(blocks)
        sizes.extend(len(column) for block in blocks for column in block)
        return _fold(blocks)

    monkeypatch.setattr(trajectory_module, "_fold", spy)
    stats = trajectory_stats(iter(records))
    block = trajectory_module._BLOCK
    assert sizes == [block] * 6 + [601 - 2 * block] * 3
    assert stats.count == 601
    for name in ("odd_length", "total_divisions", "peak"):
        column = [getattr(rec, name) for rec in records]
        assert getattr(stats, name) == FieldStats(min(column), max(column), _mean(sum(column), 601))


def test_stats_mean_beyond_float_range_is_the_nearest_integer():
    # peaks past 2**1024: total / count overflows a float
    big = trajectory_direct(2**1100 - 1)
    stats = trajectory_stats([big])
    assert stats.peak.mean == big.peak and isinstance(stats.peak.mean, int)
    assert isinstance(stats.odd_length.mean, float)
    pair = [trajectory_direct(2**1100 - 1), trajectory_direct(2**1100 + 1)]
    total = sum(r.peak for r in pair)
    assert trajectory_stats(pair).peak.mean == round(Fraction(total, 2))
    assert stats_csv(stats).splitlines()[3] == f"peak,{big.peak},{big.peak},{big.peak}"


def test_record_json_fields():
    payload = json.loads(record_json(trajectory_direct(9)))
    assert payload == {
        "start": 9,
        "iterates": [7, 11, 17, 13, 5, 1],
        "alphas": [2, 1, 1, 2, 3, 4],
        "odd_length": 6,
        "total_divisions": 13,
        "peak": 17,
    }


def _old_record_json(record):
    return json.dumps(
        {
            "start": record.start,
            "iterates": list(record.iterates),
            "alphas": list(record.alphas),
            "odd_length": record.odd_length,
            "total_divisions": record.total_divisions,
            "peak": record.peak,
        },
        separators=(",", ":"),
    )


def test_record_json_equals_json_dumps_payload():
    for x in (*range(1, 300, 2), 2**1100 - 1, 2**1500 + 1):
        rec = trajectory_direct(x)
        assert record_json(rec) == _old_record_json(rec), x


def text_line(rec):
    buf = io.StringIO()
    write_record(buf, rec, "text")
    return buf.getvalue()


big_starts = st.integers(min_value=900, max_value=1300).flatmap(
    lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
).map(lambda n: n | 1)


@given(x=big_starts)
@settings(max_examples=25, deadline=None)
def test_written_iterates_equal_str_across_the_cutover(x):
    for rec in (trajectory_direct(x), trajectory_lookup(x)):
        assert text_line(rec) == f"{x} {' '.join(map(str, rec.iterates))}\n"


def test_a_line_crossing_the_cutover_both_ways_is_written_as_str():
    # 2**1000 - 1 climbs from below the cut-over to above it, then falls back
    rec = trajectory_direct(2**1000 - 1)
    big = [v.bit_length() >= DECIMAL_MIN_BITS for v in rec.iterates]
    assert {(False, True), (True, False)} <= set(zip(big, big[1:]))
    assert text_line(rec) == f"{rec.start} {' '.join(map(str, rec.iterates))}\n"


def iterate_offsets(head, sep, strings):
    # where each iterate's digits begin in the line
    offsets, pos = [], len(head)
    for text in strings:
        offsets.append(pos)
        pos += len(text) + len(sep)
    return offsets


write_starts = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=1300).flatmap(
        lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
    ),
).map(lambda n: 2 * n + 1)


@given(x=write_starts)
@example(x=1)  # one iterate
@example(x=17)  # three iterates: one patched block, one write
@example(x=11)  # four iterates: one past the patched block
@example(x=2**1100 - 1)
@settings(max_examples=40, deadline=None)
def test_write_record_equals_the_joined_line_in_bounded_writes(x):
    # blocks of 3 iterates, and the Decimal route from 64 bits on, so both
    # boundaries fall inside most walks
    with patch.object(trajectory_module, "_BLOCK", 3), patch.object(trajectory_module, "DECIMAL_MIN_BITS", 64):
        for rec in (trajectory_direct(x), trajectory_lookup(x)):
            digits = [str(v) for v in rec.iterates]
            for fmt, line, head, sep in (
                ("text", f"{x} {' '.join(digits)}\n", f"{x} ", " "),
                ("json", _old_record_json(rec) + "\n", f'{{"start":{x},"iterates":[', ","),
            ):
                writes = []  # each write kept apart
                write_record(SimpleNamespace(write=writes.append), rec, fmt)
                assert "".join(writes) == line
                if rec.odd_length <= 3:
                    assert writes == [line]
                offsets = iterate_offsets(head, sep, digits)
                pos = 0
                for text in writes:
                    assert bisect_left(offsets, pos + len(text)) - bisect_left(offsets, pos) <= 3
                    pos += len(text)


# starts of 1020 to 1100 bits: the walks of the bigger ones are streamed by
# the CLI, and some fall below DECIMAL_MIN_BITS and climb back above it
stream_starts = st.one_of(
    st.integers(min_value=1020, max_value=1100).map(lambda bits: 2**bits - 1),
    st.integers(min_value=1020, max_value=1100).flatmap(
        lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1).map(lambda n: n | 1)
    ),
)


@given(x=stream_starts, block=st.sampled_from([3, 256]))
@example(x=2**1026 + 3**640, block=3)  # below the cut-over and back above it, twice
@example(x=2**1100 - 1, block=256)
@settings(max_examples=20, deadline=None)
def test_a_streamed_walk_equals_its_record_line(x, block):
    with patch.object(trajectory_module, "_BLOCK", block):
        for method, build in (("direct", trajectory_direct), ("lookup", trajectory_lookup)):
            rec = build(x)
            for fmt in ("text", "json"):
                expected, writes = io.StringIO(), []
                write_record(expected, rec, fmt)
                _write_walk(SimpleNamespace(write=writes.append), x, fmt, rec.odd_length, method)
                assert "".join(writes) == expected.getvalue()
                # one write per block of iterates, then the tail
                assert len(writes) == -(-rec.odd_length // block) + 1


@pytest.mark.parametrize("method", ["direct", "lookup"])
def test_a_streamed_walk_one_step_over_budget_raises_at_its_start(method):
    x = 2**1100 - 1
    length = trajectory_direct(x).odd_length
    writes = []
    with pytest.raises(MaxStepsExceeded) as exc:
        _write_walk(SimpleNamespace(write=writes.append), x, "json", length - 1, method)
    assert (exc.value.start, exc.value.max_steps, writes) == (x, length - 1, [])
    with pytest.raises(DomainError, match="x must be odd"):
        _write_walk(io.StringIO(), x + 1, "text", length, method)


@pytest.mark.parametrize("options", [[], ["--format", "json"], ["--method", "lookup"]])
def test_a_walk_over_budget_writes_nothing(monkeypatch, options):
    # the count pass comes before any byte of the line
    monkeypatch.setenv("COLLATZ_MAX_STEPS", "100")
    out, err = io.StringIO(), io.StringIO()
    assert run(["trajectory", str(2**1100 - 1), *options], out, err) == 3
    assert out.getvalue() == ""
    assert err.getvalue() == f"error: budget of 100 steps exhausted starting from {2**1100 - 1}\n"


def test_stats_csv_layout():
    text = stats_csv(trajectory_stats([trajectory_direct(9), trajectory_direct(3)]))
    lines = text.strip().split("\n")
    assert lines[0] == "metric,min,max,mean"
    assert lines[1].startswith("odd_length,2,6,")
    assert len(lines) == 4


def summarise(first, last, max_steps, engine):
    # the stats of the odd starts first..last, or the (start, budget) of the
    # MaxStepsExceeded the range raises
    try:
        if engine:
            return _fold(_range_columns(trajectory_direct(first, max_steps), last, max_steps))
        return trajectory_stats(trajectory_direct(x, max_steps) for x in range(first, last + 1, 2))
    except MaxStepsExceeded as exc:
        return exc.start, exc.max_steps


range_firsts = st.one_of(
    st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=2**69)
).map(lambda n: 2 * n + 1)


@given(
    first=range_firsts,
    width=st.integers(min_value=0, max_value=600),
    cap=st.sampled_from([8, trajectory_module._TABLE_STARTS]),
)
@example(first=1, width=600, cap=8)
@example(first=1, width=0, cap=8)
@settings(max_examples=60, deadline=None)
def test_memoised_range_stats_equal_the_full_records(first, width, cap):
    with patch.object(trajectory_module, "_TABLE_STARTS", cap):
        assert summarise(first, first + width, 10**6, True) == summarise(first, first + width, 10**6, False)


@given(
    first=range_firsts,
    width=st.integers(min_value=0, max_value=600),
    max_steps=st.integers(min_value=1, max_value=150),
    cap=st.sampled_from([8, trajectory_module._TABLE_STARTS]),
)
@example(first=101, width=1900, max_steps=20, cap=trajectory_module._TABLE_STARTS)
@settings(max_examples=60, deadline=None)
def test_memoised_range_stats_run_out_of_budget_at_the_full_records_start(first, width, max_steps, cap):
    with patch.object(trajectory_module, "_TABLE_STARTS", cap):
        assert summarise(first, first + width, max_steps, True) == summarise(first, first + width, max_steps, False)


def test_the_memo_table_stops_at_its_cap(monkeypatch):
    # the table is the first block: once the range is consumed it still
    # holds 8 rows, and the other 193 starts went into a block of their own
    monkeypatch.setattr(trajectory_module, "_TABLE_STARTS", 8)
    blocks = list(_range_columns(trajectory_direct(1), 401, 10**6))
    assert [[len(column) for column in block] for block in blocks] == [[8, 8, 8], [193, 193, 193]]
    assert _fold(blocks) == summarise(1, 401, 10**6, False)


def write_range(first, last, fmt, max_steps, joined):
    # the writes of the lines of the odd starts first..last, and the
    # (start, budget) of the MaxStepsExceeded they raise, if any
    writes = []
    out = SimpleNamespace(write=writes.append)
    try:
        if joined:
            _write_range(out, first, last, fmt, max_steps)
        else:
            for x in range(first, last + 1, 2):
                write_record(out, trajectory_direct(x, max_steps), fmt)
    except MaxStepsExceeded as exc:
        return writes, (exc.start, exc.max_steps)
    return writes, None


# (first start, width): small, 64-bit and about 1100-bit starts, the
# widths kept so that a range walks at most some thousands of iterates
written_ranges = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=800)),
    st.tuples(st.integers(min_value=2**62, max_value=2**63), st.integers(min_value=0, max_value=60)),
    st.tuples(st.integers(min_value=2**1098, max_value=2**1099), st.integers(min_value=0, max_value=4)),
).map(lambda pair: (2 * pair[0] + 1, 2 * pair[1]))


@given(
    written=written_ranges,
    fmt=st.sampled_from(["text", "json"]),
    block=st.sampled_from([3, 256]),
    room=st.sampled_from([24, trajectory_module._MEMO_CHARS]),
)
@example(written=(1, 1600), fmt="text", block=3, room=24)
@example(written=(1, 1600), fmt="json", block=3, room=trajectory_module._MEMO_CHARS)
@example(written=(1, 4000), fmt="json", block=256, room=24)
@example(written=(2**64 + 1, 198), fmt="text", block=256, room=trajectory_module._MEMO_CHARS)
@example(written=(2**1100 - 1, 0), fmt="json", block=3, room=24)
@settings(max_examples=60, deadline=None)
def test_joined_range_lines_equal_the_full_records_in_bounded_writes(written, fmt, block, room):
    # blocks of 3 iterates: a joined line is at most 3 iterates and most
    # lines are longer, so written by write_record in several blocks; a
    # memo of 24 characters fills at once; the Decimal route from 64 bits on
    first, width = written
    last = first + width
    with (
        patch.object(trajectory_module, "_BLOCK", block),
        patch.object(trajectory_module, "_MEMO_CHARS", room),
        patch.object(trajectory_module, "DECIMAL_MIN_BITS", 64),
    ):
        writes, error = write_range(first, last, fmt, 10**6, True)
        assert error is None
        assert writes == write_range(first, last, fmt, 10**6, False)[0]
    # where each line and each of its iterates begins in the stream
    offsets, short_lines, pos = [], [], 0
    for x in range(first, last + 1, 2):
        rec = trajectory_direct(x)
        head, sep = (f"{x} ", " ") if fmt == "text" else (f'{{"start":{x},"iterates":[', ",")
        line = record_json(rec) + "\n" if fmt == "json" else f"{x} {' '.join(map(str, rec.iterates))}\n"
        if rec.odd_length <= block:
            short_lines.append((pos, line))
        offsets.extend(pos + o for o in iterate_offsets(head, sep, map(str, rec.iterates)))
        pos += len(line)
    spans, pos = {}, 0
    for text in writes:
        assert bisect_left(offsets, pos + len(text)) - bisect_left(offsets, pos) <= block
        spans[pos] = text
        pos += len(text)
    assert all(spans.get(at) == line for at, line in short_lines)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("first", [1, 101, 2**64 + 1])
def test_a_joined_range_over_budget_stops_at_the_full_records_start(first, fmt):
    # with blocks of 3 iterates, budgets 4 to 40 let a walk pass its block
    # inside the range, so its line is streamed
    for block in (256, 3):
        with patch.object(trajectory_module, "_BLOCK", block):
            for max_steps in range(1, 41):
                joined = write_range(first, first + 2000, fmt, max_steps, True)
                assert joined == write_range(first, first + 2000, fmt, max_steps, False)
                assert joined[1] is not None


def test_the_line_memo_stops_at_its_budget(monkeypatch):
    # the memo as _write_range returns: its strings pass the budget by at
    # most the last line it took in, and the last start's line is not kept
    memos = []

    def trace_calls(frame, event, arg):
        if frame.f_code is not _write_range.__code__:
            return None

        def trace_lines(frame, event, arg):
            if event == "return":
                memos.append(dict(frame.f_locals["memo"]))
            return trace_lines

        return trace_lines

    monkeypatch.setattr(trajectory_module, "_MEMO_CHARS", 2000)
    ranges = [(1, 4001), (1, 41), (27, 27)]
    expected = [write_range(first, last, "json", 10**6, False) for first, last in ranges]
    sys.settrace(trace_calls)
    try:
        assert [write_range(first, last, "json", 10**6, True) for first, last in ranges] == expected
    finally:
        sys.settrace(None)
    budgeted, short, single = memos
    sizes = [len(its) + len(alps) for its, alps, *_ in budgeted.values()]
    assert 2000 <= sum(sizes) < 2000 + sizes[-1]
    assert all(entry[2] <= trajectory_module._BLOCK for entry in budgeted.values())
    # every line of 1..41 has at most _BLOCK iterates, and 2000 characters
    # outlast them: each start is kept but the last
    assert list(short) == list(range(1, 41, 2))
    assert single == {}


@pytest.mark.parametrize("block", [3, 256])
def test_only_lines_over_the_block_go_through_write_record(monkeypatch, block):
    # a line of at most _BLOCK iterates is rendered in _write_range, joined
    # or not; a longer one is streamed by _write_walk
    written = []

    def spy(out, x, fmt, max_steps, method):
        assert method == "direct"
        written.append(x)
        _write_walk(out, x, fmt, max_steps, method)

    monkeypatch.setattr(trajectory_module, "_BLOCK", block)
    monkeypatch.setattr(trajectory_module, "_write_walk", spy)
    for fmt in ("text", "json"):
        for first, last in [(1, 1601), (27, 27), (2**64 + 1, 2**64 + 201)]:
            written.clear()
            _write_range(io.StringIO(), first, last, fmt, 10**6)
            long_lines = [x for x in range(first, last + 1, 2) if trajectory_direct(x).odd_length > block]
            assert written == long_lines
