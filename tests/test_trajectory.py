import ast
import inspect
import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzkit import (
    DomainError,
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
from collatzkit.trajectory import DECIMAL_MIN_BITS, _range_stats, iterate_strings

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


def test_stats_streams_one_pass_over_a_generator():
    starts = range(1, 200, 2)
    stats = trajectory_stats(trajectory_direct(x) for x in starts)
    assert stats == trajectory_stats([trajectory_direct(x) for x in starts])


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


big_starts = st.integers(min_value=900, max_value=1300).flatmap(
    lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1)
).map(lambda n: n | 1)


@given(x=big_starts)
@settings(max_examples=25, deadline=None)
def test_iterate_strings_equal_str_across_the_cutover(x):
    for rec in (trajectory_direct(x), trajectory_lookup(x)):
        assert list(iterate_strings(rec)) == [str(v) for v in rec.iterates]


def test_iterate_strings_walk_crosses_the_cutover_both_ways():
    # 2**1000 - 1 climbs from below the cut-over to above it, then falls back
    rec = trajectory_direct(2**1000 - 1)
    big = [v.bit_length() >= DECIMAL_MIN_BITS for v in rec.iterates]
    assert {(False, True), (True, False)} <= set(zip(big, big[1:]))
    assert list(iterate_strings(rec)) == [str(v) for v in rec.iterates]


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
                    assert sum(pos <= o < pos + len(text) for o in offsets) <= 3
                    pos += len(text)


@pytest.mark.parametrize("options", [[], ["--format", "json"], ["--method", "lookup"]])
def test_a_walk_over_budget_writes_nothing(monkeypatch, options):
    # the record is built before any of its bytes are written
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
            return _range_stats(trajectory_direct(first, max_steps), last, max_steps)
        return trajectory_stats(trajectory_direct(x, max_steps) for x in range(first, last + 1, 2))
    except MaxStepsExceeded as exc:
        return exc.start, exc.max_steps


range_firsts = st.one_of(
    st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=2**69)
).map(lambda n: 2 * n + 1)


@given(
    first=range_firsts,
    width=st.integers(min_value=0, max_value=600),
    cap=st.sampled_from([8, trajectory_module._MEMO_STARTS]),
)
@example(first=1, width=600, cap=8)
@example(first=1, width=0, cap=8)
@settings(max_examples=60, deadline=None)
def test_memoised_range_stats_equal_the_full_records(first, width, cap):
    with patch.object(trajectory_module, "_MEMO_STARTS", cap):
        assert summarise(first, first + width, 10**6, True) == summarise(first, first + width, 10**6, False)


@given(
    first=range_firsts,
    width=st.integers(min_value=0, max_value=600),
    max_steps=st.integers(min_value=1, max_value=150),
    cap=st.sampled_from([8, trajectory_module._MEMO_STARTS]),
)
@example(first=101, width=1900, max_steps=20, cap=trajectory_module._MEMO_STARTS)
@settings(max_examples=60, deadline=None)
def test_memoised_range_stats_run_out_of_budget_at_the_full_records_start(first, width, max_steps, cap):
    with patch.object(trajectory_module, "_MEMO_STARTS", cap):
        assert summarise(first, first + width, max_steps, True) == summarise(first, first + width, max_steps, False)


def test_the_memo_table_stops_at_its_cap(monkeypatch):
    # the table's column lengths as _range_stats returns
    columns = []

    def trace_calls(frame, event, arg):
        if frame.f_code is not _range_stats.__code__:
            return None

        def trace_lines(frame, event, arg):
            if event == "return":
                columns.extend(len(frame.f_locals[n]) for n in ("lengths", "divisions", "peaks"))
            return trace_lines

        return trace_lines

    monkeypatch.setattr(trajectory_module, "_MEMO_STARTS", 8)
    expected = summarise(1, 401, 10**6, False)
    sys.settrace(trace_calls)
    try:
        stats = _range_stats(trajectory_direct(1), 401, 10**6)
    finally:
        sys.settrace(None)
    assert stats == expected
    assert columns == [8, 8, 8]
