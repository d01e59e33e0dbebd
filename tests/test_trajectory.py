import ast
import contextlib
import errno
import inspect
import io
import json
import os
import signal
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
from collatzkit.trajectory import (
    DECIMAL_MIN_BITS,
    _checkpoints,
    _direct_blocks,
    _fold,
    _lookup_blocks,
    _lookup_rows,
    _mean,
    _range_columns,
    _write_forked,
    _write_line,
    _write_range,
    _write_walk,
)

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
    # and no call into the direct step in any function of the route, found
    # by following the module's functions that each body names
    route, todo = {}, [trajectory_lookup]
    while todo:
        fn = todo.pop()
        if fn.__name__ in route:
            continue
        tree = route[fn.__name__] = ast.parse(inspect.getsource(fn))
        products = [
            n for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
            and 3 in (getattr(n.left, "value", None), getattr(n.right, "value", None))
        ]
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert products == [], fn.__name__
        assert not names & {"_raw_step", "syracuse_step", "alpha_of", "trajectory_direct"}, fn.__name__
        todo += [f for f in map(vars(trajectory_module).get, names) if inspect.isfunction(f)]
    assert {"trajectory_lookup", "_record", "_budgeted", "_lookup_blocks"} <= set(route)


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


@pytest.mark.parametrize("block", [3, 256])
@pytest.mark.parametrize("build", [trajectory_direct, trajectory_lookup])
def test_record_budget_at_block_boundaries(build, block):
    # the budget is summed block by block: a walk of exactly max_steps
    # steps passes, one step more raises at its start, also when the budget
    # ends on a block boundary inside the walk
    x = 2**1100 - 1
    with patch.object(trajectory_module, "_BLOCK", block):
        length = build(x).odd_length
        assert build(x, max_steps=length) == trajectory_direct(x)
        for max_steps in (length - 1, (length - 1) // block * block):
            with pytest.raises(MaxStepsExceeded) as exc:
                build(x, max_steps=max_steps)
            assert (exc.value.start, exc.value.max_steps) == (x, max_steps)


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


def written_both_ways(tmp_path, x, method, fmt):
    # x's line through a real file descriptor, as the two-process writer and
    # as the one-process writer put it in a file
    blocks = {"direct": _direct_blocks, "lookup": _lookup_blocks}[method]
    _, checkpoints = _checkpoints(x, 10**6, method)
    lines = []
    for name, write in (
        ("forked", lambda out: _write_forked(out, x, blocks, checkpoints, fmt)),
        ("single", lambda out: _write_line(out, x, blocks(x), fmt)),
    ):
        path = tmp_path / f"{name}-{method}.{fmt}"
        with open(path, "w") as out, deadline(60):
            out.write("earlier line\n")  # buffered when the helper is forked
            write(out)
        lines.append(path.read_text())
    return lines


@contextlib.contextmanager
def deadline(seconds):
    # TimeoutError in this process after seconds: a token that never comes
    # fails the test, and _write_forked then kills and reaps its helper
    def expire(signum, frame):
        raise TimeoutError(f"no line after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


# 2**1100-1 has 20 blocks, so the helper renders the last one and writes the
# tail; 2**1100+1 has 11, so this process does; 2**1026+3**640 falls below
# DECIMAL_MIN_BITS and climbs back, so some blocks mix str and Decimal
@pytest.mark.parametrize("x", [2**1100 - 1, 2**1100 + 1, 2**1026 + 3**640])
@pytest.mark.parametrize("method", ["direct", "lookup"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_forked_line_equals_the_single_process_line(tmp_path, x, method, fmt):
    forked, single = written_both_ways(tmp_path, x, method, fmt)
    assert forked == single
    assert single.count("\n") == 2


# blocks of 3 iterates, and the Decimal route from 64 bits on: a line of one
# iterate; of whole blocks only, one or an even or odd count of them (so
# either process renders the block that reaches 1, and no block starts at
# that 1); of whole blocks and one iterate; and of many blocks
@pytest.mark.parametrize(
    "x",
    [
        1,
        17,
        9,
        43,
        255,
        2**70 - 1,
        2221900935431971565381,
        11,
        25,
        309237060117561687601,
        27,
        2**80 + 1,
    ],
)
@pytest.mark.parametrize("method", ["direct", "lookup"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_forked_line_of_many_small_blocks_equals_the_single_process_line(tmp_path, monkeypatch, x, method, fmt):
    monkeypatch.setattr(trajectory_module, "_BLOCK", 3)
    monkeypatch.setattr(trajectory_module, "DECIMAL_MIN_BITS", 64)
    rec = trajectory_direct(x)
    length = rec.odd_length
    assert _checkpoints(x, length, method) == (length, [x, *rec.iterates[2 : length - 1 : 3]])
    forked, single = written_both_ways(tmp_path, x, method, fmt)
    assert forked == single
    expected = io.StringIO()
    write_record(expected, rec, fmt)
    assert single == "earlier line\n" + expected.getvalue()


def test_a_failed_fork_writes_the_line_in_this_process(tmp_path, monkeypatch):
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    cpus = os.sched_getaffinity(0)
    monkeypatch.setattr(trajectory_module.os, "fork", refuse)
    forked, single = written_both_ways(tmp_path, 2**1100 - 1, "direct", "json")
    assert forked == single
    assert os.sched_getaffinity(0) == cpus


# the helper dies with status 2, or this process is interrupted mid-line
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the CPUs a process may run on cannot be set")
@pytest.mark.parametrize("failure", [ChildProcessError, KeyboardInterrupt])
def test_the_callers_cpus_come_back_after_a_dead_helper_or_an_interrupt(tmp_path, monkeypatch, failure):
    cpus, caller, write_line = os.sched_getaffinity(0), os.getpid(), trajectory_module._write_line

    def failing(*args):
        if os.getpid() != caller:
            raise RuntimeError("only in the helper")
        if failure is KeyboardInterrupt:
            raise KeyboardInterrupt
        write_line(*args)

    monkeypatch.setattr(trajectory_module, "_write_line", failing)
    try:
        with pytest.raises(failure):
            written_both_ways(tmp_path, 2**1100 - 1, "direct", "text")
        assert os.sched_getaffinity(0) == cpus
    finally:
        os.sched_setaffinity(0, cpus)  # should the check fail, no later test runs on fewer CPUs


def refuse_mask(pid, cpus):
    raise OSError(errno.EINVAL, "Invalid argument")


# the kernel refuses a mask: sched_setaffinity raises EINVAL, or the CPUs
# seem to be one, so this process's half is empty
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="the CPUs a process may run on cannot be set")
@pytest.mark.parametrize("refusal", ["einval", "one-cpu"])
@pytest.mark.parametrize("method", ["direct", "lookup"])
def test_a_refused_cpu_mask_leaves_the_line_unpinned(tmp_path, monkeypatch, refusal, method):
    cpus = os.sched_getaffinity(0)
    if refusal == "einval":
        monkeypatch.setattr(os, "sched_setaffinity", refuse_mask)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {min(cpus)})
    try:
        forked, single = written_both_ways(tmp_path, 2**1100 - 1, method, "json")
    finally:
        monkeypatch.undo()
        os.sched_setaffinity(0, cpus)  # the one CPU is the mask set back
    assert forked == single


def test_only_a_long_line_of_a_big_start_to_a_file_forks(tmp_path, monkeypatch):
    # a line of more than one block, from a start of at least DECIMAL_MIN_BITS
    # bits, with odd steps times start bits of at least _FORK_WORK, written to
    # a file descriptor with os.fork and two usable CPUs
    forked = []
    monkeypatch.setattr(trajectory_module, "_write_forked", lambda out, x, blocks, checkpoints, fmt: forked.append(x))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    big, short, one_step, small = 2**4000 - 1, 2**1100 - 1, (2**1102 - 1) // 3, 2**1000 - 1
    work = trajectory_module._FORK_WORK
    assert trajectory_direct(big).odd_length * 4000 >= work > trajectory_direct(short).odd_length * 1100
    assert trajectory_direct(short).odd_length > trajectory_module._BLOCK
    assert one_step.bit_length() > DECIMAL_MIN_BITS and trajectory_direct(one_step).odd_length == 1
    with open(tmp_path / "line", "w") as out:

        def writes(x, fork=True, to=out):
            # the starts _write_forked got, by the direct and the lookup route
            forked.clear()
            for method in ("direct", "lookup"):
                _write_walk(to, x, "text", 10**6, method, fork)
            return forked

        assert writes(big) == [big, big]
        assert writes(big, fork=False) == []
        assert writes(short) == []
        assert writes(one_step) == []
        monkeypatch.setattr(trajectory_module, "_FORK_WORK", 0)  # the start's bits alone rule
        assert writes(short) == [short, short]
        assert writes(small) == []
        monkeypatch.setattr(trajectory_module, "_FORK_WORK", work)
        assert writes(big, to=io.StringIO()) == []
        assert writes(big, to=SimpleNamespace(write=lambda text: None)) == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert writes(big) == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "fork")
        assert writes(big) == []


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


def kernel_rows(route, first, last, max_steps):
    # each odd start's (odd_length, total_divisions, peak) by the route's
    # --stats kernel, or the (start, budget) of the MaxStepsExceeded it raises
    try:
        if route == "direct":
            blocks = _range_columns(trajectory_direct(first, max_steps), last, max_steps)
            return [row for block in blocks for row in zip(*block)]
        return [tuple(row) for row in _lookup_rows(range(first, last + 1, 2), max_steps)]
    except MaxStepsExceeded as exc:
        return exc.start, exc.max_steps


def record_rows(route, first, last, max_steps):
    # the same from each start's own record, built by the route
    build = trajectory_direct if route == "direct" else trajectory_lookup
    rows = []
    for x in range(first, last + 1, 2):
        try:
            rec = build(x, max_steps)
        except MaxStepsExceeded as exc:
            return exc.start, exc.max_steps
        rows.append((rec.odd_length, rec.total_divisions, rec.peak))
    return rows


@st.composite
def joined_ranges(draw):
    # (first, last): up to 40 odd starts from a 1- to 300-bit first start
    bits = draw(st.integers(min_value=1, max_value=300))
    first = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)) | 1
    return first, first + 2 * draw(st.integers(min_value=0, max_value=40))


@given(
    route=st.sampled_from(["direct", "lookup"]),
    walk=joined_ranges(),
    max_steps=st.one_of(st.integers(min_value=1, max_value=120), st.just(10**6)),
    room=st.sampled_from([0, 2**12, 2**16, trajectory_module._JOIN_ROOM]),
    size=st.sampled_from([4, trajectory_module._TABLE_STARTS]),
    block=st.sampled_from([3, trajectory_module._BLOCK]),
)
@settings(max_examples=120, deadline=None)
def test_stats_kernels_equal_the_per_start_records(route, walk, max_steps, room, size, block):
    first, last = walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory_module, "_JOIN_ROOM", room)
        mp.setattr(trajectory_module, "_TABLE_STARTS", size)
        mp.setattr(trajectory_module, "_BLOCK", block)
        assert kernel_rows(route, first, last, max_steps) == record_rows(route, first, last, max_steps)


def joins(monkeypatch):
    # the iterate -> summary dicts that the kernels' walks fill
    dicts = []
    remember = trajectory_module._remember

    def spy(below, *args):
        dicts.append(below)
        return remember(below, *args)

    monkeypatch.setattr(trajectory_module, "_remember", spy)
    return dicts


@pytest.mark.parametrize(
    "route,first,last,x,y",
    [
        # x's peak is y, the iterate where it joins an earlier walk
        ("direct", 163, 237, 181, 17),
        ("lookup", 163, 237, 181, 17),
        # x's peak is a front value of the block that ends at y; 467's walk
        # first keeps its own iterates below 453 for later starts
        ("direct", 489, 545, 497, 53),
        ("direct", 453, 487, 467, 433),
        ("direct", 875121, 875179, 875139, 23075),
    ],
)
def test_a_join_below_the_first_start_keeps_the_peak(monkeypatch, route, first, last, x, y):
    dicts = joins(monkeypatch)
    rows = kernel_rows(route, first, last, 10**6)
    below = dicts[-1]
    rec = trajectory_direct(x)
    assert y < first and y in below and y in rec.iterates
    # y's entry is y's own summary: its peak never counts y
    assert below[y] == (lambda r: (r.odd_length, r.total_divisions, r.peak))(trajectory_direct(y))
    assert rows[(x - first) // 2] == (rec.odd_length, rec.total_divisions, rec.peak)
    assert rows == record_rows(route, first, last, 10**6)


@pytest.mark.parametrize(
    "method,max_steps,failing",
    [("direct", 42, 387), ("lookup", 37, 381), ("direct", 93, 14571685), ("lookup", 93, 14571685)],
)
def test_a_start_over_budget_only_after_a_join_fails_first(monkeypatch, method, max_steps, failing):
    # failing's walk reaches an earlier walk's iterate below the first start
    # within budget, and only the joined count passes it; every earlier
    # start is within budget
    first = 377 if failing < 1000 else 14571681
    assert trajectory_direct(failing).odd_length == max_steps + 1
    assert all(trajectory_direct(z).odd_length <= max_steps for z in range(first, failing, 2))
    assert kernel_rows(method, first, first + 38, max_steps) == (failing, max_steps)
    monkeypatch.setenv("COLLATZ_MAX_STEPS", str(max_steps))
    out, err = io.StringIO(), io.StringIO()
    argv = ["trajectory", str(first), "--end", str(first + 38), "--stats", "--method", method]
    assert run(argv, out, err) == 3
    assert (out.getvalue(), err.getvalue()) == ("", f"error: budget of {max_steps} steps exhausted starting from {failing}\n")


def test_the_join_room_runs_out(monkeypatch):
    # an entry is made while room is left, and costs more than 1: the first
    # start's walk makes one, and every later start walks on until it
    # reaches that one or 1
    monkeypatch.setattr(trajectory_module, "_JOIN_ROOM", 1)
    dicts = joins(monkeypatch)
    first = 2**99 + 1
    assert kernel_rows("lookup", first, first + 198, 10**6) == record_rows("lookup", first, first + 198, 10**6)
    assert len(dicts[-1]) == 1
    monkeypatch.setattr(trajectory_module, "_JOIN_ROOM", 0)
    dicts.clear()
    assert kernel_rows("lookup", first, first + 198, 10**6) == record_rows("lookup", first, first + 198, 10**6)
    assert dicts == []


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

    def spy(out, x, fmt, max_steps, method, fork):
        assert (method, fork) == ("direct", False)
        written.append(x)
        _write_walk(out, x, fmt, max_steps, method, fork)

    monkeypatch.setattr(trajectory_module, "_BLOCK", block)
    monkeypatch.setattr(trajectory_module, "_write_walk", spy)
    for fmt in ("text", "json"):
        for first, last in [(1, 1601), (27, 27), (2**64 + 1, 2**64 + 201)]:
            written.clear()
            _write_range(io.StringIO(), first, last, fmt, 10**6)
            long_lines = [x for x in range(first, last + 1, 2) if trajectory_direct(x).odd_length > block]
            assert written == long_lines
