import contextlib
import io
import itertools
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzkit import (
    DECREASE_SERIES_LIMIT,
    INCREASE_SERIES_LIMIT,
    DomainError,
    MaxStepsExceeded,
    alpha_chain,
    alpha_chain_length,
    alpha_of,
    alpha_residue_class,
    alpha_table_entry,
    drift_report,
    drift_series_decrease,
    drift_series_decrease_parts,
    drift_series_increase,
    empirical_alpha_density,
    empirical_drift,
    empirical_iterate_class_ratio,
    trajectory_direct,
    verify_theorems,
)
from collatzkit import _fork, analysis, trajectory
from collatzkit.analysis import TheoremScanReport
from collatzkit.trajectory import _range_columns

run_starts = st.integers(min_value=0, max_value=2**64).map(lambda n: 4 * n + 3)


def brute_run_length(x):
    # independent oracle: walk alpha=1 steps one at a time
    h = 0
    while x % 4 == 3:
        x = (3 * x + 1) // 2
        h += 1
    return h


@pytest.mark.parametrize("x,h", [(63, 5), (7, 2), (27, 1), (2047, 10)])
def test_alpha_chain_length_examples(x, h):
    assert alpha_chain_length(x) == h


@pytest.mark.parametrize("bad", [5, 1, 9, 4, 0, -3])
def test_alpha_chain_length_domain(bad):
    with pytest.raises(DomainError):
        alpha_chain_length(bad)


def test_alpha_chain_length_matches_oracle():
    for x in range(3, 10_001, 4):
        assert alpha_chain_length(x) == brute_run_length(x)


@given(x=run_starts)
@settings(max_examples=200)
def test_alpha_chain_length_matches_oracle_random(x):
    assert alpha_chain_length(x) == brute_run_length(x)


@pytest.mark.parametrize("h,n,value", [(1, 2, 11), (4, 2, 95), (10, 36, 145407), (1, 1, 3)])
def test_alpha_table_entry_examples(h, n, value):
    assert alpha_table_entry(h, n) == value


def test_alpha_table_entry_domain():
    with pytest.raises(DomainError):
        alpha_table_entry(0, 1)
    with pytest.raises(DomainError):
        alpha_table_entry(1, 0)


def test_alpha_table_is_a_bijection_onto_run_lengths():
    # every 4m+3 below 2**16 appears at exactly one (length, index)
    seen = {}
    for h in range(1, 17):
        n = 1
        while True:
            x = alpha_table_entry(h, n)
            if x >= 2**16:
                break
            assert x not in seen
            seen[x] = (h, n)
            assert alpha_chain_length(x) == h
            n += 1
    assert sorted(seen) == list(range(3, 2**16, 4))


def test_alpha_table_column_agrees_with_length():
    for h in range(1, 13):
        for n in (1, 2, 3, 500, 1000):
            assert alpha_chain_length(alpha_table_entry(h, n)) == h


def test_alpha_chain_examples():
    run = alpha_chain(63)
    assert run.chain == (95, 143, 215, 323, 485)
    assert run.length == 5
    assert run.exit_iterate == 91
    run = alpha_chain(3)
    assert run.chain == (5,)
    assert run.exit_iterate == 1
    run = alpha_chain(15)
    assert run.chain == (23, 35, 53)
    assert run.exit_iterate == 5


def test_alpha_chain_structure():
    for x in range(3, 2003, 4):
        run = alpha_chain(x)
        assert run.length == alpha_chain_length(x)
        values = (x, *run.chain)
        for prev, nxt in zip(values, values[1:]):
            assert prev % 4 == 3
            assert nxt == (3 * prev + 1) // 2
        assert run.chain[-1] % 4 == 1


def test_alpha_chain_composite_constant():
    # h steps of (3x+1)/2 compose to (3**h * x + c_h)/2**h with
    # c_1 = 1 and c_{h+1} = 3*c_h + 2**h
    constants = {1: 1}
    for h in range(1, 16):
        constants[h + 1] = 3 * constants[h] + 2**h
    for x in range(3, 5003, 4):
        run = alpha_chain(x)
        c = constants[run.length]
        assert run.chain[-1] == (3**run.length * x + c) // 2**run.length


def test_chain_end_growth_ratio_bounds():
    for x in range(3, 10_000, 4):
        run = alpha_chain(x)
        ratio = Fraction(run.chain[-1], x)
        growth = Fraction(3, 2) ** run.length
        assert growth * (1 - Fraction(1, x)) <= ratio <= growth * (1 + Fraction(1, x)) * 2


def test_series_partial_sums_exact():
    assert drift_series_increase(1) == Fraction(3, 4)
    assert drift_series_decrease(1) == Fraction(15, 64)
    # closed form against a term-by-term sum
    for n in (1, 2, 5, 30):
        assert drift_series_increase(n) == sum(Fraction(3, 4) ** i for i in range(1, n + 1))
        assert drift_series_decrease(n) == sum(
            Fraction(15, 4) * Fraction(1, 16) ** i for i in range(1, n + 1)
        )
    assert drift_series_increase(30) == 3 - 3 * Fraction(3, 4) ** 30


def test_series_limits_and_monotonicity():
    prev_inc = Fraction(0)
    prev_dec = Fraction(0)
    for n in range(1, 40):
        inc = drift_series_increase(n)
        dec = drift_series_decrease(n)
        assert prev_inc < inc < INCREASE_SERIES_LIMIT
        assert prev_dec < dec < DECREASE_SERIES_LIMIT
        prev_inc, prev_dec = inc, dec
    assert abs(float(drift_series_increase(60)) - 3) < 1e-6
    assert abs(float(drift_series_decrease(20)) - 0.25) < 1e-6


def test_series_component_limits():
    odd_part, even_part = drift_series_decrease_parts(40)
    assert abs(float(odd_part) - 0.05) < 1e-12
    assert abs(float(even_part) - 0.2) < 1e-12
    assert odd_part + even_part == drift_series_decrease(40)


def test_series_domain():
    with pytest.raises(DomainError):
        drift_series_increase(0)
    with pytest.raises(DomainError):
        drift_series_decrease(-1)


def test_density_counts_match_residue_classes():
    bound = 2**12
    report = empirical_alpha_density(bound, 6)
    assert report.odd_total == bound // 2
    for bucket in report.buckets:
        residue, modulus = alpha_residue_class(bucket.alpha)
        predicted = (bound - residue) // modulus + 1 if residue <= bound else 0
        assert bucket.count == predicted
        assert bucket.ratio == bucket.count / report.odd_total


def test_density_validation():
    with pytest.raises(DomainError):
        empirical_alpha_density(100, 10)  # bound below 2**11 - 1
    with pytest.raises(DomainError):
        empirical_alpha_density(2**12, 0)


@pytest.mark.parametrize("k", range(1, 9))
def test_density_accepts_the_least_bound_that_populates_every_class(k):
    # each alpha = 1..k class mod 2**(alpha+1) has an odd member below
    # 2**(k+1), so the least bound the check accepts already reaches them all
    report = empirical_alpha_density(2 ** (k + 1) - 1, k)
    assert [b.alpha for b in report.buckets] == list(range(1, k + 1))
    assert all(b.count >= 1 for b in report.buckets)
    with pytest.raises(DomainError):
        empirical_alpha_density(2 ** (k + 1) - 2, k)


def test_empirical_drift_single_point():
    report = empirical_drift(3)
    assert report.scan_bound == 3
    assert report.empirical_value == pytest.approx(5 / 3, rel=1e-12)


def test_empirical_drift_small_scan():
    value = empirical_drift(1000).empirical_value
    assert 0.65 <= value <= 0.85


def per_odd_drift_chunk(starts):
    # the drift kernel as one step per odd x, the reference for the
    # residue-class kernel
    logs = []
    for x in starts:
        t = 3 * x + 1
        y = t >> ((t & -t).bit_length() - 1)
        logs.append(math.log(y) - math.log(x))
    return math.fsum(logs)


drift_chunks = st.tuples(
    st.one_of(st.integers(min_value=1, max_value=5000), st.integers(min_value=2**63, max_value=2**63 + 5000)),
    st.integers(min_value=0, max_value=3000),
).map(lambda p: range(2 * p[0] + 1, 2 * p[0] + 2 * p[1] + 2, 2))


@given(starts=drift_chunks)
@example(starts=range(3, 4, 2))
@example(starts=range(3, 2 * 2**15 + 2, 2))
@example(starts=range(2**64 + 1, 2**64 + 2, 2))
@example(starts=range(2**64 - 1, 2**64 + 4002, 2))
@example(starts=range(2**64 + 1, 2**64 + 2**16, 2))  # one whole chunk of _CHUNK_ODDS starts
@example(starts=range(3, 2000, 2)[5:70])  # a slice, as the driver makes them
@settings(max_examples=80, deadline=None)
def test_drift_chunk_equals_the_per_odd_kernel(starts):
    assert analysis._drift_chunk(starts) == per_odd_drift_chunk(starts)


# empirical_drift adds its chunk sums by math.fsum; the exact Fraction sum,
# rounded once by float(), is the reference.  Both round half to even, so
# the ties of the examples land on the same float
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=40))
@example([1.0, 2.0**-53])
@example([1.0 + 2.0**-52, 2.0**-53])
@example([1.0, 2.0**-53, 2.0**-106])
@example([1e300, -1e300, 2.0**-1074])
@settings(max_examples=300, deadline=None)
def test_fsum_of_chunk_sums_equals_their_exact_sum_rounded_once(values):
    assert math.fsum(values) == float(sum(map(Fraction, values)))


def test_iterate_class_ratio():
    r1, r5 = empirical_iterate_class_ratio(10_000)
    assert r1 + r5 == pytest.approx(1.0)
    assert abs(r1 - 1 / 3) < 0.01
    assert abs(r5 - 2 / 3) < 0.01


def brute_alpha_counts(bound):
    # independent oracle: alpha_of for every odd x <= bound
    counts = {}
    for x in range(1, bound + 1, 2):
        a = alpha_of(x)
        counts[a] = counts.get(a, 0) + 1
    return counts


@given(bound=st.integers(min_value=1, max_value=3000), max_alpha=st.integers(min_value=1, max_value=11))
@example(bound=1, max_alpha=1)
@example(bound=2, max_alpha=1)
@example(bound=3, max_alpha=1)
@example(bound=2047, max_alpha=10)
@settings(max_examples=40, deadline=None)
def test_alpha_scans_equal_brute_force_counts(bound, max_alpha):
    counts = brute_alpha_counts(bound)
    odds = (bound + 1) // 2
    c5 = sum(c for a, c in counts.items() if a % 2)
    assert empirical_iterate_class_ratio(bound) == ((odds - c5) / odds, c5 / odds)
    # the largest max_alpha the bound allows (none below 3)
    max_alpha = min(max_alpha, (bound + 1).bit_length() - 2)
    if max_alpha >= 1:
        report = empirical_alpha_density(bound, max_alpha)
        assert report.odd_total == odds
        assert [(b.alpha, b.count, b.ratio) for b in report.buckets] == [
            (a, counts.get(a, 0), counts.get(a, 0) / odds) for a in range(1, max_alpha + 1)
        ]


@given(bound=st.integers(min_value=1, max_value=5000))
@example(bound=100001)
@example(bound=2**17 + 1)
@example(bound=2**18 - 1)
@example(bound=1000001)
@settings(max_examples=200, deadline=None)
def test_closed_form_alpha_counts_equal_brute_force(bound):
    # one entry per alpha up to log2(3 * top + 1), zero where no odd <= bound has it
    counts = analysis._alpha_counts(bound)
    brute = brute_alpha_counts(bound)
    assert len(counts) == (3 * (bound - 1 + bound % 2) + 1).bit_length()
    assert max(brute) < len(counts)
    assert counts == [brute.get(a, 0) for a in range(len(counts))]


def test_alpha_counts_at_a_huge_bound_are_the_class_sizes():
    # no scan: a bound of 10**300 takes one class size per alpha
    bound = 10**300 + 1
    counts = analysis._alpha_counts(bound)
    assert sum(counts) == (bound + 1) // 2
    assert counts[1] == (bound + 1) // 4 and counts[2] == (bound + 7) // 8


def test_verify_alpha_counts_fork_nothing(monkeypatch, no_fork):
    # four chunks, all within the theorem scan's table, and the alpha counts are closed-form
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    verify_theorems(100001, workers=2)
    empirical_alpha_density(100001, 10)
    empirical_iterate_class_ratio(100001)


def test_verify_theorems_clean_scan():
    report = verify_theorems(1001)
    assert report.trajectories == 501
    assert report.iterates_checked > 0


def test_scan_results_do_not_depend_on_worker_count():
    bound = 70_000  # spans several fixed chunks
    assert empirical_drift(bound).empirical_value == empirical_drift(bound, workers=3).empirical_value
    assert verify_theorems(bound) == verify_theorems(bound, workers=3)


def test_drift_report_combination():
    report = drift_report(n_terms=10, scan_bound=1000)
    assert report.series_increase == drift_series_increase(10)
    assert report.series_decrease == drift_series_decrease(10)
    assert 0.65 <= report.empirical_value <= 0.85
    series_only = drift_report(n_terms=5)
    assert series_only.empirical_value is None
    with pytest.raises(DomainError):
        drift_report()


def reference_scan(bound, max_steps=10**6):
    # the theorem scan as full records, and the witness loop over each: both
    # lemmas say it finds nothing, so verify_theorems reports no witnesses
    mult3, dups, checked = [], [], 0
    starts = range(1, bound + 1, 2)
    for x in starts:
        rec = trajectory_direct(x, max_steps)
        checked += rec.odd_length
        seen = {x} if x != 1 else set()
        for y in rec.iterates:
            if y % 3 == 0:
                mult3.append((x, y))
            if y in seen:
                dups.append((x, y))
            seen.add(y)
    assert mult3 == [] and dups == []
    return TheoremScanReport(bound=bound, trajectories=len(starts), iterates_checked=checked)


@pytest.mark.parametrize("workers", [1, 3])
@given(bound=st.integers(min_value=3, max_value=3000))
@example(bound=3)
@settings(max_examples=40, deadline=None)
def test_verify_equals_the_record_reference(bound, workers):
    assert verify_theorems(bound, workers=workers) == reference_scan(bound)


def test_verify_equals_the_record_reference_across_chunks(monkeypatch):
    expected = reference_scan(70_001)
    assert verify_theorems(70_001, workers=3) == expected
    # a table of one chunk's starts: the second chunk joins it
    monkeypatch.setattr(analysis, "_TABLE_STARTS", analysis._CHUNK_ODDS)
    assert verify_theorems(70_001, workers=3) == expected


@contextlib.contextmanager
def small_table():
    # 64 odd starts per chunk and a table of 128 starts (1..255), so
    # chunks that join a finished table run at test sizes (shared with
    # forked helpers for workers > 1, from _FORK_CHUNKS chunks on)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_CHUNK_ODDS", 64)
        mp.setattr(analysis, "_TABLE_STARTS", 128)
        yield


@pytest.mark.parametrize("workers", [1, 3])
@given(bound=st.integers(min_value=3, max_value=3000))
@example(bound=255)
@example(bound=257)
@settings(max_examples=40, deadline=None)
def test_verify_equals_the_record_reference_across_the_table_boundary(bound, workers):
    with small_table():
        assert verify_theorems(bound, workers=workers) == reference_scan(bound)


def verify_or_error(bound, max_steps):
    try:
        return verify_theorems(bound, max_steps).iterates_checked
    except MaxStepsExceeded as exc:
        return exc.start, exc.max_steps


def range_rows_or_error(bound, max_steps):
    try:
        return sum(sum(block[0]) for block in _range_columns(1, bound, max_steps))
    except MaxStepsExceeded as exc:
        return exc.start, exc.max_steps


@given(
    bound=st.integers(min_value=3, max_value=3000),
    max_steps=st.integers(min_value=1, max_value=60),
    size=st.sampled_from([4, 128, analysis._TABLE_STARTS]),
)
@example(bound=3000, max_steps=60, size=4)
@example(bound=1000, max_steps=46, size=128)  # first failing start 313, past the table
@settings(max_examples=60, deadline=None)
def test_the_verify_kernel_equals_the_stats_kernel(bound, max_steps, size):
    # both range-walk kernels join a table of the same size by the same
    # rule: the summed odd lengths, or the same first failing start
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_TABLE_STARTS", size)
        mp.setattr(trajectory, "_TABLE_STARTS", size)
        assert verify_or_error(bound, max_steps) == range_rows_or_error(bound, max_steps)


@pytest.mark.parametrize("k", [2, analysis._JUMP_BITS])
def test_the_fill_equals_the_per_start_records_across_many_blocks(monkeypatch, k):
    # 3..20001 is 30 of the fill's blocks; with k = 2 its walkers jump by
    # blocks of 2 Terras steps
    monkeypatch.setattr(analysis, "_JUMP_BITS", k)
    assert analysis._fill_table(20001, 10**6) == [0] + [trajectory_direct(x).odd_length for x in range(3, 20002, 2)]
    assert verify_theorems(20001) == reference_scan(20001)


@given(bound=st.integers(min_value=3, max_value=5000), max_steps=st.integers(min_value=1, max_value=80))
# found by walking every start: the first failing start is a sliced
# x == 1 (mod 4), before a failing walker of its block
@example(bound=1001, max_steps=46)  # 313, before 327 and 411
@example(bound=2001, max_steps=65)  # 1161
@example(bound=30001, max_steps=102)  # 23529, before 26623
# or a walker x == 3 (mod 4), before a failing sliced start of its block
@example(bound=1001, max_steps=62)  # 871, before 937
@example(bound=4001, max_steps=66)  # 2463, before 3097
@example(bound=20001, max_steps=101)  # 17647, before 17673
@settings(max_examples=40, deadline=None)
def test_the_fills_first_failing_start_is_that_of_the_full_walks(bound, max_steps):
    assert 2 * analysis._TABLE_STARTS > 30001  # every example is inside the fill
    try:
        expected = reference_scan(bound, max_steps).iterates_checked
    except MaxStepsExceeded as exc:
        expected = exc.start, max_steps
    assert verify_or_error(bound, max_steps) == expected


def test_chunks_past_the_table_never_grow_it(monkeypatch, recorded, chunk_log):
    # this process's chunks share its table and each helper's its copy: the
    # fill leaves it full (starts 1..255) and no chunk past it adds or
    # changes an entry (an AssertionError in a helper is raised here)
    def counting(starts, max_steps, table):
        before = list(table)
        checked = count_walks(starts, max_steps, table)
        if starts.step == 2:  # a chunk past the table, not a block of the fill's walkers
            assert table == before
            chunk_log(os.getpid(), starts.start, starts.stop, len(before))
        return checked

    count_walks = analysis._count_walks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(analysis, "_count_walks", counting)
    with small_table():
        bound = 255 + 128 * analysis._FORK_CHUNKS
        assert verify_theorems(bound, workers=3) == reference_scan(bound)
    assert recorded == [3]
    # the chunks of 64 starts from 257 to the bound, chunk i in process i % 3
    chunks = sorted(chunk_log.read(), key=lambda line: line[1])
    assert [line[1:] for line in chunks] == [(x, x + 128, 128) for x in range(257, bound, 128)]
    assert {line[0] for line in chunks[0::3]} == {os.getpid()}
    assert os.getpid() not in {line[0] for line in chunks[1::3] + chunks[2::3]}


@pytest.mark.parametrize("workers", [1, 3])
@given(bound=st.integers(min_value=3, max_value=1000), max_steps=st.integers(min_value=1, max_value=60))
@example(bound=1000, max_steps=45)  # first failing start 231, inside the table
@example(bound=1000, max_steps=46)  # first failing start 313, past it
@settings(max_examples=40, deadline=None)
def test_budget_exhaustion_across_the_table_boundary_names_the_reference_start(bound, max_steps, workers):
    with small_table():
        try:
            expected = reference_scan(bound, max_steps)
        except MaxStepsExceeded as exc:
            with pytest.raises(MaxStepsExceeded) as got:
                verify_theorems(bound, max_steps, workers=workers)
            assert (got.value.start, got.value.max_steps) == (exc.start, max_steps)
        else:
            assert verify_theorems(bound, max_steps, workers=workers) == expected


@pytest.mark.parametrize("workers", [1, 3])
@given(bound=st.integers(min_value=3, max_value=600), max_steps=st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_verify_budget_exhaustion_names_the_reference_start(bound, max_steps, workers):
    try:
        expected = reference_scan(bound, max_steps)
    except MaxStepsExceeded as exc:
        with pytest.raises(MaxStepsExceeded) as got:
            verify_theorems(bound, max_steps, workers=workers)
        assert (got.value.start, got.value.max_steps) == (exc.start, max_steps)
    else:
        assert verify_theorems(bound, max_steps, workers=workers) == expected


def test_budget_exhaustion_in_a_scan_helper_reaches_the_caller(monkeypatch, recorded):
    # the table (starts 1..2**18-1) fills in this process, and of three
    # processes helper 2 runs the third chunk past it.  Every start below
    # 2**18 takes at most 164 odd steps, and the first start over that
    # budget, 410011, lies in that chunk: its error is pickled
    assert 2 * analysis._TABLE_STARTS < 410_011
    assert (410_011 - 2**18) // (2 * analysis._CHUNK_ODDS) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    bound = 2**18 - 1 + 2 * analysis._CHUNK_ODDS * max(analysis._FORK_CHUNKS, 3)
    for workers in (3, 1):
        with pytest.raises(MaxStepsExceeded) as got:
            verify_theorems(bound, 164, workers=workers)
        assert (got.value.start, got.value.max_steps) == (410_011, 164)
    assert recorded == [3]


@pytest.mark.parametrize("bound", ["10**9", "10**12", "10**30"])
def test_a_huge_bound_keeps_the_table_bounded(bound):
    # neither the table nor the chunk spans grow with the bound: the table
    # stops at _TABLE_STARTS starts and spans are made one at a time, so
    # under a 1 GiB address-space cap the first failing start, 9, is reached
    script = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "from collatzkit import MaxStepsExceeded, verify_theorems\n"
        f"try:\n    verify_theorems({bound}, 5)\n"
        "except MaxStepsExceeded as exc:\n    print(exc.start, exc.max_steps)\n"
    )
    src = str(Path(analysis.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "9 5\n", "")


class RecordingHelpers(_fork._Helpers):
    # _fork._Helpers as the scan driver uses it, recording how many processes
    # each forked scan runs on, this one included
    sizes = []

    def __init__(self, name, runs):
        super().__init__(name, runs)
        self.sizes.append(len(runs) + 1)


@pytest.fixture
def recorded(monkeypatch):
    # the process counts of the scans that fork, in order
    monkeypatch.setattr(_fork, "_Helpers", RecordingHelpers)
    monkeypatch.setattr(RecordingHelpers, "sizes", [])
    return RecordingHelpers.sizes


def refuse_fork():
    raise AssertionError("forked")


@pytest.fixture
def no_fork(monkeypatch):
    # a scan that forks fails
    monkeypatch.setattr(os, "fork", refuse_fork)


@pytest.fixture
def chunk_log(tmp_path):
    # log(*ints) appends one line from any process, helpers included;
    # log.read() gives the lines as tuples of ints
    path = tmp_path / "chunks.log"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def log(*fields):
        os.write(fd, " ".join(map(str, fields)).encode() + b"\n")

    log.read = lambda: [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
    yield log
    os.close(fd)


@pytest.fixture(autouse=True)
def real_cpus():
    # a forked scan sets back the mask it read, which a test may fake: the
    # real one comes back after each test
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    yield
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


def test_every_chunk_is_a_range_of_starts_run_once(monkeypatch, recorded, chunk_log):
    # each helper inherits the work with its join table: every chunk is a
    # range of at most _CHUNK_ODDS odd starts, run once, by process i % 2
    def logging(starts, max_steps, table):
        chunk_log(os.getpid(), starts.start, starts.stop, starts.step)
        return count_walks(starts, max_steps, table)

    count_walks = analysis._count_walks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(analysis, "_count_walks", logging)
    with small_table():
        bound = 255 + 128 * analysis._FORK_CHUNKS + 64  # half a chunk more
        assert verify_theorems(bound, 999, workers=2) == reference_scan(bound, 999)
        chunks = sorted((line for line in chunk_log.read() if line[3] == 2), key=lambda line: line[1])
        assert all(0 < len(range(*line[1:])) <= analysis._CHUNK_ODDS for line in chunks)
    assert recorded == [2]
    assert list(itertools.chain(*(range(*line[1:]) for line in chunks))) == list(range(257, bound + 1, 2))
    assert {line[0] for line in chunks[0::2]} == {os.getpid()}
    assert os.getpid() not in {line[0] for line in chunks[1::2]}


@pytest.mark.parametrize("cpus,expected", [(range(64), [7]), ({0, 1}, [2]), ({0}, []), (None, [])])
def test_worker_count_is_clamped_to_chunks_and_cpus(monkeypatch, recorded, cpus, expected):
    # without os.sched_getaffinity nothing forks
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    monkeypatch.setattr(analysis, "_FORK_CHUNKS", 1)
    starts = range(3, 7 * 2 * 2**15, 2)  # 7 chunks
    reference = list(analysis._run_chunks(analysis._drift_chunk, starts, 1))
    assert recorded == []
    assert list(analysis._run_chunks(analysis._drift_chunk, starts, 10**9)) == reference
    assert recorded == expected


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the CPUs a process may run on are not known")
def test_a_process_pinned_to_one_cpu_scans_without_forking(monkeypatch, no_fork):
    # two CPUs in the machine, one the process may run on: scans of as many
    # chunks as fork elsewhere run in-process
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    chunks = max(analysis._FORK_CHUNKS, 32)
    bound = 2**18 + 1 + 2 * analysis._CHUNK_ODDS * (chunks - 1)
    assert verify_theorems(bound, workers=2) == verify_theorems(bound, workers=1)
    bound = 3 + 2 * analysis._CHUNK_ODDS * (chunks - 1)
    assert empirical_drift(bound, workers=2) == empirical_drift(bound, workers=1)


def test_a_scan_beside_a_second_thread_forks_nothing(monkeypatch, no_fork):
    # a fork copies only the calling thread: with a second one alive, a scan
    # of as many chunks as forks on its own runs in-process, with the same result
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    bound = 3 + 2 * analysis._CHUNK_ODDS * (max(analysis._FORK_CHUNKS, 32) - 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        got = empirical_drift(bound, workers=2)
    finally:
        stop.set()
        thread.join()
    assert got == empirical_drift(bound, workers=1)


EDGES = [1, analysis._FORK_CHUNKS - 1, analysis._FORK_CHUNKS, analysis._FORK_CHUNKS + 8]


@pytest.mark.parametrize("chunks", EDGES)
def test_drift_forks_from_the_threshold_on(monkeypatch, recorded, chunks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 4)
    bound = 3 + 2 * 4 * (chunks - 1)  # the first odd of the last chunk
    reference = empirical_drift(bound)
    assert empirical_drift(bound, workers=2) == reference
    assert recorded == ([2] if chunks >= analysis._FORK_CHUNKS else [])


@pytest.mark.parametrize("chunks", EDGES)
def test_verify_forks_from_the_threshold_past_its_table_on(monkeypatch, recorded, chunks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with small_table():
        bound = 257 + 2 * 64 * (chunks - 1)  # the first odd of the last chunk past the table of 1..255
        reference = verify_theorems(bound)
        assert verify_theorems(bound, workers=2) == reference
    assert recorded == ([2] if chunks >= analysis._FORK_CHUNKS else [])


def test_a_helper_runs_ahead_by_at_most_a_pipe_and_an_early_close_ends_it(monkeypatch, recorded, chunk_log):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(analysis, "_FORK_CHUNKS", 1)

    def first(chunk):
        chunk_log(os.getpid(), chunk[0])
        return chunk[0]

    # about 15 million chunks; each result is its chunk's first odd
    results = analysis._run_chunks(first, range(1, 10**12, 2), 2)
    assert list(itertools.islice(results, 5)) == [1 + 2 * 2**15 * i for i in range(5)]
    time.sleep(0.5)  # time to run ahead as far as the pipe lets it
    results.close()
    assert recorded == [2]
    helper = [line for line in chunk_log.read() if line[0] != os.getpid()]
    # the results read, a 64 KiB pipe and this process's read buffer full of
    # results of at least this size, one being written and one chunk being run
    held = (2**16 + io.DEFAULT_BUFFER_SIZE) // len(pickle.dumps((True, 2**16 + 1)))
    assert 2 < len(helper) <= 2 + held + 2
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(helper[0][0], 0)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_forked_scan_yields_every_chunk_in_order(monkeypatch, recorded, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 4)
    monkeypatch.setattr(analysis, "_FORK_CHUNKS", 1)
    got = list(analysis._run_chunks(lambda chunk: (chunk, os.getpid()), range(1, 98, 2), workers))
    chunks = [chunk for chunk, _ in got]
    assert chunks == list(analysis._run_chunks(lambda chunk: chunk, range(1, 98, 2), 1))
    assert chunks[0] == range(1, 9, 2) and chunks[-1] == range(97, 98, 2) and len(chunks) == 13
    # chunk i ran in process i % workers, this one for 0
    pids = [[pid for _, pid in got[role::workers]] for role in range(workers)]
    assert [set(p) for p in pids][0] == {os.getpid()} and len({p[0] for p in pids}) == workers
    assert all(len(set(p)) == 1 for p in pids)
    assert recorded == [workers]


def _sigint_state(chunk):
    return signal.getsignal(signal.SIGINT), signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ())


def test_helpers_ignore_sigint_which_is_held_across_each_fork(monkeypatch):
    # Ctrl-C reaches the helpers too, and only this process may report it;
    # a SIGINT during a fork would reach the helper before it ignores SIGINT
    fork, held = os.fork, []

    def recording_fork():
        held.append(signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ()))
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 4)
    monkeypatch.setattr(analysis, "_FORK_CHUNKS", 1)
    states = list(analysis._run_chunks(_sigint_state, range(1, 98, 2), 3))
    assert held == [True, True]
    assert set(states[0::3]) == {(signal.getsignal(signal.SIGINT), False)}
    assert set(states[1::3] + states[2::3]) == {(signal.SIG_IGN, False)}
    assert not _sigint_state(None)[1]


@pytest.mark.parametrize("scan", ["drift", "verify"])
def test_a_failed_fork_scans_in_this_process(monkeypatch, recorded, scan):
    # the second fork fails: the first helper is killed and reaped, and this
    # process runs every chunk, with its own CPUs back
    fork, forks = os.fork, []

    def failing_fork():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    with small_table():
        bound = 255 + 128 * analysis._FORK_CHUNKS
        if scan == "drift":
            got, reference = empirical_drift(bound, workers=3), empirical_drift(bound)
        else:
            got, reference = verify_theorems(bound, workers=3), reference_scan(bound)
    assert got == reference
    assert recorded == [3] and len(forks) == 1
    with pytest.raises(ChildProcessError):  # reaped
        os.waitpid(forks[0], 0)
