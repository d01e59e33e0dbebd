import contextlib
import itertools
import math
import os
import signal
import subprocess
import sys
from concurrent.futures import Future
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
from collatzkit import analysis
from collatzkit.analysis import TheoremScanReport

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


def per_odd_drift_chunk(span):
    # the drift kernel as one step per odd x, the reference for the
    # residue-class kernel
    lo, hi = span
    logs = []
    for x in range(lo, hi + 1, 2):
        t = 3 * x + 1
        y = t >> ((t & -t).bit_length() - 1)
        logs.append(math.log(y) - math.log(x))
    return math.fsum(logs)


drift_spans = st.tuples(
    st.one_of(st.integers(min_value=1, max_value=5000), st.integers(min_value=2**63, max_value=2**63 + 5000)),
    st.integers(min_value=0, max_value=3000),
).map(lambda p: (2 * p[0] + 1, 2 * p[0] + 1 + 2 * p[1]))


@given(span=drift_spans)
@example(span=(3, 3))
@example(span=(3, 2 * 2**15 + 1))
@example(span=(2**64 + 1, 2**64 + 1))
@example(span=(2**64 - 1, 2**64 + 4001))
@settings(max_examples=80, deadline=None)
def test_drift_chunk_equals_the_per_odd_kernel(span):
    assert analysis._drift_chunk(span) == per_odd_drift_chunk(span)


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


@pytest.mark.parametrize("workers", [1, 3])
@given(bound=st.integers(min_value=1, max_value=3000), max_alpha=st.integers(min_value=1, max_value=11))
@example(bound=1, max_alpha=1)
@example(bound=2, max_alpha=1)
@example(bound=3, max_alpha=1)
@example(bound=2047, max_alpha=10)
@settings(max_examples=40, deadline=None)
def test_alpha_scans_equal_brute_force_counts(bound, max_alpha, workers):
    # the worker count is accepted and cannot change the counts
    counts = brute_alpha_counts(bound)
    odds = (bound + 1) // 2
    c5 = sum(c for a, c in counts.items() if a % 2)
    assert empirical_iterate_class_ratio(bound, workers=workers) == ((odds - c5) / odds, c5 / odds)
    # the largest max_alpha the bound allows (none below 3)
    max_alpha = min(max_alpha, (bound + 1).bit_length() - 2)
    if max_alpha >= 1:
        report = empirical_alpha_density(bound, max_alpha, workers=workers)
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


def test_verify_alpha_counts_start_no_pool(monkeypatch):
    # four chunks, all within the theorem scan's table, and the alpha counts are closed-form
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    verify_theorems(100001, workers=2)
    empirical_alpha_density(100001, 10, workers=2)
    empirical_iterate_class_ratio(100001, workers=2)
    assert RecordingPool.sizes == []


def test_verify_theorems_clean_scan():
    report = verify_theorems(1001)
    assert report.trajectories == 501
    assert report.multiple_of_three == ()
    assert report.duplicates == ()
    assert report.violations == 0
    assert report.iterates_checked > 0


def test_scan_results_do_not_depend_on_worker_count():
    bound = 70_000  # spans several fixed chunks
    assert empirical_alpha_density(bound, 8) == empirical_alpha_density(bound, 8, workers=3)
    assert empirical_drift(bound).empirical_value == empirical_drift(bound, workers=3).empirical_value
    assert empirical_iterate_class_ratio(bound) == empirical_iterate_class_ratio(bound, workers=3)
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
    # the theorem scan as full records and the witness loop over each
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
    return TheoremScanReport(
        bound=bound,
        trajectories=len(starts),
        iterates_checked=checked,
        multiple_of_three=tuple(mult3),
        duplicates=tuple(dups),
    )


@pytest.mark.parametrize("workers", [1, 3])
@given(bound=st.integers(min_value=3, max_value=3000))
@example(bound=3)
@settings(max_examples=40, deadline=None)
def test_verify_equals_the_record_reference(bound, workers):
    assert verify_theorems(bound, workers=workers) == reference_scan(bound)


def test_verify_equals_the_record_reference_across_chunks(monkeypatch):
    expected = reference_scan(70_001)
    assert verify_theorems(70_001, workers=3) == expected
    # a one-chunk table: the second chunk joins it from a pool worker
    monkeypatch.setattr(analysis, "_TABLE_CHUNKS", 1)
    assert verify_theorems(70_001, workers=3) == expected


@contextlib.contextmanager
def small_table():
    # 64 odd starts per chunk and a table of two chunks (starts 1..255), so
    # chunks that join a finished table run at test sizes (in a pool for workers > 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "_CHUNK_ODDS", 64)
        mp.setattr(analysis, "_TABLE_CHUNKS", 2)
        yield


@pytest.mark.parametrize("workers", [1, 3])
@given(bound=st.integers(min_value=3, max_value=3000))
@example(bound=255)
@example(bound=257)
@settings(max_examples=40, deadline=None)
def test_verify_equals_the_record_reference_across_the_table_boundary(bound, workers):
    with small_table():
        assert verify_theorems(bound, workers=workers) == reference_scan(bound)


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


def test_budget_exhaustion_in_a_pool_worker_reaches_the_caller():
    # seven chunks: the first four build the table in this process, the
    # other three run in a real pool (with two CPUs) and the error is pickled.
    # Every start below 2**18 takes at most 164 odd steps, so the first start
    # over that budget, 410011, lies in the last chunk
    assert 2 * analysis._TABLE_CHUNKS * analysis._CHUNK_ODDS < 410_011
    for workers in (2, 1):
        with pytest.raises(MaxStepsExceeded) as got:
            verify_theorems(7 * 2**16 - 1, 164, workers=workers)
        assert (got.value.start, got.value.max_steps) == (410_011, 164)


@pytest.mark.parametrize("bound", ["10**9", "10**12", "10**30"])
def test_a_huge_bound_keeps_the_table_bounded(bound):
    # neither the table nor the chunk spans grow with the bound: the table
    # stops at _TABLE_CHUNKS chunks and spans are made one at a time, so
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


class RecordingPool:
    # stands in for ProcessPoolExecutor: records max_workers and counts
    # submissions; each task runs in-process when it is submitted
    sizes = []
    submitted = 0

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        RecordingPool.submitted += 1
        future = Future()
        try:
            future.set_result(fn(task))
        except Exception as exc:
            future.set_exception(exc)
        return future


@pytest.mark.parametrize("cpus,expected", [(64, [7]), (2, [2]), (1, []), (None, [])])
def test_worker_count_is_clamped_to_chunks_and_cpus(monkeypatch, cpus, expected):
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    bound = 7 * 2 * 2**15 - 1  # 7 chunks of the odd integers from 3
    reference = list(analysis._run_chunks(analysis._drift_chunk, 3, bound, 1))
    assert RecordingPool.sizes == []
    assert list(analysis._run_chunks(analysis._drift_chunk, 3, bound, 10**9)) == reference
    assert RecordingPool.sizes == expected


@pytest.mark.parametrize("chunks,expected", [(1, []), (31, []), (32, [2]), (40, [2])])
def test_drift_starts_a_pool_from_32_chunks_on(monkeypatch, chunks, expected):
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 4)
    bound = 3 + 2 * 4 * (chunks - 1)  # the first odd of the last chunk
    reference = empirical_drift(bound)
    assert empirical_drift(bound, workers=2) == reference
    assert RecordingPool.sizes == expected


def test_a_pool_scan_keeps_a_bounded_window_of_tasks(monkeypatch):
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "submitted", 0)
    # about 15 million chunks; each result is its span's first odd
    results = analysis._run_chunks(lambda task: task[0], 1, 10**12, 2)
    assert list(itertools.islice(results, 5)) == [1 + 2 * 2**15 * i for i in range(5)]
    results.close()
    assert RecordingPool.sizes == [2]
    assert RecordingPool.submitted <= 5 + 2 * 2


@pytest.mark.parametrize("workers", [2, 3])
def test_a_pool_scan_yields_every_chunk_in_order(monkeypatch, workers):
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 4)
    spans = list(analysis._run_chunks(lambda task: task, 1, 97, workers))
    assert spans == list(analysis._run_chunks(lambda task: task, 1, 97, 1))
    assert spans[0] == (1, 7) and spans[-1] == (97, 97) and len(spans) == 13


def _sigint_handler(task):
    return signal.getsignal(signal.SIGINT)


def test_pool_workers_ignore_sigint(monkeypatch):
    # a real pool: Ctrl-C reaches the workers too, and only the parent reports it
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(analysis, "_CHUNK_ODDS", 4)
    assert set(analysis._run_chunks(_sigint_handler, 1, 97, 2)) == {signal.SIG_IGN}
