"""The block rule of the direct range-walk kernels, against explicit steps.

The jump table is checked entry by entry against k explicit Terras steps,
and both kernels (_count_walks for verify, _range_columns for --stats) against
per-start trajectory_direct records, with k patched small so that starts
on both sides of 2**k and of 2**k * 3**k come up at test sizes.
"""

import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collatzkit.trajectory as trajectory
from collatzkit import MaxStepsExceeded, trajectory_direct
from collatzkit.trajectory import _count_walks, _jump_table, _range_columns

KS = [2, 3, trajectory._JUMP_BITS]


def terras(n: int, k: int) -> list[int]:
    # T^0(n) .. T^k(n), one explicit Terras step at a time
    values = [n]
    for _ in range(k):
        n = (3 * n + 1) // 2 if n % 2 else n // 2
        values.append(n)
    return values


@pytest.mark.parametrize("k", KS + [10])
def test_each_entry_is_k_explicit_terras_steps(k):
    table = _jump_table(k)
    assert len(table) == 2 ** (k - 1)
    assert _jump_table(k) is table  # built once per k
    for r in range(1, 2**k, 2):
        c, power, tail, _ = table[r >> 1]
        values = terras(r, k)
        assert c == sum(v % 2 for v in values[:k])
        assert power == 3**c
        assert tail == values[k]


@pytest.mark.parametrize("k", KS + [10])
def test_the_front_gives_the_largest_odd_iterate_inside_a_block(k):
    rng = random.Random(k)
    table = _jump_table(k)
    for r in range(1, 2**k, 2):
        front = table[r >> 1][3]
        for a in [1, 2, 3**k - 1, 3**k, rng.getrandbits(64) + 1, rng.getrandbits(1000) + 1]:
            inside = [v for v in terras(2**k * a + r, k)[1:k] if v % 2]
            assert max((coef * a + off for coef, off in front), default=0) == max(inside, default=0)


def test_threads_that_build_the_table_at_once_each_get_it_whole():
    # the cache is shared by every thread of a process: a table is published
    # only once it is whole
    expected = _jump_table(9)
    seen = []

    def build():
        seen.append(_jump_table(9) == expected)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            _jump_table.cache_clear()
            threads = [threading.Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert seen == [True] * 80


def rows_or_error(first, last, max_steps):
    # the rows of _range_columns's blocks for the odd starts first..last, or
    # the (start, budget) of the MaxStepsExceeded it raises
    rows = []
    try:
        for block in _range_columns(trajectory_direct(first, max_steps), last, max_steps):
            rows.extend(zip(*block))
    except MaxStepsExceeded as exc:
        return exc.start, exc.max_steps
    return rows


def full_rows_or_error(first, last, max_steps):
    rows = []
    for x in range(first, last + 1, 2):
        try:
            rec = trajectory_direct(x, max_steps)
        except MaxStepsExceeded as exc:
            return exc.start, exc.max_steps
        rows.append((rec.odd_length, rec.total_divisions, rec.peak))
    return rows


@st.composite
def ranges(draw, width=400):
    # (k, first odd start, last) with the first start near 1, 2**k or
    # 2**k * 3**k, or a random 64- or 1000-bit start
    k = draw(st.sampled_from(KS))
    near = draw(st.sampled_from([1, 2**k, 2**k * 3**k]))
    first = draw(
        st.one_of(
            st.integers(min_value=max(1, near - 40), max_value=near + 40),
            st.integers(min_value=2**63, max_value=2**64),
            st.integers(min_value=2**999, max_value=2**1000),
        )
    )
    first |= 1
    wide = first.bit_length() < 100
    return k, first, first + draw(st.integers(min_value=0, max_value=width if wide else 40))


budgets = st.one_of(st.integers(min_value=1, max_value=60), st.just(10**6))


@given(walk=ranges(), max_steps=budgets, size=st.sampled_from([4, trajectory._TABLE_STARTS]))
@example(walk=(2, 3, 999), max_steps=10**6, size=4)
@example(walk=(8, 1, 41), max_steps=2, size=4)  # 3 takes exactly 2 steps, 7 more
@example(walk=(3, 201, 260), max_steps=10**6, size=trajectory._TABLE_STARTS)  # 2**3 * 3**3 = 216
@example(walk=(8, 2**8 * 3**8 - 39, 2**8 * 3**8 + 41), max_steps=60, size=trajectory._TABLE_STARTS)
@example(walk=(8, 2**999 + 3**600, 2**999 + 3**600 + 40), max_steps=10**6, size=4)
@settings(max_examples=150, deadline=None)
def test_range_rows_equal_the_per_start_records(walk, max_steps, size):
    k, first, last = walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "_JUMP_BITS", k)
        mp.setattr(trajectory, "_TABLE_STARTS", size)
        assert rows_or_error(first, last, max_steps) == full_rows_or_error(first, last, max_steps)


def count_or_error(lo, hi, max_steps, table):
    try:
        return _count_walks(range(lo, hi + 1, 2), max_steps, table)
    except MaxStepsExceeded as exc:
        return exc.start, exc.max_steps


def full_count_or_error(lo, hi, max_steps):
    rows = full_rows_or_error(lo, hi, max_steps)
    return sum(row[0] for row in rows) if isinstance(rows, list) else rows


@given(walk=ranges(), max_steps=budgets, entries=st.integers(min_value=1, max_value=200))
@example(walk=(8, 1, 3001), max_steps=10**6, entries=1)
@example(walk=(8, 3, 41), max_steps=2, entries=1)  # 3 takes exactly 2 steps, 7 more
@example(walk=(2, 2**64 + 1, 2**64 + 41), max_steps=10**6, entries=1)
@settings(max_examples=150, deadline=None)
def test_count_walks_past_the_table_equals_the_summed_odd_lengths(walk, max_steps, entries):
    # a table of the counts of the odd starts 1..2*entries - 1, as verify's
    # fill leaves it; a chunk only reads it, even one right after its last start
    k, lo, hi = walk
    lo = max(lo, 3)
    table = [trajectory_direct(2 * i + 1).odd_length if i else 0 for i in range(max(1, min(entries, (lo - 1) // 2)))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "_JUMP_BITS", k)
        assert count_or_error(lo, hi, max_steps, table) == full_count_or_error(lo, hi, max_steps)
