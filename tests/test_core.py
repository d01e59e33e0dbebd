import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzkit import (
    Classification,
    DomainError,
    Kind,
    MaxStepsExceeded,
    alpha_of,
    alpha_residue_class,
    classify,
    is_terminal,
    pre_terminal,
    reverse_to_starter,
    syracuse_step,
    terminal,
)

odd_ints = st.integers(min_value=0, max_value=2**256).map(lambda n: 2 * n + 1)


def brute_alpha(x):
    # independent oracle: count divisions by 2 one at a time
    t = 3 * x + 1
    a = 0
    while t % 2 == 0:
        t //= 2
        a += 1
    return a


@pytest.mark.parametrize(
    "x,iterate,alpha",
    [(27, 41, 1), (1, 1, 2), (9, 7, 2), (53, 5, 5)],
)
def test_syracuse_step_examples(x, iterate, alpha):
    assert syracuse_step(x) == (iterate, alpha)


@pytest.mark.parametrize("bad", [0, -3, 4, 10**12, 2.0, "27", None])
def test_syracuse_step_rejects_bad_input(bad):
    with pytest.raises(DomainError):
        syracuse_step(bad)


@pytest.mark.parametrize("x,alpha", [(3, 1), (9, 2), (13, 3)])
def test_alpha_of_examples(x, alpha):
    assert alpha_of(x) == alpha


def test_alpha_of_matches_division_count():
    for x in range(1, 4001, 2):
        assert alpha_of(x) == brute_alpha(x)


def test_classify_examples():
    assert classify(9) == Classification(Kind.STARTER, is_terminal=False, is_end=False)
    assert classify(7).kind is Kind.INTERMEDIARY_6M1
    assert classify(13).kind is Kind.INTERMEDIARY_6M1
    assert classify(11).kind is Kind.INTERMEDIARY_6M5
    assert classify(17).kind is Kind.INTERMEDIARY_6M5
    assert classify(21) == Classification(Kind.STARTER, is_terminal=True, is_end=False)
    assert classify(1) == Classification(Kind.INTERMEDIARY_6M1, is_terminal=True, is_end=True)


def test_classify_rejects_even():
    with pytest.raises(DomainError):
        classify(4)


def test_is_terminal_examples():
    assert is_terminal(85)
    assert is_terminal(1)
    assert not is_terminal(7)


def test_is_terminal_matches_one_step_oracle():
    # terminal means the single step lands on 1
    for x in range(1, 100001, 2):
        assert is_terminal(x) == (syracuse_step(x).iterate == 1), x


@pytest.mark.parametrize(
    "k,value", [(0, 1), (1, 5), (2, 21), (3, 85), (4, 341), (5, 1365), (9, 349525), (10, 1398101)]
)
def test_terminal_values(k, value):
    assert terminal(k) == value


def test_terminal_closed_form_matches_recurrence():
    prev = terminal(0)
    assert prev == 1
    for k in range(1, 51):
        cur = terminal(k)
        assert cur == 4 * prev + 1
        assert 3 * cur + 1 == 4 ** (k + 1)
        prev = cur


@pytest.mark.parametrize("k,value", [(1, 3), (2, 13), (3, 53), (4, 213), (6, 3413), (8, 54613)])
def test_pre_terminal_values(k, value):
    assert pre_terminal(k) == value


def test_pre_terminal_recurrence_and_image():
    prev = pre_terminal(1)
    for k in range(2, 41):
        cur = pre_terminal(k)
        assert cur == 4 * prev + 1
        prev = cur
    for k in range(1, 41):
        assert syracuse_step(pre_terminal(k)).iterate == 5


def test_generator_domain_errors():
    with pytest.raises(DomainError):
        terminal(-1)
    with pytest.raises(DomainError):
        pre_terminal(0)


def test_reverse_to_starter_examples():
    assert reverse_to_starter(85) == [113, 75]
    assert reverse_to_starter(5) == [3]
    assert reverse_to_starter(7) == [9]


def test_reverse_to_starter_longer_chains():
    # upward walks whose endpoints are known odd multiples of 3
    assert reverse_to_starter(341) == [227, 151, 201]
    assert reverse_to_starter(349525) == [466033, 621377, 414251, 276167, 184111, 245481]
    assert reverse_to_starter(5461) == [7281]
    assert reverse_to_starter(21845)[-1] == 17259
    assert reverse_to_starter(1398101) == [932067]


def test_reverse_to_starter_chain_property():
    # each element steps onto the previous one, via the smallest usable n
    for y in range(5, 2001, 2):
        if y % 3 == 0:
            continue
        chain = reverse_to_starter(y)
        assert chain[-1] % 3 == 0
        assert all(v % 3 != 0 for v in chain[:-1])
        below = y
        for v in chain:
            assert syracuse_step(v).iterate == below
            n = 1
            while (2**n * below - 1) % 3 != 0:
                n += 1
            assert v == (2**n * below - 1) // 3
            below = v


def test_reverse_to_starter_rejections():
    with pytest.raises(DomainError):
        reverse_to_starter(9)  # odd multiple of 3
    with pytest.raises(DomainError):
        reverse_to_starter(1)
    with pytest.raises(DomainError):
        reverse_to_starter(8)


def test_reverse_to_starter_budget():
    # 13's walk needs four upward moves; a budget of 2 must fail loudly
    with pytest.raises(MaxStepsExceeded) as exc:
        reverse_to_starter(13, max_steps=2)
    assert exc.value.start == 13
    assert exc.value.max_steps == 2
    assert reverse_to_starter(13, max_steps=4) == [17, 11, 7, 9]


def test_max_steps_exceeded_pickles():
    # a pool worker sends the error back pickled; it must keep its fields
    exc = MaxStepsExceeded(2**70 + 1, 5)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is MaxStepsExceeded
    assert (copy.start, copy.max_steps, str(copy)) == (exc.start, exc.max_steps, str(exc))


def test_reconstruction_and_no_multiple_of_three_iterates():
    # 3x+1 == iterate * 2**alpha exactly, and no iterate is divisible by 3
    for x in range(1, 1_000_001, 2):
        y, a = syracuse_step(x)
        assert y * 2**a == 3 * x + 1
        assert y % 3 != 0


def test_shift_by_four_x_plus_one_keeps_iterate():
    # 4x+1 produces the same iterate with alpha incremented by 2
    for x in range(1, 100_001, 2):
        y, a = syracuse_step(x)
        y2, a2 = syracuse_step(4 * x + 1)
        assert y2 == y
        assert a2 == a + 2


@pytest.mark.parametrize("alpha", range(1, 13))
def test_alpha_residue_law(alpha, block_starts=(1, 4097, 999_001)):
    # within a block of 2**(alpha+1) consecutive odds, the hits all share
    # one residue class mod 2**(alpha+1) and have the expected density
    residue, modulus = alpha_residue_class(alpha)
    assert residue % 2 == 1
    assert alpha_of(residue) == alpha
    block = 2 ** (alpha + 1)
    for start in block_starts:
        hits = [x for x in range(start, start + 2 * block, 2) if brute_alpha(x) == alpha]
        assert len(hits) == 2  # density 2**-alpha among 2**(alpha+1) odds
        assert {x % modulus for x in hits} == {residue}


@given(x=odd_ints)
@settings(max_examples=200)
def test_reconstruction_identity_random(x):
    y, a = syracuse_step(x)
    assert y % 2 == 1
    assert y * 2**a == 3 * x + 1
    assert y % 3 != 0


@given(x=odd_ints)
@settings(max_examples=100)
def test_classify_partitions_random(x):
    kinds = {
        Kind.STARTER: x % 6 == 3,
        Kind.INTERMEDIARY_6M1: x % 6 == 1,
        Kind.INTERMEDIARY_6M5: x % 6 == 5,
    }
    assert kinds[classify(x).kind]
