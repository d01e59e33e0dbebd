"""Exact odd-to-odd Collatz arithmetic.

Everything in this package works on odd integers only: one step maps an
odd x to the odd y with 3*x + 1 == y * 2**alpha.  Odd integers split into
three classes mod 6: the odd multiples of 3 ("starters", which no step
ever lands on), and the 6m+1 / 6m+5 intermediaries, which are the only
possible step images.  Terminal integers are those whose single step
lands directly on 1.

All functions are pure, exact at arbitrary precision, and thread-safe.

The direct range-walk kernels (analysis._count_walks for verify,
trajectory._range_columns for --stats) and a streamed line's count pass
(trajectory._checkpoints) walk by blocks of k = _JUMP_BITS Terras steps,
T(n) = n/2 for even n and (3n+1)/2 for odd n.  For odd r < 2**k, entry
r >> 1 of the jump table (_jump_table) holds c (the odd steps among the
first k of r), 3**c, T^k(r) and a front: the pairs (3**c_i * 2**(k-i),
T^i(r)) for the 0 < i < k with T^i(r) odd, c_i the odd steps among the
first i, keeping only the pairs that no other pair beats in both
coordinates.  An odd iterate cur < 2**k takes one step; one at least
2**k, with a = cur >> k and r its low k bits, takes a block: t = 3**c * a
+ T^k(r), the next iterate is t >> z for z the trailing zero bits of t,
odd_length grows by c, total_divisions by k + z, and peak takes the
largest of coef * a + off over the front and the next iterate.  This
holds because:

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
"""

from __future__ import annotations

import enum
from functools import cache
from typing import NamedTuple

DEFAULT_MAX_STEPS = 10**6


class DomainError(ValueError):
    """Input outside an operation's domain (even, zero, wrong residue, ...)."""


class MaxStepsExceeded(RuntimeError):
    """A step budget ran out before the walk finished."""

    def __init__(self, start: int, max_steps: int):
        super().__init__(f"budget of {max_steps} steps exhausted starting from {start}")
        self.start = start
        self.max_steps = max_steps

    def __reduce__(self):
        # an exception pickles its args (here the message); rebuild from the
        # fields instead, so the error survives the trip out of a scan helper
        return type(self), (self.start, self.max_steps)


def _require_odd(x: int, name: str = "x") -> None:
    if not isinstance(x, int) or isinstance(x, bool):
        raise DomainError(f"{name} must be an integer, got {type(x).__name__}")
    if x < 1:
        raise DomainError(f"{name} must be >= 1, got {x}")
    if x % 2 == 0:
        raise DomainError(f"{name} must be odd, got {x}")


def _require_count(k: int, minimum: int, name: str) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise DomainError(f"{name} must be an integer, got {type(k).__name__}")
    if k < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {k}")


class SyracuseResult(NamedTuple):
    iterate: int
    alpha: int


def _raw_step(x: int) -> tuple[int, int]:
    # the step for single-step callers; callers guarantee x is odd.  Hot
    # loops inline the same arithmetic on purpose, to save a call per
    # iterate: trajectory's _direct_blocks and _write_range, and the
    # range-walk kernels (analysis._count_walks, trajectory._range_columns)
    # for iterates below 2**_JUMP_BITS (larger ones jump a block of Terras
    # steps), as does a streamed line's count pass (trajectory._checkpoints),
    # and where a jump would pass a block edge.
    # verify's fill steps none of its x == 1 (mod 4) starts: it reads
    # them off its table by alpha class (analysis._fill_table)
    t = 3 * x + 1
    alpha = (t & -t).bit_length() - 1
    return t >> alpha, alpha


def syracuse_step(x: int) -> SyracuseResult:
    """Map odd x to the unique odd y with 3*x + 1 == y * 2**alpha."""
    _require_odd(x)
    iterate, alpha = _raw_step(x)
    return SyracuseResult(iterate, alpha)


def alpha_of(x: int) -> int:
    """Exact power of 2 dividing 3*x + 1."""
    _require_odd(x)
    return _raw_step(x)[1]


class Kind(enum.Enum):
    """Residue class of an odd integer mod 6."""

    STARTER = "starter"
    INTERMEDIARY_6M1 = "intermediary-6m+1"
    INTERMEDIARY_6M5 = "intermediary-6m+5"


class Classification(NamedTuple):
    kind: Kind
    is_terminal: bool
    is_end: bool


def classify(x: int) -> Classification:
    """Classify odd x by residue mod 6, with terminal and end flags."""
    _require_odd(x)
    r = x % 6
    if r == 3:
        kind = Kind.STARTER
    elif r == 1:
        kind = Kind.INTERMEDIARY_6M1
    else:
        kind = Kind.INTERMEDIARY_6M5
    return Classification(kind=kind, is_terminal=is_terminal(x), is_end=x == 1)


def is_terminal(x: int) -> bool:
    """True iff the single step from x lands on 1, i.e. 3*x + 1 is a power of 4."""
    _require_odd(x)
    t = 3 * x + 1
    # power of 4 == power of 2 with an odd bit length
    return t & (t - 1) == 0 and t.bit_length() % 2 == 1


def terminal(k: int) -> int:
    """k-th integer stepping directly to 1: 1, 5, 21, 85, 341, ... (k >= 0)."""
    _require_count(k, 0, "k")
    return (4 ** (k + 1) - 1) // 3


def pre_terminal(k: int) -> int:
    """k-th integer stepping directly to 5: 3, 13, 53, 213, ... (k >= 1)."""
    _require_count(k, 1, "k")
    return (10 * 4 ** (k - 1) - 1) // 3


def _least_predecessor(y: int) -> int:
    # least odd x stepping onto odd y, a non-multiple of 3: the smallest
    # n >= 1 with 2**n * y == 1 (mod 3) is 1 for y == 2 and 2 for y == 1 (mod 3)
    return (2 * y - 1) // 3 if y % 3 == 2 else (4 * y - 1) // 3


def reverse_to_starter(y: int, max_steps: int = DEFAULT_MAX_STEPS) -> list[int]:
    """Walk upward from y along least predecessors until an odd multiple of 3.

    Each element of the returned chain steps (under syracuse_step) onto the
    element before it, with the chain's first element stepping onto y; the
    walk stops at the first odd multiple of 3, which ends the chain.  Each
    upward move takes the smallest n >= 1 with 2**n * x - 1 divisible by 3.

    y == 1 is rejected: the upward walk from 1 is the terminal chain
    5, 21, 85, ... and never meets a multiple of 3; use terminal() and
    pre_terminal() for those families instead.
    """
    _require_odd(y, "y")
    if y == 1:
        raise DomainError("reverse walk from 1 is the unbounded terminal chain; use terminal()")
    if y % 3 == 0:
        raise DomainError(f"{y} is an odd multiple of 3 and is never a step image")
    _require_count(max_steps, 1, "max_steps")
    chain: list[int] = []
    x = y
    for _ in range(max_steps):
        x = _least_predecessor(x)
        chain.append(x)
        if x % 3 == 0:
            return chain
    raise MaxStepsExceeded(y, max_steps)


def alpha_residue_class(alpha: int) -> tuple[int, int]:
    """The unique odd residue class (r, 2**(alpha+1)) whose members have this alpha."""
    _require_count(alpha, 1, "alpha")
    modulus = 2 ** (alpha + 1)
    residue = ((2**alpha - 1) * pow(3, -1, modulus)) % modulus
    return residue, modulus


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
