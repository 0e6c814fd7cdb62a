"""Permutation primitives and exhaustive counting oracles.

Permutations of [n] = {1, ..., n} are plain tuples in one-line notation:
``(4, 8, 6, 3, 2, 5, 1, 7)`` maps 1 -> 4, 2 -> 8, and so on.  Value sets
(descent-value sets, non-weak-excedance position sets) are sorted tuples
of distinct positive integers.

Each statistic is defined once, as a bitmask of one permutation
(``_descent_mask``, ``_nwexb_mask``); the public set functions and the
count tables both read their sets off that mask.  The ``brute_*``
functions run one scan for either statistic: they enumerate all n!
permutations in lexicographic order and tally the masks.  They are the
ground truth against which every closed-form counting route is checked,
so they stay deliberately simple.  A configurable cap bounds the runtime;
from ``POOL_MIN_N`` on, the scan can be spread over worker processes (at
most one per core and per block), partitioned by the first entry of the
permutation, and the merged result is identical to the sequential one.

This module also holds every input cap of the package, each refused by
:func:`check_cap` in one message format before any work.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

# Input caps.  A caller can change the first one (cap=, --brute-cap).
# Length of the permutations of a brute scan: n, or k*n for the Genocchi scan.
DEFAULT_ENUMERATION_CAP = 10
SUM_CAP = 30  # length of the alternating sum, 2^length terms
BUILD_CAP = 20  # height of a materialized tree, 2^(height+1) - 1 nodes
BOX_CAP = 20  # boxes of a shape whose fillings are searched one by one
TABLE_MAX_N = 20  # n of a full table over [2, n], 2^(n-1) entries
# n of a count, rows + width of a shape, exponent total of tree weights
# (a gap vector sums to max(S) - 1).  Within SUM_CAP, ~1.5n digits at most.
COUNT_MAX_N = 100_000
GENOCCHI_MAX_SIZE = 2000  # k*n of a Genocchi number: n^2 products of ~k*n digits
VERIFY_MAX_N = 12  # max_n of the verify suite, whose time doubles per step

# Smallest n whose brute scan is spread over worker processes: below it
# the scan costs less than starting the pool.
POOL_MIN_N = 9


def check_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    """Validate one-line notation: every value of 1..n appears exactly once."""
    p = tuple(perm)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of [{len(p)}]: {p!r}")
    return p


def as_value_set(elements: Iterable[int], *, n: int | None = None) -> tuple[int, ...]:
    """Normalize a collection of distinct positive integers to a sorted tuple.

    With ``n`` given, also require n >= 1 and every element to lie in [1, n].
    """
    if n is not None:
        if n < 1:
            raise ValueError(f"n must be positive: {n}")
        check_cap("n", n, "count", "COUNT_MAX_N", COUNT_MAX_N)
    s = tuple(sorted(elements))
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in s):
        raise ValueError(f"value sets contain positive integers only: {s!r}")
    if len(set(s)) != len(s):
        raise ValueError(f"value sets have distinct elements: {s!r}")
    if n is not None and s and s[-1] > n:
        raise ValueError(f"element {s[-1]} outside [1, {n}]")
    return s


def check_cap(what: str, value: int, kind: str, name: str, cap: int) -> None:
    """Refuse ``value`` above ``cap``, in the one message format of every
    cap.  ``name`` is the cap's constant here, or, for a cap the caller
    set with the ``cap`` keyword, the flag that sets it, in parentheses."""
    if value > cap:
        raise ValueError(f"{what} = {value} exceeds the {kind} cap {name} = {cap}")


def check_workers(workers: int) -> None:
    """Refuse a worker count below 1."""
    if workers < 1:
        raise ValueError(f"workers (--threads) must be at least 1: {workers}")


def iter_value_sets(n: int) -> Iterator[tuple[int, ...]]:
    """All subsets of [2, n] as sorted tuples, by size then lexicographically.

    >>> list(iter_value_sets(3))
    [(), (2,), (3,), (2, 3)]
    """
    values = range(2, n + 1)
    for size in range(len(values) + 1):
        yield from itertools.combinations(values, size)


def _members(mask: int) -> tuple[int, ...]:
    """The set whose elements are the set bits of ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _descent_mask(perm: tuple[int, ...]) -> int:
    mask = 0
    for a, b in itertools.pairwise(perm):
        if a > b:
            mask |= 1 << a
    return mask


def circular_descent_set(perm: Sequence[int]) -> tuple[int, ...]:
    """Values sigma(i) with sigma(i) > sigma(i+1), as a sorted tuple.

    The reading is linear: the last entry is never compared with the
    first, so the value 1 can never appear.

    >>> circular_descent_set((4, 8, 6, 3, 2, 5, 1, 7))
    (3, 5, 6, 8)
    >>> circular_descent_set((1, 2, 3))
    ()
    >>> circular_descent_set((2, 1))
    (2,)
    """
    return _members(_descent_mask(check_permutation(perm)))


def _nwexb_mask(perm: tuple[int, ...]) -> int:
    mask = 0
    for i, v in enumerate(perm, start=1):
        if v < i:
            mask |= 1 << i
    return mask


def nwexb_set(perm: Sequence[int]) -> tuple[int, ...]:
    """Positions i with sigma(i) < i (non-weak-excedance bottoms).

    >>> nwexb_set((1, 2, 3))
    ()
    >>> nwexb_set((3, 1, 2))
    (2, 3)
    """
    return _members(_nwexb_mask(check_permutation(perm)))


def reduction(seq: Sequence[int]) -> tuple[int, ...]:
    """Replace each entry of a distinct-entry sequence by its rank.

    >>> reduction((8, 6, 5))
    (3, 2, 1)
    >>> reduction((4, 8, 3, 7))
    (2, 4, 1, 3)
    """
    s = tuple(seq)
    if len(set(s)) != len(s):
        raise ValueError(f"entries must be distinct: {s!r}")
    rank = {v: r for r, v in enumerate(sorted(s), start=1)}
    return tuple(rank[v] for v in s)


Stat = Callable[[tuple[int, ...]], int]


def _count_block(stat: Stat, n: int, first: int | None) -> Counter[int]:
    # Tally stat over S_n, or with first given over the permutations
    # starting with it (the unit of work for parallel counting).
    if first is None:
        block = itertools.permutations(range(1, n + 1))
    else:
        rest = [v for v in range(1, n + 1) if v != first]
        block = ((first, *tail) for tail in itertools.permutations(rest))
    return Counter(map(stat, block))


def _brute_table(stat: Stat, n: int, workers: int) -> dict[tuple[int, ...], int]:
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    check_workers(workers)
    # Only n blocks exist, and more workers than cores only add overhead.
    workers = min(workers, n, os.cpu_count() or 1) if n >= POOL_MIN_N else 1
    if workers > 1:
        # Imported here so that importing the package skips multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        totals: Counter[int] = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            block = functools.partial(_count_block, stat)
            for part in pool.map(block, itertools.repeat(n), range(1, n + 1)):
                totals.update(part)
    else:
        totals = _count_block(stat, n, None)
    return {_members(mask): totals[mask] for mask in sorted(totals)}


def brute_cdes_table(
    n: int, *, cap: int = DEFAULT_ENUMERATION_CAP, workers: int = 1
) -> dict[tuple[int, ...], int]:
    """Count permutations of [n] by descent-value set, one full scan.

    Unattained sets are absent from the result; the values sum to n!.
    ``workers`` is an upper bound: n below ``POOL_MIN_N`` is scanned in
    process.

    >>> brute_cdes_table(3)
    {(): 1, (2,): 1, (3,): 3, (2, 3): 1}
    """
    check_cap("n", n, "enumeration", "(--brute-cap)", cap)
    return _brute_table(_descent_mask, n, workers)


def brute_cdes_count(
    n: int,
    s: Iterable[int],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    workers: int = 1,
) -> int:
    """Number of permutations of [n] whose descent-value set is exactly S."""
    target = as_value_set(s, n=n)
    return brute_cdes_table(n, cap=cap, workers=workers).get(target, 0)


def brute_nwexb_table(n: int, *, workers: int = 1) -> dict[tuple[int, ...], int]:
    """Count permutations of [n] by non-weak-excedance position set."""
    check_cap("n", n, "enumeration", "DEFAULT_ENUMERATION_CAP", DEFAULT_ENUMERATION_CAP)
    return _brute_table(_nwexb_mask, n, workers)


def brute_nwexb_count(n: int, s: Iterable[int], *, workers: int = 1) -> int:
    """Number of permutations of [n] with NWEXB set exactly S.

    >>> brute_nwexb_count(3, {1})
    0
    """
    target = as_value_set(s, n=n)
    return brute_nwexb_table(n, workers=workers).get(target, 0)
