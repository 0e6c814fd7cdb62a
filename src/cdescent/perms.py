"""Permutation primitives and exhaustive counting oracles.

Permutations of [n] = {1, ..., n} are plain tuples in one-line notation:
``(4, 8, 6, 3, 2, 5, 1, 7)`` maps 1 -> 4, 2 -> 8, and so on.  Value sets
(descent-value sets, non-weak-excedance position sets) are sorted tuples
of distinct positive integers.

The ``brute_*`` functions enumerate all n! permutations in lexicographic
order and count by direct inspection of the definitions.  They are the
ground truth against which every closed-form counting route is checked,
so they stay deliberately simple.  A configurable cap bounds the runtime;
the scan can be spread over worker processes, partitioned by the first
entry of the permutation, and the merged result is identical to the
sequential one.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

DEFAULT_ENUMERATION_CAP = 10


def check_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    """Validate one-line notation: every value of 1..n appears exactly once."""
    p = tuple(perm)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of [{len(p)}]: {p!r}")
    return p


def as_value_set(elements: Iterable[int], *, n: int | None = None) -> tuple[int, ...]:
    """Normalize a collection of distinct positive integers to a sorted tuple.

    With ``n`` given, also require every element to lie in [1, n].
    """
    s = tuple(sorted(elements))
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 1 for v in s):
        raise ValueError(f"value sets contain positive integers only: {s!r}")
    if len(set(s)) != len(s):
        raise ValueError(f"value sets have distinct elements: {s!r}")
    if n is not None and s and s[-1] > n:
        raise ValueError(f"element {s[-1]} outside [1, {n}]")
    return s


def iter_value_sets(n: int) -> Iterator[tuple[int, ...]]:
    """All subsets of [2, n] as sorted tuples, by size then lexicographically.

    >>> list(iter_value_sets(3))
    [(), (2,), (3,), (2, 3)]
    """
    values = range(2, n + 1)
    for size in range(len(values) + 1):
        yield from itertools.combinations(values, size)


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
    p = check_permutation(perm)
    return tuple(sorted(a for a, b in itertools.pairwise(p) if a > b))


def nwexb_set(perm: Sequence[int]) -> tuple[int, ...]:
    """Positions i with sigma(i) < i (non-weak-excedance bottoms).

    >>> nwexb_set((1, 2, 3))
    ()
    >>> nwexb_set((3, 1, 2))
    (2, 3)
    """
    p = check_permutation(perm)
    return tuple(i for i, v in enumerate(p, start=1) if v < i)


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


def _check_enumerable(n: int, cap: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    if n > cap:
        raise ValueError(f"n = {n} exceeds the enumeration cap {cap}")


def _descent_mask(perm: tuple[int, ...]) -> int:
    mask = 0
    for a, b in itertools.pairwise(perm):
        if a > b:
            mask |= 1 << a
    return mask


def _nwexb_mask(perm: tuple[int, ...]) -> int:
    mask = 0
    for i, v in enumerate(perm, start=1):
        if v < i:
            mask |= 1 << i
    return mask


def _iter_block(n: int, first: int | None) -> Iterator[tuple[int, ...]]:
    # first=None scans all of S_n; otherwise only permutations starting
    # with `first` (the unit of work for parallel counting).
    if first is None:
        return itertools.permutations(range(1, n + 1))
    rest = [v for v in range(1, n + 1) if v != first]
    return ((first, *tail) for tail in itertools.permutations(rest))


def _cdes_block(n: int, first: int | None) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in _iter_block(n, first):
        m = _descent_mask(p)
        counts[m] = counts.get(m, 0) + 1
    return counts


def _nwexb_block(n: int, first: int | None) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in _iter_block(n, first):
        m = _nwexb_mask(p)
        counts[m] = counts.get(m, 0) + 1
    return counts


def _gather_table(block, n: int, workers: int) -> dict[tuple[int, ...], int]:
    if workers > 1 and n > 1:
        # Imported here so that importing the package skips multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        totals: dict[int, int] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(block, itertools.repeat(n), range(1, n + 1)):
                for mask, c in part.items():
                    totals[mask] = totals.get(mask, 0) + c
    else:
        totals = block(n, None)
    table = {}
    for mask in sorted(totals):
        key = tuple(i for i in range(2, n + 1) if mask >> i & 1)
        table[key] = totals[mask]
    return table


def brute_cdes_table(
    n: int, *, cap: int = DEFAULT_ENUMERATION_CAP, workers: int = 1
) -> dict[tuple[int, ...], int]:
    """Count permutations of [n] by descent-value set, one full scan.

    Unattained sets are absent from the result; the values sum to n!.

    >>> brute_cdes_table(3)
    {(): 1, (2,): 1, (3,): 3, (2, 3): 1}
    """
    _check_enumerable(n, cap)
    return _gather_table(_cdes_block, n, workers)


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


def brute_nwexb_table(
    n: int, *, cap: int = DEFAULT_ENUMERATION_CAP, workers: int = 1
) -> dict[tuple[int, ...], int]:
    """Count permutations of [n] by non-weak-excedance position set."""
    _check_enumerable(n, cap)
    return _gather_table(_nwexb_block, n, workers)


def brute_nwexb_count(
    n: int,
    s: Iterable[int],
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
    workers: int = 1,
) -> int:
    """Number of permutations of [n] with NWEXB set exactly S.

    >>> brute_nwexb_count(3, {1})
    0
    """
    target = as_value_set(s, n=n)
    return brute_nwexb_table(n, cap=cap, workers=workers).get(target, 0)
