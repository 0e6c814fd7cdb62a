"""Recursive counting routes.

Two independent recursions reproduce the closed-form counts:

* the minimum-element recursion, which splits the permutations with
  descent-value set S by the relative placement of min(S) and min(S) - 1
  and is driven top-down with memoization, each set held as one int
  bitmask (element v at bit v);
* the insertion recursion, which extends a full count table for [2, n-1]
  to one for [2, n] by inserting the new largest value n into shorter
  permutations, and is driven bottom-up.

Neither route shares code with the alternating-sum evaluation, so
agreement between the three is a meaningful cross-check.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from .perms import TABLE_MAX_N, as_value_set, check_cap

# Minimum-element recursion cache: bitmask of S (element v at bit v) -> count.
Cache = dict[int, int]


def delta(s: Iterable[int]) -> tuple[int, ...]:
    """Shift every element of S down by one.

    >>> delta((2, 4))
    (1, 3)
    >>> delta(())
    ()
    """
    s = as_value_set(s)
    if s and s[0] == 1:
        raise ValueError("cannot shift a set containing 1")
    return tuple(v - 1 for v in s)


def cdes_recursive(n: int, s: Iterable[int], cache: Cache | None = None) -> int:
    """Count permutations of [n] with descent-value set S by the
    minimum-element recursion

        count(S) = count(S with min replaced by min-1)
                 + count(delta(S))
                 + count(delta(S) without its minimum)

    with base cases: 1 in S -> 0, empty S -> 1, singleton {m} -> 2^(m-1)-1.
    Every subproblem is independent of n (only max(S) matters), so cache
    keys are the sets themselves, each as one int with element v at bit v
    (the convention of ``perms._descent_bit``; ``perms._members`` decodes
    a key).  Every step is then a few shifts and xors of that int: with
    ``low`` the lowest set bit, the three branches are
    ``mask ^ low ^ (low >> 1)``, ``mask >> 1`` and
    ``(mask >> 1) ^ (low >> 1)``, each O(max(S)) bit operations.  When
    min(S) = 2 the first two branches vanish and a single-step shortcut is
    taken.  The recursion depth grows with the elements of S; a set that
    needs more than the interpreter's recursion limit raises
    ``ValueError``.

    A cache may be shared across calls and across threads: it only ever
    grows, and a key is published only once its value is complete, always
    with the same value.

    >>> cdes_recursive(3, {3})
    3
    >>> cdes_recursive(4, {3, 4})
    7
    >>> cdes_recursive(9, {2})
    1
    """
    s = as_value_set(s, n=n)
    if cache is None:
        cache = {}
    mask = 0
    for v in s:
        mask |= 1 << v
    try:
        return _count(mask, cache)
    except RecursionError:
        raise ValueError(
            f"the recursion for max(S) = {s[-1]} exceeds the interpreter's "
            f"depth limit {sys.getrecursionlimit()}"
        ) from None


def _count(mask: int, cache: Cache) -> int:
    if mask & (mask - 1) == 0:
        # The empty set, or the singleton {m} at bit m: 2^(m-1) - 1.
        return (1 << (mask.bit_length() - 2)) - 1 if mask else 1
    if mask & 2:
        return 0
    value = cache.get(mask)
    if value is not None:
        return value
    low = mask & -mask
    if low == 4:
        # Only the third branch survives: the 2 forces its companion 1
        # immediately to its right, and deleting the pair reduces n by one.
        value = _count((mask ^ 4) >> 1, cache)
    else:
        below = low >> 1  # the bit of min(S) - 1
        shifted = mask >> 1
        value = _count(mask ^ low ^ below, cache) + _count(shifted, cache) + _count(shifted ^ below, cache)
    cache[mask] = value
    return value


def cdes_insertion_table(n: int) -> dict[tuple[int, ...], int]:
    """Full descent-value count table for subsets of [2, n], built bottom-up.

    Growing from m-1 to m, sets not containing m keep their count, and

        count_m(S + {m}) = (m - 1 - |S|) * count_{m-1}(S)
                           + sum over i in [2, m-1] outside S
                             of count_{m-1}(S + {i})

    since inserting m into a shorter permutation either creates exactly the
    new descent value m (m - 1 - |S| slots do) or additionally swallows one
    existing non-descent value i.

    The counts live in a list indexed by bitmask, element v at bit v - 2,
    so S + {i} is ``mask | bit`` and the step for m appends the entries of
    the masks with bit m - 2 set.  The sorted-tuple keys grow alongside,
    in the same order, and are paired with the counts once at the end: the
    table is ordered by ascending bitmask.  n above ``perms.TABLE_MAX_N``
    is refused before anything is allocated.

    >>> cdes_insertion_table(3)
    {(): 1, (2,): 1, (3,): 3, (2, 3): 1}
    """
    if n < 2:
        raise ValueError(f"insertion table starts at n = 2: {n}")
    check_cap("n", n, "table", "TABLE_MAX_N", TABLE_MAX_N)
    keys: list[tuple[int, ...]] = [(), (2,)]
    counts = [1, 1]
    for m in range(3, n + 1):
        below = len(counts) - 1  # the bits of [2, m-1]
        grown = []
        for mask, count in enumerate(counts):
            total = (m - 1 - mask.bit_count()) * count
            free = below ^ mask
            while free:
                bit = free & -free
                total += counts[mask | bit]
                free ^= bit
            grown.append(total)
        counts += grown
        keys += [(*s, m) for s in keys]
    return dict(zip(keys, counts))
