"""Recursive counting routes.

Two independent recursions reproduce the closed-form counts:

* the minimum-element recursion, which splits the permutations with
  descent-value set S by the relative placement of min(S) and min(S) - 1
  and is driven top-down with memoization, each set held as one int
  bitmask (element v at bit v) and each child resolved in its parent's
  frame when it is a base case or already cached, so that a call is made
  only for a state still to be computed;
* the insertion recursion, which extends a full count table for [2, n-1]
  to one for [2, n] by inserting the new largest value n into shorter
  permutations, and is driven bottom-up, the whole table held as 64-bit
  fields of one int and each step taken in whole-int shifts, adds and
  masks.

Neither route shares code with the alternating-sum evaluation, so
agreement between the three is a meaningful cross-check.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable

from .perms import TABLE_MAX_N, _subsets, as_value_mask, check_cap, check_int

# Minimum-element recursion cache: bitmask of S (element v at bit v) -> count.
Cache = dict[int, int]

# Width of one count in the insertion table's packed int: a native
# unsigned 64-bit word, which holds every count up to TABLE_MAX_N!.
_FIELD_BITS = 64


def cdes_recursive(n: int, s: Iterable[int], cache: Cache | None = None) -> int:
    """Count permutations of [n] with descent-value set S by the
    minimum-element recursion

        count(S) = count(S with min replaced by min-1)
                 + count(delta(S))
                 + count(delta(S) without its minimum)

    where delta(S) shifts every element of S down by one, with base
    cases: 1 in S -> 0, empty S -> 1, singleton {m} -> 2^(m-1)-1.  Every
    subproblem is independent of n (only max(S) matters), so cache
    keys are the sets themselves, each as one int with element v at bit v
    (the convention of ``perms._descent_bit``; ``perms._members`` decodes
    a key).  S is checked straight into that int by ``perms.as_value_mask``,
    without a sort, so a call whose set is cached costs the check and one
    lookup.  Every step is then a few shifts and xors of that int: with
    ``low`` the lowest set bit, the three branches are
    ``mask ^ low ^ (low >> 1)``, ``mask >> 1`` and
    ``(mask >> 1) ^ (low >> 1)``, each O(max(S)) bit operations.  When
    min(S) = 2 the first two branches vanish and a single-step shortcut is
    taken.  A set missing from the cache is computed by ``_fill``, which
    resolves each child in its own frame: a singleton (the first two
    branches keep |S|, so only the last child can be one) by its base
    case, a cached set by one lookup, and only a composite set still
    missing by a call.  So each frame computes one state, each state is
    computed and cached once, and the cache ends up holding exactly the
    composite sets visited.  The recursion depth grows with the elements
    of S; a set that needs more than the interpreter's recursion limit
    raises ``ValueError``: from the top of a fresh interpreter, S = [33, 64]
    fits and [41, 80] does not.

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
    mask = as_value_mask(s, n=n)
    if mask & (mask - 1) == 0:
        # The empty set, or the singleton {m} at bit m: 2^(m-1) - 1.
        return (1 << (mask.bit_length() - 2)) - 1 if mask else 1
    if mask & 2:
        return 0
    if cache is None:
        cache = {}
    value = cache.get(mask)
    if value is not None:
        return value
    try:
        return _fill(mask, cache)
    except RecursionError:
        raise ValueError(
            f"the recursion for max(S) = {mask.bit_length() - 1} exceeds the "
            f"interpreter's depth limit {sys.getrecursionlimit()}"
        ) from None


def _fill(mask: int, cache: Cache) -> int:
    # The count of a composite set without 1 that is missing from the
    # cache, its children resolved in this frame.  The first two children
    # keep the size of S, so only the last can be a singleton, and no
    # child is empty or holds 1.
    low = mask & -mask
    if low == 4:
        # Only the third branch survives: the 2 forces its companion 1
        # immediately to its right, and deleting the pair reduces n by one.
        child = (mask ^ 4) >> 1
        if child & (child - 1) == 0:
            value = (1 << (child.bit_length() - 2)) - 1
        else:
            value = cache.get(child)
            if value is None:
                value = _fill(child, cache)
    else:
        below = low >> 1  # the bit of min(S) - 1
        shifted = mask >> 1
        child = mask ^ low ^ below
        value = cache.get(child)
        if value is None:
            value = _fill(child, cache)
        part = cache.get(shifted)
        if part is None:
            part = _fill(shifted, cache)
        value += part
        child = shifted ^ below
        if child & (child - 1) == 0:
            value += (1 << (child.bit_length() - 2)) - 1
        else:
            part = cache.get(child)
            if part is None:
                part = _fill(child, cache)
            value += part
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
    existing non-descent value i.  As m - 1 - |S| is one more than the
    number of i in [2, m-1] outside S, the same step regrouped reads

        count_m(S + {m}) = c(S) + sum over i in [2, m-1] outside S
                                  of (c(S) + c(S + {i}))

    with c = count_{m-1}.

    The counts live in one int, as 64-bit fields indexed by bitmask
    (element v at bit v - 2, field k at bits 64k to 64k + 63), so that
    the step for m is m - 2 whole-int passes, one per i: shifting the
    int down by the fields of bit j = i - 2 puts c(S + {i}) in the field
    of S, and a mask keeps the fields of the sets without i.  The grown
    fields go above the old ones, as the masks with bit m - 2 set.  Every
    field holds less than m! <= 20! < 2^63, so no field ever carries into
    the next.  The fields are read once at the end and paired with the
    sorted-tuple keys of ``perms._subsets``, listed in the same order: the
    table is ordered by ascending bitmask.  n above ``perms.TABLE_MAX_N``
    is refused before anything is allocated.

    >>> cdes_insertion_table(3)
    {(): 1, (2,): 1, (3,): 3, (2, 3): 1}
    """
    check_int("n", n, 1)
    check_cap("n", n, "table", "TABLE_MAX_N", TABLE_MAX_N)
    counts = _insertion_counts(n)
    return dict(zip(_subsets(range(2, n + 1)), counts))


def _insertion_counts(n: int) -> memoryview:
    # The counts of cdes_insertion_table(n) by ascending bitmask, as a view
    # of native 64-bit fields: each becomes an int only as the table's dict
    # takes it, so no list of them stands beside the dict while it grows.
    # Every packed int is freed on return, before the dict is built.
    packed = 1  # the table of n = 1: the empty set, once
    for m in range(2, n + 1):
        size = _FIELD_BITS << (m - 2)  # the bits of the fields of [2, m-1]
        grown = packed
        for j in range(m - 2):
            shift = _FIELD_BITS << j
            # All ones in the fields whose index lacks bit j: a run of
            # 2^j fields, repeated every 2^(j+1) fields.
            lanes = (1 << shift) - 1
            period = shift << 1
            while period < size:
                lanes |= lanes << period
                period <<= 1
            grown += (packed + (packed >> shift)) & lanes
        packed |= grown << size
    fields = memoryview(packed.to_bytes(_FIELD_BITS // 8 << (n - 1), sys.byteorder)).cast("Q")
    # Big-endian bytes put the int's high fields first.
    return fields if sys.byteorder == "little" else fields[::-1]
