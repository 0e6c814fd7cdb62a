"""Recursive counting routes.

Two independent recursions reproduce the closed-form counts:

* the minimum-element recursion, which splits the permutations with
  descent-value set S by the relative placement of min(S) and min(S) - 1,
  its branch that lowers min(S) summed in closed form, so that each
  child drops min(S) and shifts the rest down; for {a, m} it sums the
  singletons' 2^(m-j-1) - 1 by C(a-1, j), which the binomial theorem
  for (2 + 1)^(a-1) closes to 2^(m-a) (3^(a-1) - 2^(a-1)) - 2^(a-1) + 1.
  It is driven top-down with memoization, |S| - 1 frames deep, each set
  held as one int bitmask (element v at bit v), a call made only for a
  child still to be computed, and its work bounded by
  ``contract.RECURSION_CAP`` and its depth by ``contract.RECURSION_MAX_SIZE``;
* the insertion recursion, which extends a full count table for [2, n-1]
  to one for [2, n] by inserting the new largest value n into shorter
  permutations, and is driven bottom-up, the whole table held as 64-bit
  fields of one int and each step taken in whole-int shifts, adds and
  masks.

Neither route shares code with the alternating-sum evaluation, so
agreement between the three is a meaningful cross-check.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections.abc import Iterable, Iterator

from .contract import RECURSION_CAP, RECURSION_MAX_SIZE, TABLE_MAX_N, as_value_mask, check_cap, check_int

# Minimum-element recursion cache: bitmask of S (element v at bit v) -> count.
Cache = dict[int, int]

# Width of one count in the insertion table's packed int: a native
# unsigned 64-bit word, which holds every count up to TABLE_MAX_N!.
_FIELD_BITS = 64


def cdes_recursive(n: int, s: Iterable[int], cache: Cache | None = None) -> int:
    """Count permutations of [n] with descent-value set S by the
    minimum-element recursion, its first branch summed.

    The paper's recursion splits by the relative placement of min(S) and
    min(S) - 1:

        count(S) = count(S with min replaced by min-1)
                 + count(delta(S))
                 + count(delta(S) without its minimum)

    where delta(S) shifts every element of S down by one, with base
    cases: 1 in S -> 0, empty S -> 1, singleton {m} -> 2^(m-1)-1.
    Unrolled along its first branch, which lowers only the minimum until
    it reaches 1, it reads, for S = {a} + U with a = min(S),

        count(S) = sum over j in [1, a-1] of C(a-1, j) * count(U - j)

    where U - j shifts every element of U down by j (by induction on a:
    a = 2 leaves the one term count(U - 1), and U empty gives the base
    case 2^(a-1) - 1).  Every term is positive, and every child is one
    element smaller than its parent, so the recursion is |S| - 1 frames
    deep.  For a = 2 the step is one lookup of U - 1, and the set's cache
    entry is its child's own int object, not an equal copy.  Every
    subproblem is independent of n (only max(S) matters), so cache keys
    are the sets themselves, each as one int with element v at
    bit v (the convention of ``perms._descent_bit``; ``perms._members``
    decodes a key), and U - j is that int shifted down by j.  S is
    checked straight into that int by ``contract.as_value_mask``, without a
    sort, so a call whose set is cached costs the check and one lookup.

    A set missing from the cache is computed by ``_fill``.  A fresh
    evaluation of S = {s_1 < ... < s_k} caches exactly S and the suffixes
    {s_(d+1), ..., s_k} - t with t in [d, s_d - 1] for d <= k - 2, that is
    1 + sum of (s_d - d) over d <= k - 2 sets, each computed once; the
    singletons below them are closed forms, never cached; the pairs are
    closed forms too (module docstring), yet cached like every composite
    set, so the cache holds exactly the sets above.  A cached set
    T is charged min(T) - 1 multiply-adds, W(S) in all (``_work``), a
    bound rather than a count, since a pair takes one power of 3 and two
    shifts, and a set with min(T) = 2 one lookup.  A set of three or
    more elements whose W(S) times (max(S) + 16) is above
    ``contract.RECURSION_CAP`` is refused before any state is computed.  A
    two-element set is never refused: it is that one closed form, so
    {99999, 100000} is answered at once although W(S) charges it 99,998.
    A child's work never exceeds its parent's, so no cached set is one
    the cap refuses.  A set of more than ``contract.RECURSION_MAX_SIZE``
    elements is refused first, before any state is computed, and every
    smaller one fits the default depth limit of 1000 frames with room
    for its caller's frames, so the set alone decides; a caller already
    deep in its own stack can still run out of frames, which raises
    ``ValueError`` naming the interpreter's depth limit.

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
    mask = as_value_mask(s, n)
    if cache is None:
        cache = {}
    value = cache.get(mask)
    if value is not None:
        return value
    if mask & (mask - 1) == 0:
        # The empty set, or the singleton {m} at bit m: 2^(m-1) - 1.
        return (1 << (mask.bit_length() - 2)) - 1 if mask else 1
    if mask & 2:
        return 0
    if mask >> _CAP_FREE_BITS and mask.bit_count() > 2:  # a pair is one closed form
        check_cap("|S|", mask.bit_count(), "recursion", "RECURSION_MAX_SIZE", RECURSION_MAX_SIZE)
        top = mask.bit_length() - 1
        check_cap("work", _work(mask) * (top + 16), "recursion", "RECURSION_CAP", RECURSION_CAP)
    try:
        return _fill(mask, cache)
    except RecursionError:
        raise ValueError(
            f"the recursion for |S| = {mask.bit_count()} exceeds the "
            f"interpreter's depth limit {sys.getrecursionlimit()}"
        ) from None


def _work(mask: int) -> int:
    # W(S), a bound on the multiply-adds of a fresh evaluation of the
    # composite S without 1 at ``mask``: min(T) - 1 for every set T it caches,
    # S and the suffixes {s_(d+1), ..., s_k} - t, t in [d, s_d - 1], d <= k - 2.
    low = mask & -mask
    mask ^= low
    work = low.bit_length() - 2
    d = 1
    while mask & (mask - 1):  # the next element is not the largest
        s_d = low.bit_length() - 1
        low = mask & -mask
        mask ^= low
        # the sum over t in [d, s_d - 1] of (s_(d+1) - t - 1)
        work += (s_d - d) * (2 * low.bit_length() - s_d - d - 3) // 2
        d += 1
    return work


def _fill(mask: int, cache: Cache) -> int:
    # The count of a composite set without 1 that is missing from the
    # cache.  The children U - j of S = {a} + U are composite when U is,
    # and none is empty or holds 1, since min(U) - j > a - j >= 1.  A
    # composite child is looked up, and computed by a call only when
    # missing.  Three cases: a pair is one closed form, min(S) = 2 is one
    # lookup whose int the set then shares, and every other set is the
    # summed step over the binomial row of r = min(S) - 1.
    low = mask & -mask
    rest = mask ^ low
    r = low.bit_length() - 2  # min(S) - 1
    if rest & (rest - 1) == 0:
        # U = {m}: the children are the singletons {m - j}, of counts
        # 2^(m-j-1) - 1, and the sum closes by the binomial theorem,
        # sum over j in [1, r] of C(r, j) 2^(r-j) = 3^r - 2^r, to
        # 2^(m-1-r) (3^r - 2^r) - 2^r + 1.
        value = ((3**r - (1 << r)) << (rest.bit_length() - 2 - r)) - (1 << r) + 1
    elif r == 1:
        # min(S) = 2: the one term count(U - 1), U - 1 composite.
        child = rest >> 1
        value = cache.get(child)
        if value is None:
            value = _fill(child, cache)
    else:
        value = 0
        child = rest
        get = cache.get
        for c in _BINOMIAL_ROWS[r] if r < _BINOMIAL_ROW_COUNT else _binomials(r):
            child >>= 1
            part = get(child)
            if part is None:
                part = _fill(child, cache)
            value += c * part
    cache[mask] = value
    return value


def _binomials(r: int) -> Iterator[int]:
    # C(r, 1), ..., C(r, r) by the running product, for rows past the table.
    c = 1
    for j in range(1, r + 1):
        c = c * (r - j + 1) // j
        yield c


# C(r, 1..r) for the rows r < 64 (~73 KB, built in ~0.2 ms), read only by
# the summed step of _fill, U composite and min(S) = r + 1 >= 3: at the
# point-query sizes (n <= 48) the running product makes a fresh query ~1.5
# times slower (1.53 in the median of 30 interleaved runs of 1,500
# queries), and the deep rows it serves are too long to keep.
_BINOMIAL_ROW_COUNT = 64
_BINOMIAL_ROWS = [tuple(math.comb(r, j) for j in range(1, r + 1)) for r in range(_BINOMIAL_ROW_COUNT)]
# Below bit _CAP_FREE_BITS no set reaches RECURSION_CAP: W(S) <= max(S)^3,
# so max(S)^3 * (max(S) + 16) within the cap needs no count of W(S).  Nor
# does any reach RECURSION_MAX_SIZE: it holds fewer than max(S) elements.
_CAP_FREE_BITS = next(m for m in itertools.count(2) if m**3 * (m + 16) > RECURSION_CAP)


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
    sorted-tuple keys of the shared key list ``tablekeys._value_set_keys``,
    listed in the same order: the table is ordered by ascending bitmask.
    The list is built once per process, grown to the largest n asked
    for, and every smaller table reads a prefix of it: it holds the keys
    of that table, ~7 MB at n = 17 and ~63 MB at ``contract.TABLE_MAX_N``,
    which a caller holding the table holds anyway.  n above
    ``contract.TABLE_MAX_N`` is refused before anything is allocated.

    >>> cdes_insertion_table(3)
    {(): 1, (2,): 1, (3,): 3, (2, 3): 1}
    """
    check_int("n", n, 1)
    check_cap("n", n, "table", "TABLE_MAX_N", TABLE_MAX_N)
    counts = _insertion_counts(n)
    from .tablekeys import _value_set_keys

    return dict(zip(_value_set_keys(n), counts))


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
