"""Permutation primitives and exhaustive counting oracles.

Permutations of [n] = {1, ..., n} are plain tuples in one-line notation:
``(4, 8, 6, 3, 2, 5, 1, 7)`` maps 1 -> 4, 2 -> 8, and so on.  Value sets
(descent-value sets, non-weak-excedance position sets) are sorted tuples
of distinct positive integers.

Each statistic is defined once, as a rule on an adjacent pair: at index
i (from 0), the left value a and the right value b give one bit
(``_descent_bit``: ``1 << a`` when a > b; ``_nwexb_bit``: ``1 << (i + 2)``
when b < i + 2, b standing at position i + 2).  The mask of one
permutation is the OR of its rule over its pairs (``_mask``), and the
public set functions read their sets off that mask.  The ``brute_*_table``
functions each run one scan of their own statistic, in process
(``brute_cdes_nwexb_tables`` runs the two, one after the other).  A scan
of [n] splits each permutation into a head followed by a tail of n // 2
values (the one value for n = 1; ``_tail_length``), so that the two
halves have about as many arrangements, and meets in the middle: for
each set of tail values, the arrangements of the tail and of the other
values (the head) are tallied by class (the tail by its first value and
the mask of its own pairs, the head by its last value and its own
mask), each class counted in a plain dict keyed by mask.  The classes
come from a DP over value sets (Held and Karp, J. SIAM 1962), not from
the arrangements one by one: those of a set of j values that end in v
are the classes of the set without v, each with v put next to its end x
and the bit of the pair of v and x ORed in.  Each half grows one value
at a time, a head at its right end and a tail at its left, and each
level of sets is built once from the level below; the full-size classes
are built one value set at a time, where they are joined by the same
step (``_extend``) once more: the head's last value is put before the
tail, adding the bit of the pair where they meet.  A permutation's
complete mask is its head's mask ORed with that joined mask, so the n!
permutations are counted as products of class counts, one product per
pair of classes, never one by one.  The products
add into one flat list of totals indexed by mask, 2^(n+1) of them, and
the table is read off it in ascending mask order, zeros skipped.  The
tables are the ground truth against which every closed-form counting
route is checked, so they share no code with those routes.  A fixed
cap, ``contract.DEFAULT_ENUMERATION_CAP``, bounds the runtime.

``brute_cdes_count`` and ``brute_nwexb_count`` count one set without the
table: each enumerates, in process, only the permutations whose set is
that set, by placing values left to right while each placed value agrees
with it (``contract.count_placements``, which the Genocchi permutation
count also uses).  The tests pin both to the full scans on every set of
every small n.

The caps and argument checks these functions apply are those of
``contract``, which every other route module imports instead of this
one.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Callable, Iterable, Sequence

from .contract import DEFAULT_ENUMERATION_CAP, as_value_mask, check_cap, check_int, check_ints, count_placements


def _tail_length(n: int) -> int:
    # Values in the tail of a brute scan of [n]: for each set of tail
    # values, the tail's and the head's classes are built by the DP over
    # value sets, and every pair of classes adds one product.  Half the
    # values, rounded down (one for n = 1).  Best of 25 interleaved runs,
    # descent / NWEXB scan, ms, tail n // 2 - 1, n // 2, n // 2 + 1:
    # n = 6: 0.37 / 0.32, 0.35 / 0.33, 0.35 / 0.33; n = 7: 0.79 / 0.81,
    # 0.90 / 0.81, 1.00 / 0.93; n = 8: 2.63 / 2.15, 2.80 / 2.39, 3.28 /
    # 2.69; n = 9: 7.61 / 5.66, 8.21 / 5.85, 9.65 / 6.92; n = 10: 25.8 /
    # 16.3, 30.4 / 18.1, 36.1 / 22.9.  n // 2 - 1 is up to 15% faster from
    # n = 7 on, but its longer head holds larger DP levels: under
    # tracemalloc the descent scan peaks at 0.44 MB at n = 9 and 0.85 MB at
    # n = 10, against 0.31 and 0.72 MB for n // 2 and guards of 0.5 and 1 MB.
    return max(1, n // 2)


def check_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    """Validate one-line notation: every value of 1..n appears exactly once."""
    p = tuple(perm)
    check_ints("permutation entry", p)
    missing = set(range(1, len(p) + 1)).difference(p)
    if missing:
        raise ValueError(f"not a permutation of [{len(p)}]: {min(missing)} is missing")
    return p


def _members(mask: int) -> tuple[int, ...]:
    """The set whose elements are the set bits of ``mask``, ascending: its
    binary digits read once from bit 0 up, so the decode is linear in the
    bit length (a shift per bit would make it quadratic).

    >>> _members(0b1011000)
    (3, 4, 6)
    """
    return tuple(itertools.compress(itertools.count(), bin(mask)[:1:-1].encode().translate(_DIGITS)))


# The binary digits b"0" and b"1" as the bytes 0 and 1, to select with.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


Rule = Callable[[int, int, int], int]


def _descent_bit(i: int, a: int, b: int) -> int:
    # The left value of a descending pair is a descent value.
    return 1 << a if a > b else 0


def _nwexb_bit(i: int, a: int, b: int) -> int:
    # b stands at position i + 2 (from 1); position 1 is never a bottom.
    return 1 << (i + 2) if b < i + 2 else 0


def _mask(rule: Rule, perm: Sequence[int]) -> int:
    """The OR of ``rule`` over the adjacent pairs of ``perm``."""
    return functools.reduce(operator.or_, map(rule, itertools.count(), perm, perm[1:]), 0)


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
    return _members(_mask(_descent_bit, check_permutation(perm)))


def nwexb_set(perm: Sequence[int]) -> tuple[int, ...]:
    """Positions i with sigma(i) < i (non-weak-excedance bottoms).

    >>> nwexb_set((1, 2, 3))
    ()
    >>> nwexb_set((3, 1, 2))
    (2, 3)
    """
    return _members(_mask(_nwexb_bit, check_permutation(perm)))


Classes = dict[int, dict[int, int]]  # end value -> own-pair mask -> count


def _extend(classes: Classes, bits: Sequence[int]) -> dict[int, int]:
    # The arrangements of ``classes`` with one more value put next to
    # their end x, each gaining the bit bits[x], merged by mask: the one
    # step of the DP over value sets.
    merged: dict[int, int] = {}
    get = merged.get
    for x, masks in classes.items():
        bit = bits[x]
        for mask, count in masks.items():
            mask |= bit
            merged[mask] = get(mask, 0) + count
    return merged


def _classes(below: dict[int, Classes], row: Sequence[Sequence[int]], values: Sequence[int]) -> Classes:
    # The arrangements of ``values`` by class: out[v][mask] counts those
    # that end in v (a head's last value, a tail's first) and whose own
    # pairs give mask.  Each is an arrangement of the other values, a
    # class of ``below`` (keyed by value set, then by end value x), with v
    # put next to x, gaining the bit row[v][x].
    key = sum(1 << v for v in values)
    return {v: _extend(below[key ^ 1 << v], row[v]) for v in values}


def _level(rows: Sequence[Sequence[Sequence[int]]], n: int) -> dict[int, Classes]:
    # The classes of every set of len(rows) values of [n], keyed by its
    # bitmask, grown one value at a time: rows[j - 1][v][x] is the bit of
    # growing a set to j values by a value v next to end x.  Only the
    # level being built and the one below it are held.
    level: dict[int, Classes] = {0: {0: {0: 1}}}  # the empty arrangement, end 0
    for size, row in enumerate(rows, 1):
        level = {
            sum(1 << v for v in values): _classes(level, row, values)
            for values in itertools.combinations(range(1, n + 1), size)
        }
    return level


def _brute_table(rule: Rule, n: int) -> dict[tuple[int, ...], int]:
    # One scan: the permutations of [n] counted by the mask of the rule.
    check_int("n", n, 1)
    check_cap("n", n, "enumeration", "DEFAULT_ENUMERATION_CAP", DEFAULT_ENUMERATION_CAP)
    size = _tail_length(n)
    start = n - size  # the tail's first position (from 0): the head's length

    def bits(i: int, follows: bool) -> list[list[int]]:
        # The rule's bit of pair i between a value v put next to the end x
        # of a half, as bits[v][x]: v follows x in a head, precedes it in a tail.
        return [[rule(i, x, v) if follows else rule(i, v, x) for x in range(n + 1)] for v in range(n + 1)]

    # The bits of growing a half to j values: none for its first value
    # (put after end 0 of the empty arrangement), then pair j - 2 for a
    # head, whose new last value follows its end, and pair n - j for a
    # tail, whose new first value precedes its end.
    blank = [[0] * (n + 1)] * (n + 1)
    head_rows = [blank, *(bits(j - 2, True) for j in range(2, start + 1))]
    tail_rows = [blank, *(bits(n - j, False) for j in range(2, size + 1))]
    # The pair where head meets tail, pair start - 1, as one more step of
    # the tail: the head's last value put before the tail's first.
    joint = bits(start - 1, False) if start else blank
    heads_below = _level(head_rows[: start - 1], n) if start else {}
    tails_below = _level(tail_rows[: size - 1], n)
    # One total for each mask: every bit of either rule lies in 1 .. 1 << n.
    totals = [0] * (2 << n)
    for tail_values in itertools.combinations(range(1, n + 1), size):
        # The tail's arrangements by class: tails[first][mask] counts them.
        tails = _classes(tails_below, tail_rows[size - 1], tail_values)
        if not start:
            for masks in tails.values():
                for mask, count in masks.items():
                    totals[mask] += count
            continue
        # The head's arrangements, of the other values, by class:
        # heads[last][mask] counts them.
        rest = tuple(v for v in range(1, n + 1) if v not in tail_values)
        heads = _classes(heads_below, head_rows[start - 1], rest)
        for last, head_masks in heads.items():
            # The tail grown by one more step, the head's last value put
            # before its first: the bit of the pair where head meets tail
            # ORed in, merged by mask, as (mask, count) pairs.
            joined = list(_extend(tails, joint[last]).items())
            # The permutations of this split whose head ends in last,
            # counted by class products.
            for head_mask, head_count in head_masks.items():
                for mask, count in joined:
                    totals[head_mask | mask] += head_count * count
    return {_members(mask): count for mask, count in enumerate(totals) if count}


def brute_cdes_table(n: int, *, workers: int = 1) -> dict[tuple[int, ...], int]:
    """Count permutations of [n] by descent-value set, in one scan that
    counts the n! permutations as products of head and tail class counts,
    the classes built by a DP over value sets (module docstring).

    Every subset of [2, n] is attained, keyed in the ascending bitmask
    order of ``cdes_insertion_table(n)``; the values sum to n!.
    ``workers`` is validated and has no effect: the scan runs in process.

    >>> brute_cdes_table(3)
    {(): 1, (2,): 1, (3,): 3, (2, 3): 1}
    """
    check_int("workers", workers, 1)
    return _brute_table(_descent_bit, n)


def brute_cdes_count(n: int, s: Iterable[int]) -> int:
    """Number of permutations of [n] whose descent-value set is exactly S.

    Enumerates only those permutations (and their prefixes): a value
    ``prev`` is followed by a smaller one exactly when ``prev`` is in S,
    and the last value is not in S.

    >>> brute_cdes_count(4, (2, 4))
    3
    """
    in_s = as_value_mask(s, n=n)
    check_cap("n", n, "enumeration", "DEFAULT_ENUMERATION_CAP", DEFAULT_ENUMERATION_CAP)
    values = (1 << (n + 1)) - 2
    # What may follow prev: the values below it if prev is in S, else above.
    follow = [
        (1 << prev) - 2 if in_s >> prev & 1 else values & -(1 << (prev + 1))
        for prev in range(n + 1)
    ]
    last = [mask & ~in_s for mask in follow]
    return count_placements([follow] * (n - 1) + [last])


def brute_nwexb_table(n: int) -> dict[tuple[int, ...], int]:
    """Count permutations of [n] by non-weak-excedance position set."""
    return _brute_table(_nwexb_bit, n)


def brute_cdes_nwexb_tables(
    n: int,
) -> tuple[dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """:func:`brute_cdes_table` and :func:`brute_nwexb_table` of n, one
    scan for each statistic.

    >>> brute_cdes_nwexb_tables(3)
    ({(): 1, (2,): 1, (3,): 3, (2, 3): 1}, {(): 1, (2,): 1, (3,): 3, (2, 3): 1})
    """
    return brute_cdes_table(n), brute_nwexb_table(n)


def brute_nwexb_count(n: int, s: Iterable[int]) -> int:
    """Number of permutations of [n] with NWEXB set exactly S.

    Enumerates only those permutations (and their prefixes): position i
    takes a value below i exactly when i is in S, whatever the value
    before it.

    >>> brute_nwexb_count(3, {1})
    0
    >>> brute_nwexb_count(3, {2, 3})
    1
    """
    in_s = as_value_mask(s, n=n)
    check_cap("n", n, "enumeration", "DEFAULT_ENUMERATION_CAP", DEFAULT_ENUMERATION_CAP)
    values = (1 << (n + 1)) - 2
    # Position i (from 1) takes a value below i if i is in S, else one of i..n.
    allowed = [
        (1 << i) - 2 if in_s >> i & 1 else values & -(1 << i) for i in range(1, n + 1)
    ]
    return count_placements([[mask] * (n + 1) for mask in allowed])
