"""The package's argument contract: input caps and the integer and set
rules.

Every input cap is a constant here, each refused by :func:`check_cap` in
one message format before any work.  The integer rule with its bounds is
:func:`check_int` for one value and :func:`check_ints` for a sequence,
:func:`check_distinct` refuses a repeat in a sorted one (every message
names at most one value, and a value past ~30 digits by its size,
:func:`_show`), and the rule that descent-value sets lie in [2, n] is
:func:`as_descent_set`.  :func:`as_value_mask` checks a set straight
into its bitmask (element v at bit v, which ``perms._members`` decodes):
plain valid input is taken at once, and any other input goes through
:func:`as_value_set`, so every message still comes from it and from
:func:`check_int` / :func:`check_ints`.

:func:`count_placements`, the search that places values left to right
under a rule, is shared by the brute counts of one set in ``perms`` and
by ``genocchi.brute_genocchi_perm_count``.  Every route module imports
this module and not ``perms``, so a command that runs no permutation
scan does not load the scans.  The keys of the whole tables are listed
in ``tablekeys``, which only the two builders of whole tables load.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

# Input caps, fixed: no caller changes them.
# Length of the permutations of a brute scan: n, or k*n for the Genocchi scan.
DEFAULT_ENUMERATION_CAP = 10
# Work of the alternating sum, 2^length * (exponent total + 16): each term
# costs about 16 units before its exponents count.  About a second.
SUM_CAP = 40_000_000
# Work of the minimum-element recursion, W(S) * (max(S) + 16): W(S)
# multiply-adds of counts of up to ~max(S) bits.  About a second.
RECURSION_CAP = 400_000_000
# |S| of the minimum-element recursion, |S| - 1 frames deep: clear of the
# interpreter's default depth limit of 1000 frames, with room for the
# caller's own frames (from inside pytest, sets of up to ~960 elements fit).
RECURSION_MAX_SIZE = 900
BUILD_CAP = 17  # height of a materialized tree, which bounds the 2^height paths every walk follows
BOX_CAP = 20  # boxes of a shape whose fillings are searched one by one
TRANSFER_CAP = 2_000_000  # steps of the column transfer: 4^height summed over columns
TABLE_MAX_N = 20  # n of a full table over [2, n], 2^(n-1) entries
# n of a count, rows + width of a shape, exponent total of tree weights
# (a gap vector sums to max(S) - 1).  Within SUM_CAP, ~1.5n digits at most.
COUNT_MAX_N = 100_000
GENOCCHI_MAX_SIZE = 2000  # k*n of a Genocchi number: n^2 products of ~k*n digits
GANDHI_MAX_SIZE = 300  # k*n of an expanded Gandhi polynomial, ~n^3 products
VERIFY_MAX_N = 12  # max_n of the verify suite, whose time doubles per step


def as_value_set(elements: Iterable[int], *, n: int | None = None) -> tuple[int, ...]:
    """Normalize a collection of distinct positive integers to a sorted tuple.

    With ``n`` given, also require n >= 1 and every element to lie in [1, n].
    """
    if n is not None:
        check_int("n", n, 1)
        check_cap("n", n, "count", "COUNT_MAX_N", COUNT_MAX_N)
    s = tuple(elements)
    check_ints("set element", s, 1)  # unsorted: sorting may fail on a non-int
    s = tuple(sorted(s))
    check_distinct("value sets have distinct elements", s)
    if n is not None and s and s[-1] > n:
        raise ValueError(f"element {_show(s[-1])} outside [1, {n}]")
    return s


def as_value_mask(elements: Iterable[int], n: int) -> int:
    """The set :func:`as_value_set` accepts, as one int with element v at
    bit v (the convention of ``perms._descent_bit``; ``perms._members``
    decodes it).

    Plain ints in [1, n], with n a plain int in [1, COUNT_MAX_N], are taken
    at once, without sorting: they are distinct exactly when the mask has
    one bit per element.  Any other input goes to :func:`as_value_set`,
    which refuses it with its own message or accepts it (int subclasses).

    >>> bin(as_value_mask((4, 2), n=4))
    '0b10100'
    """
    t = tuple(elements)
    if type(n) is int and 0 < n <= COUNT_MAX_N:
        mask = 0
        for v in t:
            if type(v) is not int or not 0 < v <= n:
                break
            mask |= 1 << v
        else:
            if mask.bit_count() == len(t):
                return mask
    return sum(1 << v for v in as_value_set(t, n=n))


def as_descent_set(elements: Iterable[int]) -> tuple[int, ...]:
    """:func:`as_value_set`, refusing 1 as well: a descent value is followed
    by a smaller value, so descent-value sets lie in [2, n].

    >>> as_descent_set({4, 2})
    (2, 4)
    """
    s = as_value_set(elements)
    if s and s[0] == 1:
        raise ValueError("1 is never a descent value")
    return s


def check_int(name: str, value: int, low: int | None = None, high: int | None = None) -> None:
    """Refuse a ``value`` that is not an int (a bool is refused) or lies
    outside [low, high] (an end that is None is open), naming the argument
    ``name``.  Every integer argument of the package passes this rule,
    alone or through :func:`check_ints`."""
    if type(value) is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ValueError(f"{name} must be an integer: {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be at least {low}: {_show(value)}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be at most {high}: {_show(value)}")


def check_ints(name: str, values: Sequence[int], low: int | None = None, high: int | None = None) -> None:
    """:func:`check_int` on every element of ``values``, each named ``name``,
    in one walk: the first element it refuses is named in the error."""
    for value in values:
        check_int(name, value, low, high)


def check_distinct(what: str, values: Sequence[int]) -> None:
    """Refuse sorted ``values`` with a repeat, naming the least one."""
    if len(set(values)) != len(values):
        repeated = next(a for a, b in itertools.pairwise(values) if a == b)
        raise ValueError(f"{what}: {_show(repeated)} is repeated")


def check_cap(what: str, value: int, kind: str, name: str, cap: int) -> None:
    """Refuse ``value`` above ``cap``, in the one message format of every
    cap.  ``name`` is the cap's constant in this module."""
    if value > cap:
        raise ValueError(f"{what} = {_show(value)} exceeds the {kind} cap {name} = {cap}")


def _show(value: int) -> str:
    # An int in a message: past 30 digits by its size, with no decimal
    # conversion (Python refuses one of more than 4300 digits).
    bits = value.bit_length()
    if bits <= 100:  # every int of up to 30 digits
        return f"{value}"
    return f"{'a negative' if value < 0 else 'an'} integer of {bits} bits"


def iter_value_sets(n: int) -> Iterator[tuple[int, ...]]:
    """All subsets of [2, n] as sorted tuples, by size then lexicographically.
    ``n`` is checked at the call, before the iterator is made.

    >>> list(iter_value_sets(3))
    [(), (2,), (3,), (2, 3)]
    """
    check_int("n", n, 1)
    values = range(2, n + 1)
    return itertools.chain.from_iterable(itertools.combinations(values, size) for size in range(n))


def count_placements(allowed: Sequence[Sequence[int]]) -> int:
    """Number of permutations of [m], m = len(allowed), built left to right
    under a rule: value v may stand at position i (from 0) after the value
    ``prev`` (0 before the first) only when bit v of ``allowed[i][prev]``
    is set.  A depth-first search that extends a prefix only while every
    placed value obeys the rule, so it visits the counted permutations and
    such prefixes, nothing else.

    >>> count_placements([[0b1110] * 4] * 3)  # no rule: all 3! orders
    6
    >>> count_placements([])  # the one empty arrangement
    1
    """
    m = len(allowed)
    if m == 0:
        return 1
    count = 0
    stack = [(0, 0, (1 << (m + 1)) - 2)]  # (position, prev, unused values)
    while stack:
        i, prev, free = stack.pop()
        options = allowed[i][prev] & free
        if i == m - 1:
            count += options != 0
            continue
        while options:
            bit = options & -options
            options ^= bit
            stack.append((i + 1, bit.bit_length() - 1, free ^ bit))
    return count
