"""Closed-form counting of permutations by descent-value set.

The count of permutations of [n] whose descent-value set equals S depends
only on the gaps between consecutive elements of S: it is an alternating
sum over the binary cube {0,1}^|S|, where the assignment x raises each
factor base by its prefix sum,

    sum_x (-1)^(|S| - sum x_j) * prod_i (1 + x_1 + ... + x_i)^(d_i),

with d the gap vector of S read from the largest element down.
:func:`cube_sum` is the package's only evaluator of this sum, in exact
integer arithmetic, and :func:`gap_vector` builds its exponents from a
set: :func:`cdes_formula` is the one closed form.  The paper states the
formula two more ways, run by run (:func:`set_type`: inside a run of
consecutive elements every gap is 1) and by a Young diagram's type
(``tableaux.partition_type``), and the exponents each statement builds
are the gap vector again.  So :func:`cdes_formula_typed` and
``tableaux.count_tableaux_type_sum`` return the closed form under those
names, ``verify``'s ``typed-vs-formula`` checks the run-by-run builder
against :func:`gap_vector`, and ``tree.tree_weight_sum`` is
:func:`cube_sum` on any weight sequence.  The brute-force scan, the
recursions and the materialized tree share no code with the sum.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable

from .contract import SUM_CAP, as_descent_set, as_value_set, check_cap


def gap_vector(s: Iterable[int]) -> tuple[int, ...]:
    """Consecutive gaps of S in descending-element order, closing at 1.

    For S = {s_1 > s_2 > ... > s_k} the result is
    (s_1 - s_2, ..., s_{k-1} - s_k, s_k - 1); the empty set gives ().
    Entries are >= 1 and sum to max(S) - 1.  S is checked by
    ``contract.as_descent_set``, which refuses a set containing 1.
    :func:`cdes_formula` checks S once itself and builds the same vector
    from the checked set.

    >>> gap_vector({2, 4})
    (2, 1)
    >>> gap_vector({7})
    (6,)
    >>> gap_vector({2, 3, 4})
    (1, 1, 1)
    """
    return _gaps(as_descent_set(s))


def _gaps(s: tuple[int, ...]) -> tuple[int, ...]:
    # The gap vector of a checked set: a sorted tuple without 1.
    if not s:
        return ()
    desc = s[::-1]
    return tuple(a - b for a, b in itertools.pairwise(desc)) + (desc[-1] - 1,)


def set_type(s: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Maximal runs of consecutive elements as (run max, run length) pairs,
    largest run first.  S is checked as in :func:`gap_vector`.

    >>> set_type({2, 4})
    ((4, 1), (2, 1))
    >>> set_type({3, 4, 7, 8, 9})
    ((9, 3), (4, 2))
    >>> set_type({2})
    ((2, 1),)
    """
    s = as_descent_set(s)
    if not s:
        return ()
    runs: list[tuple[int, int]] = []
    start = prev = s[0]
    for v in s[1:]:
        if v != prev + 1:
            runs.append((prev, prev - start + 1))
            start = v
        prev = v
    runs.append((prev, prev - start + 1))
    return tuple(reversed(runs))


def check_sum_work(exponents: tuple[int, ...]) -> None:
    """Refuse ``exponents`` whose sum over {0,1}^k, 2^k terms, is work
    2^k * (exponent total + 16) above ``contract.SUM_CAP``.  The shift is
    cheap at any length, and a work past 30 digits is named by its size,
    so a long input is refused in one short line."""
    check_cap("work", (sum(exponents) + 16) << len(exponents), "summation", "SUM_CAP", SUM_CAP)


def cube_sum(exponents: tuple[int, ...]) -> int:
    """The alternating sum over {0,1}^k of the module docstring, with the
    k nonnegative integer ``exponents`` in place of the gap vector.
    Callers validate the exponents; work above ``contract.SUM_CAP`` is
    refused (:func:`check_sum_work`).

    >>> cube_sum((2, 1))
    3
    >>> cube_sum(())
    1
    """
    check_sum_work(exponents)
    # Depth-first walk of {0,1}^k in ascending binary order.  The signed
    # partial product is carried down, so each of the 2^k assignments
    # costs one multiplication instead of k exponentiations.
    k = len(exponents)

    def walk(i: int, prefix: int, acc: int) -> int:
        if i == k:
            return acc
        d = exponents[i]
        return walk(i + 1, prefix, -acc * (1 + prefix) ** d) + walk(
            i + 1, prefix + 1, acc * (2 + prefix) ** d
        )

    return walk(0, 0, 1)


def cdes_formula(n: int, s: Iterable[int]) -> int:
    """Count permutations of [n] with descent-value set S, by the
    alternating sum over {0,1}^|S| with the gap vector as exponents.

    Sets containing 1 count zero permutations; the empty set counts one
    (the identity).  The value is independent of n once n >= max(S);
    smaller n are rejected.

    >>> cdes_formula(4, {2, 4})
    3
    >>> cdes_formula(5, {3, 5})
    17
    >>> cdes_formula(6, {6})
    31
    """
    s = as_value_set(s, n=n)
    if s and s[0] == 1:
        return 0
    return cube_sum(_gaps(s))


def cdes_formula_typed(n: int, s: Iterable[int]) -> int:
    """:func:`cdes_formula` under the name of the paper's run-grouped
    statement.  Building the exponents run by run from :func:`set_type`
    (exponent 1 inside a run of consecutive elements, and at the position
    closing a run the distance down to the next run) gives exactly the gap
    vector, so the count is the one closed form; ``verify``'s
    ``typed-vs-formula`` checks that identity of exponent vectors.

    >>> cdes_formula_typed(5, {4, 5})
    31
    """
    return cdes_formula(n, s)
