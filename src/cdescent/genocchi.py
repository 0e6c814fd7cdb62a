"""Gandhi polynomial recursion and generalized Genocchi numbers.

The order-k family starts from the constant 1 and iterates

    A_{m+1}(X) = X^k * A_m(X + 1) - (X - 1)^k * A_m(X);

the 2n-th generalized Genocchi number of order k is A_{n-1} evaluated
at 1.  ``genocchi_number`` never expands a polynomial: it steps a row of
values A_m(1), ..., A_m(n - m) down a triangle, one row per m, with
O(n^2) big-integer products.  ``gandhi_poly`` expands the same recursion
in exact integer coefficients and shares no code with the triangle, so
evaluating it at 1 is the cross-check.  A second, independent check
counts, by a search over partial permutations, the permutations of [k*n]
in which position i holds a value >= i exactly when that value is
divisible by k; their number is the (2n+2)-nd Genocchi number of order k.
"""

from __future__ import annotations

import itertools
from math import comb

from .perms import DEFAULT_ENUMERATION_CAP, GANDHI_MAX_SIZE, GENOCCHI_MAX_SIZE, check_cap, check_int, count_placements


def _shift_x_plus_one(coeffs: tuple[int, ...] | list[int]) -> list[int]:
    # A(X+1) by binomial expansion of each power.
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c:
            for j in range(i + 1):
                out[j] += c * comb(i, j)
    return out


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _trimmed_difference(a: list[int], b: list[int]) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def gandhi_poly(k: int, n: int) -> tuple[int, ...]:
    """Dense ascending coefficients of the n-th polynomial of order k.
    k*n above ``perms.GANDHI_MAX_SIZE`` is refused.

    >>> gandhi_poly(2, 0)
    (1,)
    >>> gandhi_poly(2, 1)
    (-1, 2)
    >>> gandhi_poly(2, 2)
    (1, -4, 6)
    """
    check_int("k", k, 1)
    check_int("n", n, 0)
    check_cap("k*n", k * n, "Gandhi", "GANDHI_MAX_SIZE", GANDHI_MAX_SIZE)
    coeffs: tuple[int, ...] = (1,)
    x_minus_one_k = [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]
    for _ in range(n):
        shifted = [0] * k + _shift_x_plus_one(coeffs)
        straight = _mul(x_minus_one_k, list(coeffs))
        coeffs = _trimmed_difference(shifted, straight)
    return coeffs


def evaluate(coeffs: tuple[int, ...], x: int) -> int:
    """Value of a dense ascending-coefficient polynomial at an integer."""
    total = 0
    for c in reversed(coeffs):
        total = total * x + c
    return total


def genocchi_number(k: int, n: int) -> int:
    """The 2n-th generalized Genocchi number of order k, A_{n-1}(1).

    Row m of the value triangle holds A_m(x) for x = 1..n-m, starting
    from A_0 = 1 on x = 1..n.  With w(x) = (x - 1)^k * A_m(x), the
    recursion reads A_{m+1}(x) = w(x + 1) - w(x), so each row is the
    forward difference of the previous one weighted by the precomputed
    powers (x - 1)^k.  ``evaluate(gandhi_poly(k, n - 1), 1)`` is the
    cross-check.  k*n above ``perms.GENOCCHI_MAX_SIZE`` is refused.

    >>> [genocchi_number(2, m) for m in range(1, 7)]
    [1, 1, 3, 17, 155, 2073]
    >>> genocchi_number(1, 5)
    1
    """
    check_int("n", n, 1)
    check_int("k", k, 1)
    check_cap("k*n", k * n, "Genocchi", "GENOCCHI_MAX_SIZE", GENOCCHI_MAX_SIZE)
    powers = [x**k for x in range(n)]
    values = [1] * n
    for _ in range(n - 1):
        weighted = [p * v for p, v in zip(powers, values)]
        values = [b - a for a, b in itertools.pairwise(weighted)]
    return values[0]


def brute_genocchi_perm_count(k: int, n: int) -> int:
    """Count permutations of [k*n] where sigma(i) >= i exactly when k
    divides sigma(i).  Equals ``genocchi_number(k, n + 1)``.

    Places values left to right and drops a value at position i as soon
    as ``(v >= i) != (v % k == 0)``, so only those permutations and their
    prefixes are visited (``perms.count_placements``).

    >>> brute_genocchi_perm_count(2, 2)
    3
    """
    check_int("k", k, 1)
    check_int("n", n, 1)
    check_cap("k*n", k * n, "enumeration", "DEFAULT_ENUMERATION_CAP", DEFAULT_ENUMERATION_CAP)
    m = k * n
    # The rule at position i does not depend on the value before it.
    rows = []
    for i in range(1, m + 1):
        mask = sum(1 << v for v in range(1, m + 1) if (v >= i) == (v % k == 0))
        rows.append([mask] * (m + 1))
    return count_placements(rows)
