"""Gandhi polynomial recursion and generalized Genocchi numbers.

The order-k family starts from the constant 1 and iterates

    A_{m+1}(X) = X^k * A_m(X + 1) - (X - 1)^k * A_m(X);

the 2n-th generalized Genocchi number of order k is A_{n-1} evaluated
at 1.  ``genocchi_number`` never expands a polynomial: it steps a row of
values A_m(1), ..., A_m(n - m) down a triangle, one row per m, with
O(n^2) big-integer products.  ``gandhi_poly`` expands each step in one
pass over exact coefficients, sharing no code with the triangle, so its
value at 1 is the cross-check.  A second, independent check counts, by a
search over partial permutations, the permutations of [k*n] in which
position i holds a value >= i exactly when that value is divisible by
k; their number is the (2n+2)-nd Genocchi number of order k.
"""

from __future__ import annotations

import itertools
from math import comb

from .contract import DEFAULT_ENUMERATION_CAP, GANDHI_MAX_SIZE, GENOCCHI_MAX_SIZE, check_cap, check_int, count_placements


def gandhi_poly(k: int, n: int) -> tuple[int, ...]:
    """Dense ascending coefficients of the n-th polynomial of order k,
    one pass over A_m's coefficients per step, the binomials of (X + 1)^i
    stepped down Pascal's triangle as i grows.  k*n above
    ``contract.GANDHI_MAX_SIZE`` is refused.

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
    x_minus_one_k = [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]
    coeffs = [1]
    for _ in range(n):
        out = [0] * (len(coeffs) + k)
        binomials = [1]  # C(i, 0), ..., C(i, i)
        for i, c in enumerate(coeffs):
            for j, b in enumerate(binomials, k):  # c * X^k * (X + 1)^i
                out[j] += c * b
            for j, b in enumerate(x_minus_one_k, i):  # c * (X - 1)^k * X^i
                out[j] -= c * b
            binomials = [1, *(a + b for a, b in itertools.pairwise(binomials)), 1]
        while out and out[-1] == 0:
            out.pop()
        coeffs = out
    return tuple(coeffs)


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
    cross-check.  k*n above ``contract.GENOCCHI_MAX_SIZE`` is refused.

    >>> [genocchi_number(2, m) for m in range(1, 7)]
    [1, 1, 3, 17, 155, 2073]
    >>> genocchi_number(1, 5)
    1
    """
    _check_number(k, n)
    powers = [x**k for x in range(n)]
    values = [1] * n
    for _ in range(n - 1):
        weighted = [p * v for p, v in zip(powers, values)]
        values = [b - a for a, b in itertools.pairwise(weighted)]
    return values[0]


def _check_number(k: int, n: int) -> None:
    # The refusals of genocchi_number, in their order.
    check_int("n", n, 1)
    check_int("k", k, 1)
    check_cap("k*n", k * n, "Genocchi", "GENOCCHI_MAX_SIZE", GENOCCHI_MAX_SIZE)


def _check_brute(k: int, n: int) -> None:
    # The refusals of brute_genocchi_perm_count, in their order.
    check_int("k", k, 1)
    check_int("n", n, 1)
    check_cap("k*n", k * n, "enumeration", "DEFAULT_ENUMERATION_CAP", DEFAULT_ENUMERATION_CAP)


def brute_genocchi_perm_count(k: int, n: int) -> int:
    """Count permutations of [k*n] where sigma(i) >= i exactly when k
    divides sigma(i).  Equals ``genocchi_number(k, n + 1)``.

    Places values left to right and drops a value at position i as soon
    as ``(v >= i) != (v % k == 0)``, so only those permutations and their
    prefixes are visited (``contract.count_placements``).

    >>> brute_genocchi_perm_count(2, 2)
    3
    """
    _check_brute(k, n)
    m = k * n
    # The rule at position i does not depend on the value before it.
    rows = []
    for i in range(1, m + 1):
        mask = sum(1 << v for v in range(1, m + 1) if (v >= i) == (v % k == 0))
        rows.append([mask] * (m + 1))
    return count_placements(rows)
