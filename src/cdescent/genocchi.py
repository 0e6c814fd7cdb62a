"""Gandhi polynomial recursion and generalized Genocchi numbers.

The order-k family starts from the constant 1 and iterates

    A_{m+1}(X) = X^k * A_m(X + 1) - (X - 1)^k * A_m(X);

the 2n-th generalized Genocchi number of order k is A_{n-1} evaluated
at 1.  ``genocchi_number`` never expands a polynomial: it steps a row of
values A_m(1), ..., A_m(n - m) down a triangle, one row per m, with
O(n^2) big-integer products.  ``gandhi_poly`` expands the same recursion
in exact integer coefficients and shares no code with the triangle, so
evaluating it at 1 is the cross-check.  A second, independent check
counts the permutations of [k*n] in which position i holds a value >= i
exactly when that value is divisible by k; their number is the
(2n+2)-nd Genocchi number of order k.
"""

from __future__ import annotations

import itertools
from math import comb

from .perms import DEFAULT_ENUMERATION_CAP, GENOCCHI_MAX_SIZE, check_cap


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

    >>> gandhi_poly(2, 0)
    (1,)
    >>> gandhi_poly(2, 1)
    (-1, 2)
    >>> gandhi_poly(2, 2)
    (1, -4, 6)
    """
    if k < 1:
        raise ValueError(f"order must be positive: {k}")
    if n < 0:
        raise ValueError(f"index must be nonnegative: {n}")
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
    if n < 1:
        raise ValueError(f"index must be positive: {n}")
    if k < 1:
        raise ValueError(f"order must be positive: {k}")
    check_cap("k*n", k * n, "Genocchi", "GENOCCHI_MAX_SIZE", GENOCCHI_MAX_SIZE)
    powers = [x**k for x in range(n)]
    values = [1] * n
    for _ in range(n - 1):
        weighted = [p * v for p, v in zip(powers, values)]
        values = [b - a for a, b in itertools.pairwise(weighted)]
    return values[0]


def brute_genocchi_perm_count(
    k: int, n: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> int:
    """Count permutations of [k*n] where sigma(i) >= i exactly when k
    divides sigma(i).  Equals ``genocchi_number(k, n + 1)``.

    >>> brute_genocchi_perm_count(2, 2)
    3
    """
    if k < 1 or n < 1:
        raise ValueError(f"order and index must be positive: ({k}, {n})")
    check_cap("k*n", k * n, "enumeration", "(--brute-cap)", cap)
    count = 0
    for perm in itertools.permutations(range(1, k * n + 1)):
        if all((v >= i) == (v % k == 0) for i, v in enumerate(perm, start=1)):
            count += 1
    return count
