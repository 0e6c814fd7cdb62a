import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdescent import brute_genocchi_perm_count, gandhi_poly, genocchi_number
from cdescent.genocchi import evaluate


@pytest.mark.parametrize(
    "k, n, expected",
    [
        (2, 0, (1,)),
        (2, 1, (-1, 2)),
        (2, 2, (1, -4, 6)),
        (1, 3, (1,)),
    ],
)
def test_gandhi_poly(k, n, expected):
    assert gandhi_poly(k, n) == expected


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


def _helper_gandhi_poly(k: int, n: int) -> tuple[int, ...]:
    # Gandhi's recursion as three separate products: a reference that
    # shares no loop with gandhi_poly.
    coeffs: tuple[int, ...] = (1,)
    x_minus_one_k = [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]
    for _ in range(n):
        shifted = [0] * k + _shift_x_plus_one(coeffs)
        straight = _mul(x_minus_one_k, list(coeffs))
        coeffs = _trimmed_difference(shifted, straight)
    return coeffs


def test_gandhi_poly_matches_helper_oracle():
    pairs = [(k, n) for k in range(1, 61) for n in range(60 // k + 1)] + [(10, 30)]
    for k, n in pairs:
        assert gandhi_poly(k, n) == _helper_gandhi_poly(k, n), (k, n)


def test_gandhi_poly_degree():
    # Degree n*(k-1), observed on the small range (not proved here).
    for k in (1, 2, 3, 4):
        for n in range(6):
            assert len(gandhi_poly(k, n)) == n * (k - 1) + 1, (k, n)


def test_gandhi_rejects():
    with pytest.raises(ValueError, match="^k must be at least 1: 0$"):
        gandhi_poly(0, 1)
    with pytest.raises(ValueError, match="^n must be at least 0: -1$"):
        gandhi_poly(2, -1)
    with pytest.raises(ValueError, match="^k\\*n = 302 exceeds the Gandhi cap GANDHI_MAX_SIZE = 300$"):
        gandhi_poly(2, 151)


def test_genocchi_order_two_sequence():
    assert [genocchi_number(2, n) for n in range(1, 7)] == [1, 1, 3, 17, 155, 2073]


def test_genocchi_order_one_is_constant():
    assert all(genocchi_number(1, n) == 1 for n in range(1, 9))


def test_genocchi_rejects():
    with pytest.raises(ValueError, match="^k must be at least 1: 0$"):
        genocchi_number(0, 3)
    with pytest.raises(ValueError, match="^n must be at least 1: 0$"):
        genocchi_number(2, 0)


@given(st.integers(1, 4), st.integers(1, 24))
def test_value_triangle_matches_gandhi_poly(k, n):
    # The triangle never expands a polynomial; gandhi_poly shares no code.
    assert genocchi_number(k, n) == evaluate(gandhi_poly(k, n - 1), 1)


def test_shift_identity():
    # The subtracted term vanishes at 1, so A_{n+1}(1) = A_n(2).
    for k in (1, 2, 3):
        for n in range(6):
            assert evaluate(gandhi_poly(k, n + 1), 1) == evaluate(
                gandhi_poly(k, n), 2
            ), (k, n)


@pytest.mark.parametrize(
    "k, n, expected",
    [
        (2, 1, 1),
        (2, 2, 3),
        (1, 2, 1),
        (3, 1, 1),
    ],
)
def test_brute_count(k, n, expected):
    assert brute_genocchi_perm_count(k, n) == expected


def test_brute_count_matches_recursion():
    for k in (1, 2, 3):
        for n in range(1, 9):
            if k * n > 8:
                continue
            assert brute_genocchi_perm_count(k, n) == genocchi_number(k, n + 1), (k, n)


def test_brute_count_matches_full_scan():
    # The search against every permutation of [k*n], tested one by one.
    for k in range(1, 9):
        for n in range(1, 8 // k + 1):
            want = sum(
                all((v >= i) == (v % k == 0) for i, v in enumerate(perm, start=1))
                for perm in itertools.permutations(range(1, k * n + 1))
            )
            assert brute_genocchi_perm_count(k, n) == want, (k, n)


def test_brute_cap():
    with pytest.raises(
        ValueError, match="k\\*n = 11 exceeds the enumeration cap DEFAULT_ENUMERATION_CAP = 10"
    ):
        brute_genocchi_perm_count(11, 1)
    with pytest.raises(ValueError):
        brute_genocchi_perm_count(2, 0)
