import itertools
import math
import re
import tracemalloc

import pytest

from cdescent import (
    Poly,
    brute_cdes_table,
    cdes_formula,
    cdes_insertion_table,
    descent_set_coefficient,
    gn,
    gnk,
    iter_value_sets,
    tau,
)
from cdescent.contract import TABLE_MAX_N
from cdescent.verify import REFERENCE_COUNTS
from test_recursion import _first_call_peak_bytes


def test_constructor_normalizes():
    p = Poly({((2, 1), 1): 3, ((1, 2), 1): -3, ((), 0): 5})
    assert p == Poly.constant(5) == 5
    assert Poly.constant(1) == True and Poly() == 0 and p != 5.0  # noqa: E712
    assert not Poly({((1,), 0): 0})
    with pytest.raises(ValueError):
        Poly({((1, 1), 0): 1})
    with pytest.raises(ValueError):
        Poly({((), -1): 1})


def test_arithmetic_identities():
    p = Poly({((1,), 1): 1, ((), 0): 1})  # 1 + x1*y
    assert p * Poly.constant(1) == p
    assert p + 0 == p
    assert p - p == Poly()
    assert 2 * p == p + p
    assert (p * Poly.x(2)) * 3 == 3 * (Poly.x(2) * p)


def test_subtraction():
    p = Poly({((1,), 1): 1, ((), 0): 1})  # 1 + x1*y
    q = Poly({((2,), 0): 2, ((), 0): 1})  # 1 + 2*x2
    assert (p - 1).terms() == {((1,), 1): 1}
    assert (1 - p).terms() == {((1,), 1): -1}
    assert (p - q).terms() == {((1,), 1): 1, ((2,), 0): -2}


@pytest.mark.parametrize(
    "subtract, left, right",
    [
        (lambda p: p - "a", "Poly", "str"),
        (lambda p: p - 1.5, "Poly", "float"),
        (lambda p: 1.5 - p, "float", "Poly"),
        (lambda p: None - p, "NoneType", "Poly"),
    ],
)
def test_subtraction_of_a_foreign_operand_is_unsupported(subtract, left, right):
    with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for -: '{left}' and '{right}'$"):
        subtract(Poly.x(1))


def test_squarefree_multiplication_guard():
    with pytest.raises(ValueError, match=r"^monomials are squarefree in x: 1 is repeated$"):
        Poly.x(1) * Poly.x(1)
    assert Poly.x(1) * Poly.x(2) == Poly({((1, 2), 0): 1})


def test_evaluate():
    p = Poly({((), 0): 1, ((1, 2), 2): 3})
    assert p.evaluate(1, 1) == 4
    assert p.evaluate(2, 1) == 13
    assert p.evaluate({1: 1, 2: 0}, 5) == 1
    # An int x and the mapping that sends every variable to it agree.
    g = gn(7)
    for x, y in [(0, 0), (1, 1), (-2, 3), (5, -1)]:
        assert g.evaluate(x, y) == g.evaluate(dict.fromkeys(range(1, 7), x), y)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1.5,), "x must be an integer: 1.5"),
        ((True,), "x must be an integer: True"),
        ((2, 1.5), "y must be an integer: 1.5"),
        ((2, False), "y must be an integer: False"),
        (({1: 2, 2: True},), "x2 must be an integer: True"),
        (({1: 2.0, 2: 1},), "x1 must be an integer: 2.0"),
        (({1: 2},), "no value given for x2"),
        (({3: 1},), "no value given for x1"),
    ],
)
def test_evaluate_refuses_what_is_not_an_integer(args, message):
    # Every integer argument refuses a bool and a float, and a mapping
    # names the variable that it leaves out.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gn(3).evaluate(*args)


def test_evaluate_reads_only_the_variables_of_the_terms():
    assert gn(3).evaluate({1: 2, 2: 1, 7: 1.5}, 3) == 34
    assert Poly.constant(5).evaluate({}) == 5
    assert Poly().evaluate({}, 2) == 0


def test_str_canonical():
    assert str(Poly()) == "0"
    assert str(Poly.constant(1)) == "1"
    assert str(gn(3)) == "1 + x1*y + 3*x2*y + x1*x2*y^2"
    # ascending y-degree, then lexicographic x-variables
    p = Poly({((2,), 1): 1, ((1,), 1): 1, ((), 0): 2, ((1, 2), 2): -1})
    assert str(p) == "2 + x1*y + x2*y + -1*x1*x2*y^2"


def test_gn_small():
    assert gn(1) == 1
    assert gn(1).terms() == {
        (tuple(v - 1 for v in s), len(s)): count for s, count in cdes_insertion_table(1).items()
    }
    assert str(gn(2)) == "1 + x1*y"
    with pytest.raises(ValueError):
        gn(0)


def test_gn_matches_reference_table():
    for n, expected in REFERENCE_COUNTS.items():
        want = {
            (tuple(v - 1 for v in s), len(s)): coeff for s, coeff in expected.items()
        }
        assert gn(n).terms() == want, n


def test_gn_matches_brute_enumeration():
    # Rebuild the polynomial straight from the brute-force table.
    for n in range(2, 7):
        direct = Poly(
            {
                (tuple(v - 1 for v in s), len(s)): count
                for s, count in brute_cdes_table(n).items()
            }
        )
        assert gn(n) == direct, n


def test_gn_coefficients_are_counts():
    for n in range(2, 10):
        g = gn(n)
        for s in iter_value_sets(n):
            assert descent_set_coefficient(g, s) == cdes_formula(n, s), (n, s)


def _scatter_gn(n):
    # The per-term scatter gn ran before its whole-slice passes, kept as
    # written then: the reference for the terms, their key order and the
    # peak memory.
    # The keys come first, so that the dict is at its final size before the
    # coefficient list exists: the two never grow side by side.
    keys = [((), 0)]
    for i in range(1, n):
        tail = (i,)
        keys += [(xvars + tail, ydeg + 1) for xvars, ydeg in keys]
    terms = dict.fromkeys(keys, 0)
    del keys
    coeffs = [1, 1]  # g_2 = 1 + x1*y
    for m in range(2, n):
        top = 1 << (m - 1)  # the bit of x_m
        # The masks below top hold the 1 * g_m part and are only read; the
        # scatter writes only to the new masks, each holding x_m.
        coeffs.extend(itertools.repeat(0, top))
        for mask, c in zip(range(top), coeffs):
            grown = mask | top
            coeffs[grown] += (m - mask.bit_count()) * c
            rest = mask
            while rest:
                bit = rest & -rest
                coeffs[grown ^ bit] += c
                rest ^= bit
    for key, c in zip(terms, coeffs):
        terms[key] = c
    return terms


def test_gn_matches_the_scatter_key_order_included():
    for n in range(2, 13):
        assert list(gn(n).terms().items()) == list(_scatter_gn(n).items()), n


def _peak_bytes(build, n):
    build(n)  # a first call settles the allocator's free lists
    tracemalloc.start()
    try:
        build(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gn_peak_memory_stays_within_a_tenth_of_the_scatter():
    # The keys are listed after the slice passes, so the passes'
    # temporaries never stand beside the dict, nor beside the keys that a
    # first call lists.
    assert _peak_bytes(gn, 16) <= 1.1 * _peak_bytes(_scatter_gn, 16)
    assert _first_call_peak_bytes(gn, 16) <= 1.1 * _first_call_peak_bytes(_scatter_gn, 16)


def test_gn_table_cap():
    with pytest.raises(ValueError, match=f"TABLE_MAX_N = {TABLE_MAX_N}"):
        gn(TABLE_MAX_N + 1)


def test_gn_structure():
    # Past the brute-force range, against the insertion table: the same
    # recurrence, written as separate code.
    for n in range(2, 17):
        g = gn(n)
        assert all(len(xv) == ydeg for xv, ydeg in g.terms())
        assert g.evaluate(1, 1) == math.factorial(n)
        want = {
            (tuple(v - 1 for v in s), len(s)): c
            for s, c in cdes_insertion_table(n).items()
        }
        assert g.terms() == want, n


@pytest.mark.parametrize(
    "parts, expected",
    [
        ((1, 2), (2, 4)),
        ((6,), (7,)),
        ((1, 1, 1), (2, 3, 4)),
    ],
)
def test_tau(parts, expected):
    assert tau(parts) == expected


def test_tau_rejects_nonpositive():
    with pytest.raises(ValueError):
        tau((1, 0))


def test_tau_rejects_bool():
    with pytest.raises(ValueError, match="^composition part must be an integer: True$"):
        tau((True, 2))


@pytest.mark.parametrize(
    "key, message",
    [
        (((True,), 0), "^x-variable index must be an integer: True$"),
        (((1,), True), "^y-degree must be an integer: True$"),
    ],
)
def test_monomial_rejects_bool(key, message):
    with pytest.raises(ValueError, match=message):
        Poly({key: 1})
    with pytest.raises(ValueError, match=message):
        Poly.x(1).coefficient(*key)


def test_gnk_small():
    assert gnk(4, 0) == Poly.constant(1)
    assert str(gnk(4, 2)) == "x1*x2 + 3*x1*x3 + 7*x2*x3"
    assert str(gnk(5, 4)) == "x1*x2*x3*x4"
    with pytest.raises(ValueError):
        gnk(4, 4)


def test_gnk_table_cap():
    with pytest.raises(ValueError, match=f"TABLE_MAX_N = {TABLE_MAX_N}"):
        gnk(TABLE_MAX_N + 1, 1)
    # One term per element of [2, TABLE_MAX_N].
    assert len(gnk(TABLE_MAX_N, 1).terms()) == TABLE_MAX_N - 1


def test_gnk_composition_order_regression():
    # tau((1, 2)) = {2, 4} must carry weight 3 (its own gap vector (2, 1)),
    # while tau((2, 1)) = {3, 4} carries 7: attaching the unreversed
    # composition's weight would swap them.
    g = gnk(4, 2)
    assert g.coefficient((1, 3), 0) == 3
    assert g.coefficient((2, 3), 0) == 7


def test_gnk_coefficients_are_the_formula():
    # gnk is read off gn, so the closed form checks every slice on its
    # own: one term per size-k subset S of [2, n], no other term.
    for n in range(1, 11):
        for k in range(n):
            want = {
                (tuple(v - 1 for v in s), 0): cdes_formula(n, s)
                for s in itertools.combinations(range(2, n + 1), k)
            }
            assert gnk(n, k).terms() == want, (n, k)
    assert gnk(1, 0) == Poly.constant(1)


def test_gnk_reassembles_gn():
    for n in range(2, 9):
        total = Poly()
        for k in range(n):
            total = total + gnk(n, k) * Poly.y(k)
        assert total == gn(n), n
