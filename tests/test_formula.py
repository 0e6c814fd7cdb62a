import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdescent import (
    brute_cdes_count,
    brute_cdes_table,
    cdes_formula,
    cdes_formula_typed,
    cdes_recursive,
    descent_set_coefficient,
    gap_vector,
    gn,
    iter_value_sets,
    set_type,
    tau,
    tree_weight_sum,
)
from cdescent import contract, formula
from cdescent.formula import cube_sum
from cdescent.contract import SUM_CAP

value_sets = st.sets(st.integers(2, 14), max_size=7).map(lambda s: tuple(sorted(s)))


@pytest.mark.parametrize(
    "s, expected",
    [
        ((2, 4), (2, 1)),
        ((7,), (6,)),
        ((2, 3, 4), (1, 1, 1)),
        ((), ()),
    ],
)
def test_gap_vector(s, expected):
    assert gap_vector(s) == expected


@pytest.mark.parametrize(
    "call",
    [gap_vector, set_type, lambda s: descent_set_coefficient(gn(4), s)],
    ids=["gap_vector", "set_type", "descent_set_coefficient"],
)
def test_one_is_never_a_descent_value(call):
    with pytest.raises(ValueError, match=r"^1 is never a descent value$"):
        call({3, 1})


@given(value_sets.filter(bool))
def test_gap_vector_shape(s):
    gaps = gap_vector(s)
    assert all(g >= 1 for g in gaps)
    assert sum(gaps) == max(s) - 1
    # Cumulative sums from 1, read in reverse, reconstruct the set.
    assert tau(gaps[::-1]) == s


@pytest.mark.parametrize(
    "s, expected",
    [
        ((2, 4), ((4, 1), (2, 1))),
        ((3, 4, 7, 8, 9), ((9, 3), (4, 2))),
        ((2,), ((2, 1),)),
        ((), ()),
    ],
)
def test_set_type(s, expected):
    assert set_type(s) == expected


def test_set_type_reconstructs():
    for n in range(2, 9):
        for s in iter_value_sets(n):
            if not s:
                continue
            rebuilt = []
            for run_max, run_len in set_type(s):
                rebuilt.extend(range(run_max - run_len + 1, run_max + 1))
            assert tuple(sorted(rebuilt)) == s


@pytest.mark.parametrize(
    "n, s, expected",
    [
        (4, (2, 4), 3),
        (5, (3, 5), 17),
        (6, (6,), 31),
        (5, (2, 3, 4, 5), 1),
        (5, (1, 3), 0),
        (7, (), 1),
        (1, (), 1),
    ],
)
def test_cdes_formula(n, s, expected):
    assert cdes_formula(n, s) == expected


@pytest.mark.parametrize(
    "n, s, expected",
    [
        (4, (2, 4), 3),
        (5, (4, 5), 31),
        (9, (), 1),
        (5, (1, 3), 0),
    ],
)
def test_cdes_formula_typed(n, s, expected):
    assert cdes_formula_typed(n, s) == expected


def test_rejects_n_below_max():
    with pytest.raises(ValueError):
        cdes_formula(3, (2, 4))
    with pytest.raises(ValueError):
        cdes_formula_typed(3, (4,))
    with pytest.raises(ValueError):
        cdes_formula(0, ())


@pytest.mark.parametrize(
    "route",
    [cdes_formula, cdes_formula_typed, cdes_recursive, brute_cdes_count],
    ids=lambda route: route.__name__,
)
@pytest.mark.parametrize(
    "n, s, message",
    [
        (0, (), "n must be at least 1: 0"),
        (-3, (2,), "n must be at least 1: -3"),
        (3, (4,), r"element 4 outside \[1, 3\]"),
        (1, (2,), r"element 2 outside \[1, 1\]"),
    ],
)
def test_every_count_route_checks_n_and_set_alike(route, n, s, message):
    with pytest.raises(ValueError, match=message):
        route(n, s)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cdes_formula(10**5000, ()), "n = an integer of 16610 bits exceeds the count cap COUNT_MAX_N = 100000"),
        (lambda: cdes_formula(-(10**5000), ()), "n must be at least 1: a negative integer of 16610 bits"),
        (lambda: gn(10**5000), "n = an integer of 16610 bits exceeds the table cap TABLE_MAX_N = 20"),
        (lambda: cdes_formula(5, (10**5000,)), "element an integer of 16610 bits outside [1, 5]"),
        # Up to 30 digits a value prints in full, as it always has.
        (lambda: cdes_formula(10**30 - 1, ()), f"n = {10**30 - 1} exceeds the count cap COUNT_MAX_N = 100000"),
        (lambda: cdes_formula(5, (2**100,)), "element an integer of 101 bits outside [1, 5]"),
    ],
    ids=["n", "negative n", "gn", "element", "30 digits", "101 bits"],
)
def test_huge_integers_are_refused_by_their_size(call, message):
    # Past Python's 4300-digit conversion limit the refusal is still the
    # package's own one-line message.
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_summation_cap_guards_the_closed_forms():
    # 32 elements with max(S) = 33: 2^32 * (32 + 16).
    message = "^work = 206158430208 exceeds the summation cap SUM_CAP = 40000000$"
    with pytest.raises(ValueError, match=message):
        cdes_formula(40, range(2, 34))
    with pytest.raises(ValueError, match=message):
        cdes_formula_typed(40, range(2, 34))
    # 20 elements with max(S) = 38: 2^20 * (37 + 16).
    message = "^work = 55574528 exceeds the summation cap SUM_CAP = 40000000$"
    with pytest.raises(ValueError, match=message):
        cdes_formula(40, range(19, 39))
    with pytest.raises(ValueError, match=message):
        cdes_formula_typed(40, range(19, 39))


def test_summation_work_cap_is_inclusive(monkeypatch):
    # 2^10 * (0 + 16) is exactly the cap; one more unit of either is over.
    monkeypatch.setattr(formula, "SUM_CAP", 16 << 10)
    assert cube_sum((0,) * 10) == 0
    with pytest.raises(ValueError, match="^work = 17408 exceeds the summation cap SUM_CAP = 16384$"):
        cube_sum((1,) + (0,) * 9)
    with pytest.raises(ValueError, match="^work = 32768 exceeds the summation cap SUM_CAP = 16384$"):
        cube_sum((0,) * 11)


def _work_refusal(exponents):
    try:
        formula.check_sum_work(exponents)
    except ValueError as refused:
        return str(refused)
    return None


def test_zero_exponents_are_refused_exactly_past_the_cap():
    # 16 * 2^k is the least work of k exponents: k zero exponents are
    # refused exactly when 16 << k is over SUM_CAP, by the one work check.
    assert [_work_refusal((0,) * k) for k in range(41)] == [
        f"work = {16 << k} exceeds the summation cap SUM_CAP = {SUM_CAP}" if 16 << k > SUM_CAP else None
        for k in range(41)
    ]


def test_formula_independent_of_n():
    for s in [(2,), (3, 5), (2, 4, 7), (6,)]:
        base = cdes_formula(max(s), s)
        for n in range(max(s), max(s) + 6):
            assert cdes_formula(n, s) == base


def test_formula_matches_brute():
    for n in range(1, 7):
        table = brute_cdes_table(n)
        for s in iter_value_sets(n):
            assert cdes_formula(n, s) == table.get(s, 0), (n, s)


def test_typed_matches_formula_exhaustively():
    for n in range(1, 9):
        for s in iter_value_sets(n):
            assert cdes_formula_typed(n, s) == cdes_formula(n, s), (n, s)


def test_singleton_law():
    for n in range(2, 65):
        assert cdes_formula(n, (n,)) == 2 ** (n - 1) - 1


@given(value_sets)
def test_typed_and_tree_agree_with_formula(s):
    n = max(s, default=1)
    want = cdes_formula(n, s)
    assert cdes_formula_typed(n, s) == want
    if s:
        assert tree_weight_sum(gap_vector(s)) == want
    assert want >= 0


def test_formula_checks_the_set_once(monkeypatch):
    # cdes_formula checks S with as_value_set and builds the gap vector
    # from the checked tuple, without gap_vector's second check.
    calls = []
    check = contract.as_value_set

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(contract, "as_value_set", counted)
    monkeypatch.setattr(formula, "as_value_set", counted)
    assert formula.cdes_formula(8, (3, 5, 8)) == 327
    assert len(calls) == 1
    assert formula.gap_vector((3, 5, 8)) == (3, 2, 2)
    assert len(calls) == 2
