import itertools
import math
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdescent.contract as contract
import cdescent.perms as perms_module
from cdescent import (
    as_value_set,
    brute_cdes_count,
    brute_cdes_nwexb_tables,
    brute_cdes_table,
    brute_genocchi_perm_count,
    brute_nwexb_count,
    brute_nwexb_table,
    build_tree,
    cdes_formula,
    cdes_formula_typed,
    cdes_insertion_table,
    cdes_recursive,
    circular_descent_set,
    count_tableaux_formula,
    gap_vector,
    gandhi_poly,
    genocchi_number,
    gn,
    gnk,
    is_valid_tableau,
    iter_shapes,
    iter_value_sets,
    leaf_theta_inverse,
    nwexb_set,
)
from cdescent.contract import as_descent_set
from cdescent.poly import Poly
from cdescent.verify import run_all
from test_poly import _scatter_gn
from test_recursion import _listed_insertion_table

perms = st.integers(1, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1))))


@pytest.mark.parametrize(
    "perm, expected",
    [
        ((4, 8, 6, 3, 2, 5, 1, 7), (3, 5, 6, 8)),
        ((1, 2, 3), ()),
        ((2, 1), (2,)),
        ((1,), ()),
    ],
)
def test_circular_descent_set(perm, expected):
    assert circular_descent_set(perm) == expected


@pytest.mark.parametrize(
    "perm, expected",
    [
        ((1, 2, 3), ()),
        ((2, 1), (2,)),
        ((3, 1, 2), (2, 3)),
    ],
)
def test_nwexb_set(perm, expected):
    assert nwexb_set(perm) == expected


def test_sets_of_a_long_permutation():
    # The reversed permutation of [100000]: every value but 1 is a descent
    # value, and position i holds 100001 - i, below i from 50001 on.  Its
    # rotation (2, ..., 100000, 1) has one bottom, at the last position.
    # Decoding such masks one shift per bit took ~0.3 s each.
    reverse = tuple(range(100000, 0, -1))
    assert circular_descent_set(reverse) == tuple(range(2, 100001))
    assert nwexb_set(reverse) == tuple(range(50001, 100001))
    assert nwexb_set((*range(2, 100001), 1)) == (100000,)


@pytest.mark.parametrize("bad", [(1, 1), (2, 3), (0, 1), (1, 3)])
def test_invalid_permutations_rejected(bad):
    with pytest.raises(ValueError):
        circular_descent_set(bad)


HUGE = 10**5000  # past Python's 4300-digit limit on int-to-str conversion


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cdes_formula(5, (HUGE, HUGE)), "value sets have distinct elements: an integer of 16610 bits is repeated"),
        (lambda: gap_vector((1, HUGE)), "1 is never a descent value"),
        (lambda: gap_vector(range(1, 100001)), "1 is never a descent value"),
        (lambda: count_tableaux_formula((1, HUGE)), "row lengths must be weakly decreasing: row 2 is longer than row 1"),
        (lambda: count_tableaux_formula((3, 3, 4)), "row lengths must be weakly decreasing: row 3 is longer than row 2"),
        (lambda: circular_descent_set((HUGE, 1)), "not a permutation of [2]: 2 is missing"),
        (lambda: circular_descent_set((4, 1, 4, 5)), "not a permutation of [4]: 2 is missing"),
        (lambda: Poly({((HUGE, HUGE), 0): 1}), "monomials are squarefree in x: an integer of 16610 bits is repeated"),
        (lambda: Poly({((3, 1, 3), 0): 1}), "monomials are squarefree in x: 3 is repeated"),
        (lambda: Poly.x(HUGE) * Poly.x(HUGE), "monomials are squarefree in x: an integer of 16610 bits is repeated"),
        (lambda: Poly.x(1) * Poly.x(1), "monomials are squarefree in x: 1 is repeated"),
    ],
    ids=[
        "repeated huge element",
        "1 beside a huge element",
        "1 in 100000 elements",
        "huge row under a short one",
        "longer row",
        "huge permutation entry",
        "missing value",
        "huge repeated index",
        "repeated index",
        "huge index squared",
        "index squared",
    ],
)
def test_refusals_name_one_offender(call, message):
    # One value at most, not the whole input: a short line even for an
    # input too long or an element too large to print.
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
    assert len(message) < 200


def test_as_value_set():
    assert as_value_set({4, 2}) == (2, 4)
    assert as_value_set((), n=3) == ()
    with pytest.raises(ValueError):
        as_value_set((2, 2))
    with pytest.raises(ValueError):
        as_value_set((0, 1))
    with pytest.raises(ValueError):
        as_value_set((5,), n=4)
    with pytest.raises(ValueError):
        as_value_set([True, 3])


class Small(int):
    pass


@pytest.mark.parametrize(
    "elements, message",
    [
        ([2.0, 3], "set element must be an integer: 2.0"),
        ([3, 2.5], "set element must be an integer: 2.5"),
        ([False], "set element must be an integer: False"),
        ([0], "set element must be at least 1: 0"),
        ([-4, 3], "set element must be at least 1: -4"),
        ([Small(0)], "set element must be at least 1: 0"),
    ],
)
def test_as_value_set_refuses_non_positive_integers(elements, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        as_value_set(elements)


@pytest.mark.parametrize(
    "elements, expected", [((), ()), ({2}, (2,)), ([5, 3, 2], (2, 3, 5))]
)
def test_as_descent_set(elements, expected):
    assert as_descent_set(elements) == expected


@pytest.mark.parametrize(
    "elements, message",
    [
        ({1}, "1 is never a descent value"),
        ((4, 1, 2), "1 is never a descent value"),
        ([0, 2], "set element must be at least 1: 0"),
        ((3, 3), "value sets have distinct elements: 3 is repeated"),
        ([True, 2], "set element must be an integer: True"),
    ],
)
def test_as_descent_set_refusals(elements, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        as_descent_set(elements)


@pytest.mark.parametrize(
    "route",
    [cdes_formula, cdes_formula_typed, cdes_recursive, brute_cdes_count],
    ids=lambda route: route.__name__,
)
def test_count_routes_give_zero_for_a_set_containing_one(route):
    # 1 is never a descent value, so no permutation has such a set.
    assert [route(1, (1,)), route(5, (1,)), route(5, (1, 3)), route(6, (1, 2, 6))] == [0] * 4


def test_as_value_set_keeps_int_subclasses():
    # Only bool is refused among int subclasses.
    assert as_value_set([Small(3), 2]) == (2, 3)


class Index:
    """Not an int, though ``operator.index`` would take it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"Index({self.value})"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: cdes_formula(5, [2, "a"]), "set element must be an integer: 'a'"),
        (lambda: cdes_recursive(5, [Index(2), 3]), "set element must be an integer: Index(2)"),
        (lambda: gap_vector([2, None]), "set element must be an integer: None"),
        (lambda: Poly({((1, "a"), 0): 1}), "x-variable index must be an integer: 'a'"),
    ],
    ids=["formula", "recursion", "gap vector", "monomial"],
)
def test_sets_are_checked_before_they_are_sorted(call, message):
    # Elements that do not compare would stop a sort with a TypeError; the
    # first offending element is named instead, as in a one-element set.
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def outcome(call):
    # The value, or the text of the refusal: the two functions must return
    # the same set or refuse it in the same words.  Any other exception
    # (a TypeError from sorting, say) fails the property.
    try:
        return call()
    except ValueError as error:
        return str(error)


set_elements = st.one_of(
    st.integers(-3, 24),
    st.booleans(),
    st.sampled_from([2.0, 3.5, -1.0]),
    st.integers(1, 24).map(Small),
    st.integers(1, 24).map(Index),
)
containers = {
    "tuple": tuple,
    "list": list,
    "set": set,
    "generator": lambda values: (v for v in values),
}
set_sizes = st.one_of(
    st.integers(1, 24),
    st.sampled_from([True, False, 2.0, 0, -1, contract.COUNT_MAX_N, contract.COUNT_MAX_N + 1]),
    st.integers(1, 24).map(Small),
    st.integers(1, 24).map(Index),
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(sorted(containers)), st.lists(set_elements, max_size=6)),
        st.tuples(st.just("tuple"), st.lists(st.integers(1, 24), max_size=6)),  # mostly accepted
        st.tuples(st.just("string"), st.text("0123ab", max_size=4)),
    ),
    set_sizes,
)
def test_as_value_mask_is_as_value_set_as_a_mask(drawn, n):
    kind, values = drawn

    def fresh():  # a new container per call, so a generator is read once by each
        return values if kind == "string" else containers[kind](values)

    mask = outcome(lambda: contract.as_value_mask(fresh(), n=n))
    expected = outcome(lambda: as_value_set(fresh(), n=n))
    if isinstance(mask, int):
        assert type(mask) is int and perms_module._members(mask) == expected
    else:
        assert mask == expected


@pytest.mark.parametrize("n", [1, 2, 9, 12])
def test_shared_keys_ascend_by_bitmask(n):
    # Entry k of either list is the set of the bits of k: values from 2
    # for the table's keys, x-variables from 1 with their count for gn's.
    sets = [tuple(v + 2 for v in perms_module._members(mask)) for mask in range(2 ** (n - 1))]
    keys = list(contract._value_set_keys(n))
    monomials = list(contract._monomial_keys(n))
    assert keys[: len(sets)] == sets
    assert monomials[: len(sets)] == [(tuple(v - 1 for v in s), len(s)) for s in sets]


@pytest.fixture
def fresh_keys(monkeypatch):
    # Both shared key lists as a fresh process has them: the empty set alone.
    monkeypatch.setattr(contract._value_set_keys, "_keys", [()])
    monkeypatch.setattr(contract._monomial_keys, "_keys", [((), 0)])


def _references(n):
    return list(_listed_insertion_table(n).items()), list(_scatter_gn(n).items())


def test_shared_keys_grow_in_any_call_order(fresh_keys):
    # Each n reads a prefix of the list grown for the largest n before it.
    for n in (14, 5, 16, 9):
        table, terms = _references(n)
        assert list(cdes_insertion_table(n).items()) == table, n
        assert list(gn(n).terms().items()) == terms, n
    assert len(contract._value_set_keys._keys) == len(contract._monomial_keys._keys) == 2**15


def test_shared_keys_leave_each_result_independent(fresh_keys):
    table, terms = _references(10)
    first = cdes_insertion_table(10)
    first[()] = -1
    first[(2, 3)] = 0
    del first[(10,)]
    first_terms = gn(10).terms()
    first_terms.clear()
    assert list(cdes_insertion_table(10).items()) == table
    assert list(gn(10).terms().items()) == terms


def test_shared_keys_grow_safely_across_threads(fresh_keys):
    # Four threads, more than the cores, build tables of mixed n from a
    # fresh list and switch every few microseconds, so growths race with
    # each other and with readers of shorter prefixes.
    sizes = [n for _ in range(3) for n in (14, 3, 12, 8, 13, 11, 6, 10)]
    expected = {n: _references(n) for n in set(sizes)}

    def build(n):
        return list(cdes_insertion_table(n).items()), list(gn(n).terms().items())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for n, built in zip(sizes, pool.map(build, sizes, timeout=120)):
                assert built == expected[n], n
    finally:
        sys.setswitchinterval(interval)


bounds = st.none() | st.integers(-3, 3)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(-5, 5),
            st.booleans(),
            st.sampled_from([2.0, -1.5, float("inf")]),
            st.integers(-5, 5).map(Small),
            st.integers(-5, 5).map(Index),
            st.text("1a", max_size=2),
        ),
        max_size=8,
    ),
    bounds,
    bounds,
)
def test_check_ints_names_the_first_element_check_int_refuses(values, low, high):
    refusals = [outcome(lambda v=v: contract.check_int("entry", v, low, high)) for v in values]
    first = next((refusal for refusal in refusals if refusal is not None), None)
    assert outcome(lambda: contract.check_ints("entry", values, low, high)) == first


# The count routes that check their set with as_value_mask.
mask_routes = [cdes_recursive, brute_cdes_count, brute_nwexb_count]


@pytest.mark.parametrize(
    "n, elements, message",
    [
        (0, (0, 0), "n must be at least 1: 0"),
        (True, (2,), "n must be an integer: True"),
        (3.0, (2,), "n must be an integer: 3.0"),
        (100_001, (), "n = 100001 exceeds the count cap COUNT_MAX_N = 100000"),
        (5, (True, 9), "set element must be an integer: True"),
        (5, (2, 2.0), "set element must be an integer: 2.0"),
        (5, (Index(2),), "set element must be an integer: Index(2)"),
        (5, (0, 0), "set element must be at least 1: 0"),
        (5, (-2, 3, 9), "set element must be at least 1: -2"),
        (5, (4, 9, 4), "value sets have distinct elements: 4 is repeated"),
        (5, (3, 7), "element 7 outside [1, 5]"),
        (5, "24", "set element must be an integer: '2'"),
    ],
)
@pytest.mark.parametrize("route", mask_routes, ids=lambda route: route.__name__)
def test_count_routes_refuse_a_set_in_the_words_of_as_value_set(route, n, elements, message):
    # The first rule broken is named, as as_value_set names it.
    for call in (lambda: as_value_set(elements, n=n), lambda: route(n, iter(elements))):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


@pytest.mark.parametrize("route", mask_routes, ids=lambda route: route.__name__)
def test_count_routes_take_a_one_shot_iterator(route):
    want = route(5, (3, 5))
    assert route(5, iter((5, 3))) == want
    assert route(5, (Small(v) for v in (5, 3))) == want


@pytest.mark.parametrize("n", [2.5, 3.0, True])
@pytest.mark.parametrize(
    "route",
    [cdes_formula, cdes_formula_typed, cdes_recursive, brute_cdes_count, brute_nwexb_count],
    ids=lambda route: route.__name__,
)
def test_count_routes_refuse_a_non_integer_n(route, n):
    with pytest.raises(ValueError, match=f"^n must be an integer: {n!r}$"):
        route(n, (2,))


def test_iter_value_sets():
    assert list(iter_value_sets(1)) == [()]
    assert list(iter_value_sets(3)) == [(), (2,), (3,), (2, 3)]
    assert len(list(iter_value_sets(6))) == 32


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: iter_value_sets(0), "n must be at least 1: 0"),
        (lambda: iter_shapes(-1, 2), "max_boxes must be at least 0: -1"),
        (lambda: iter_shapes(3, -1), "max_rows must be at least 0: -1"),
    ],
)
def test_iterators_refuse_bad_arguments_at_the_call(call, message):
    # Refused before any iterator exists, not at its first next().
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "n, s, expected",
    [
        (4, (2, 4), 3),
        (5, (1, 3), 0),
        (5, (4, 5), 31),
    ],
)
def test_brute_cdes_count(n, s, expected):
    assert brute_cdes_count(n, s) == expected


def test_brute_cdes_count_matches_full_scan():
    # Every S of [1, n], so sets containing 1 and sets no permutation has
    # are counted too, and must come out 0.
    for n in range(1, 9):
        table = brute_cdes_table(n)
        for size in range(n + 1):
            for s in itertools.combinations(range(1, n + 1), size):
                assert brute_cdes_count(n, s) == table.get(s, 0), (n, s)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((9, 10)).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(2, n)))))
def test_brute_cdes_count_matches_formula(case):
    n, s = case
    assert brute_cdes_count(n, s) == cdes_formula(n, s)


def test_brute_cdes_count_checks_the_set_before_the_cap():
    with pytest.raises(ValueError, match=r"element 12 outside \[1, 11\]"):
        brute_cdes_count(11, (12,))
    with pytest.raises(ValueError, match="n must be at least 1: 0"):
        brute_cdes_count(0, ())
    with pytest.raises(
        ValueError, match="n = 11 exceeds the enumeration cap DEFAULT_ENUMERATION_CAP = 10"
    ):
        brute_cdes_count(11, (3,))


def test_brute_cdes_tables():
    assert brute_cdes_table(1) == {(): 1}
    assert brute_cdes_table(2) == {(): 1, (2,): 1}
    assert brute_cdes_table(3) == {(): 1, (2,): 1, (3,): 3, (2, 3): 1}


def test_table_mass_and_attainability():
    # Values sum to n!, and every nonempty subset of [2, n] is attained.
    for n in range(1, 7):
        table = brute_cdes_table(n)
        assert sum(table.values()) == math.factorial(n)
        for s in iter_value_sets(n):
            if s:
                assert table.get(s, 0) >= 1, (n, s)


def test_sets_containing_one_unattained():
    for n in range(2, 6):
        assert brute_cdes_count(n, (1,)) == 0
        assert brute_cdes_count(n, (1, n)) == 0


@pytest.mark.parametrize(
    "n, s, expected",
    [
        (4, (2, 4), 3),
        (3, (1,), 0),
        (1, (), 1),
        (5, (), 1),
    ],
)
def test_brute_nwexb_count(n, s, expected):
    assert brute_nwexb_count(n, s) == expected


def test_brute_nwexb_count_matches_full_scan():
    # Every S of [1, n]: sets no permutation has must come out 0.
    for n in range(1, 9):
        table = brute_nwexb_table(n)
        for size in range(n + 1):
            for s in itertools.combinations(range(1, n + 1), size):
                assert brute_nwexb_count(n, s) == table.get(s, 0), (n, s)


def test_brute_nwexb_count_cap():
    with pytest.raises(
        ValueError, match="n = 11 exceeds the enumeration cap DEFAULT_ENUMERATION_CAP = 10"
    ):
        brute_nwexb_count(11, (3,))


def test_nwexb_table_equals_cdes_table():
    for n in range(1, 7):
        assert brute_nwexb_table(n) == brute_cdes_table(n)


def test_workers_accepted_and_without_effect():
    # The scan runs in process; the keyword is only validated.
    for workers in (1, 2, 64):
        assert brute_cdes_table(6, workers=workers) == brute_cdes_table(6)


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_below_one_rejected(workers):
    with pytest.raises(ValueError, match=f"^workers must be at least 1: {workers}$"):
        brute_cdes_table(5, workers=workers)


@pytest.mark.parametrize("n", [2.5, 2.0, True])
@pytest.mark.parametrize(
    "table", [brute_cdes_table, brute_nwexb_table, brute_cdes_nwexb_tables], ids=lambda t: t.__name__
)
def test_tables_refuse_a_non_integer_n(table, n):
    with pytest.raises(ValueError, match=f"^n must be an integer: {n!r}$"):
        table(n)


# Each integer argument, by the call that passes it: (its name, the call).
SIZE_ARGUMENTS = {
    "cdes_insertion_table(n)": ("n", cdes_insertion_table),
    "gn(n)": ("n", gn),
    "gnk(n, 1)": ("n", lambda n: gnk(n, 1)),
    "gnk(4, k)": ("k", lambda k: gnk(4, k)),
    "genocchi_number(2, n)": ("n", lambda n: genocchi_number(2, n)),
    "genocchi_number(k, 3)": ("k", lambda k: genocchi_number(k, 3)),
    "brute_genocchi_perm_count(2, n)": ("n", lambda n: brute_genocchi_perm_count(2, n)),
    "brute_genocchi_perm_count(k, 2)": ("k", lambda k: brute_genocchi_perm_count(k, 2)),
    "gandhi_poly(2, n)": ("n", lambda n: gandhi_poly(2, n)),
    "gandhi_poly(k, 2)": ("k", lambda k: gandhi_poly(k, 2)),
    "Poly coefficient": ("coefficient", lambda c: Poly({((1,), 0): c})),
    "leaf_theta_inverse(bits)": ("increment", lambda b: leaf_theta_inverse((1, b))),
    "is_valid_tableau(parts, bits)": ("filling entry", lambda b: is_valid_tableau((1,), (b,))),
    "is_valid_tableau(parts, ...)": ("row length", lambda r: is_valid_tableau((r,), (1,))),
    "circular_descent_set(perm)": ("permutation entry", lambda v: circular_descent_set((v, 2))),
    "iter_value_sets(n)": ("n", lambda n: list(iter_value_sets(n))),
    "iter_shapes(max_boxes, 2)": ("max_boxes", lambda m: list(iter_shapes(m, 2))),
    "build_tree(k)": ("k", build_tree),
    "run_all(max_n)": ("max_n", run_all),
    "run_all(4, workers)": ("workers", lambda workers: run_all(4, workers=workers)),
}


@pytest.mark.parametrize("value", [2.5, 3.0, True])
@pytest.mark.parametrize(("name", "call"), SIZE_ARGUMENTS.values(), ids=SIZE_ARGUMENTS.keys())
def test_sizes_refuse_a_non_integer(name, call, value):
    # The rule of check_int, an int and not a bool, before any range check.
    with pytest.raises(ValueError, match=f"^{name} must be an integer: {value!r}$"):
        call(value)


def _descents(perm):
    return tuple(sorted(perm[i] for i in range(len(perm) - 1) if perm[i] > perm[i + 1]))


def _nwexbs(perm):
    return tuple(i for i in range(1, len(perm) + 1) if perm[i - 1] < i)


def _naive_table(statistic, n):
    # The definition, tallied over S_n one permutation at a time.
    tally = Counter(map(statistic, itertools.permutations(range(1, n + 1))))
    return dict(sorted(tally.items(), key=lambda item: sum(1 << v for v in item[0])))


@pytest.mark.parametrize("n", range(1, 9))
def test_tables_match_the_definitions(n):
    # Same sets, same counts and the same key order (by bitmask).
    assert list(brute_cdes_table(n).items()) == list(_naive_table(_descents, n).items())
    assert list(brute_nwexb_table(n).items()) == list(_naive_table(_nwexbs, n).items())


@pytest.mark.parametrize("n", range(1, 9))
def test_joint_scan_gives_the_two_single_tables(n):
    # Same sets, same counts and the same key order as one scan per rule.
    cdes, nwexb = brute_cdes_nwexb_tables(n)
    assert list(cdes.items()) == list(brute_cdes_table(n).items())
    assert list(nwexb.items()) == list(brute_nwexb_table(n).items())


def test_joint_tables_scan_once_per_statistic(monkeypatch):
    # Two class-tally scans, one per rule, and no third that packs both.
    scanned = []
    scan = perms_module._brute_table

    def counted(rule, n):
        scanned.append((rule, n))
        return scan(rule, n)

    monkeypatch.setattr(perms_module, "_brute_table", counted)
    brute_cdes_nwexb_tables(6)
    assert scanned == [(perms_module._descent_bit, 6), (perms_module._nwexb_bit, 6)]


def test_tables_build_their_classes_without_enumerating_arrangements(monkeypatch):
    # The half arrangements are tallied by a DP over value sets, grown one
    # value at a time, and never walked one by one.
    expected = brute_cdes_table(8), brute_nwexb_table(8)

    def refused(*args):
        raise AssertionError("the scan enumerates arrangements")

    monkeypatch.setattr(itertools, "permutations", refused)
    assert list(brute_cdes_table(8).items()) == list(expected[0].items())
    assert list(brute_nwexb_table(8).items()) == list(expected[1].items())


def test_tables_at_nine_are_the_insertion_table():
    # Past the splits that test_tables_do_not_depend_on_the_tail_length
    # forces: a head of five values and a tail of four.  Same sets, same
    # counts and the same key order.
    table = cdes_insertion_table(9)
    assert list(brute_cdes_table(9).items()) == list(table.items())
    assert list(brute_nwexb_table(9).items()) == list(table.items())


@pytest.mark.parametrize("scan", [brute_cdes_table, brute_nwexb_table], ids=["cdes", "nwexb"])
def test_scan_at_nine_stays_small(scan):
    # Two levels of each half's classes, one value set's full-size classes,
    # the joined pairs and the 2^10 totals, about 0.29-0.31 MB under
    # tracemalloc; a prefix DP over (used values, last value) would hold
    # over 1 MB.
    tracemalloc.start()
    try:
        scan(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


@pytest.mark.parametrize("tail", [1, 2, 3, 4, 5, 6, 7, 8])
def test_tables_do_not_depend_on_the_tail_length(monkeypatch, tail):
    # Every head/tail split of n <= 8, against the default split of each n:
    # tail 8 leaves the head empty for every n <= 8; tail 1 puts one value
    # in the tail and all the others in the head, whose deepest DP levels
    # hold several classes per (value set, end value).
    expected = {n: (brute_cdes_table(n), brute_nwexb_table(n)) for n in range(1, 9)}
    monkeypatch.setattr(perms_module, "_tail_length", lambda n: min(tail, n))
    for n in range(1, 9):
        cdes, nwexb = expected[n]
        assert list(brute_cdes_table(n).items()) == list(cdes.items()), n
        assert list(brute_nwexb_table(n).items()) == list(nwexb.items()), n


def test_enumeration_cap():
    message = "n = 11 exceeds the enumeration cap DEFAULT_ENUMERATION_CAP = 10"
    with pytest.raises(ValueError, match=message):
        brute_cdes_table(11)
    with pytest.raises(ValueError, match=message):
        brute_nwexb_table(11)
    with pytest.raises(ValueError, match=message):
        brute_cdes_nwexb_tables(11)


@given(perms)
def test_one_never_a_descent_value(perm):
    assert 1 not in circular_descent_set(perm)
    assert 1 not in nwexb_set(perm)


@given(perms)
def test_descent_values_lie_in_range(perm):
    s = circular_descent_set(perm)
    assert all(2 <= v <= len(perm) for v in s)
    assert s == tuple(sorted(set(s)))


@given(perms)
def test_statistics_match_naive_definitions(perm):
    assert circular_descent_set(perm) == _descents(perm)
    assert nwexb_set(perm) == _nwexbs(perm)
