"""Acceptance suite: one test per exit criterion, exact arithmetic
throughout, each printing a pass/fail line (visible under ``pytest -s``)."""

import functools
import itertools
import math
import time

from cdescent import (
    brute_cdes_table,
    brute_count_tableaux,
    brute_genocchi_perm_count,
    brute_nwexb_table,
    build_tree,
    cdes_formula,
    cdes_formula_typed,
    cdes_insertion_table,
    cdes_recursive,
    count_tableaux_formula,
    gap_vector,
    genocchi_number,
    gn,
    iter_leaf_paths,
    iter_shapes,
    iter_value_sets,
    leaf_theta,
    leaf_theta_inverse,
    tau,
    tree_weight_traversal,
)
from cdescent.verify import REFERENCE_COUNTS


def criterion(number, label, budget_seconds=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            started = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"criterion {number} ({label}): PASS [{elapsed:.2f}s]")
            if budget_seconds is not None:
                assert elapsed < budget_seconds, f"took {elapsed:.2f}s"

        return run

    return wrap


@criterion(1, "reference polynomial table n=2..5", budget_seconds=1.0)
def test_criterion_1_table_reproduction():
    for n, expected in REFERENCE_COUNTS.items():
        want = {
            (tuple(v - 1 for v in s), len(s)): coeff for s, coeff in expected.items()
        }
        assert gn(n).terms() == want, n
    # 2 + 4 + 8 + 16 printed coefficients across the four orders
    assert sum(len(v) for v in REFERENCE_COUNTS.values()) == 30


@criterion(2, "four-way method agreement n<=8", budget_seconds=60.0)
def test_criterion_2_four_way_agreement():
    cache = {}
    for n in range(1, 9):
        table = brute_cdes_table(n)
        sets = list(iter_value_sets(n))
        if n == 8:
            assert len(sets) == 128
        for s in sets:
            expected = table.get(s, 0)
            assert cdes_formula(n, s) == expected, (n, s, "formula")
            assert cdes_formula_typed(n, s) == expected, (n, s, "typed")
            assert cdes_recursive(n, s, cache) == expected, (n, s, "recursion")
            assert tree_weight_traversal(gap_vector(s)) == expected, (n, s, "tree")


@criterion(3, "insertion recursion equals formula n<=12", budget_seconds=10.0)
def test_criterion_3_insertion_agreement():
    for n in range(2, 13):
        table = cdes_insertion_table(n)
        assert len(table) == 2 ** (n - 1)
        for s, count in table.items():
            assert count == cdes_formula(n, s), (n, s)


@criterion(4, "counts sum to n!")
def test_criterion_4_mass_check():
    for n in range(1, 13):
        total = sum(cdes_formula(n, s) for s in iter_value_sets(n))
        assert total == math.factorial(n), n
    for n in range(1, 9):
        assert sum(brute_cdes_table(n).values()) == math.factorial(n), n


@criterion(5, "singleton law n<=64")
def test_criterion_5_singleton_law():
    for n in range(2, 65):
        assert cdes_formula(n, (n,)) == 2 ** (n - 1) - 1, n


@criterion(6, "tableaux oracle <=16 boxes, <=5 rows", budget_seconds=60.0)
def test_criterion_6_tableaux_oracle():
    checked = 0
    for shape in iter_shapes(16, 5):
        assert brute_count_tableaux(shape) == count_tableaux_formula(shape), shape
        checked += 1
    assert checked > 300


@criterion(7, "NWEXB counts equal descent-value counts n<=8")
def test_criterion_7_nwexb_identity():
    for n in range(1, 9):
        assert brute_nwexb_table(n) == brute_cdes_table(n), n


@criterion(8, "Genocchi recursion and permutation cross-check")
def test_criterion_8_genocchi():
    assert [genocchi_number(2, n) for n in range(1, 7)] == [1, 1, 3, 17, 155, 2073]
    pairs = [(1, n) for n in range(1, 5)]
    pairs += [(2, n) for n in range(1, 4)]
    pairs += [(3, n) for n in range(1, 3)]
    for k, n in pairs:
        assert brute_genocchi_perm_count(k, n) == genocchi_number(k, n + 1), (k, n)


@criterion(9, "structural properties")
def test_criterion_9_structure():
    for k in range(13):
        paths = list(iter_leaf_paths(build_tree(k)))
        assert len(paths) == 2**k
        images = set()
        for path in paths:
            bits = leaf_theta(path)
            assert leaf_theta_inverse(bits) == path
            images.add(bits)
        assert len(images) == 2**k
    for n in range(2, 10):
        assert all(len(xv) == ydeg for xv, ydeg in gn(n).terms())
    for total in range(1, 11):
        for parts in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), parts - 1):
                bounds = (0, *cuts, total)
                d = tuple(b - a for a, b in itertools.pairwise(bounds))
                assert gap_vector(tau(d)) == d[::-1], d
