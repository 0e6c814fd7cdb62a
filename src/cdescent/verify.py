"""Cross-method verification suite.

Every counting route implemented by the package is checked against every
other on overlapping domains, plus structural identities (mass checks,
bijections, reference coefficients).  The command-line ``verify`` command
prints one line per check; the test suite asserts the same results.

``run_all`` builds two reference tables once per run and hands them to
every check that compares against them: ``cdes_formula`` on every
S of [2, n] for n <= ``max_n``, and ``brute_cdes_table`` for n <=
``BRUTE_MAX_N``.  No route is compared with a table built by its own code.

The closed-form routes share one evaluator, ``formula.cube_sum``, so
``typed-vs-formula``, ``tree-sum-vs-formula`` and the type-sum leg of
``tableaux-three-routes`` test only their exponent builders.  The tree
route on a set (``tree.tree_count``, also ``count --method tree``) runs
the same gap vector and ``cube_sum`` as ``cdes_formula``, so the tree's
independent check is ``tree-traversal-vs-closed-sum``.  The brute-force
scans, the recursion, the insertion tables, ``gn``, the tree traversal
and the brute tableaux count stay independent of the evaluator.  The
insertion table works on bitmasks and shares no code with the brute
scan, the formula or ``gn``.  ``genocchi-cross-check`` compares the
Genocchi value triangle with the expanded Gandhi polynomials and with
the brute permutation count; the three share no code.

Brute-force sweeps are limited to n <= 8 regardless of ``max_n``; the
closed-form routes run the full range.  As 8 < ``perms.POOL_MIN_N``,
``workers`` (``verify --threads``) never starts a pool; it stays for the
callers that pass it, the benchmark among them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import perms  # as a module, so that every check_* name here is a check
from .formula import cdes_formula, cdes_formula_typed, gap_vector
from .genocchi import brute_genocchi_perm_count, evaluate, gandhi_poly, genocchi_number
from .perms import brute_cdes_table, brute_nwexb_table, iter_value_sets
from .poly import Poly, descent_set_coefficient, gn, gnk, tau
from .recursion import cdes_insertion_table, cdes_recursive
from .tableaux import (
    brute_count_tableaux,
    count_tableaux_formula,
    count_tableaux_type_sum,
    iter_shapes,
)
from .tree import (
    build_tree,
    iter_leaf_paths,
    leaf_theta,
    leaf_theta_inverse,
    tree_count,
    tree_weight_sum,
    tree_weight_traversal,
)

BRUTE_MAX_N = 8
DEFAULT_SEED = 987131

# Reference coefficient tables for the generating polynomials of order
# 2..5, keyed by descent-value set.  Frozen from independent brute-force
# enumeration; the coefficient of x_{s1-1}*...*x_{sk-1}*y^k must match.
REFERENCE_COUNTS: dict[int, dict[tuple[int, ...], int]] = {
    2: {(): 1, (2,): 1},
    3: {(): 1, (2,): 1, (3,): 3, (2, 3): 1},
    4: {
        (): 1,
        (2,): 1,
        (3,): 3,
        (2, 3): 1,
        (4,): 7,
        (2, 4): 3,
        (3, 4): 7,
        (2, 3, 4): 1,
    },
    5: {
        (): 1,
        (2,): 1,
        (3,): 3,
        (2, 3): 1,
        (4,): 7,
        (2, 4): 3,
        (3, 4): 7,
        (2, 3, 4): 1,
        (5,): 15,
        (2, 5): 7,
        (3, 5): 17,
        (2, 3, 5): 3,
        (4, 5): 31,
        (2, 4, 5): 7,
        (3, 4, 5): 15,
        (2, 3, 4, 5): 1,
    },
}

GENOCCHI_ORDER2 = (1, 1, 3, 17, 155, 2073)

# A reference table: n -> {S: count of permutations of [n] with descent-value set S}.
Table = dict[int, dict[tuple[int, ...], int]]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, mismatches: list, detail: str) -> CheckResult:
    if mismatches:
        return CheckResult(name, False, f"first mismatch: {mismatches[0]!r}")
    return CheckResult(name, True, detail)


def _mismatches(route, table: Table) -> list:
    """Every (n, S) of ``table`` on which ``route(n, S)`` differs from it."""
    return [
        (n, s) for n, row in table.items() for s, want in row.items() if route(n, s) != want
    ]


def check_brute_vs_formula(formula: Table, brute: Table) -> CheckResult:
    bad = _mismatches(lambda n, s: brute[n].get(s, 0), {n: formula[n] for n in brute})
    return _result("brute-vs-formula", bad, f"all sets, n <= {max(brute)}")


def check_typed_vs_formula(formula: Table) -> CheckResult:
    bad = _mismatches(cdes_formula_typed, formula)
    return _result("typed-vs-formula", bad, f"all sets, n <= {max(formula)}")


def check_recursion_vs_formula(formula: Table) -> CheckResult:
    cache: dict = {}
    bad = _mismatches(lambda n, s: cdes_recursive(n, s, cache), formula)
    return _result("recursion-vs-formula", bad, f"all sets, n <= {max(formula)}")


def check_tree_vs_formula(formula: Table) -> CheckResult:
    bad = _mismatches(tree_count, formula)
    return _result("tree-sum-vs-formula", bad, f"all sets, n <= {max(formula)}")


def check_traversal_vs_sum(max_n: int, seed: int) -> CheckResult:
    bad = []
    top = min(max_n, 8)
    for n in range(2, top + 1):
        for s in iter_value_sets(n):
            if s:
                d = gap_vector(s)
                if tree_weight_traversal(d) != tree_weight_sum(d):
                    bad.append(d)
    rng = random.Random(seed)
    for _ in range(25):
        d = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 10)))
        if tree_weight_traversal(d) != tree_weight_sum(d):
            bad.append(d)
    return _result(
        "tree-traversal-vs-closed-sum", bad, f"gap vectors n <= {top} + samples"
    )


def check_insertion_vs_formula(formula: Table) -> CheckResult:
    top = max(formula)
    table = cdes_insertion_table(top)
    bad = [] if len(table) == 2 ** (top - 1) else [("size", len(table))]
    bad += _mismatches(lambda n, s: table.get(s), {top: formula[top]})
    return _result("insertion-vs-formula", bad, f"entrywise at n = {top}")


def check_table_mass(formula: Table) -> CheckResult:
    bad = [
        (n, total)
        for n, row in formula.items()
        if (total := sum(row.values())) != math.factorial(n)
    ]
    return _result("formula-mass-equals-factorial", bad, f"n <= {max(formula)}")


def check_nwexb_vs_cdes(brute: Table, workers: int = 1) -> CheckResult:
    bad = [n for n, row in brute.items() if brute_nwexb_table(n, workers=workers) != row]
    return _result("nwexb-vs-cdes", bad, f"full tables, n <= {max(brute)}")


def check_poly_reference_table() -> CheckResult:
    bad = []
    for n, expected in REFERENCE_COUNTS.items():
        g = gn(n)
        want = {
            (tuple(v - 1 for v in s), len(s)): coeff for s, coeff in expected.items()
        }
        if g.terms() != want:
            bad.append(n)
    return _result("poly-reference-table", bad, "orders 2..5")


def check_poly_vs_formula(formula: Table) -> CheckResult:
    polys = {n: gn(n) for n in formula if n >= 2}
    bad = _mismatches(
        lambda n, s: descent_set_coefficient(polys[n], s),
        {n: formula[n] for n in polys},
    )
    for n, g in polys.items():
        if any(len(xv) != ydeg for (xv, ydeg) in g.terms()):
            bad.append((n, "ydeg"))
        if g.evaluate(1, 1) != math.factorial(n):
            bad.append((n, "mass"))
    return _result("poly-vs-formula", bad, f"n <= {max(formula)}")


def check_poly_slices(max_n: int) -> CheckResult:
    bad = []
    for n in range(2, max_n + 1):
        total = Poly()
        for k in range(n):
            total = total + gnk(n, k) * Poly.y(k)
        if total != gn(n):
            bad.append(n)
    return _result("poly-slice-reassembly", bad, f"n <= {max_n}")


def check_gap_tau_reversal(max_total: int) -> CheckResult:
    bad = []
    for total in range(1, max_total + 1):
        for k in range(1, total + 1):
            for composition in _compositions(total, k):
                if gap_vector(tau(composition)) != composition[::-1]:
                    bad.append(composition)
    return _result("gap-tau-reversal", bad, f"compositions of <= {max_total}")


def _compositions(total: int, parts: int):
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def check_tableaux(max_n: int) -> CheckResult:
    bad = []
    top = min(max_n, BRUTE_MAX_N)
    for shape in iter_shapes(16, 5):
        if len(shape) + shape[0] > top:
            continue
        want = count_tableaux_formula(shape)
        if brute_count_tableaux(shape) != want:
            bad.append((shape, "brute"))
        if count_tableaux_type_sum(shape) != want:
            bad.append((shape, "type-sum"))
    return _result("tableaux-three-routes", bad, f"shapes of length <= {top}")


def check_tableaux_mass(max_n: int) -> CheckResult:
    bad = []
    top = min(max_n, BRUTE_MAX_N)
    for n in range(2, top + 1):
        # rows + width <= n bounds the boxes by n^2 / 4 and the rows by n - 1.
        total = 1 + sum(
            count_tableaux_formula(shape)
            for shape in iter_shapes(n * n // 4, n - 1)
            if len(shape) + shape[0] <= n
        )
        if total != math.factorial(n):
            bad.append((n, total))
    return _result("tableaux-mass-equals-factorial", bad, f"n <= {top}")


def check_theta_bijection(max_k: int) -> CheckResult:
    bad = []
    top = min(max_k, 12)
    for k in range(top + 1):
        seen = set()
        for path in iter_leaf_paths(build_tree(k)):
            bits = leaf_theta(path)
            if leaf_theta_inverse(bits) != path:
                bad.append(path)
            seen.add(bits)
        if len(seen) != 2**k:
            bad.append(("leaf count", k))
    return _result("theta-round-trip", bad, f"heights <= {top}")


def check_singleton_law(max_n: int = 64) -> CheckResult:
    bad = []
    for n in range(2, max_n + 1):
        want = 2 ** (n - 1) - 1
        if cdes_formula(n, (n,)) != want or cdes_recursive(n, (n,)) != want:
            bad.append(n)
    return _result("singleton-law", bad, f"exact big integers, n <= {max_n}")


def check_genocchi() -> CheckResult:
    bad = []
    for m, want in enumerate(GENOCCHI_ORDER2, start=1):
        if genocchi_number(2, m) != want:
            bad.append(("number", m))
    for k in (1, 2, 3):
        # The value triangle against the expanded polynomial: no shared code.
        for n in range(1, 9):
            if genocchi_number(k, n) != evaluate(gandhi_poly(k, n - 1), 1):
                bad.append(("poly", k, n))
        for n in range(1, 5):
            if k * n > BRUTE_MAX_N:
                continue
            if brute_genocchi_perm_count(k, n) != genocchi_number(k, n + 1):
                bad.append(("brute", k, n))
        for n in range(5):
            if evaluate(gandhi_poly(k, n + 1), 1) != evaluate(gandhi_poly(k, n), 2):
                bad.append(("shift", k, n))
    return _result("genocchi-cross-check", bad, "orders 1..3")


def run_all(
    max_n: int = 6, *, workers: int = 1, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Run every cross-method check, bounded by ``max_n`` where a bound
    applies; ``max_n`` above ``perms.VERIFY_MAX_N`` is refused.
    Deterministic for a fixed seed."""
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2: {max_n}")
    perms.check_cap("max_n", max_n, "verify", "VERIFY_MAX_N", perms.VERIFY_MAX_N)
    formula = {
        n: {s: cdes_formula(n, s) for s in iter_value_sets(n)} for n in range(1, max_n + 1)
    }
    brute = {
        n: brute_cdes_table(n, workers=workers)
        for n in range(1, min(max_n, BRUTE_MAX_N) + 1)
    }
    return [
        check_brute_vs_formula(formula, brute),
        check_typed_vs_formula(formula),
        check_recursion_vs_formula(formula),
        check_tree_vs_formula(formula),
        check_traversal_vs_sum(max_n, seed),
        check_insertion_vs_formula(formula),
        check_table_mass(formula),
        check_nwexb_vs_cdes(brute, workers),
        check_poly_reference_table(),
        check_poly_vs_formula(formula),
        check_poly_slices(max_n),
        check_gap_tau_reversal(min(max_n + 1, 10)),
        check_tableaux(max_n),
        check_tableaux_mass(max_n),
        check_theta_bijection(max_n),
        check_singleton_law(),
        check_genocchi(),
    ]
