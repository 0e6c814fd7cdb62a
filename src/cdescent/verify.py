"""Cross-method verification suite.

Every counting route implemented by the package is checked against every
other on overlapping domains, plus structural identities (mass checks,
bijections, reference coefficients).  The command-line ``verify`` command
prints one line per check; the test suite asserts the same results.

``run_all`` builds its reference tables once per run and hands them to
every check that compares against them: ``cdes_formula`` once on every
S of [2, ``max_n``], each smaller n's row read off those values (a count
depends on S alone), and for n <= ``BRUTE_MAX_N`` the brute
descent and NWEXB tables, ``brute_cdes_table`` and ``brute_nwexb_table``,
each from its own scan that counts the n! permutations as products of
head and tail class counts, the classes built by a DP over value sets;
``nwexb-vs-cdes`` compares the two.  The closed form of each
tableaux shape with rows + width <= ``BRUTE_MAX_N`` is computed once and
handed to ``tableaux-three-routes`` and ``tableaux-mass-equals-factorial``,
and ``gn(n)`` once for each n in [2, ``max_n``], handed to
``poly-vs-formula`` and ``poly-slice-reassembly``.  No route is compared
with a table built by its own code.  Tables are compared whole, by one
rule (``_differences``): ``==`` first, and only when they differ, each
key that one table lacks or holds another value; ``gn``'s terms are
compared with the formula's row keyed by their monomials.

The package has one closed form, ``cdes_formula``, which
``cdes_formula_typed`` and ``count_tableaux_type_sum`` return under the
paper's other statements; no check compares it with itself.
``typed-vs-formula`` compares the run-grouped exponents of every S
(``_typed_exponents``) with ``gap_vector``, evaluating no sum;
``tree-sum-vs-formula`` compares the walk of the materialized tree on
each gap vector with the formula table; ``tree-traversal-vs-closed-sum``
compares the walk with ``tree_weight_sum`` on seeded weight sequences;
``tableaux-three-routes`` compares a shape's closed form with the column
transfer and with the brute table's entry for its border set.  The
brute-force scans, the recursion, the insertion tables, ``gn``, the tree
traversal and the column transfer stay independent of ``cube_sum``.  The
insertion table works on packed fields indexed by bitmask and shares no
count code with the brute scan, the formula or ``gn``.  ``gn`` runs the same
recurrence as separate code: it adds whole slices of a list of
coefficients indexed by bitmask, one pass per x-variable, while the
insertion table gathers every new field in whole-int passes over its
packed int.  The two share only how their keys are listed: each reads
its own shared key list, built once per process
(``contract._value_set_keys``, ``contract._monomial_keys``), and every check
reads its keys off the formula table, whose sets come from
``iter_value_sets``, so a wrong label cannot hide.
``gnk`` reads its slices off ``gn``, so ``poly-slice-reassembly``
compares the slices with no independent route: it checks ``gn``'s own
slices, that Poly's ``+``, ``*`` and ``==`` reassemble ``gn(n)``
and that slice k at x = 1 is the Eulerian number A(n, k), from its
recurrence, which no route computes.  ``poly-vs-formula`` stays the
independent comparison of ``gn`` with the formula.
``genocchi-cross-check`` compares the Genocchi value triangle with the
expanded Gandhi polynomials and with the brute permutation count; the
three share no code.

Brute-force sweeps, ``tree-sum-vs-formula``'s tree walks and tableaux
shapes (rows + width) stop at ``BRUTE_MAX_N`` and ``singleton-law`` at
``SINGLETON_MAX_N``, whatever ``max_n``; ``theta-round-trip`` walks the
leaves of every tree height up to ``max_n``.  The suite runs in one
process: ``workers`` (``verify --threads``) is validated and has no
effect, kept only for callers.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple

from . import contract  # as a module, so that every check_* name here is a check
from .contract import iter_value_sets
from .formula import cdes_formula, gap_vector, set_type
from .genocchi import brute_genocchi_perm_count, evaluate, gandhi_poly, genocchi_number
from .perms import brute_cdes_table, brute_nwexb_table
from .poly import Poly, gn, gnk, tau
from .recursion import cdes_insertion_table, cdes_recursive
from .tableaux import (
    count_tableaux_formula,
    count_tableaux_transfer,
    iter_shapes,
    shape_to_descent_set,
)
from .tree import (
    build_tree,
    iter_leaf_paths,
    leaf_theta,
    leaf_theta_inverse,
    tree_weight_sum,
    tree_weight_traversal,
)

BRUTE_MAX_N = 8  # n of the brute scans, tree-sum walks and tableaux shapes, whatever max_n
SINGLETON_MAX_N = 64  # n of the singleton law, in exact big integers
DEFAULT_SEED = 987131

# Reference coefficient tables for the generating polynomials of order
# 2..5, keyed by descent-value set.  Frozen from independent brute-force
# enumeration; the coefficient of x_{s1-1}*...*x_{sk-1}*y^k must match.
# Only the order-5 row is written: it is in ascending bitmask order and a
# count depends on S alone, so the row of order n is its first 2^(n-1)
# entries.
REFERENCE_COUNTS: dict[int, dict[tuple[int, ...], int]] = {
    n: dict(itertools.islice(order_5.items(), 2 ** (n - 1)))
    for order_5 in [
        {
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
        }
    ]
    for n in range(2, 6)
}

GENOCCHI_ORDER2 = (1, 1, 3, 17, 155, 2073)

# A reference table: n -> {S: count of permutations of [n] with descent-value set S}.
Table = dict[int, dict[tuple[int, ...], int]]


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    """One check's outcome: ``CheckResult(name, passed, detail="")``."""

    __slots__ = ()


def _result(name: str, mismatches: list, detail: str) -> CheckResult:
    if mismatches:
        return CheckResult(name, False, f"first mismatch: {mismatches[0]!r}")
    return CheckResult(name, True, detail)


def _differences(want: dict, got: dict) -> list:
    """The keys on which two tables differ, ``want``'s first: none when
    they are equal, else each key that one lacks or holds another value."""
    if want == got:
        return []
    return [key for key in want if got.get(key) != want[key]] + [key for key in got if key not in want]


def _monomials(row: dict[tuple[int, ...], int]) -> dict:
    # The row keyed by gn's monomials: x_{s-1} for each s of S, and y^|S|.
    return {(tuple(v - 1 for v in s), len(s)): count for s, count in row.items()}


def check_brute_vs_formula(formula: Table, brute: Table) -> CheckResult:
    bad = [(n, s) for n, row in brute.items() for s in _differences(formula[n], row)]
    return _result("brute-vs-formula", bad, f"all sets, n <= {max(brute)}")


def _typed_exponents(s: tuple[int, ...]) -> tuple[int, ...]:
    # The run-grouped statement's exponents, from the runs of S: 1 inside
    # a run, and at the position closing a run the distance down to the
    # next run max (or the sentinel 1).
    runs = set_type(s)
    exponents: list[int] = []
    for t, (run_max, run_len) in enumerate(runs):
        next_max = runs[t + 1][0] if t + 1 < len(runs) else 1
        exponents += [1] * (run_len - 1) + [run_max - run_len + 1 - next_max]
    return tuple(exponents)


def check_typed_vs_formula(max_n: int) -> CheckResult:
    bad = [s for s in iter_value_sets(max_n) if _typed_exponents(s) != gap_vector(s)]
    return _result("typed-vs-formula", bad, f"all sets, n <= {max_n}")


def check_recursion_vs_formula(formula: Table) -> CheckResult:
    cache: dict = {}
    bad = [(n, s) for n, row in formula.items() for s in row if cdes_recursive(n, s, cache) != row[s]]
    return _result("recursion-vs-formula", bad, f"all sets, n <= {max(formula)}")


def check_tree_vs_formula(formula: Table) -> CheckResult:
    # Each nonempty S of [2, top] once (the empty set comes first); the
    # sets of every smaller n are among them.
    top = min(max(formula), BRUTE_MAX_N)
    row = formula[top]
    bad = [
        s
        for s in itertools.islice(iter_value_sets(top), 1, None)
        if tree_weight_traversal(gap_vector(s)) != row[s]
    ]
    return _result("tree-sum-vs-formula", bad, f"tree traversal, all sets, n <= {top}")


def check_traversal_vs_sum(seed: int) -> CheckResult:
    rng = random.Random(seed)
    bad = []
    for _ in range(25):
        d = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 10)))
        if tree_weight_traversal(d) != tree_weight_sum(d):
            bad.append(d)
    return _result("tree-traversal-vs-closed-sum", bad, "25 seeded weight sequences")


def check_insertion_vs_formula(formula: Table) -> CheckResult:
    top = max(formula)
    bad = _differences(formula[top], cdes_insertion_table(top))
    return _result("insertion-vs-formula", bad, f"entrywise at n = {top}")


def check_table_mass(formula: Table) -> CheckResult:
    bad = [
        (n, total)
        for n, row in formula.items()
        if (total := sum(row.values())) != math.factorial(n)
    ]
    return _result("formula-mass-equals-factorial", bad, f"n <= {max(formula)}")


def check_nwexb_vs_cdes(brute: Table, nwexb: Table) -> CheckResult:
    bad = [(n, s) for n, row in brute.items() for s in _differences(row, nwexb[n])]
    return _result("nwexb-vs-cdes", bad, f"full tables, n <= {max(brute)}")


def check_poly_reference_table() -> CheckResult:
    bad = [
        (n, key) for n, row in REFERENCE_COUNTS.items() for key in _differences(_monomials(row), gn(n).terms())
    ]
    return _result("poly-reference-table", bad, "orders 2..5")


def check_poly_vs_formula(formula: Table, polys: dict[int, Poly]) -> CheckResult:
    # ``polys``: gn(n) for every n of the formula table from 2 up.
    bad = [(n, key) for n, g in polys.items() for key in _differences(_monomials(formula[n]), g.terms())]
    bad += [(n, "mass") for n, g in polys.items() if g.evaluate(1, 1) != math.factorial(n)]
    return _result("poly-vs-formula", bad, f"n <= {max(formula)}")


def _eulerian_numbers(n: int) -> list[int]:
    """A(n, k) for k = 0..n-1, the permutations of [n] with k descents,
    by the recurrence A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1)
    from A(1, 0) = 1.

    >>> _eulerian_numbers(4)
    [1, 11, 11, 1]
    """
    row = [1]
    for m in range(2, n + 1):
        padded = [0, *row, 0]  # padded[k + 1] = A(m-1, k), zero outside [0, m-2]
        row = [(k + 1) * padded[k + 1] + (m - k) * padded[k] for k in range(m)]
    return row


def check_poly_slices(polys: dict[int, Poly]) -> CheckResult:
    # The slices reassemble each gn(n) of ``polys``, and slice k at x = 1
    # counts the permutations with k descents: the Eulerian number A(n, k).
    bad = []
    for n, g in polys.items():
        total = Poly()
        for k, eulerian in enumerate(_eulerian_numbers(n)):
            piece = gnk(n, k)
            if piece.evaluate(1) != eulerian:
                bad.append((n, k, "eulerian"))
            total = total + piece * Poly.y(k)
        if total != g:
            bad.append(n)
    return _result("poly-slice-reassembly", bad, f"n <= {max(polys)}")


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


def _shapes(top: int):
    # Every shape with rows + width <= top, which bounds the boxes by
    # top^2 / 4 and the rows by top - 1.
    return (p for p in iter_shapes(top * top // 4, top - 1) if len(p) + p[0] <= top)


def check_tableaux(brute: Table, closed: dict[tuple[int, ...], int]) -> CheckResult:
    # ``closed``: every shape of _shapes(max(brute)), with its closed form.
    bad = []
    for shape, want in closed.items():
        if count_tableaux_transfer(shape) != want:
            bad.append((shape, "transfer"))
        n, s = shape_to_descent_set(shape)
        if brute[n].get(s, 0) != want:
            bad.append((shape, "brute"))
    return _result("tableaux-three-routes", bad, f"shapes of length <= {max(brute)}")


def check_tableaux_mass(closed: dict[tuple[int, ...], int]) -> CheckResult:
    # ``closed`` as in check_tableaux: the shapes of each n up to its top
    # are those with rows + width <= n.
    bad = []
    top = max(len(shape) + shape[0] for shape in closed)
    for n in range(2, top + 1):
        total = 1 + sum(c for shape, c in closed.items() if len(shape) + shape[0] <= n)
        if total != math.factorial(n):
            bad.append((n, total))
    return _result("tableaux-mass-equals-factorial", bad, f"n <= {top}")


def check_theta_bijection(max_k: int) -> CheckResult:
    bad = []
    for k in range(max_k + 1):
        seen = set()
        for path in iter_leaf_paths(build_tree(k)):
            bits = leaf_theta(path)
            if leaf_theta_inverse(bits) != path:
                bad.append(path)
            seen.add(bits)
        if len(seen) != 2**k:
            bad.append(("leaf count", k))
    return _result("theta-round-trip", bad, f"heights <= {max_k}")


def check_singleton_law() -> CheckResult:
    bad = []
    for n in range(2, SINGLETON_MAX_N + 1):
        want = 2 ** (n - 1) - 1
        if cdes_formula(n, (n,)) != want or cdes_recursive(n, (n,)) != want:
            bad.append(n)
    return _result("singleton-law", bad, f"exact big integers, n <= {SINGLETON_MAX_N}")


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
    applies; ``max_n`` above ``contract.VERIFY_MAX_N`` is refused.
    Deterministic for a fixed seed.  Every table is built and every check
    run in this process; ``workers`` is validated and has no effect, kept
    only for callers that pass it."""
    contract.check_int("max_n", max_n, 2)
    contract.check_cap("max_n", max_n, "verify", "VERIFY_MAX_N", contract.VERIFY_MAX_N)
    contract.check_int("workers", workers, 1)
    # cdes_n(S) depends on S alone, so one call per set of [2, max_n] fills
    # every row, each in the order of its own iter_value_sets.
    top_row = {s: cdes_formula(max_n, s) for s in iter_value_sets(max_n)}
    formula = {
        n: {s: top_row[s] for s in iter_value_sets(n)} for n in range(1, max_n + 1)
    }
    polys = {n: gn(n) for n in range(2, max_n + 1)}
    top = min(max_n, BRUTE_MAX_N)
    brute: Table = {n: brute_cdes_table(n) for n in range(1, top + 1)}
    nwexb: Table = {n: brute_nwexb_table(n) for n in range(1, top + 1)}
    closed = {shape: count_tableaux_formula(shape) for shape in _shapes(top)}
    return [
        check_brute_vs_formula(formula, brute),
        check_typed_vs_formula(max_n),
        check_recursion_vs_formula(formula),
        check_tree_vs_formula(formula),
        check_traversal_vs_sum(seed),
        check_insertion_vs_formula(formula),
        check_table_mass(formula),
        check_nwexb_vs_cdes(brute, nwexb),
        check_poly_reference_table(),
        check_poly_vs_formula(formula, polys),
        check_poly_slices(polys),
        check_gap_tau_reversal(min(max_n + 1, 10)),
        check_tableaux(brute, closed),
        check_tableaux_mass(closed),
        check_theta_bijection(max_n),
        check_singleton_law(),
        check_genocchi(),
    ]
