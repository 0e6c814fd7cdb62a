import math
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdescent.cli as cli
import cdescent.perms as perms
import cdescent.verify as verify
from cdescent.formula import gap_vector

S = (3, 5)


def _bump_count(route):
    """``route`` off by one on S: a count route returning one more there."""
    return lambda n, s, *args, **kwargs: route(n, s, *args, **kwargs) + (tuple(s) == S)


def _bump_table(build):
    """``build`` off by one on S: a table builder counting one more there."""

    def bumped(n, *args, **kwargs):
        table = dict(build(n, *args, **kwargs))
        table[S] = table.get(S, 0) + 1
        return table

    return bumped


def _bump_exponents(build):
    """``build`` off by one on S: an exponent builder raising its last
    exponent there."""

    def bumped(s):
        d = build(s)
        return (*d[:-1], d[-1] + 1) if tuple(s) == S else d

    return bumped


def _bump_walk(walk):
    """``walk`` off by one on the gap vector of S, (2, 2)."""
    return lambda d: walk(d) + (tuple(d) == gap_vector(S))


def _off_by_one(route):
    """``route`` off by one everywhere."""
    return lambda *args: route(*args) + 1


def _bump_shape(route):
    """``route`` off by one on the shape (2, 1)."""
    return lambda shape: route(shape) + (tuple(shape) == (2, 1))


def _stray_term(build):
    """``build`` plus the term x1, whose y-degree 0 is not its number of
    x-variables."""
    return lambda n: build(n) + verify.Poly({((1,), 0): 1})


def _extra_key(build):
    """``build`` with one more key, (1,), which is no set of [2, n]."""
    return lambda n, *args, **kwargs: {**build(n, *args, **kwargs), (1,): 1}


def _fault(name, fault, failing, id=None):
    """The name faulted in the verify module, the fault, and every check
    that must then fail."""
    return pytest.param(name, fault, failing, id=id or name)


FAULTS = [
    _fault("count_tableaux_transfer", _bump_shape, {"tableaux-three-routes"}),
    _fault("_typed_exponents", _bump_exponents, {"typed-vs-formula"}),
    _fault("cdes_recursive", _bump_count, {"recursion-vs-formula"}),
    _fault("tree_weight_traversal", _bump_walk, {"tree-sum-vs-formula"}),
    _fault("tree_weight_sum", _off_by_one, {"tree-traversal-vs-closed-sum"}),
    _fault("cdes_insertion_table", _bump_table, {"insertion-vs-formula"}),
    _fault("cdes_insertion_table", _extra_key, {"insertion-vs-formula"}, id="cdes_insertion_table-extra-key"),
    _fault("gn", _stray_term, {"poly-reference-table", "poly-vs-formula", "poly-slice-reassembly"}),
    _fault("brute_nwexb_table", _bump_table, {"nwexb-vs-cdes"}),
    _fault(
        "brute_cdes_table",
        _bump_table,
        {"brute-vs-formula", "nwexb-vs-cdes", "tableaux-three-routes"},
    ),
    _fault(
        "cdes_formula",
        _bump_count,
        {
            "brute-vs-formula",
            "recursion-vs-formula",
            "tree-sum-vs-formula",
            "insertion-vs-formula",
            "formula-mass-equals-factorial",
            "poly-vs-formula",
        },
    ),
]


@pytest.mark.parametrize(("name", "fault", "failing"), FAULTS)
def test_fault_fails_exactly_its_checks(monkeypatch, name, fault, failing):
    # A check that compared a shared table with itself would miss the fault.
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    results = verify.run_all(6)
    assert {r.name for r in results if not r.passed} == failing


# The faults in the brute tables, which a caller passing workers still sees.
POOLED_FAULTS = [f for f in FAULTS if f.values[0] in ("brute_cdes_table", "brute_nwexb_table")]


@pytest.mark.parametrize(("name", "fault", "failing"), POOLED_FAULTS)
def test_fault_in_a_pooled_table_fails_its_checks(monkeypatch, name, fault, failing):
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    results = verify.run_all(6, workers=2)
    assert {r.name for r in results if not r.passed} == failing


def _no_fork(*args, **kwargs):
    raise AssertionError("verify started a process")


@pytest.mark.parametrize("max_n", [4, 8])
def test_workers_do_not_change_the_results(monkeypatch, max_n):
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    assert verify.run_all(max_n, workers=2) == verify.run_all(max_n, workers=1)


@pytest.mark.parametrize("threads", [64, 3, 2, 1])
def test_verify_output_ignores_threads(capsys, monkeypatch, threads):
    assert cli.main(["verify", "--max-n", "4", "--threads", "1"]) == 0
    in_process = capsys.readouterr()
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    assert cli.main(["verify", "--max-n", "4", "--threads", str(threads)]) == 0
    assert capsys.readouterr() == in_process
    assert in_process.out.endswith("all 17 checks passed\n")


@pytest.mark.parametrize(
    "module, name",
    [
        (verify, "brute_cdes_table"),
        (verify, "brute_nwexb_table"),
        (perms, "_descent_bit"),
        (perms, "_nwexb_bit"),
        (verify, "check_genocchi"),
    ],
    ids=["brute_cdes_table", "brute_nwexb_table", "_descent_bit", "_nwexb_bit", "check_genocchi"],
)
def test_an_error_in_a_table_or_check_propagates_unchanged(monkeypatch, module, name):
    # An error of either scan, of the rule inside it, or of a check: with
    # workers > 1 too, the caller gets the error itself, not a wrapper.
    def broken(*args):
        raise MemoryError(f"{name} failed to run")

    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    monkeypatch.setattr(module, name, broken)
    with pytest.raises(MemoryError, match=f"^{name} failed to run$"):
        verify.run_all(4, workers=2)


def test_verify_threads_below_one_starts_no_pool(capsys, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    assert cli.main(["verify", "--max-n", "4", "--threads", "0"]) == 1
    assert capsys.readouterr() == ("", "error: --threads must be at least 1: 0\n")
    with pytest.raises(ValueError, match="^workers must be at least 1: -2$"):
        verify.run_all(4, workers=-2)


def test_traversal_walks_each_gap_vector_once(monkeypatch):
    # The 127 nonempty sets of [2, 8] and the 25 seeded samples, each once.
    calls = []
    traversal = verify.tree_weight_traversal

    def counted(d):
        calls.append(d)
        return traversal(d)

    monkeypatch.setattr(verify, "tree_weight_traversal", counted)
    assert all(r.passed for r in verify.run_all(8))
    assert len(calls) == 127 + 25


def test_tableaux_check_visits_every_shape_up_to_its_top(monkeypatch):
    # Every shape with rows + width <= 8, 2^(n-2) of each n = rows + width:
    # 127, the tall shapes of 6 and 7 rows included.
    seen = []
    transfer = verify.count_tableaux_transfer

    def counted(shape):
        seen.append(shape)
        return transfer(shape)

    monkeypatch.setattr(verify, "count_tableaux_transfer", counted)
    brute = {n: perms.brute_cdes_table(n) for n in range(1, 9)}
    closed = {shape: verify.count_tableaux_formula(shape) for shape in verify._shapes(8)}
    assert verify.check_tableaux(brute, closed).passed
    assert len(seen) == len(set(seen)) == 127
    assert set(seen) == {p for p in verify.iter_shapes(16, 7) if len(p) + p[0] <= 8}
    assert {len(p) for p in seen} == set(range(1, 8))


def test_run_all_computes_each_closed_form_of_a_shape_once(monkeypatch):
    # The 127 shapes with rows + width <= 8, shared by tableaux-three-routes
    # and tableaux-mass-equals-factorial.
    seen = []
    closed = verify.count_tableaux_formula

    def counted(shape):
        seen.append(shape)
        return closed(shape)

    monkeypatch.setattr(verify, "count_tableaux_formula", counted)
    assert all(r.passed for r in verify.run_all(8))
    assert len(seen) == len(set(seen)) == 127


def test_tableaux_mass_reads_each_n_off_the_shared_closed_forms():
    # One shape's closed form off by one shows at every n from its own up.
    closed = {shape: verify.count_tableaux_formula(shape) for shape in verify._shapes(6)}
    closed[(2, 1)] += 1
    assert verify.check_tableaux_mass(closed) == verify.CheckResult(
        "tableaux-mass-equals-factorial", False, "first mismatch: (4, 25)"
    )


@given(st.sets(st.integers(2, 200)).map(lambda s: tuple(sorted(s))))
def test_run_type_exponents_are_the_gap_vector(s):
    # The identity behind typed-vs-formula, past verify's sizes: the
    # run-grouped statement of the formula is the gap-vector statement.
    assert verify._typed_exponents(s) == gap_vector(s)


def test_check_result_value_semantics():
    result = verify.CheckResult("x", True)
    assert (result.name, result.passed, result.detail) == ("x", True, "")
    assert repr(result) == "CheckResult(name='x', passed=True, detail='')"
    assert result == verify.CheckResult(name="x", passed=True, detail="")
    assert result != verify.CheckResult("x", False)
    assert len({result, verify.CheckResult("x", True, ""), verify.CheckResult("y", True)}) == 2
    for name in ("name", "passed", "detail"):
        with pytest.raises(AttributeError):
            setattr(result, name, 0)


def test_eulerian_numbers():
    assert verify._eulerian_numbers(1) == [1]
    assert verify._eulerian_numbers(5) == [1, 26, 66, 26, 1]
    for n in range(1, 12):
        row = verify._eulerian_numbers(n)
        assert sum(row) == math.factorial(n)
        assert row == row[::-1]


def test_eulerian_leg_catches_slices_that_still_reassemble(monkeypatch):
    # Doubling gn and every slice alike keeps the reassembly exact; only the
    # slice masses against the Eulerian numbers can see it.
    gnk = verify.gnk
    monkeypatch.setattr(verify, "gnk", lambda n, k: gnk(n, k) * 2)
    result = verify.check_poly_slices({n: verify.gn(n) * 2 for n in range(2, 6)})
    assert result == verify.CheckResult(
        "poly-slice-reassembly", False, "first mismatch: (2, 0, 'eulerian')"
    )


def test_eulerian_leg_uses_the_recurrence(monkeypatch):
    polys = {n: verify.gn(n) for n in range(2, 7)}
    assert verify.check_poly_slices(polys) == verify.CheckResult("poly-slice-reassembly", True, "n <= 6")
    eulerian = verify._eulerian_numbers
    monkeypatch.setattr(verify, "_eulerian_numbers", lambda n: [*eulerian(n)[:-1], 2])
    assert not verify.check_poly_slices(polys).passed


def test_run_all_builds_each_reference_once(monkeypatch):
    # One cdes_formula call per set of [2, 8] fills every row of the formula
    # table (singleton-law makes its own 63), and one gn(n) per n serves
    # poly-vs-formula and poly-slice-reassembly (poly-reference-table builds
    # its own orders 2..5).
    formula_calls, gn_calls = [], []
    formula, gn = verify.cdes_formula, verify.gn

    def counted_formula(n, s):
        formula_calls.append((n, s))
        return formula(n, s)

    def counted_gn(n):
        gn_calls.append(n)
        return gn(n)

    monkeypatch.setattr(verify, "cdes_formula", counted_formula)
    monkeypatch.setattr(verify, "gn", counted_gn)
    assert all(r.passed for r in verify.run_all(8))
    singletons = [(n, (n,)) for n in range(2, verify.SINGLETON_MAX_N + 1)]
    assert sorted(formula_calls) == sorted([*((8, s) for s in verify.iter_value_sets(8)), *singletons])
    assert sorted(gn_calls) == sorted([*range(2, 9), *range(2, 6)])
