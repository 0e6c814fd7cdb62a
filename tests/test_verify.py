import pytest

import cdescent.verify as verify

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


# The name faulted in the verify module, and every check that must then fail.
FAULTS = [
    ("cdes_formula_typed", _bump_count, {"typed-vs-formula"}),
    ("cdes_recursive", _bump_count, {"recursion-vs-formula"}),
    ("tree_count", _bump_count, {"tree-sum-vs-formula"}),
    ("cdes_insertion_table", _bump_table, {"insertion-vs-formula"}),
    ("brute_nwexb_table", _bump_table, {"nwexb-vs-cdes"}),
    ("brute_cdes_table", _bump_table, {"brute-vs-formula", "nwexb-vs-cdes"}),
    (
        "cdes_formula",
        _bump_count,
        {
            "brute-vs-formula",
            "typed-vs-formula",
            "recursion-vs-formula",
            "tree-sum-vs-formula",
            "insertion-vs-formula",
            "formula-mass-equals-factorial",
            "poly-vs-formula",
        },
    ),
]


@pytest.mark.parametrize(("name", "fault", "failing"), FAULTS, ids=[f[0] for f in FAULTS])
def test_fault_fails_exactly_its_checks(monkeypatch, name, fault, failing):
    # A check that compared a shared table with itself would miss the fault.
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    results = verify.run_all(6)
    assert {r.name for r in results if not r.passed} == failing


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
