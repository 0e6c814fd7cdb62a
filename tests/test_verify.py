import concurrent.futures
import multiprocessing
import os

import pytest

import cdescent.cli as cli
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


# The faults in the tables that a pool builds with more than one worker.
POOLED_FAULTS = [f for f in FAULTS if f[0] in ("brute_cdes_table", "brute_nwexb_table")]


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a worker sees the faulted builder only when forked from this process",
)
@pytest.mark.parametrize(("name", "fault", "failing"), POOLED_FAULTS, ids=[f[0] for f in POOLED_FAULTS])
def test_fault_in_a_pooled_table_fails_its_checks(monkeypatch, name, fault, failing):
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    results = verify.run_all(6, workers=2)
    assert {r.name for r in results if not r.passed} == failing


@pytest.mark.parametrize("max_n", [4, 8])
def test_workers_do_not_change_the_results(max_n):
    assert verify.run_all(max_n, workers=2) == verify.run_all(max_n, workers=1)


@pytest.mark.parametrize(
    "threads, cpus, pool_size",
    [(64, 2, 1), (64, 8, 7), (3, 8, 2), (2, 1, None), (64, None, None), (1, 8, None)],
)
def test_verify_pool_is_clamped_to_the_cores(capsys, monkeypatch, threads, cpus, pool_size):
    # A stand-in pool that records its size and runs each job on submit,
    # so no worker is ever started.  The pool holds the workers beside the
    # calling process.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, **kwargs):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli.main(["verify", "--max-n", "4", "--threads", str(threads)]) == 0
    assert capsys.readouterr().out.endswith("all 17 checks passed\n")
    assert sizes == ([] if pool_size is None else [pool_size])


def test_verify_threads_below_one_starts_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected worker count started a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert cli.main(["verify", "--max-n", "4", "--threads", "0"]) == 1
    assert capsys.readouterr() == ("", "error: workers (--threads) must be at least 1: 0\n")
    with pytest.raises(ValueError, match=r"workers \(--threads\) must be at least 1: -2"):
        verify.run_all(4, workers=-2)


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
