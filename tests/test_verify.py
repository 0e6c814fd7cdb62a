import math
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


def _bump_shape(route):
    """``route`` off by one on the shape (2, 1)."""
    return lambda shape: route(shape) + (tuple(shape) == (2, 1))


# The name faulted in the verify module, and every check that must then fail.
FAULTS = [
    ("count_tableaux_transfer", _bump_shape, {"tableaux-three-routes"}),
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


# The faults in the tables that forked children build with more than one worker.
POOLED_FAULTS = [f for f in FAULTS if f[0] in ("brute_cdes_table", "brute_nwexb_table")]

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="without os.fork verify builds every table in process"
)


@needs_fork
@pytest.mark.parametrize(("name", "fault", "failing"), POOLED_FAULTS, ids=[f[0] for f in POOLED_FAULTS])
def test_fault_in_a_pooled_table_fails_its_checks(monkeypatch, name, fault, failing):
    # A child sees the faulted builder because it is forked from this process.
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    results = verify.run_all(6, workers=2)
    assert {r.name for r in results if not r.passed} == failing


@pytest.mark.parametrize("max_n", [4, 8])
def test_workers_do_not_change_the_results(max_n):
    assert verify.run_all(max_n, workers=2) == verify.run_all(max_n, workers=1)


def _record_forks(monkeypatch, cpus=2) -> list[int]:
    """Fake ``cpus`` cores, let ``os.fork`` run, and collect the pid of
    every child it starts."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@needs_fork
def test_every_child_is_reaped(monkeypatch):
    pids = _record_forks(monkeypatch)
    assert all(r.passed for r in verify.run_all(4, workers=2))
    assert len(pids) == 1
    _assert_reaped(pids)


@needs_fork
def test_one_child_however_many_cores(monkeypatch):
    pids = _record_forks(monkeypatch, cpus=64)
    assert verify.run_all(4, workers=64) == verify.run_all(4)
    assert len(pids) == 1
    _assert_reaped(pids)


@needs_fork
def test_failed_child_raises_and_is_reaped(capfd, monkeypatch):
    def broken(n):
        raise MemoryError(f"no room for the table of {n}")

    monkeypatch.setattr(verify, "brute_nwexb_table", broken)
    pids = _record_forks(monkeypatch)
    with pytest.raises(RuntimeError, match="scan worker [0-9]+ failed"):
        verify.run_all(4, workers=2)
    assert len(pids) == 1
    _assert_reaped(pids)
    assert "MemoryError: no room for the table of" in capfd.readouterr().err


@needs_fork
def test_child_is_reaped_when_a_check_raises(monkeypatch):
    def broken():
        raise ValueError("check failed to run")

    monkeypatch.setattr(verify, "check_genocchi", broken)
    pids = _record_forks(monkeypatch)
    with pytest.raises(ValueError, match="check failed to run"):
        verify.run_all(4, workers=2)
    assert len(pids) == 1
    _assert_reaped(pids)


def test_without_fork_the_tables_are_built_in_process(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert verify.run_all(4, workers=2) == verify.run_all(4)


@pytest.mark.parametrize(
    "threads, cpus, children",
    [(64, 2, 1), (64, 8, 1), (3, 8, 1), (2, 1, None), (64, None, None), (1, 8, None)],
)
def test_verify_pool_is_clamped_to_the_cores(capsys, monkeypatch, threads, cpus, children):
    # A stand-in fork that records each call and builds the tables in
    # process, so no process is ever started.  A child works beside the
    # calling process, so one needs two cores.
    forks = []

    def recording_fork(top):
        forks.append(top)
        return len(forks), verify._brute_tables(top)

    monkeypatch.setattr(verify, "_fork_scan", recording_fork)
    monkeypatch.setattr(verify, "_join", lambda pid, tables: tables)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli.main(["verify", "--max-n", "4", "--threads", str(threads)]) == 0
    assert capsys.readouterr().out.endswith("all 17 checks passed\n")
    assert forks == [4] * (children or 0)


def test_verify_threads_below_one_starts_no_pool(capsys, monkeypatch):
    def no_fork(*args, **kwargs):
        raise AssertionError("a rejected worker count forked a child")

    monkeypatch.setattr(os, "fork", no_fork, raising=False)
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
    gn, gnk = verify.gn, verify.gnk
    monkeypatch.setattr(verify, "gn", lambda n: gn(n) * 2)
    monkeypatch.setattr(verify, "gnk", lambda n, k: gnk(n, k) * 2)
    result = verify.check_poly_slices(5)
    assert result == verify.CheckResult(
        "poly-slice-reassembly", False, "first mismatch: (2, 0, 'eulerian')"
    )


def test_eulerian_leg_uses_the_recurrence(monkeypatch):
    assert verify.check_poly_slices(6) == verify.CheckResult("poly-slice-reassembly", True, "n <= 6")
    eulerian = verify._eulerian_numbers
    monkeypatch.setattr(verify, "_eulerian_numbers", lambda n: [*eulerian(n)[:-1], 2])
    assert not verify.check_poly_slices(6).passed
