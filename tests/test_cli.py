import csv
import io
import json
import tracemalloc

import pytest

import cdescent.cli as cli
from cdescent.perms import TABLE_MAX_N


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_count_formula(capsys):
    rc, out, _ = run(capsys, "count", "--n", "5", "--set", "3,5", "--method", "formula")
    assert rc == 0
    assert out.strip() == "17"


@pytest.mark.parametrize("method", ["formula", "typed", "recursion", "tree", "brute"])
def test_count_methods_agree(capsys, method):
    rc, out, _ = run(capsys, "count", "--n", "6", "--set", "6", "--method", method)
    assert rc == 0
    assert out.strip() == "31"


def test_count_set_containing_one(capsys):
    rc, out, _ = run(capsys, "count", "--n", "4", "--set", "1,3")
    assert rc == 0
    assert out.strip() == "0"


def test_count_empty_set(capsys):
    rc, out, _ = run(capsys, "count", "--n", "5")
    assert rc == 0
    assert out.strip() == "1"


def test_count_all_methods(capsys):
    rc, out, _ = run(capsys, "count", "--n", "5", "--set", "3,5", "--all-methods")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.split()[1] == "17" for line in lines)


def test_count_all_methods_disagreement_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cdes_formula", lambda n, s: 999)
    rc, _, err = run(capsys, "count", "--n", "5", "--set", "3,5", "--all-methods")
    assert rc == 2
    assert "disagree" in err


def test_count_all_methods_skips_brute_over_cap(capsys):
    rc, out, _ = run(
        capsys, "count", "--n", "12", "--set", "12", "--all-methods"
    )
    assert rc == 0
    methods = [line.split()[0] for line in out.strip().splitlines()]
    assert "brute" not in methods
    assert set(methods) == {"formula", "typed", "recursion", "tree"}


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "5", "--set", "5,3"),
        ("count", "--n", "5", "--set", "3,3"),
        ("count", "--n", "5", "--set", "3,x"),
        ("count", "--n", "3", "--set", "2,4"),
        ("count", "--n", "12", "--set", "3", "--method", "brute"),
        ("count", "--n", "5", "--set", "3", "--method", "nope"),
        ("tableaux", "--shape", "1,2"),
        ("genocchi", "--k", "2", "--n", "1", "--brute"),
        ("table", "--n", "0"),
    ],
)
def test_validation_errors_exit_1(capsys, argv):
    rc, _, _ = run(capsys, *argv)
    assert rc == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "0", "--set", "", "--method", "tree"),
        ("tableaux", "--shape", "40"),
        ("count", "--n", "3000", "--set", "1500,3000", "--method", "recursion"),
        ("count", "--n", "5", "--set", "3", "--method", "brute", "--threads", "0"),
        ("count", "--n", "5", "--set", "3", "--method", "brute", "--threads", "-3"),
    ],
)
def test_rejected_queries_print_one_error_line(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["table", "poly"])
def test_table_cap_rejects_before_allocating(capsys, command):
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, command, "--n", str(TABLE_MAX_N + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert out == ""
    assert err == f"error: n = {TABLE_MAX_N + 1} exceeds the table cap TABLE_MAX_N = {TABLE_MAX_N}\n"
    # A table at the cap would hold 2^20 entries; argument parsing needs
    # far less than a megabyte.
    assert peak < 2**20


def test_table_text(capsys):
    rc, out, _ = run(capsys, "table", "--n", "3")
    assert rc == 0
    assert out.splitlines() == ["{} 1", "{2} 1", "{3} 3", "{2,3} 1"]


def test_table_n1(capsys):
    rc, out, _ = run(capsys, "table", "--n", "1")
    assert rc == 0
    assert out.splitlines() == ["{} 1"]


def test_table_json_matches_text_values(capsys):
    rc, out, _ = run(capsys, "table", "--n", "4", "--format", "json")
    assert rc == 0
    record = json.loads(out)
    assert set(record) == {"query", "result"}
    counts = {tuple(row["set"]): row["count"] for row in record["result"]}
    assert counts[(2, 4)] == "3" and counts[()] == "1" and counts[(3, 4)] == "7"


def test_table_csv(capsys):
    rc, out, _ = run(capsys, "table", "--n", "3", "--format", "csv")
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["set", "count"]
    assert ["{2,3}", "1"] in rows


def test_poly_text_golden(capsys):
    rc, out, _ = run(capsys, "poly", "--n", "3")
    assert rc == 0
    assert out.strip() == "1 + x1*y + 3*x2*y + x1*x2*y^2"


def test_poly_json(capsys):
    rc, out, _ = run(capsys, "poly", "--n", "3", "--format", "json")
    assert rc == 0
    record = json.loads(out)
    assert record["result"] == "1 + x1*y + 3*x2*y + x1*x2*y^2"


def test_tree_weight(capsys):
    rc, out, _ = run(capsys, "tree", "--gaps", "2,1")
    assert rc == 0
    assert out.strip() == "3"


def test_tree_zero_gap(capsys):
    rc, out, _ = run(capsys, "tree", "--gaps", "0")
    assert rc == 0
    assert out.strip() == "0"


def test_tree_show_dump(capsys):
    rc, out, _ = run(capsys, "tree", "--gaps", "1", "--show")
    assert rc == 0
    assert out.splitlines() == ["1", "0 1 +", "  1 1 -", "  1 2 +"]


def test_tableaux(capsys):
    rc, out, _ = run(capsys, "tableaux", "--shape", "2,2", "--method", "brute")
    assert rc == 0 and out.strip() == "7"
    rc, out, _ = run(capsys, "tableaux", "--shape", "2,2")
    assert rc == 0 and out.strip() == "7"


def test_genocchi(capsys):
    rc, out, _ = run(capsys, "genocchi", "--k", "2", "--n", "4")
    assert rc == 0 and out.strip() == "17"


def test_genocchi_brute_crosscheck(capsys):
    rc, out, _ = run(capsys, "genocchi", "--k", "2", "--n", "3", "--brute")
    assert rc == 0
    assert out.splitlines() == ["recursion 3", "brute 3"]


def test_genocchi_brute_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "genocchi_number", lambda k, n: 999)
    rc, _, err = run(capsys, "genocchi", "--k", "2", "--n", "3", "--brute")
    assert rc == 2
    assert "disagrees" in err


def test_count_json_schema(capsys):
    rc, out, _ = run(
        capsys, "count", "--n", "6", "--set", "6", "--format", "json"
    )
    assert rc == 0
    record = json.loads(out)
    assert set(record) == {"query", "result"}
    assert record["result"] == "31"
    assert record["query"]["set"] == [6]


def test_threads_flag(capsys):
    rc, out, _ = run(
        capsys, "count", "--n", "6", "--set", "3,6", "--method", "brute",
        "--threads", "2",
    )
    assert rc == 0
    assert out.strip() == "37"


def test_verify_passes(capsys):
    rc, out, _ = run(capsys, "verify", "--max-n", "4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("all ")


def test_verify_failure_exits_2(capsys, monkeypatch):
    from cdescent.verify import CheckResult

    monkeypatch.setattr(
        cli, "run_all", lambda *a, **kw: [CheckResult("stub", False, "boom")]
    )
    rc, out, err = run(capsys, "verify", "--max-n", "4")
    assert rc == 2
    assert "FAIL stub" in out
    assert "failed" in err


def test_help_exits_0(capsys):
    rc, _, _ = run(capsys, "--help")
    assert rc == 0
