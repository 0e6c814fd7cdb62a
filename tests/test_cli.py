import contextlib
import csv
import io
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdescent.cli as cli
import cdescent.verify as verify
from cdescent.genocchi import genocchi_number
from cdescent.perms import (
    BUILD_CAP,
    COUNT_MAX_N,
    GENOCCHI_MAX_SIZE,
    TABLE_MAX_N,
    VERIFY_MAX_N,
    brute_cdes_table,
)


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
        ("count", "--n", "5", "--set", "3", "--threads", "0"),
        ("verify", "--max-n", "4", "--threads", "0"),
        ("tree", "--gaps", ",".join(["1"] * (BUILD_CAP + 1)), "--show"),
        ("count", "--n", str(COUNT_MAX_N + 1), "--set", str(COUNT_MAX_N + 1)),
        ("tree", "--gaps", str(COUNT_MAX_N + 1)),
        ("tableaux", "--shape", str(COUNT_MAX_N)),
        ("genocchi", "--k", "2", "--n", str(GENOCCHI_MAX_SIZE // 2 + 1)),
        ("genocchi", "--k", str(GENOCCHI_MAX_SIZE + 1), "--n", "1"),
        ("verify", "--max-n", str(VERIFY_MAX_N + 1)),
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


@contextlib.contextmanager
def any_int_digits():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "argv, value",
    [
        (("genocchi", "--k", "2", "--n", "1000"), lambda: genocchi_number(2, 1000)),
        (("count", "--n", "14300", "--set", "14300"), lambda: 2**14299 - 1),
    ],
)
def test_answers_past_the_digit_limit_print_in_full(capsys, argv, value):
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    assert len(out.strip()) > limit
    with any_int_digits():
        assert out == f"{value()}\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "11", "--set", "3", "--method", "brute"),
        ("genocchi", "--k", "11", "--n", "2", "--brute"),
    ],
)
def test_brute_cap_message_names_the_flag_once(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.endswith(" exceeds the enumeration cap (--brute-cap) = 10\n")
    assert err.count("\n") == 1 and "cap cap" not in err


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


# verify's text output for --max-n n <= 8, where every bound is n itself.
VERIFY_TEXT = """\
PASS brute-vs-formula (all sets, n <= {n})
PASS typed-vs-formula (all sets, n <= {n})
PASS recursion-vs-formula (all sets, n <= {n})
PASS tree-sum-vs-formula (all sets, n <= {n})
PASS tree-traversal-vs-closed-sum (gap vectors n <= {n} + samples)
PASS insertion-vs-formula (entrywise at n = {n})
PASS formula-mass-equals-factorial (n <= {n})
PASS nwexb-vs-cdes (full tables, n <= {n})
PASS poly-reference-table (orders 2..5)
PASS poly-vs-formula (n <= {n})
PASS poly-slice-reassembly (n <= {n})
PASS gap-tau-reversal (compositions of <= {n1})
PASS tableaux-three-routes (shapes of length <= {n})
PASS tableaux-mass-equals-factorial (n <= {n})
PASS theta-round-trip (heights <= {n})
PASS singleton-law (exact big integers, n <= 64)
PASS genocchi-cross-check (orders 1..3)
all 17 checks passed
"""


@pytest.mark.parametrize("max_n", [4, 8])
def test_verify_passes(capsys, monkeypatch, max_n):
    scanned = []

    def counted(n, **kwargs):
        scanned.append(n)
        return brute_cdes_table(n, **kwargs)

    monkeypatch.setattr(verify, "brute_cdes_table", counted)
    rc, out, err = run(capsys, "verify", "--max-n", str(max_n))
    assert rc == 0 and err == ""
    assert out == VERIFY_TEXT.format(n=max_n, n1=max_n + 1)
    # One brute table per n, shared by every check that compares against it.
    assert scanned == list(range(1, max_n + 1))


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


# Each command's own flags, as (required, optional).
COMMAND_FLAGS = {
    "count": (("--n",), ("--set", "--method", "--all-methods", "--threads", "--brute-cap")),
    "table": (("--n",), ()),
    "poly": (("--n",), ()),
    "tree": (("--gaps",), ("--show",)),
    "tableaux": (("--shape",), ("--method",)),
    "genocchi": (("--k", "--n"), ("--brute", "--brute-cap")),
    "verify": ((), ("--max-n", "--seed", "--threads")),
}
SWITCHES = ("--all-methods", "--show", "--brute")
# Small or malformed values, as (parsed by argparse, refused by it).  No
# number exceeds 3, so every call stays small under the default caps:
# n! <= 6 permutations, (k*n)! <= 720 for genocchi --brute, verify
# --max-n <= 3, and never a large --threads.
NUMBERS = (("-3", "-1", "0", "1", "2", "3"), ("", "x", "1.5"))
SETS = (("", "2", "3", "2,3", "3,2", "2,2", "1,3", "0", "-1", "x", "2,,3"), ())
VALUES = {
    "--set": SETS,
    "--gaps": SETS,
    "--shape": SETS,
    "--method": (("formula", "typed", "recursion", "tree", "brute"), ("nope",)),
    "--format": (("text", "json", "csv"), ("xml",)),
}
ALL_FLAGS = sorted({f for req, opt in COMMAND_FLAGS.values() for f in req + opt} | {"--format"})


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    required, optional = COMMAND_FLAGS[command]
    # One time in ten: a dropped required flag, a flag of another command,
    # or a value that argparse refuses, so most calls reach the command.
    def rarely():
        return draw(st.integers(0, 9)) == 9

    flags = [f for f in required if not rarely()]
    flags += [f for f in (*optional, "--format") if draw(st.booleans())]
    if rarely():
        flags.append(draw(st.sampled_from(ALL_FLAGS)))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag not in SWITCHES:
            parsed, refused = VALUES.get(flag, NUMBERS)
            argv.append(draw(st.sampled_from(refused if refused and rarely() else parsed)))
    return argv


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_fuzzed_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    err = err.getvalue()
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 1 and not err.startswith("usage: "):
        # A validation error, not an argparse one: one line, nothing printed.
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert out.getvalue() == "", argv
