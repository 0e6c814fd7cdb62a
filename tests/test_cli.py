import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdescent.cli as cli
import cdescent.formula as formula
import cdescent.genocchi as genocchi
import cdescent.perms as perms
import cdescent.verify as verify
from cdescent.contract import (
    BUILD_CAP,
    COUNT_MAX_N,
    GENOCCHI_MAX_SIZE,
    TABLE_MAX_N,
    TRANSFER_CAP,
    VERIFY_MAX_N,
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


@pytest.mark.parametrize(
    "n, elements",
    [
        ("3000", "1500,3000"),
        ("10000", "5000,10000"),
        ("100000", "900,100000"),
        # The r = 1 pair leaf at the count cap.
        ("100000", "2,100000"),
    ],
)
def test_deep_recursion_queries_match_the_formula(capsys, n, elements):
    # Within the recursion's work cap and |S| frames deep.
    answers = [run(capsys, "count", "--n", n, "--set", elements, "--method", m) for m in ("recursion", "formula")]
    assert answers[0] == answers[1] and answers[0][0] == 0


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
    monkeypatch.setattr(formula, "cdes_formula", lambda n, s: 999)
    rc, _, err = run(capsys, "count", "--n", "5", "--set", "3,5", "--all-methods")
    assert rc == 2
    assert err == "error: methods disagree\n"


def test_count_all_methods_sums_the_closed_form_once(capsys, monkeypatch):
    # formula, typed and tree print one closed form: one cube_sum per call.
    calls = []
    real = formula.cube_sum
    monkeypatch.setattr(formula, "cube_sum", lambda e: calls.append(e) or real(e))
    for argv in (("--n", "5", "--set", "3,5"), ("--n", "12", "--set", "12")):
        calls.clear()
        rc, out, _ = run(capsys, "count", *argv, "--all-methods")
        assert rc == 0
        assert len(set(line.split()[1] for line in out.strip().splitlines())) == 1
        assert len(calls) == 1, argv


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
        ("count", "--n", "4000", "--set", "1000,2000,3000,4000", "--method", "recursion"),
        ("count", "--n", "5", "--set", "3", "--method", "brute", "--threads", "0"),
        ("count", "--n", "5", "--set", "3", "--method", "brute", "--threads", "-3"),
        ("count", "--n", "5", "--set", "3", "--threads", "0"),
        ("verify", "--max-n", "4", "--threads", "0"),
        ("tree", "--gaps", ",".join(["1"] * (BUILD_CAP + 1)), "--show"),
        ("count", "--n", str(COUNT_MAX_N + 1), "--set", str(COUNT_MAX_N + 1)),
        ("tree", "--gaps", str(COUNT_MAX_N + 1)),
        ("tableaux", "--shape", str(COUNT_MAX_N)),
        ("tableaux", "--shape", ",".join(["1"] * 11), "--method", "transfer"),
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "--n", "5", "--set", "0,3"), "set element must be at least 1: 0"),
        (("count", "--n", "5", "--set=-2,3", "--method", "brute"), "set element must be at least 1: -2"),
        (("tree", "--gaps", "2,-1"), "weight exponent must be at least 0: -1"),
        (("tree", "--gaps", "-1", "--show"), "weight exponent must be at least 0: -1"),
        # 2^99999 * (99999 + 16): a work of 100016 bits, named by its size.
        (("tableaux", "--shape", "99999"), "work = an integer of 100016 bits exceeds the summation cap SUM_CAP = 40000000"),
        (("table", "--n", "0"), "n must be at least 1: 0"),
        (("poly", "--n", "0"), "n must be at least 1: 0"),
        (("genocchi", "--k", "0", "--n", "3"), "k must be at least 1: 0"),
        (("verify", "--max-n", "1"), "max_n must be at least 2: 1"),
        (("count", "--n", "5", "--set", "3", "--threads", "0"), "--threads must be at least 1: 0"),
        # A 61-digit n is named by its size, not echoed in full.
        (("count", "--n", str(10**60), "--set", "2"), "n = an integer of 200 bits exceeds the count cap COUNT_MAX_N = 100000"),
        # A dense set past the recursion's size cap, which keeps it within
        # the interpreter's depth limit.
        (
            ("count", "--n", "1010", "--set", ",".join(map(str, range(2, 1011))), "--method", "recursion"),
            "|S| = 1009 exceeds the recursion cap RECURSION_MAX_SIZE = 900",
        ),
        # W(S) * (max(S) + 16) multiply-adds' work past the recursion cap.
        (
            ("count", "--n", "100000", "--set", "300,600,100000", "--method", "recursion"),
            "work = 13457152800 exceeds the recursion cap RECURSION_CAP = 400000000",
        ),
    ],
)
def test_library_refusals_reach_the_cli(capsys, argv, message):
    # The CLI leaves these bounds to the library and prints its message.
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("count", "--n", "5", "--set", "3,x"), "malformed set: 'x' is not an integer"),
        (("count", "--n", "5", "--set", "2,,3"), "malformed set: '' is not an integer"),
        (("tree", "--gaps", "1," + "9" * 40 + "z"), f"malformed gaps: '{'9' * 30}' is not an integer"),
        (("tableaux", "--shape", "3,1.5"), "malformed shape: '1.5' is not an integer"),
        (("count", "--n", "5", "--set", "2,5,3,4"), "set elements must be strictly ascending: 3 follows 5"),
        (("count", "--n", "5", "--set", "2,3,3"), "set elements must be strictly ascending: 3 follows 3"),
        # '' is the empty list for every list argument; a shape needs a row.
        (("tableaux", "--shape", ""), "a shape needs at least one row"),
    ],
)
def test_list_refusals_name_one_token(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        # 9,999 descending elements and 20,000 gaps then a stray token: each
        # refusal names one pair or one token, not the whole argument.
        ("count", "--n", "100000", "--set", ",".join(map(str, range(100000, 9, -10)))),
        ("tree", "--gaps", ",".join(map(str, range(1, 20001))) + ",x"),
    ],
    ids=["descending set", "malformed gaps"],
)
def test_long_list_refusals_print_one_short_line(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 160


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
        (("genocchi", "--k", "2", "--n", "1000"), lambda: genocchi.genocchi_number(2, 1000)),
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


# sha256 of ``poly --n 8`` stdout per format, as the dict-keyed
# derivative recursion printed it before gn moved to a bitmask list.
POLY_8_DIGESTS = {
    "text": "967b2812ffa8f1a6f1dc7ce730090feb755e408b5f341d8e82f0134de02d57f3",
    "json": "d0430716a507cd2f83404b24a6416b3c25db1c88ace66eba53353ca64462c00b",
    "csv": "a01e0ed56453db1e3ff7c1f9cebb91d696f419f632fb5781f5673a146b70fbe8",
}


@pytest.mark.parametrize("fmt", sorted(POLY_8_DIGESTS))
def test_poly_output_is_byte_identical(capsys, fmt):
    rc, out, _ = run(capsys, "poly", "--n", "8", "--format", fmt)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == POLY_8_DIGESTS[fmt]


@pytest.mark.parametrize(
    "argv",
    [["table", "--n", "14"], ["poly", "--n", "15", "--format", "csv"]],
)
def test_closed_reader_exits_1_without_a_traceback(argv):
    # Far more output than a pipe holds, so the writer is still blocked
    # when the reader goes away after one line (``| head -1``).
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "cdescent.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert len(err.splitlines()) <= 1


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


def test_tree_empty_gaps_is_the_root(capsys):
    # The empty gap vector is the height-0 tree: the root alone, weight 1.
    rc, out, err = run(capsys, "tree", "--gaps", "")
    assert (rc, out, err) == (0, "1\n", "")
    rc, out, err = run(capsys, "tree", "--gaps", "", "--show")
    assert (rc, out, err) == (0, "1\n0 1 +\n", "")


def test_tableaux(capsys):
    rc, out, _ = run(capsys, "tableaux", "--shape", "2,2", "--method", "brute")
    assert rc == 0 and out.strip() == "7"
    rc, out, _ = run(capsys, "tableaux", "--shape", "2,2")
    assert rc == 0 and out.strip() == "7"


@pytest.mark.parametrize("shape", ["1", "2,1", "2,2", "3,3,1", "5,4,4,2,1"])
def test_tableaux_transfer_matches_formula(capsys, shape):
    for fmt in ("text", "json", "csv"):
        formula_run = run(capsys, "tableaux", "--shape", shape, "--format", fmt)
        transfer_run = run(capsys, "tableaux", "--shape", shape, "--method", "transfer", "--format", fmt)
        assert transfer_run == formula_run[:1] + (formula_run[1].replace('"formula"', '"transfer"'), "")


def test_tableaux_transfer_reaches_past_the_summation_cap(capsys):
    assert run(capsys, "tableaux", "--shape", "40,30,20") == (
        1, "", "error: work = 63771674411008 exceeds the summation cap SUM_CAP = 40000000\n"
    )
    rc, out, err = run(capsys, "tableaux", "--shape", "40,30,20", "--method", "transfer", "--format", "json")
    assert (rc, err) == (0, "")
    assert json.loads(out) == {
        "query": {"command": "tableaux", "shape": [40, 30, 20], "method": "transfer"},
        "result": "21418506295297",
    }


def test_tableaux_transfer_cap_exits_1(capsys):
    assert run(capsys, "tableaux", "--shape", ",".join(["40"] * 8), "--method", "transfer") == (
        1, "", f"error: transfer steps = 2621440 exceeds the column transfer cap TRANSFER_CAP = {TRANSFER_CAP}\n"
    )


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
def test_enumeration_cap_message_names_the_constant(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert err.endswith(" exceeds the enumeration cap DEFAULT_ENUMERATION_CAP = 10\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "5", "--set", "3", "--method", "brute", "--brute-cap", "5"),
        ("genocchi", "--k", "2", "--n", "3", "--brute", "--brute-cap", "5"),
    ],
)
def test_brute_cap_flag_is_gone(capsys, argv):
    # The enumeration cap is fixed: no flag sets it.
    rc, out, err = run(capsys, *argv)
    assert rc == 1 and out == ""
    assert "unrecognized arguments: --brute-cap 5" in err


def test_genocchi_brute_refuses_before_the_triangle(capsys, monkeypatch):
    # Both routes' arguments are checked before either computes: the
    # enumeration cap refuses k*n = 2 * 999 without the value triangle.
    def triangle(k, n):
        raise AssertionError("the value triangle ran")

    monkeypatch.setattr(genocchi, "genocchi_number", triangle)
    assert run(capsys, "genocchi", "--k", "2", "--n", "1000", "--brute") == (
        1, "", "error: k*n = 1998 exceeds the enumeration cap DEFAULT_ENUMERATION_CAP = 10\n"
    )


def test_genocchi_brute_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(genocchi, "genocchi_number", lambda k, n: 999)
    rc, _, err = run(capsys, "genocchi", "--k", "2", "--n", "3", "--brute")
    assert rc == 2
    assert err == "error: methods disagree\n"


# sha256 of the two cross-check reports' stdout per format, as each
# command printed them through its own code before they shared one.
CROSS_CHECK_DIGESTS = {
    ("count", "--n", "9", "--set", "2,5,9", "--all-methods"): {
        "text": "82f5f07eed7b3e91947dd8f1b472ce4157020e5edb40d9707484fd7e236acb61",
        "json": "b2283db19335f7d76752fed50aa73e7c3f77f0a23641a1a8b97502447d4d722e",
        "csv": "717ba2484b7e38cdd97e226d2e7f8e8e0091acce16e64dc607aea12429ab5142",
    },
    ("genocchi", "--k", "2", "--n", "5", "--brute"): {
        "text": "13123b4a015fae9f4b8d65bcfbf90c3f5f2ca7fc9589da67e29b32d3b89da30b",
        "json": "10df49664ef95459e4f9a8d16fb2f17541baa4611e5dc2c9d4456f1e6614bbb2",
        "csv": "5a4ea2561244a11112bc4828e9c0ce88714687f035984dc2c8ee9517eaf98ade",
    },
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", sorted(CROSS_CHECK_DIGESTS))
def test_cross_check_output_is_byte_identical(capsys, argv, fmt):
    rc, out, err = run(capsys, *argv, "--format", fmt)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CROSS_CHECK_DIGESTS[argv][fmt]


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
PASS tree-sum-vs-formula (tree traversal, all sets, n <= {n})
PASS tree-traversal-vs-closed-sum (25 seeded weight sequences)
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
    scan = perms._brute_table

    def counted(rule, n):
        scanned.append((rule, n))
        return scan(rule, n)

    monkeypatch.setattr(perms, "_brute_table", counted)
    rc, out, err = run(capsys, "verify", "--max-n", str(max_n))
    assert rc == 0 and err == ""
    assert out == VERIFY_TEXT.format(n=max_n, n1=max_n + 1)
    # One class-tally scan of the n! permutations per n and rule, each
    # table shared by every check that compares against it.
    sizes = range(1, max_n + 1)
    assert scanned == [(perms._descent_bit, n) for n in sizes] + [
        (perms._nwexb_bit, n) for n in sizes
    ]


def test_verify_seed_flag_is_gone(capsys):
    # The sampled checks run on verify.DEFAULT_SEED: no flag sets it.
    rc, out, err = run(capsys, "verify", "--seed", "5")
    assert rc == 1 and out == ""
    assert "unrecognized arguments: --seed 5" in err


def test_verify_failure_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(
        verify, "run_all", lambda *a, **kw: [verify.CheckResult("stub", False, "boom")]
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
    "count": (("--n",), ("--set", "--method", "--all-methods", "--threads")),
    "table": (("--n",), ()),
    "poly": (("--n",), ()),
    "tree": (("--gaps",), ("--show",)),
    "tableaux": (("--shape",), ("--method",)),
    "genocchi": (("--k", "--n"), ("--brute",)),
    "verify": ((), ("--max-n", "--threads")),
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
    "--method": (("formula", "typed", "recursion", "tree", "brute", "transfer"), ("nope",)),
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
