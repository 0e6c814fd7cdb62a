"""What importing the package and running one CLI command loads, each
checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdescent

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with the package's sources first on
    the path; return its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_submodule():
    out = fresh("import sys, cdescent; print(*sorted(sys.modules))")
    assert [m for m in out.split() if m.startswith("cdescent.")] == []


def test_text_count_loads_only_its_route():
    code = (
        "import sys\n"
        "from cdescent import cli\n"
        "rc = cli.main(['count', '--n', '5', '--set', '3,5', '--method', 'formula'])\n"
        "print(rc, *sorted(sys.modules))\n"
    )
    answer, rc, *loaded = fresh(code).split()
    assert (answer, rc) == ("17", "0")
    unwanted = {
        "dataclasses", "json", "csv",
        "cdescent.verify", "cdescent.poly", "cdescent.tableaux", "cdescent.genocchi",
        "cdescent.perms",
    }
    assert unwanted.isdisjoint(loaded)


# Well-formed calls, each with whether it runs a permutation scan.
CALLS = [
    *((["count", "--n", "5", "--set", "3,5", "--method", m], False) for m in ("formula", "typed", "tree", "recursion")),
    (["tree", "--gaps", "2,1"], False),
    (["tableaux", "--shape", "3,2,1"], False),
    (["genocchi", "--k", "2", "--n", "4", "--brute"], False),
    (["table", "--n", "4"], False),
    (["poly", "--n", "3"], False),
    (["count", "--n", "5", "--set", "3,5", "--method", "brute"], True),
    (["count", "--n", "5", "--set", "3,5", "--all-methods"], True),
    (["verify", "--max-n", "2"], True),
]


def call_id(argv):
    return " ".join(argv) if isinstance(argv, list) else None


@pytest.mark.parametrize("argv, scans", CALLS, ids=call_id)
def test_only_brute_counts_and_verify_load_the_scans(argv, scans):
    # The caps and checks live in cdescent.contract, so a command loads
    # the permutation scans of cdescent.perms only when it runs one.
    code = (
        "import sys\n"
        "from cdescent import cli\n"
        f"rc = cli.main({argv!r})\n"
        "print(rc, 'cdescent.perms' in sys.modules)\n"
    )
    assert fresh(code).split()[-2:] == ["0", str(scans)]


@pytest.mark.parametrize("argv", [argv for argv, _ in CALLS], ids=call_id)
def test_well_formed_calls_do_not_load_argparse(argv):
    # A plain call is parsed from the command table; argparse, and the
    # gettext and locale it brings, load only for the calls left to it.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from cdescent import cli\n"
        f"rc = cli.main({argv!r})\n"
        "print(rc, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules) - before))\n"
    )
    assert fresh(code).splitlines()[-1] == "0"


def test_other_calls_are_left_to_argparse():
    code = (
        "import contextlib, io\n"
        "from cdescent import cli\n"
        "for argv in (['--help'], ['count', '--n', 'x', '--set', '3']):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        rc = cli.main(argv)\n"
        "    print(rc, out.getvalue().startswith('usage: '), err.getvalue().startswith('usage: '))\n"
    )
    assert fresh(code) == "0 True False\n1 False True\n"


def run_as_main(argv: list[str]) -> tuple[int, set[str]]:
    """Run ``python -m cdescent.cli *argv`` in a fresh interpreter, through
    ``runpy`` as ``-m`` does; return its exit code and every module
    loaded by its end.  The list is printed on the last line of stderr at
    exit, after anything the call printed."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
        f"sys.argv = ['-m', *{argv!r}]\n"
        "runpy.run_module('cdescent.cli', run_name='__main__', alter_sys=True)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode, set(done.stderr.splitlines()[-1].split())


# The small text calls of the benchmark's cli-verify workload.
SMALL_CALLS = [
    *(["count", "--n", "5", "--set", "3,5", "--method", m] for m in ("formula", "typed", "tree", "recursion")),
    ["tree", "--gaps", "2,1"],
    ["tableaux", "--shape", "3,2,1"],
    ["genocchi", "--k", "2", "--n", "4", "--brute"],
]


@pytest.mark.parametrize("argv", SMALL_CALLS, ids=call_id)
def test_small_text_calls_load_neither_cli_extra_nor_the_key_lists(argv):
    # Run with no bytecode cache, a call compiles every module it loads.
    rc, loaded = run_as_main(argv)
    assert rc == 0
    assert "cdescent.contract" in loaded
    assert {"cdescent.cli_extra", "cdescent.tablekeys"}.isdisjoint(loaded)


# Every command in each --format, then --help and the calls left to
# argparse, with the exit code of each.
MAIN_CALLS = [
    *(
        ([*call, "--format", fmt], 0)
        for fmt in ("text", "json", "csv")
        for call in (
            ["count", "--n", "9", "--set", "3,5"],
            ["table", "--n", "4"],
            ["poly", "--n", "3"],
            ["tree", "--gaps", "2,1", "--show"],
            ["tableaux", "--shape", "3,2,1"],
            ["genocchi", "--k", "2", "--n", "4", "--brute"],
            ["verify", "--max-n", "4"],
        )
    ),
    (["--help"], 0),
    (["tableaux", "--help"], 0),
    (["count", "--n", "x", "--set", "3"], 1),
]


@pytest.mark.parametrize("argv, code", MAIN_CALLS, ids=lambda v: call_id(v) if isinstance(v, list) else None)
def test_no_call_imports_the_running_cli(argv, code):
    # Under -m the running module is __main__: an import of cdescent.cli
    # would compile cli.py a second time.  Only the small text calls
    # leave cli_extra unloaded.
    rc, loaded = run_as_main(argv)
    assert rc == code
    assert "cdescent.cli" not in loaded
    small = argv[0] in ("count", "tableaux", "genocchi") and argv[-1] == "text"
    assert ("cdescent.cli_extra" in loaded) is not small


def test_key_lists_load_with_the_whole_tables_only():
    code = (
        "import sys\n"
        "from cdescent import cdes_recursive, gn, cdes_insertion_table\n"
        "cdes_recursive(9, (3, 5))\n"
        "before = 'cdescent.tablekeys' in sys.modules\n"
        "gn(3)\n"
        "print(before, 'cdescent.tablekeys' in sys.modules)\n"
    )
    assert fresh(code) == "False True\n"


def test_route_modules_do_not_load_the_scans():
    code = (
        "import sys\n"
        "from cdescent import formula, genocchi, poly, recursion, tableaux, tree\n"
        "print('cdescent.perms' in sys.modules)\n"
    )
    assert fresh(code) == "False\n"


def test_every_public_name_resolves_and_is_listed():
    code = (
        "import sys, cdescent\n"
        "listed = dir(cdescent)\n"
        "for name in cdescent.__all__:\n"
        "    value = getattr(cdescent, name)\n"
        "    home = sys.modules[value.__module__]\n"
        "    print(name, name in listed, getattr(home, name) is value)\n"
    )
    rows = [line.split() for line in fresh(code).splitlines()]
    assert [name for name, *_ in rows] == cdescent.__all__
    assert all(row[1:] == ["True", "True"] for row in rows), rows


def test_unknown_attribute_raises_attribute_error():
    code = (
        "import cdescent\n"
        "try:\n"
        "    cdescent.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert fresh(code) == "module 'cdescent' has no attribute 'no_such_name'\n"


def test_submodules_resolve_as_attributes():
    code = (
        "import sys, cdescent\n"
        "print(cdescent.contract.BUILD_CAP, cdescent.tree is sys.modules['cdescent.tree'])\n"
        "print('cdescent.poly' in sys.modules, 'poly' in dir(cdescent))\n"
    )
    assert fresh(code) == f"{cdescent.contract.BUILD_CAP} True\nFalse True\n"


def test_star_import_binds_every_public_name():
    code = (
        "import cdescent\n"
        "namespace = {}\n"
        "exec('from cdescent import *', namespace)\n"
        "print(*sorted(set(cdescent.__all__) - set(namespace)))\n"
        "print(len(cdescent.__all__), len(set(cdescent.__all__)))\n"
    )
    missing, sizes = fresh(code).split("\n")[:2]
    assert missing == ""
    size, distinct = sizes.split()
    assert size == distinct and int(size) > 0
