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


@pytest.mark.parametrize(
    "argv, scans",
    [
        *((["count", "--n", "5", "--set", "3,5", "--method", m], False) for m in ("formula", "typed", "tree", "recursion")),
        (["tree", "--gaps", "2,1"], False),
        (["tableaux", "--shape", "3,2,1"], False),
        (["genocchi", "--k", "2", "--n", "4", "--brute"], False),
        (["table", "--n", "4"], False),
        (["poly", "--n", "3"], False),
        (["count", "--n", "5", "--set", "3,5", "--method", "brute"], True),
        (["count", "--n", "5", "--set", "3,5", "--all-methods"], True),
        (["verify", "--max-n", "2"], True),
    ],
    ids=lambda argv: " ".join(argv) if isinstance(argv, list) else None,
)
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
