"""Command-line front end.

Commands: count, table, poly, tree, tableaux, genocchi, verify.  All take
``--format text|json|csv``.  count and verify run in one process; both
accept ``--threads N`` (N >= 1) and ignore it, kept only for callers
that pass it.  Brute counts refuse permutations longer than
``contract.DEFAULT_ENUMERATION_CAP``.  Exit codes: 0 success, 1 validation
error or stdout closed early by its reader, 2 cross-method mismatch (a
failed ``verify`` check, or ``error: methods disagree`` from the one
cross-check report of ``count --all-methods`` and ``genocchi --brute``).
List arguments are comma-separated integers, '' the empty list; a
refusal names one token or pair.

JSON output is a single object ``{"query": {...}, "result": ...}``; counts
are decimal strings so arbitrary precision survives every format.  Tree
dumps (``tree --show``, text format only) print one node per line as
``height label sign``, children indented two spaces under their parent,
repeating-label child first; the sign is ``+`` on label-incrementing
edges, ``-`` on label-repeating ones, and ``+`` for the root.

Each command imports only the modules it runs, inside its ``cmd_*``
function (``json`` and ``csv`` only for those formats), so a call pays
start-up for its own routes and not for the whole package.  The caps and
checks come from ``contract``, so only ``count --method brute``,
``count --all-methods`` and ``verify`` load the permutation scans of
``perms``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .contract import DEFAULT_ENUMERATION_CAP, _show, check_int, iter_value_sets

COUNT_METHODS = ("formula", "typed", "recursion", "tree", "brute")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; '' is empty.  A refusal names the first
    token that is not one, cut to 30 characters."""
    if text == "":
        return ()
    values = []
    for tok in text.split(","):
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"malformed {what}: {tok[:30]!r} is not an integer") from None
    return tuple(values)


def parse_set(text: str) -> tuple[int, ...]:
    """Comma-separated strictly ascending integers; '' is empty.  The
    count routes refuse elements below 1 (``contract.as_value_set``).

    Descending or duplicated input is rejected rather than sorted, to
    surface caller bugs; the refusal names the first pair out of order.
    """
    values = _parse_ints(text, "set")
    for a, b in zip(values, values[1:]):
        if a >= b:
            raise ValueError(f"set elements must be strictly ascending: {_show(b)} follows {_show(a)}")
    return values


def parse_shape(text: str) -> tuple[int, ...]:
    from .tableaux import check_shape

    return check_shape(_parse_ints(text, "shape"))


def format_set(s: tuple[int, ...]) -> str:
    return "{" + ",".join(str(v) for v in s) + "}"


def format_tree(root) -> str:
    """Dump a ``tree.TreeNode`` and its descendants, one per line."""
    lines: list[str] = []

    def visit(node, sign: str) -> None:
        lines.append("  " * node.height + f"{node.height} {node.label} {sign}")
        for child in node.children:
            visit(child, "+" if child.label > node.label else "-")

    visit(root, "+")
    return "\n".join(lines)


def _emit(args, query: dict, result, rows: list[dict] | None = None) -> None:
    """Print one record.  ``rows`` drives the csv rendering, and the text
    one unless the result is a string, which text prints bare."""
    if args.format == "json":
        import json

        print(json.dumps({"query": query, "result": result}, indent=2))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout)
        if rows is None:
            writer.writerow(["result"])
            writer.writerow([result])
        else:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(row.values())
    elif isinstance(result, str):
        print(result)
    else:
        for row in rows:
            print(" ".join(str(v) for v in row.values()))


def _cross_check(args, query: dict, values: dict[str, int]) -> int:
    """Print one row per method with the value it gave; exit code 2 when
    the values disagree, else 0."""
    rows = [{"method": m, "value": str(v)} for m, v in values.items()]
    _emit(args, query, rows, rows)
    if len(set(values.values())) != 1:
        print("error: methods disagree", file=sys.stderr)
        return 2
    return 0


def _count_one(method: str, n: int, s: tuple[int, ...]) -> int:
    if method in ("formula", "typed", "tree"):  # one closed form, three statements
        from .formula import cdes_formula

        return cdes_formula(n, s)
    if method == "recursion":
        from .recursion import cdes_recursive

        return cdes_recursive(n, s)
    from .perms import brute_cdes_count

    return brute_cdes_count(n, s)


def cmd_count(args) -> int:
    s = parse_set(args.set)
    query = {"command": "count", "n": args.n, "set": list(s)}
    if args.all_methods:
        methods = [
            m for m in COUNT_METHODS if m != "brute" or args.n <= DEFAULT_ENUMERATION_CAP
        ]
        values: dict[str, int] = {}
        for m in methods:  # typed and tree restate formula's closed form
            values[m] = values["formula"] if m in ("typed", "tree") else _count_one(m, args.n, s)
        return _cross_check(args, {**query, "methods": methods}, values)
    value = _count_one(args.method, args.n, s)
    _emit(args, {**query, "method": args.method}, str(value))
    return 0


def cmd_table(args) -> int:
    from .recursion import cdes_insertion_table

    table = cdes_insertion_table(args.n)
    ordered = [(s, table[s]) for s in iter_value_sets(args.n)]
    rows = [{"set": format_set(s), "count": str(c)} for s, c in ordered]
    result = [{"set": list(s), "count": str(c)} for s, c in ordered]
    _emit(args, {"command": "table", "n": args.n}, result, rows)
    return 0


def cmd_poly(args) -> int:
    from .poly import gn

    g = gn(args.n)
    rows = [
        {"xvars": ",".join(str(i) for i in xv), "ydeg": ydeg, "coefficient": str(c)}
        for (xv, ydeg), c in g.sorted_terms()
    ]
    _emit(args, {"command": "poly", "n": args.n}, str(g), rows)
    return 0


def cmd_tree(args) -> int:
    from .tree import build_tree, tree_weight_sum

    gaps = _parse_ints(args.gaps, "gaps")
    # Built first, so that BUILD_CAP refuses before any work or output.
    root = build_tree(len(gaps)) if args.show and args.format == "text" else None
    weight = tree_weight_sum(gaps)
    _emit(args, {"command": "tree", "gaps": list(gaps)}, str(weight))
    if root is not None:
        print(format_tree(root))
    return 0


def cmd_tableaux(args) -> int:
    from . import tableaux

    shape = parse_shape(args.shape)
    route = {
        "formula": tableaux.count_tableaux_formula,
        "transfer": tableaux.count_tableaux_transfer,
        "brute": tableaux.brute_count_tableaux,
    }[args.method]
    value = route(shape)
    query = {"command": "tableaux", "shape": list(shape), "method": args.method}
    _emit(args, query, str(value))
    return 0


def cmd_genocchi(args) -> int:
    from .genocchi import _check_brute, _check_number, brute_genocchi_perm_count, genocchi_number

    query = {"command": "genocchi", "k": args.k, "n": args.n}
    # Both routes' arguments are checked before either computes.
    _check_number(args.k, args.n)
    if not args.brute:
        _emit(args, query, str(genocchi_number(args.k, args.n)))
        return 0
    if args.n < 2:
        raise ValueError("--brute needs n >= 2 (it recounts the previous index)")
    _check_brute(args.k, args.n - 1)
    value = genocchi_number(args.k, args.n)
    brute = brute_genocchi_perm_count(args.k, args.n - 1)
    return _cross_check(args, {**query, "brute": True}, {"recursion": value, "brute": brute})


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(args.max_n, workers=args.threads)
    rows = [
        {"check": r.name, "status": "PASS" if r.passed else "FAIL", "detail": r.detail}
        for r in results
    ]
    result = [{"check": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    if args.format == "text":
        for row in rows:
            print(f"{row['status']} {row['check']} ({row['detail']})")
    else:
        _emit(args, {"command": "verify", "max_n": args.max_n}, result, rows)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"error: {len(failed)} check(s) failed", file=sys.stderr)
        return 2
    if args.format == "text":
        print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdescent",
        description="Exact enumeration of permutations by circular descent set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *, threads: bool = False) -> argparse.ArgumentParser:
        # One command's parser, its shared flags first.
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )
        if threads:
            p.add_argument(
                "--threads", type=int, default=1,
                help="accepted and ignored, kept for callers that pass it: every command"
                " runs in one process (default 1)",
            )
        return p

    p = command("count", "count permutations with a given descent-value set", threads=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", default="", help="comma-separated ascending values, empty for the empty set")
    p.add_argument(
        "--method", choices=COUNT_METHODS, default="formula",
        help="typed and tree print the closed form (formula) under the paper's"
        " other statements; recursion and brute are independent routes",
    )
    p.add_argument("--all-methods", action="store_true", help="run every applicable method; exit 2 on disagreement")
    p.set_defaults(func=cmd_count)

    p = command("table", "full count table for subsets of [2, n]")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = command("poly", "generating polynomial of order n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_poly)

    p = command("tree", "signed weight of the generating tree for a gap sequence")
    p.add_argument("--gaps", required=True, help="comma-separated nonnegative exponents")
    p.add_argument("--show", action="store_true", help="dump the tree (text format only)")
    p.set_defaults(func=cmd_tree)

    p = command("tableaux", "count valid 0/1 fillings of a shape")
    p.add_argument("--shape", required=True, help="comma-separated weakly decreasing row lengths")
    p.add_argument(
        "--method", choices=("formula", "transfer", "brute"), default="formula",
        help="formula: the alternating sum, 2^width terms (work <= SUM_CAP);"
        " transfer: column by column, exponential in rows; brute: the naive search"
        " (boxes <= BOX_CAP)",
    )
    p.set_defaults(func=cmd_tableaux)

    p = command("genocchi", "generalized Genocchi number of order k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="cross-check by permutation enumeration; exit 2 on mismatch")
    p.set_defaults(func=cmd_genocchi)

    p = command("verify", "run the cross-method verification suite", threads=True)
    p.add_argument("--max-n", type=int, default=6)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # Every input is capped, so no answer takes long to print in full.
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if "threads" in args:
            check_int("--threads", args.threads, 1)
        code = args.func(args)
        sys.stdout.flush()  # a closed reader fails here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (``| head -1``).  Point stdout at devnull,
        # so that the interpreter's final flush finds nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was complete", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
