"""The command-line code that no small text call runs: the ``table``,
``poly`` and ``verify`` handlers, the tree dump of ``tree --show``, the
json and csv records, and the argparse parser of the calls that
``cli.parse_plain`` leaves to argparse.

``cli`` imports this module only inside the code paths that need it, so
a small text call (``count``, ``tree``, ``tableaux``, ``genocchi``)
neither reads nor compiles it.  This module does not import ``cli``:
under ``python -m cdescent.cli`` the running module is ``__main__``, and
an import of ``cdescent.cli`` would compile ``cli.py`` a second time.
The parser is handed ``cli.COMMANDS`` instead.
"""

from __future__ import annotations

import sys

from .contract import iter_value_sets


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


def emit(args, query: dict, result, rows: list[dict] | None = None) -> None:
    """Print one record in ``args.format``, json or csv.  ``rows`` drives
    the csv rendering; without them csv prints the result alone."""
    if args.format == "json":
        import json

        print(json.dumps({"query": query, "result": result}, indent=2))
        return
    import csv

    writer = csv.writer(sys.stdout)
    if rows is None:
        writer.writerow(["result"])
        writer.writerow([result])
    else:
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(row.values())


def cmd_table(args) -> int:
    from .recursion import cdes_insertion_table

    table = cdes_insertion_table(args.n)
    ordered = [(s, table[s]) for s in iter_value_sets(args.n)]
    if args.format == "text":
        for s, c in ordered:
            print(format_set(s), c)
        return 0
    rows = [{"set": format_set(s), "count": str(c)} for s, c in ordered]
    result = [{"set": list(s), "count": str(c)} for s, c in ordered]
    emit(args, {"command": "table", "n": args.n}, result, rows)
    return 0


def cmd_poly(args) -> int:
    from .poly import gn

    g = gn(args.n)
    if args.format == "text":
        print(g)
        return 0
    rows = [
        {"xvars": ",".join(str(i) for i in xv), "ydeg": ydeg, "coefficient": str(c)}
        for (xv, ydeg), c in g.sorted_terms()
    ]
    emit(args, {"command": "poly", "n": args.n}, str(g), rows)
    return 0


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(args.max_n, workers=args.threads)
    if args.format == "text":
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail})")
    else:
        rows = [
            {"check": r.name, "status": "PASS" if r.passed else "FAIL", "detail": r.detail}
            for r in results
        ]
        result = [{"check": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        emit(args, {"command": "verify", "max_n": args.max_n}, result, rows)
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"error: {len(failed)} check(s) failed", file=sys.stderr)
        return 2
    if args.format == "text":
        print(f"all {len(results)} checks passed")
    return 0


def build_parser(commands: dict):
    """The argparse parser of every command in ``commands``, the table
    ``cli.COMMANDS``: name -> (handler, summary, option rows)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cdescent",
        description="Exact enumeration of permutations by circular descent set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in commands.items():
        p = sub.add_parser(name, help=summary)
        for flag, kind, default, required, help in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help)
            elif kind is int:
                p.add_argument(flag, type=int, default=default, required=required, help=help)
            elif kind is str:
                p.add_argument(flag, default=default, required=required, help=help)
            else:
                p.add_argument(flag, choices=kind, default=default, required=required, help=help)
        p.set_defaults(func=func)
    return parser
