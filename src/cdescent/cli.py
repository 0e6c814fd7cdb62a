"""Command-line front end.

Commands: count, table, poly, tree, tableaux, genocchi, verify.  All take
``--format text|json|csv``; count and verify take ``--threads N`` (most
worker processes for brute-force scans); count and genocchi take
``--brute-cap N`` (largest permutation length a brute scan will
accept).  Exit codes: 0 success, 1 validation error, 2 cross-method
mismatch.

JSON output is a single object ``{"query": {...}, "result": ...}``; counts
are decimal strings so arbitrary precision survives every format.  Tree
dumps (``tree --show``, text format only) print one node per line as
``height label sign``, children indented two spaces under their parent,
repeating-label child first; the sign is ``+`` on label-incrementing
edges, ``-`` on label-repeating ones, and ``+`` for the root.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Sequence

from .formula import cdes_formula, cdes_formula_typed
from .genocchi import brute_genocchi_perm_count, genocchi_number
from .perms import DEFAULT_ENUMERATION_CAP, brute_cdes_count, check_workers
from .poly import gn
from .recursion import cdes_insertion_table, cdes_recursive
from .tableaux import brute_count_tableaux, check_shape, count_tableaux_formula
from .tree import TreeNode, build_tree, tree_count, tree_weight_sum
from .verify import DEFAULT_SEED, run_all

COUNT_METHODS = ("formula", "typed", "recursion", "tree", "brute")


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}: expected comma-separated integers")


def parse_set(text: str) -> tuple[int, ...]:
    """Comma-separated strictly ascending positive integers; '' is empty.

    Descending or duplicated input is rejected rather than sorted, to
    surface caller bugs.
    """
    if text == "":
        return ()
    values = _parse_ints(text, "set")
    if any(v < 1 for v in values):
        raise ValueError(f"set elements must be positive: {text!r}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"set elements must be strictly ascending: {text!r}")
    return values


def parse_gaps(text: str) -> tuple[int, ...]:
    values = _parse_ints(text, "gaps")
    if any(v < 0 for v in values):
        raise ValueError(f"gap exponents must be nonnegative: {text!r}")
    return values


def parse_shape(text: str) -> tuple[int, ...]:
    return check_shape(_parse_ints(text, "shape"))


def format_set(s: tuple[int, ...]) -> str:
    return "{" + ",".join(str(v) for v in s) + "}"


def format_tree(root: TreeNode) -> str:
    lines: list[str] = []

    def visit(node: TreeNode, sign: str) -> None:
        lines.append("  " * node.height + f"{node.height} {node.label} {sign}")
        for child in node.children:
            visit(child, "+" if child.label > node.label else "-")

    visit(root, "+")
    return "\n".join(lines)


def _emit(args, query: dict, result, rows: list[dict] | None = None, text: str | None = None) -> None:
    """Print one record.  ``rows`` drives the csv rendering (and the text
    one unless ``text`` overrides it); scalar results print bare."""
    if args.format == "json":
        print(json.dumps({"query": query, "result": result}, indent=2))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        if rows is None:
            writer.writerow(["result"])
            writer.writerow([result])
        else:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(row.values())
    elif text is not None:
        print(text)
    elif rows is not None:
        for row in rows:
            print(" ".join(str(v) for v in row.values()))
    else:
        print(result)


def _count_one(method: str, n: int, s: tuple[int, ...], args) -> int:
    if method == "formula":
        return cdes_formula(n, s)
    if method == "typed":
        return cdes_formula_typed(n, s)
    if method == "recursion":
        return cdes_recursive(n, s)
    if method == "tree":
        return tree_count(n, s)
    return brute_cdes_count(n, s, cap=args.brute_cap, workers=args.threads)


def cmd_count(args) -> int:
    s = parse_set(args.set)
    query = {"command": "count", "n": args.n, "set": list(s)}
    if args.all_methods:
        methods = [
            m for m in COUNT_METHODS if m != "brute" or args.n <= args.brute_cap
        ]
        values = {m: _count_one(m, args.n, s, args) for m in methods}
        rows = [{"method": m, "value": str(v)} for m, v in values.items()]
        _emit(args, {**query, "methods": methods}, rows, rows)
        if len(set(values.values())) != 1:
            print("error: methods disagree", file=sys.stderr)
            return 2
        return 0
    value = _count_one(args.method, args.n, s, args)
    _emit(args, {**query, "method": args.method}, str(value))
    return 0


def cmd_table(args) -> int:
    if args.n < 1:
        raise ValueError(f"n must be positive: {args.n}")
    table = {(): 1} if args.n == 1 else cdes_insertion_table(args.n)
    ordered = sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0]))
    rows = [{"set": format_set(s), "count": str(c)} for s, c in ordered]
    result = [{"set": list(s), "count": str(c)} for s, c in ordered]
    _emit(args, {"command": "table", "n": args.n}, result, rows)
    return 0


def cmd_poly(args) -> int:
    g = gn(args.n)
    rows = [
        {"xvars": ",".join(str(i) for i in xv), "ydeg": ydeg, "coefficient": str(c)}
        for (xv, ydeg), c in g.sorted_terms()
    ]
    _emit(args, {"command": "poly", "n": args.n}, str(g), rows, text=str(g))
    return 0


def cmd_tree(args) -> int:
    gaps = parse_gaps(args.gaps)
    # Built first, so that BUILD_CAP refuses before any work or output.
    root = build_tree(len(gaps)) if args.show and args.format == "text" else None
    weight = tree_weight_sum(gaps)
    _emit(args, {"command": "tree", "gaps": list(gaps)}, str(weight))
    if root is not None:
        print(format_tree(root))
    return 0


def cmd_tableaux(args) -> int:
    shape = parse_shape(args.shape)
    if args.method == "brute":
        value = brute_count_tableaux(shape)
    else:
        value = count_tableaux_formula(shape)
    query = {"command": "tableaux", "shape": list(shape), "method": args.method}
    _emit(args, query, str(value))
    return 0


def cmd_genocchi(args) -> int:
    value = genocchi_number(args.k, args.n)
    query = {"command": "genocchi", "k": args.k, "n": args.n}
    if args.brute:
        if args.n < 2:
            raise ValueError("--brute needs n >= 2 (it recounts the previous index)")
        brute = brute_genocchi_perm_count(args.k, args.n - 1, cap=args.brute_cap)
        rows = [
            {"method": "recursion", "value": str(value)},
            {"method": "brute", "value": str(brute)},
        ]
        _emit(args, {**query, "brute": True}, rows, rows)
        if brute != value:
            print("error: brute count disagrees with the recursion", file=sys.stderr)
            return 2
        return 0
    _emit(args, query, str(value))
    return 0


def cmd_verify(args) -> int:
    results = run_all(args.max_n, workers=args.threads, seed=args.seed)
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
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads", type=int, default=1,
        help="at most this many worker processes for brute-force scans (default 1)",
    )
    brute_cap = argparse.ArgumentParser(add_help=False)
    brute_cap.add_argument(
        "--brute-cap", type=int, default=DEFAULT_ENUMERATION_CAP,
        help=f"largest permutation length accepted by brute-force enumeration (default {DEFAULT_ENUMERATION_CAP})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[fmt, threads, brute_cap], help="count permutations with a given descent-value set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", default="", help="comma-separated ascending values, empty for the empty set")
    p.add_argument("--method", choices=COUNT_METHODS, default="formula")
    p.add_argument("--all-methods", action="store_true", help="run every applicable method; exit 2 on disagreement")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", parents=[fmt], help="full count table for subsets of [2, n]")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("poly", parents=[fmt], help="generating polynomial of order n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("tree", parents=[fmt], help="signed weight of the generating tree for a gap sequence")
    p.add_argument("--gaps", required=True, help="comma-separated nonnegative exponents")
    p.add_argument("--show", action="store_true", help="dump the tree (text format only)")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("tableaux", parents=[fmt], help="count valid 0/1 fillings of a shape")
    p.add_argument("--shape", required=True, help="comma-separated weakly decreasing row lengths")
    p.add_argument("--method", choices=("formula", "brute"), default="formula")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("genocchi", parents=[fmt, brute_cap], help="generalized Genocchi number of order k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--brute", action="store_true", help="cross-check by permutation enumeration; exit 2 on mismatch")
    p.set_defaults(func=cmd_genocchi)

    p = sub.add_parser("verify", parents=[fmt, threads], help="run the cross-method verification suite")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for the sampled checks")
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
            check_workers(args.threads)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    raise SystemExit(main())
