"""Benchmark of the cdescent library: one seeded workload per run.

    python3 bench/run.py --workload point-queries --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, so nothing needs installing.  ``--trace 0`` times the
named workload with tracing off and reports its end-to-end metrics.
``--trace 1`` runs the traced pass instead (see ``tracing.py``), which
covers every workload so that every layer metric is present whichever
workload is named.

Human-readable lines go first: the environment, every metric with its
unit, and the workload's own figures.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record, and in traced runs every span, is
written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("point-queries", "full-tables", "cli-verify")


def git_revision() -> str | None:
    """The checked-out commit, read from ``.git`` without leaving the
    checkout; None outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "seed": seed,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def write_spans(path: Path, tracer) -> None:
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    rows = [[i, index[name], start, end, parent] for i, (name, start, end, parent) in enumerate(tracer.spans)]
    with path.open("w") as fh:
        json.dump({"columns": ["id", "name", "start", "end", "parent"], "names": names, "spans": rows}, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cdescent" / "__init__.py").is_file():
        print(f"error: no cdescent sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    # The cores of this machine are shared, and each one slows down on
    # its own.  Holding the run and the processes it starts on one core
    # lets the speed gauge (workloads.SpeedGauge) see the core the work
    # runs on.  Only the calls that use the worker pool run on every core.
    workloads.pin_to_one_cpu()

    env = environment(args.seed) | {
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "pool_cpus": sorted(workloads.ALL_CPUS),
    }
    if args.trace:
        result = tracing.trace_run(args.seed)
        tracer = result.pop("tracer")
        record = {"targets": tracing.TARGETS}
    else:
        result = workloads.timed_run(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
        record = {"why": workloads.WORKLOADS[args.workload].__doc__.split("\n\n")[0]}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    figures = {name: {"value": value, "unit": unit} for name, (value, unit) in result.get("figures", {}).items()}
    record.update(workload=args.workload, seconds=args.seconds, env=env, figures=figures, **summary)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        write_spans(OUT / f"{stem}-spans.json", tracer)

    print("env " + json.dumps(env))
    for name, m in figures.items():
        print(f"{args.workload} {name} {json.dumps(m['value'])} {m['unit']}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
