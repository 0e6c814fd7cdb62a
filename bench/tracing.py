"""The traced pass: spans and counts around every library call the
benchmark makes, turned into per-layer metrics.

A layer is one module of the package (``formula``, ``tree``,
``recursion``, ``tableaux``, ``poly``, ``genocchi``, ``perms``,
``verify``) plus ``cli`` for the command-line subprocesses; spans the
benchmark opens for its own operations form the ``bench`` layer.  Spans
are recorded only at the benchmark's side of each call, so calls the
library makes internally stay inside their caller's span.

The traced pass runs a fixed number of rounds of every workload, once
untraced and then once traced, so its counts repeat exactly for a seed
and the difference of the two wall times is the tracing overhead.  It
then runs probes that the workloads' own calls cannot give: memory peaks
of the assembly jobs, the worker pool with one and two workers, each
``verify`` check in process, and bare interpreter start-up.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from statistics import median
from types import SimpleNamespace

import cdescent
import cdescent.verify

from workloads import (
    ROUTE_NAMES,
    THREADS,
    VERIFY_CHECKS,
    CliSizes,
    CliVerify,
    FullTables,
    NoTrace,
    Op,
    PointQueries,
    PointSizes,
    Session,
    SpeedGauge,
    TableSizes,
    all_cpus,
    cli_env,
    plain_routes,
)

LAYERS = ("formula", "tree", "recursion", "tableaux", "poly", "genocchi", "perms", "verify", "cli", "bench")

# Which end-to-end metric, on which workload, each layer metric should
# move.  The layer numbers say where a change of an end-to-end metric
# comes from; they are not a claim of a gain by themselves.
TARGETS = {
    "formula.*, tree.*, tableaux.*": "query_p95_ms and queries_per_s on point-queries; query_p50_ms on cli-verify (tiny |S|)",
    "recursion.cdes_recursive.s, recursion.cache_entries": "query_p50_ms on point-queries",
    "recursion.cdes_recursive.s.sweep, recursion.cache_entries.sweep": "queries_per_s (tables_wall_s) on full-tables",
    "recursion.cdes_insertion_table.*, recursion.table_entries, poly.*": "queries_per_s (tables_wall_s) and peak_rss_mb on full-tables",
    "genocchi.*": "queries_per_s (tables_wall_s) and query_p95_ms on full-tables",
    "perms.*": "queries_per_s (cli_wall_s) on cli-verify",
    "verify.*": "query_p95_ms (verify_s) on cli-verify",
    "cli.*": "query_p50_ms (cli_small_p50_ms) and queries_per_s (cli_wall_s) on cli-verify",
}


class Tracer:
    """Spans (name, start, end, parent) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        self._stack.append(len(self.spans))
        parent = self._stack[-2] if len(self._stack) > 1 else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def in_sweep(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[0]][0].endswith(".sweep")

    def wrap(self, fn, counter=None):
        """``fn`` inside a span named ``<module>.<function>``; ``counter``
        sees the arguments and the result after the span closes."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None:
                counter(args, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Seconds per traced function, self time per layer, and counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        fn_s: dict[str, float] = {}
        cli_ms: dict[str, list[float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            self_s[layer] += end - start - child_time[i]
            if layer == "bench":
                continue
            if layer == "cli":
                cli_ms.setdefault(name, []).append(1e3 * (end - start))
                continue
            root = i
            while self.spans[root][3] >= 0:
                root = self.spans[root][3]
            key = name + ".s" + (".sweep" if self.spans[root][0].endswith(".sweep") else "")
            fn_s[key] = fn_s.get(key, 0.0) + end - start
        out = {f"{layer}.self_s": (s, "s") for layer, s in self_s.items()}
        out.update({key: (s, "s") for key, s in fn_s.items()})
        out.update({f"{name}.ms": (median(v), "ms") for name, v in cli_ms.items()})
        units = {"cube_cells": "cells_computed", "result_bits": "bits"}
        for key, value in self.counts.items():
            out[key] = (value, units.get(key.split(".")[1], "count"))
        formula_s = fn_s.get("formula.cdes_formula.s", 0.0) + fn_s.get("formula.cdes_formula_typed.s", 0.0)
        if formula_s:
            out["formula.cells_per_s"] = (self.counts["formula.cube_cells"] / formula_s, "cells/s")
        if fn_s.get("perms.brute_cdes_table.s"):
            out["perms.perms_per_s"] = (self.counts["perms.perms_scanned"] / fn_s["perms.brute_cdes_table.s"], "1/s")
        out["trace.spans"] = (len(self.spans), "count")
        return out


def traced_routes(tracer: Tracer) -> SimpleNamespace:
    """The workloads' routes, each wrapped in a span, with its work count."""
    add = tracer.add
    counters = {
        "cdes_formula": lambda a, r: add("formula.cube_cells", 2 ** len(a[1])),
        "cdes_formula_typed": lambda a, r: add("formula.cube_cells", 2 ** len(a[1])),
        "tree_weight_sum": lambda a, r: add("tree.cube_cells", 2 ** len(a[0])),
        "count_tableaux_formula": lambda a, r: add("tableaux.cube_cells", 2 ** a[0][0]),
        "count_tableaux_type_sum": lambda a, r: add("tableaux.cube_cells", 2 ** a[0][0]),
        "cdes_insertion_table": lambda a, r: add("recursion.table_entries", len(r)),
        "gn": lambda a, r: add("poly.gn_terms", len(r.terms())),
        "genocchi_number": lambda a, r: add("genocchi.result_bits", r.bit_length()),
        "brute_cdes_table": lambda a, r: add("perms.perms_scanned", math.factorial(a[0])),
    }
    routes = {
        name: tracer.wrap(getattr(cdescent, name), counters.get(name)) for name in ROUTE_NAMES
    }
    recursive = routes["cdes_recursive"]

    def cdes_recursive(n, s, cache):
        # Entries the call added to its cache: all of them for a fresh
        # cache, the growth of the shared one in the sweep.
        before = len(cache)
        value = recursive(n, s, cache)
        add("recursion.cache_entries" + (".sweep" if tracer.in_sweep() else ""), len(cache) - before)
        return value

    routes["cdes_recursive"] = cdes_recursive
    return SimpleNamespace(**routes)


@dataclass(frozen=True)
class ProbeSizes:
    pool_n: int = 8
    pool_repeats: int = 3
    verify_max_n: int = 8
    interpreter_repeats: int = 5


def probe_memory(tables: TableSizes) -> dict[str, tuple[float, str]]:
    """tracemalloc peak of one call of each assembly job.  Run apart from
    the timed spans, since tracemalloc slows every allocation."""
    jobs = {
        "recursion.cdes_insertion_table": lambda: cdescent.cdes_insertion_table(tables.insertion_n),
        "poly.gn": lambda: cdescent.gn(tables.gn_n),
        "genocchi.genocchi_number": lambda: cdescent.genocchi_number(2, tables.genocchi_m),
    }
    out = {}
    for name, job in jobs.items():
        tracemalloc.start()
        try:
            job()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[f"{name}.peak_mb"] = (peak / 2**20, "MB")
    return out


def probe_pool(session: Session, sizes: ProbeSizes) -> tuple[list[Op], float]:
    """Brute tables for every n <= pool_n, as ``verify`` builds them, with
    one worker and with THREADS workers, alternating, on every core.
    Returns the ops and the median extra time the workers cost over the
    whole scan."""
    totals: dict[int, list[float]] = {1: [], THREADS: []}
    ops = []
    for _ in range(sizes.pool_repeats):
        for workers in totals:
            total = 0.0
            for n in range(1, sizes.pool_n + 1):
                call = lambda: session.routes.brute_cdes_table(n, workers=workers)  # noqa: E731
                table, start, seconds, error = session.call(f"bench.probe.pool{workers}", call)
                total += seconds
                ok = error is None and sum(table.values()) == math.factorial(n)
                ops.append(Op(f"pool{workers}", start, seconds, ok))
            totals[workers].append(total)
    return ops, median(totals[THREADS]) - median(totals[1])


def probe_verify(session: Session, sizes: ProbeSizes) -> Op:
    """``run_all`` in process with the CLI's arguments, on every core, every
    ``check_*`` function of the verify module wrapped in a span while it
    runs."""
    module = cdescent.verify
    saved = {name: getattr(module, name) for name in dir(module) if name.startswith("check_")}
    try:
        for name, fn in saved.items():
            setattr(module, name, session.tracer.wrap(fn))
        call = lambda: module.run_all(sizes.verify_max_n, workers=THREADS, seed=module.DEFAULT_SEED)  # noqa: E731
        with all_cpus():
            results, start, seconds, error = session.call("bench.probe.verify", call)
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
    ok = error is None and tuple(r.name for r in results if r.passed) == VERIFY_CHECKS
    return Op("verify", start, seconds, ok)


def probe_interpreter(sizes: ProbeSizes) -> tuple[list[Op], dict[str, tuple[float, str]]]:
    """Median start-up of a bare interpreter, and what importing the
    package adds to it, alternating the two."""
    env = cli_env()
    times: dict[str, list[float]] = {"pass": [], "import cdescent": []}
    ops = []
    for _ in range(sizes.interpreter_repeats):
        for code in times:
            start = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
            times[code].append(time.perf_counter() - start)
            ops.append(Op("interpreter", start, times[code][-1], done.returncode == 0))
    bare = median(times["pass"])
    return ops, {
        "cli.interpreter_ms": (1e3 * bare, "ms"),
        "cli.import_ms": (1e3 * (median(times["import cdescent"]) - bare), "ms"),
    }


def trace_run(
    seed: int,
    point: PointSizes = PointSizes(),
    tables: TableSizes = TableSizes(),
    cli: CliSizes = CliSizes(),
    probe: ProbeSizes = ProbeSizes(),
) -> dict:
    """The whole traced pass; returns op counts, per-layer metrics and the
    tracer, whose spans the caller writes out."""
    tracer = Tracer()
    routes = traced_routes(tracer)
    # Probes first, while the process is small: the pool forks it.
    probing = Session(routes, tracer, SpeedGauge())
    with all_cpus():
        ops, pool_overhead = probe_pool(probing, probe)
    ops.append(probe_verify(probing, probe))
    interpreter_ops, interpreter = probe_interpreter(probe)
    ops += interpreter_ops
    memory = probe_memory(tables)

    # Both passes are rescaled by the workload's speed gauge, like the
    # timed runs, so that drift between them is not read as overhead.
    walls = {"untraced": 0.0, "traced": 0.0}
    for cls, sizes in ((PointQueries, point), (FullTables, tables), (CliVerify, cli)):
        workload = cls(seed, sizes)
        gauge = cls.make_gauge()
        passes = (("untraced", Session(plain_routes(), NoTrace(), gauge)), ("traced", Session(routes, tracer, gauge)))
        for mode, session in passes:
            start = time.perf_counter()
            for index in range(workload.trace_rounds):
                ops += workload.round(index, session)
            gauge.tick()
            walls[mode] += gauge.scale(start, time.perf_counter() - start)
    metrics = tracer.layer_metrics()
    metrics.update(interpreter)
    metrics.update(memory)
    metrics["perms.pool_overhead_s"] = (pool_overhead, "s")
    metrics["trace.untraced_s"] = (walls["untraced"], "s")
    metrics["trace.overhead_s"] = (walls["traced"] - walls["untraced"], "s")
    return {
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": metrics,
        "tracer": tracer,
    }
