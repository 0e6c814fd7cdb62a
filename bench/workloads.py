"""Seeded workloads of the cdescent benchmark and their exact-answer gate.

Each workload is a closed loop with one client: it runs one operation,
checks the answer, and only then starts the next.  The loop is made of
rounds, and round ``i`` draws its inputs from a generator seeded with
``(seed, workload, i)`` alone, so a traced pass can replay exactly the
rounds an untraced pass ran.  A wrong answer, an exception or a nonzero
exit marks one operation failed; the loop always goes on.

The library is called only through a ``routes`` namespace, which holds
either the plain library functions or traced wrappers around them
(see ``tracing.py``), so the timed and the traced runs execute the same
workload code.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import resource
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from statistics import median, quantiles
from types import SimpleNamespace

import cdescent

ROOT = Path(__file__).resolve().parent.parent

# Every library function a workload calls, looked up on the package.
ROUTE_NAMES = (
    "brute_cdes_table",
    "cdes_formula",
    "cdes_formula_typed",
    "cdes_insertion_table",
    "cdes_recursive",
    "count_tableaux_formula",
    "count_tableaux_type_sum",
    "gap_vector",
    "genocchi_number",
    "gn",
    "tree_weight_sum",
)

CLI_TIMEOUT_S = 120

# Worker count of every pooled call: the machine's two cores.
THREADS = 2

# The cores this process may use, read at import, before run.py pins the
# run to one of them.  Calls that use the worker pool get them all back.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(ALL_CPUS)})


def use_all_cpus() -> None:
    os.sched_setaffinity(0, ALL_CPUS)


@contextmanager
def all_cpus():
    """Run the body on every core, then return to the cores held before."""
    held = os.sched_getaffinity(0)
    use_all_cpus()
    try:
        yield
    finally:
        os.sched_setaffinity(0, held)


def plain_routes() -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(cdescent, name) for name in ROUTE_NAMES})


class NoTrace:
    """Stand-in tracer for timed runs: records nothing."""

    def open(self, name: str) -> None:
        pass

    def close(self) -> None:
        pass


# The machine this runs on shares its cores: the same code runs up to
# twice as slow for seconds at a time.  On the same core, a fixed kernel
# timed every GAUGE_INTERVAL_S between operations slows down with the
# library code, so every latency is rescaled to the speed at which the
# kernel takes REFERENCE_KERNEL_S.  run.py holds the run on one core, all
# but the pooled calls; the raw wall-clock figures are reported beside the
# rescaled ones.
GAUGE_INTERVAL_S = 0.05
GAUGE_WINDOW_S = 0.25
REFERENCE_KERNEL_S = 0.001

# Operands of the kernel's big-integer half.
GAUGE_FACTOR = 7**2000 + 1
GAUGE_MODULUS = (1 << 4400) - 1

# Subprocesses slow down less than that kernel, since part of their time
# is spent in the operating system, so the CLI workload is gauged by the
# start-up of a bare interpreter instead, which tracked the CLI's calls
# within 3% where the kernel over-corrected them.
INTERPRETER_INTERVAL_S = 0.5
INTERPRETER_WINDOW_S = 1.0
REFERENCE_INTERPRETER_S = 0.04


def gauge_kernel() -> None:
    """Half an interpreted loop over a dict, half big-integer products.
    The library does both, and the two slow down by different amounts when
    the machine is busy.  On a busy 2-core machine the halves together
    tracked the full-tables jobs with correlations of 0.73 to 0.84 per
    operation, the dict half alone 0.59 to 0.75; full-tables figures
    rescaled by the dict half alone spread by 30 to 70% from seed to
    seed."""
    table: dict[tuple[int, int], int] = {}
    x = 1
    for i in range(1000):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        key = (i & 31, x & 3)
        table[key] = table.get(key, 0) + (x >> 40) ** 3
    for _ in range(8):
        x = (x * GAUGE_FACTOR + 12345) % GAUGE_MODULUS


def interpreter_kernel() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=CLI_TIMEOUT_S)


class SpeedGauge:
    """Samples of a gauge kernel's time, to rescale latencies by."""

    def __init__(
        self,
        kernel=gauge_kernel,
        reference_s: float = REFERENCE_KERNEL_S,
        interval_s: float = GAUGE_INTERVAL_S,
        window_s: float = GAUGE_WINDOW_S,
    ):
        self.kernel = kernel
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.window_s = window_s
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def tick(self) -> None:
        """Time the kernel, unless it ran less than ``interval_s`` ago."""
        start = time.perf_counter()
        if self.ends and start - self.ends[-1] < self.interval_s:
            return
        self.kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the reference speed: the
        median kernel time over the interval and ``window_s`` around it."""
        lo = bisect.bisect_left(self.ends, start - self.window_s)
        hi = bisect.bisect_right(self.ends, start + seconds + self.window_s)
        return seconds * self.reference_s / median(self.seconds[lo:hi] or self.seconds)


def interpreter_gauge() -> SpeedGauge:
    return SpeedGauge(interpreter_kernel, REFERENCE_INTERPRETER_S, INTERPRETER_INTERVAL_S, INTERPRETER_WINDOW_S)


@dataclass(frozen=True)
class Session:
    """What a round runs against: the library routes, a tracer, and the
    speed gauge that is sampled around every operation."""

    routes: SimpleNamespace
    tracer: object
    gauge: SpeedGauge

    def call(self, span: str, call):
        """Run ``call()`` as one operation; return (value, start, seconds,
        error).  Any exception is a failed operation, never the end of the
        run, so it is reported on stderr and handed back instead of raised.
        """
        self.gauge.tick()
        self.tracer.open(span)
        start = time.perf_counter()
        try:
            value, error = call(), None
        except Exception as exc:  # the loop must keep running
            traceback.print_exc(file=sys.stderr)
            value, error = None, exc
        seconds = time.perf_counter() - start
        self.tracer.close()
        self.gauge.tick()
        return value, start, seconds, error


@dataclass(frozen=True)
class Op:
    """One finished operation: its kind, start, latency, verdict and |S|."""

    kind: str
    start: float
    seconds: float
    ok: bool
    size: int | None = None


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def genocchi_reference(m: int) -> int:
    """G_{2m} = 2 (4^m - 1) |B_{2m}|, with the Bernoulli numbers from the
    recurrence sum_{k<=j} C(j+1, k) B_k = 0 in exact fractions.  Shares no
    code with the Gandhi-polynomial route it checks."""
    bern = [Fraction(1)]
    for j in range(1, 2 * m + 1):
        bern.append(-sum(math.comb(j + 1, k) * bern[k] for k in range(j)) / (j + 1))
    value = 2 * (4**m - 1) * abs(bern[2 * m])
    if value.denominator != 1:
        raise ArithmeticError(f"Genocchi reference for m = {m} is not an integer")
    return value.numerator


def brute_tables(max_n: int) -> dict[int, dict[tuple[int, ...], int]]:
    """Count tables of every n <= max_n by full permutation scans."""
    return {n: cdescent.brute_cdes_table(n) for n in range(1, max_n + 1)}


def own_gap_vector(s: tuple[int, ...]) -> tuple[int, ...]:
    desc = s[::-1]
    return tuple(a - b for a, b in zip(desc, desc[1:])) + (desc[-1] - 1,)


def random_shape(rng: random.Random, rows: int, width: int) -> tuple[int, ...]:
    return (width, *sorted((rng.randint(1, width) for _ in range(rows - 1)), reverse=True))


# --- point-queries ---------------------------------------------------------


@dataclass(frozen=True)
class PointSizes:
    n_range: tuple[int, int] = (20, 48)
    max_k: int = 16
    # One shape per 17 set queries keeps the |S| = 16 queries, the
    # costliest, above 5% of the total, so p95 falls inside their cluster
    # and not on the gap below it, where it would jump between the two.
    shapes_per_block: int = 1
    shape_rows: tuple[int, int] = (1, 8)
    shape_width: tuple[int, int] = (1, 12)
    brute_max_n: int = 9
    # Twelve blocks of 18 put at least ten latencies beyond p95.
    min_rounds: int = 12
    trace_rounds: int = 12

    def __post_init__(self):
        if self.n_range[0] - 1 < self.max_k:
            raise ValueError("every n must leave room for |S| = max_k in [2, n]")


class PointQueries:
    """Single-count queries, each answered by every route at once.

    A round is one block: one set query for every |S| in [0, max_k], in a
    seeded order, plus Young-diagram shapes.  The cost of a query is set
    by |S| and n, so both are stratified to keep the cost mix the same
    from seed to seed: every block holds each |S| once, and for each |S|
    every n in n_range comes up once in each run of len(n_range) blocks,
    in a seeded order.  Shape widths are stratified the same way.  The
    elements of S, and the rows of a shape, are plain uniform draws.
    """

    name = "point-queries"
    make_gauge = SpeedGauge

    def __init__(self, seed: int, sizes: PointSizes = PointSizes()):
        self.seed = seed
        self.sizes = sizes
        self.min_rounds = sizes.min_rounds
        self.trace_rounds = sizes.trace_rounds
        self.brute = brute_tables(sizes.brute_max_n)

    def block(self, index: int) -> list[tuple]:
        z = self.sizes
        rng = round_rng(self.seed, self.name, index)
        sizes = list(range(z.max_k + 1))
        rng.shuffle(sizes)
        queries: list[tuple] = []
        for k in sizes:
            n = self._stratified(f"n{k}", z.n_range, index)
            queries.append(("set", n, tuple(sorted(rng.sample(range(2, n + 1), k)))))
        for slot in range(z.shapes_per_block):
            width = self._stratified(f"width{slot}", z.shape_width, index)
            queries.append(("shape", random_shape(rng, rng.randint(*z.shape_rows), width)))
        rng.shuffle(queries)
        return queries

    def _stratified(self, label: str, bounds: tuple[int, int], index: int) -> int:
        """Draw ``index`` of a sequence over [lo, hi] that takes every value
        once per hi - lo + 1 draws, in a freshly shuffled order each time."""
        values = list(range(bounds[0], bounds[1] + 1))
        cycle, position = divmod(index, len(values))
        random.Random(f"{self.seed}:{self.name}:{label}:{cycle}").shuffle(values)
        return values[position]

    def round(self, index: int, session: Session) -> list[Op]:
        ops = []
        for query in self.block(index):
            if query[0] == "set":
                ops.append(self._set_query(query[1], query[2], session))
            else:
                ops.append(self._shape_query(query[1], session))
        return ops

    def _set_query(self, n: int, s: tuple[int, ...], session: Session) -> Op:
        routes = session.routes

        def answer():
            return (
                routes.cdes_formula(n, s),
                routes.cdes_formula_typed(n, s),
                routes.tree_weight_sum(routes.gap_vector(s)),
                routes.cdes_recursive(n, s, {}),
            )

        values, start, seconds, error = session.call(f"bench.{self.name}.set", answer)
        ok = error is None and len(set(values)) == 1 and self._brute_agrees(n, s, values[0])
        return Op("set", start, seconds, ok, len(s))

    def _shape_query(self, shape: tuple[int, ...], session: Session) -> Op:
        routes = session.routes

        def answer():
            return (
                routes.count_tableaux_formula(shape),
                routes.count_tableaux_type_sum(shape),
            )

        values, start, seconds, error = session.call(f"bench.{self.name}.shape", answer)
        ok = error is None and values[0] == values[1]
        if ok:
            n, s = cdescent.shape_to_descent_set(shape)
            ok = self._brute_agrees(n, s, values[0])
        return Op("shape", start, seconds, ok, shape[0])

    def _brute_agrees(self, n: int, s: tuple[int, ...], value: int) -> bool:
        table = self.brute.get(n)
        return table is None or table.get(s, 0) == value

    def figures(self, rounds: list[list[Op]]) -> dict[str, tuple[object, str]]:
        histogram: dict[int, int] = {}
        ops = [op for ops in rounds for op in ops if op.kind == "set"]
        for op in ops:
            histogram[op.size] = histogram.get(op.size, 0) + 1
        return {
            "s_size_histogram": ({str(k): histogram[k] for k in sorted(histogram)}, "count"),
            "shape_queries": (sum(len(ops) for ops in rounds) - len(ops), "count"),
        }


# --- full-tables -----------------------------------------------------------


@dataclass(frozen=True)
class TableSizes:
    insertion_n: int = 17
    gn_n: int = 15
    sweep_n: int = 16
    genocchi_m: int = 200
    trace_rounds: int = 2

    def __post_init__(self):
        # The sweep and gn are checked entry by entry against the table.
        if max(self.sweep_n, self.gn_n) > self.insertion_n:
            raise ValueError("the insertion table must cover the sweep and gn")


class FullTables:
    """Whole-table assembly with no 2^|S| sum at all.

    A round runs each job once, in a seeded order: the insertion table,
    gn, one generalized Genocchi number, and a recursion sweep over every
    S in [2, sweep_n] (in a seeded order fixed at set-up) that fills a
    fresh cache, followed at once by the same sweep over the now-full
    cache.  The cold and the warm sweep separate the cost of filling the
    cache from the cost of hitting it; with five jobs a round the median
    latency is one job's own time, not the mean of two.  The jobs are
    then checked against each other and against references built at
    set-up.
    """

    name = "full-tables"
    make_gauge = SpeedGauge
    jobs = ("insertion", "gn", "cold.sweep", "warm.sweep", "genocchi")
    min_rounds = 1

    def __init__(self, seed: int, sizes: TableSizes = TableSizes()):
        self.seed = seed
        self.sizes = sizes
        self.trace_rounds = sizes.trace_rounds
        rng = round_rng(seed, self.name, -1)
        self.sweep_order = [
            s
            for k in range(sizes.sweep_n)
            for s in combinations(range(2, sizes.sweep_n + 1), k)
        ]
        rng.shuffle(self.sweep_order)
        self.genocchi_expected = genocchi_reference(sizes.genocchi_m)

    def round(self, index: int, session: Session) -> list[Op]:
        z, routes = self.sizes, session.routes
        groups = [("insertion",), ("gn",), ("cold.sweep", "warm.sweep"), ("genocchi",)]
        round_rng(self.seed, self.name, index).shuffle(groups)
        order = [job for group in groups for job in group]
        cache: dict = {}

        def sweep():
            return {s: routes.cdes_recursive(z.sweep_n, s, cache) for s in self.sweep_order}

        calls = {
            "insertion": lambda: routes.cdes_insertion_table(z.insertion_n),
            "gn": lambda: routes.gn(z.gn_n),
            "cold.sweep": sweep,
            "warm.sweep": sweep,
            "genocchi": lambda: routes.genocchi_number(2, z.genocchi_m),
        }
        results = {}
        for job in order:
            results[job] = session.call(f"bench.{self.name}.{job}", calls[job])
        table = results["insertion"][0] if results["insertion"][3] is None else None
        checks = {
            "insertion": lambda v: self._check_insertion(v),
            "gn": lambda v: self._check_gn(v, table),
            "cold.sweep": lambda v: self._check_sweep(v, table),
            "warm.sweep": lambda v: self._check_sweep(v, table),
            "genocchi": lambda v: v == self.genocchi_expected,
        }
        ops = []
        for job in order:
            value, start, seconds, error = results[job]
            ops.append(Op(job, start, seconds, error is None and checks[job](value)))
        return ops

    def _check_insertion(self, table) -> bool:
        n = self.sizes.insertion_n
        return len(table) == 2 ** (n - 1) and sum(table.values()) == math.factorial(n)

    def _check_sweep(self, counts, table) -> bool:
        n = self.sizes.sweep_n
        if len(counts) != 2 ** (n - 1) or sum(counts.values()) != math.factorial(n):
            return False
        return table is None or all(table[s] == v for s, v in counts.items())

    def _check_gn(self, g, table) -> bool:
        n = self.sizes.gn_n
        terms = g.terms()
        if len(terms) != 2 ** (n - 1) or g.evaluate(1, 1) != math.factorial(n):
            return False
        for (xvars, ydeg), coeff in terms.items():
            s = tuple(v + 1 for v in xvars)
            if ydeg != len(s) or (table is not None and table.get(s) != coeff):
                return False
        return True

    def figures(self, rounds: list[list[Op]]) -> dict[str, tuple[float, str]]:
        out = {"tables_wall_s": (median(sum(op.seconds for op in ops) for ops in rounds), "s")}
        for job in self.jobs:
            out[f"{job}_s"] = (median(op.seconds for ops in rounds for op in ops if op.kind == job), "s")
        return out


# --- cli-verify ------------------------------------------------------------


@dataclass(frozen=True)
class CliSizes:
    small_each: int = 3
    small_max_n: int = 9
    genocchi_max_m: int = 5
    all_methods_n: int = 9
    verify_max_n: int = 8


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], env: dict[str, str]) -> tuple[int, str]:
    """Run ``python -m cdescent.cli`` once; return its exit code and stdout.
    A call with ``--threads`` runs on every core, so that its worker pool
    can run in parallel as it would for a user."""
    done = subprocess.run(
        [sys.executable, "-m", "cdescent.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
        preexec_fn=use_all_cpus if "--threads" in argv else None,
    )
    return done.returncode, done.stdout


# The checks ``verify`` runs, by the names it prints, in order.  A verify
# that skipped one would be faster for the wrong reason, so all must pass.
VERIFY_CHECKS = (
    "brute-vs-formula",
    "typed-vs-formula",
    "recursion-vs-formula",
    "tree-sum-vs-formula",
    "tree-traversal-vs-closed-sum",
    "insertion-vs-formula",
    "formula-mass-equals-factorial",
    "nwexb-vs-cdes",
    "poly-reference-table",
    "poly-vs-formula",
    "poly-slice-reassembly",
    "gap-tau-reversal",
    "tableaux-three-routes",
    "tableaux-mass-equals-factorial",
    "theta-round-trip",
    "singleton-law",
    "genocchi-cross-check",
)


def verify_output_ok(stdout: str) -> bool:
    lines = stdout.splitlines()
    passed = tuple(line.split()[1] for line in lines[:-1] if line.startswith("PASS "))
    return (
        passed == VERIFY_CHECKS
        and len(lines) == len(VERIFY_CHECKS) + 1
        and lines[-1] == f"all {len(VERIFY_CHECKS)} checks passed"
    )


class CliVerify:
    """A fixed script of CLI subprocesses, each checked on exit code and
    stdout: small count, tree, tableaux and genocchi --brute calls, one
    brute-backed ``count --all-methods`` and one ``verify``, shuffled by
    round.  Small queries are drawn from the seed and checked against
    brute-force tables built at set-up."""

    name = "cli-verify"
    make_gauge = staticmethod(interpreter_gauge)
    min_rounds = 1
    trace_rounds = 1

    def __init__(self, seed: int, sizes: CliSizes = CliSizes()):
        self.seed = seed
        self.sizes = sizes
        self.env = cli_env()
        self.brute = brute_tables(max(sizes.small_max_n, sizes.all_methods_n))
        self.genocchi = {m: genocchi_reference(m) for m in range(2, sizes.genocchi_max_m + 1)}
        # One untimed call so the byte-code cache and the page cache are
        # warm; its answer is not checked, the timed calls are.
        run_cli(["count", "--n", "3", "--set", "3"], self.env)

    def script(self, index: int) -> list[tuple[str, list[str], object]]:
        """The round's calls as (kind, argv, expected stdout or checker)."""
        z = self.sizes
        rng = round_rng(self.seed, self.name, index)
        calls = []

        def draw_set(n: int, min_k: int) -> tuple[int, ...]:
            k = rng.randint(min_k, n - 1)
            return tuple(sorted(rng.sample(range(2, n + 1), k)))

        def text(s) -> str:
            return ",".join(map(str, s))

        for _ in range(z.small_each):
            n = rng.randint(2, z.small_max_n)
            s = draw_set(n, 0)
            method = rng.choice(("formula", "typed", "recursion", "tree"))
            argv = ["count", "--n", str(n), "--set", text(s), "--method", method]
            calls.append(("count", argv, f"{self.brute[n].get(s, 0)}\n"))

            n = rng.randint(2, z.small_max_n)
            s = draw_set(n, 1)
            argv = ["tree", "--gaps", text(own_gap_vector(s))]
            calls.append(("tree", argv, f"{self.brute[n][s]}\n"))

            width = rng.randint(1, z.small_max_n - 1)
            shape = random_shape(rng, rng.randint(1, z.small_max_n - width), width)
            n, s = cdescent.shape_to_descent_set(shape)
            argv = ["tableaux", "--shape", text(shape)]
            calls.append(("tableaux", argv, f"{self.brute[n][s]}\n"))

            m = rng.randint(2, z.genocchi_max_m)
            g = self.genocchi[m]
            argv = ["genocchi", "--k", "2", "--n", str(m), "--brute"]
            calls.append(("genocchi", argv, f"recursion {g}\nbrute {g}\n"))

        n = z.all_methods_n
        s = draw_set(n, 0)
        v = self.brute[n].get(s, 0)
        argv = ["count", "--n", str(n), "--set", text(s), "--all-methods", "--threads", str(THREADS)]
        expected = "".join(f"{m} {v}\n" for m in ("formula", "typed", "recursion", "tree", "brute"))
        calls.append(("count_all_methods", argv, expected))

        argv = ["verify", "--max-n", str(z.verify_max_n), "--threads", str(THREADS)]
        calls.append(("verify", argv, verify_output_ok))
        rng.shuffle(calls)
        return calls

    def round(self, index: int, session: Session) -> list[Op]:
        ops = []
        tracer = session.tracer
        for kind, argv, expected in self.script(index):

            def call():
                tracer.open(f"cli.{kind}")
                try:
                    return run_cli(argv, self.env)
                finally:
                    tracer.close()

            result, start, seconds, error = session.call(f"bench.{self.name}.{kind}", call)
            ok = error is None and result[0] == 0
            if ok:
                out = result[1]
                ok = expected(out) if callable(expected) else out == expected
            ops.append(Op(kind, start, seconds, ok))
        return ops

    def figures(self, rounds: list[list[Op]]) -> dict[str, tuple[float, str]]:
        ops = [op for ops in rounds for op in ops]
        small = [op.seconds for op in ops if op.kind in ("count", "tree", "tableaux", "genocchi")]
        return {
            "cli_wall_s": (median(sum(op.seconds for op in ops) for ops in rounds), "s"),
            "cli_small_p50_ms": (1e3 * median(small), "ms"),
            "verify_s": (median(op.seconds for op in ops if op.kind == "verify"), "s"),
        }


WORKLOADS = {cls.name: cls for cls in (PointQueries, FullTables, CliVerify)}


SETUP_REPEATS = 5


def peak_rss_mb() -> float:
    """Largest resident set of this process or any finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(ops: list[Op], setups: list[float]) -> dict[str, tuple[float, str]]:
    cuts = quantiles([op.seconds for op in ops], n=100)
    return {
        "setup_s": (median(setups), "s"),
        "queries_per_s": (len(ops) / sum(op.seconds for op in ops), "1/s"),
        "query_p50_ms": (1e3 * cuts[49], "ms"),
        "query_p95_ms": (1e3 * cuts[94], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def timed_run(cls, seed: int, seconds: float, sizes=None, routes=None) -> dict:
    """Set the workload up SETUP_REPEATS times, then run whole rounds until
    ``seconds`` have passed (and at least its ``min_rounds``).

    Returns the end-to-end metrics at the gauge's reference speed, the
    operation counts, and as ``figures`` the workload's own figures, the
    same end-to-end metrics in raw wall-clock time, and the gauge's median,
    each as a (value, unit) pair.  ``queries_per_s`` counts operations per
    second of operation time, so the gauge and the answer checks between
    operations do not count against it.
    """
    gauge = cls.make_gauge()
    setups = []
    for _ in range(SETUP_REPEATS):
        gauge.tick()
        start = time.perf_counter()
        workload = cls(seed) if sizes is None else cls(seed, sizes)
        setups.append((start, time.perf_counter() - start))
        gauge.tick()
    session = Session(plain_routes() if routes is None else routes, NoTrace(), gauge)
    rounds: list[list[Op]] = []
    start = time.perf_counter()
    while len(rounds) < workload.min_rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round(len(rounds), session))
    scaled = [[replace(op, seconds=gauge.scale(op.start, op.seconds)) for op in ops] for ops in rounds]
    ops = [op for ops in rounds for op in ops]
    failed = sum(not op.ok for op in ops)
    wall = end_to_end(ops, [took for _, took in setups])
    return {
        "attempted": len(ops),
        "failed": failed,
        "metrics": end_to_end([op for ops in scaled for op in ops], [gauge.scale(*s) for s in setups]),
        "figures": {
            "fail_rate": (failed / len(ops), "ratio"),
            "rounds": (len(rounds), "count"),
            **workload.figures(scaled),
            **{f"wall_clock.{name}": pair for name, pair in wall.items()},
            "gauge_ms": (1e3 * median(gauge.seconds), "ms"),
        },
    }
