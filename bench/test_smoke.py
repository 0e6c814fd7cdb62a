"""Smoke test of the benchmark itself: every workload and the traced pass
at a tiny size, the metric names against BENCHMARK.json, and a wrong
answer injected from the benchmark side showing up in fail_rate.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cdescent  # noqa: E402
import pytest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import CliSizes, PointSizes, TableSizes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "point-queries": PointSizes(
        n_range=(5, 9), max_k=4, shapes_per_block=2, shape_rows=(1, 3),
        shape_width=(1, 4), brute_max_n=7, min_rounds=2, trace_rounds=1,
    ),
    "full-tables": TableSizes(insertion_n=7, gn_n=5, sweep_n=6, genocchi_m=8, trace_rounds=1),
    "cli-verify": CliSizes(small_each=1, small_max_n=6, genocchi_max_m=3, all_methods_n=6, verify_max_n=3),
}
TINY_PROBE = tracing.ProbeSizes(pool_n=4, pool_repeats=1, verify_max_n=3, interpreter_repeats=1)


def run_tiny(name: str, routes=None) -> dict:
    return workloads.timed_run(workloads.WORKLOADS[name], 1, 0, TINY[name], routes)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_and_reports_every_end_to_end_metric(name):
    result = run_tiny(name)
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for metric, (value, unit) in result["metrics"].items():
        assert unit == units[metric]
        assert value > 0


def off_by_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def test_wrong_point_answer_is_a_failure():
    routes = workloads.plain_routes()
    routes.cdes_formula_typed = off_by_one(cdescent.cdes_formula_typed)
    result = run_tiny("point-queries", routes)
    assert 0 < result["failed"] < result["attempted"]
    assert result["figures"]["fail_rate"][0] > 0


def test_wrong_table_answer_is_a_failure():
    routes = workloads.plain_routes()
    routes.genocchi_number = off_by_one(cdescent.genocchi_number)
    result = run_tiny("full-tables", routes)
    assert result["failed"] == result["figures"]["rounds"][0]
    assert result["figures"]["fail_rate"][0] > 0


def test_wrong_cli_answer_is_a_failure(monkeypatch):
    real = workloads.run_cli

    def corrupt_tree(argv, env):
        code, out = real(argv, env)
        return code, ("9" + out if argv[0] == "tree" else out)

    monkeypatch.setattr(workloads, "run_cli", corrupt_tree)
    result = run_tiny("cli-verify")
    assert result["failed"] == TINY["cli-verify"].small_each * result["figures"]["rounds"][0]
    assert result["figures"]["fail_rate"][0] > 0


def test_verify_gate_needs_every_check():
    lines = [f"PASS {name} (detail)" for name in workloads.VERIFY_CHECKS]
    assert workloads.verify_output_ok("\n".join([*lines, f"all {len(lines)} checks passed"]))
    fewer = lines[1:]
    assert not workloads.verify_output_ok("\n".join([*fewer, f"all {len(fewer)} checks passed"]))


def test_trace_run_reports_every_layer_metric():
    result = tracing.trace_run(1, TINY["point-queries"], TINY["full-tables"], TINY["cli-verify"], TINY_PROBE)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(unit == units[name] for name, (_, unit) in result["metrics"].items())
    spans = result["tracer"].spans
    assert all(start <= end and parent < i for i, (_, start, end, parent) in enumerate(spans))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "point-queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
