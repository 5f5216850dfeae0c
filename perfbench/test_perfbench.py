"""Smoke tests of the benchmark itself, at reduced workload sizes.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
They drive ``run.py`` end to end (``--scale smoke``), so they check the
same code paths the full benchmark takes: every metric named in
``BENCHMARK.json`` is printed with its unit, traced samples digest the
same simulated output as untraced ones, a failed output check shows in
``failed`` and ``ok_frac``, and the benchmark refuses to report anything
without the sources it measures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> Dict[str, Any]:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def smoke(workload: str, trace: int, *extra: str) -> Dict[str, Any]:
    return result_of(bench("--workload", workload, "--seed", "5",
                           "--seconds", "0", "--trace", str(trace),
                           "--scale", "smoke", *extra))


def assert_metrics(result: Dict[str, Any],
                   declared: List[Dict[str, Any]]) -> None:
    units = {m["name"]: m["unit"] for m in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == units
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_benchmark_json_names_every_workload_and_metric() -> None:
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload: str) -> None:
    result = smoke(workload, 0)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_digest(workload: str) -> None:
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", "1", "--scale", "smoke")
    result = result_of(done)
    # correct is False when any traced digest differs from the untraced.
    assert result["correct"] is True, done.stdout
    assert "2 untraced, 2 traced samples" in done.stdout
    assert_metrics(result, SPEC["per_layer"])
    frac = result["metrics"]["trace.self_sum_frac"]["value"]
    assert abs(frac - 1.0) <= 0.03


@pytest.mark.parametrize("workload", WORKLOADS)
def test_failed_check_shows_in_failed_and_ok_frac(workload: str) -> None:
    result = smoke(workload, 0, "--sabotage")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_same_seed_same_config_new_seed_new_config() -> None:
    for name in WORKLOADS:
        assert workloads.make_config(name, 3) == workloads.make_config(name, 3)
        assert workloads.make_config(name, 3) != workloads.make_config(name, 4)


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "campaign", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_self_time_subtracts_child_coverage() -> None:
    tracer = tracing.Tracer()
    tracer.run_id = 1
    outer = tracer.open(tracer.name_id("outer"))
    inner = tracer.open(tracer.name_id("inner"))
    tracer.close(inner)
    tracer.close(outer)
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    own = tracer.self_times(1)
    assert own["inner"] == pytest.approx(duration[1])
    assert own["outer"] == pytest.approx(duration[0] - duration[1])
    assert sum(own.values()) == pytest.approx(duration[0])
