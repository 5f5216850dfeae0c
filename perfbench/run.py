"""The repository benchmark: one workload, one seed, one JSON result.

Usage::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 \\
        --trace 0

Workloads (``workloads.py`` says what each one exercises and why):
``campaign``, ``array_elastic``, ``serve_failover``, ``exact_verify``.

Every sample is a fresh ``worker.py`` process that sets the workload up
and runs it once, one process at a time, ``jobs=1``.  ``--trace 0``
takes at least three samples, more while they fit in ``--seconds``, and
reports the end-to-end metrics as medians over them: ``setup_s``
(process start to the run call), ``run_s``, ``ops_per_s``, ``cpu_s``,
``peak_rss_mb`` and ``ok_frac`` (share of operations that did not fail).
``--trace 1`` splits the time between untraced and traced samples and
reports the per-layer metrics of ``tracing.py``; it writes the spans of
the last traced sample to ``.perfbench_out/<workload>.spans.npz``.

Times are host seconds at a reference speed: see
:data:`PROBE_REFERENCE_S`.  Simulated results are deterministic per seed:
they are checked and digested (sha256 of the canonical output, printed),
never scored.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracing  # noqa: E402  (the benchmark's own modules, beside this)
import workloads  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "run_s": "s", "ops_per_s": "ops/s",
              "cpu_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

#: Fewest samples of each kind an invocation takes, however short
#: ``--seconds`` is: an untraced run reports medians of three, a traced
#: run compares two untraced with two traced.
MIN_SAMPLES = 3
MIN_TRACE_SAMPLES = 2

#: Mean seconds of one run of the speed probe's kernel
#: (``worker.SpeedProbe``) on the reference host, a 2-CPU x86_64 VM with
#: Python 3.11.7.  On a shared VM like that one the effective speed
#: swings by half within seconds, for the probe and the workloads
#: alike.  Every time the benchmark reports is the measured host time
#: multiplied by this over the probe's mean in the same process and
#: phase: host seconds at the reference speed.
PROBE_REFERENCE_S = 550e-6

#: Wall-clock budget for everything one invocation starts.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A sample could not be taken; the benchmark prints no result."""


def machine() -> Dict[str, Any]:
    """The host the numbers come from."""
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "machine": platform.machine()}


def sample(args: argparse.Namespace, cfg: Dict[str, Any], trace: int,
           deadline: float) -> Dict[str, Any]:
    """Run one worker process to completion; return its JSON report.

    Within a traced invocation (``args.trace``) the untraced samples are
    the overhead baseline, so they preload the traced layers' modules.
    """
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--config", json.dumps(cfg),
               "--trace", str(trace)]
    if trace:
        command += ["--spans", str(ROOT / ".perfbench_out"
                                   / f"{args.workload}.spans.npz")]
    elif args.trace:
        command.append("--preload")
    if args.sabotage:
        command.append("--sabotage")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("no time left for another sample")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a sample exceeded the time budget") from exc
    if done.returncode != 0:
        raise BenchError(f"a sample exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        raise BenchError("a sample printed nothing")
    return json.loads(lines[-1])


def samples(args: argparse.Namespace, cfg: Dict[str, Any], trace: int,
            seconds: float, at_least: int, deadline: float
            ) -> List[Dict[str, Any]]:
    """At least *at_least* fresh-process samples, more while they fit.

    Another sample starts only if, at the mean sample length so far, it
    would end within *seconds*.
    """
    taken: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        taken.append(sample(args, cfg, trace, deadline))
        elapsed = time.monotonic() - started
        if len(taken) >= at_least \
                and elapsed * (len(taken) + 1) / len(taken) > seconds:
            return taken


def verdict(taken: List[Dict[str, Any]]) -> List[str]:
    """Every sample's check problems, plus digests that differ.

    All samples ran the same config, so their simulated outputs must be
    identical; a traced sample differing from an untraced one means the
    tracing perturbed the run.
    """
    problems = [p for s in taken for p in s["problems"]]
    digests = sorted({str(s["digest"]) for s in taken})
    if len(digests) != 1 or digests == ["None"]:
        problems.append(f"simulated outputs differ between samples: "
                        f"{digests}")
    return problems


def speed(taken: Dict[str, Any], phase: str) -> float:
    """Factor scaling a sample's *phase* host seconds to reference speed.

    A run too short for one probe borrows the set-up phase's speed.
    """
    probe = taken[f"probe_{phase}_s"] or taken["probe_setup_s"]
    return PROBE_REFERENCE_S / probe


def end_to_end(untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the untraced samples, in reference-host seconds."""
    def median(key: str, phase: str) -> float:
        return statistics.median(s[key] * speed(s, phase) for s in untraced)
    attempted = sum(s["ops"] for s in untraced)
    failed = sum(s["failed"] for s in untraced)
    return {
        "setup_s": median("setup_s", "setup"),
        "run_s": median("run_s", "run"),
        "ops_per_s": statistics.median(
            s["ops"] / (s["run_s"] * speed(s, "run")) for s in untraced),
        "cpu_s": median("cpu_s", "run"),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(untraced: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the traced samples; set-up and overhead vs untraced.

    Every value in seconds is scaled to reference speed, like the
    end-to-end metrics.
    """
    def scaled(taken: Dict[str, Any], name: str) -> float:
        value = taken["layers"][name]
        return (value * speed(taken, "run")
                if tracing.PER_LAYER[name][0] == "s" else value)

    def median(samples_: List[Dict[str, Any]], key: str,
               phase: str) -> float:
        return statistics.median(s[key] * speed(s, phase) for s in samples_)

    values = {name: statistics.median(scaled(s, name) for s in traced)
              for name in traced[0]["layers"]}
    values["setup.import_s"] = median(untraced, "import_s", "setup")
    values["setup.build_s"] = median(untraced, "build_s", "setup")
    values["trace.overhead_frac"] = (median(traced, "run_s", "run")
                                     / median(untraced, "run_s", "run")
                                     - 1.0)
    values["host.speed"] = statistics.median(
        speed(s, "run") for s in untraced + traced)
    return {name: values[name] for name in tracing.PER_LAYER}


def raw_medians(untraced: List[Dict[str, Any]]) -> str:
    """The unscaled host seconds, for the human-readable report."""
    return ", ".join(
        f"{key}={statistics.median(s[key] for s in untraced):.6g}"
        for key in ("setup_s", "run_s", "cpu_s", "probe_run_s"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time of the measured repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES,
                        default="full",
                        help="workload size (smoke: the benchmark's tests)")
    parser.add_argument("--sabotage", action="store_true",
                        help="corrupt every output before its check, to "
                             "show that a failed check is reported")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    cfg = workloads.make_config(args.workload, args.seed, args.scale)
    print("machine: " + json.dumps(machine(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} scale={args.scale} "
          f"config=" + json.dumps(cfg, sort_keys=True))
    try:
        if args.trace:
            half = args.seconds / 2
            untraced = samples(args, cfg, 0, half, MIN_TRACE_SAMPLES,
                               deadline)
            traced = samples(args, cfg, 1, half, MIN_TRACE_SAMPLES,
                             deadline)
        else:
            untraced = samples(args, cfg, 0, args.seconds, MIN_SAMPLES,
                               deadline)
            traced = []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    taken = untraced + traced
    problems = verdict(taken)
    print(f"digest: {args.workload} sha256={taken[0]['digest']} "
          f"({len(untraced)} untraced, {len(traced)} traced samples)")
    for problem in problems:
        print(f"check FAILED: {problem}")
    if not problems:
        print(f"check: {args.workload} outputs pass")
    if args.trace:
        metrics = {name: (value, tracing.PER_LAYER[name][0])
                   for name, value in per_layer(untraced, traced).items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:26s} {value:16.6f} {unit:6s} "
                  f"-> {tracing.PER_LAYER[name][1]}")
    else:
        metrics = {name: (value, END_TO_END[name])
                   for name, value in end_to_end(untraced).items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:12s} {value:16.6f} {unit}")
        print(f"  unscaled medians: {raw_medians(untraced)}")
    result = {"correct": not problems,
              "attempted": sum(s["ops"] for s in taken),
              "failed": sum(s["failed"] for s in taken),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
