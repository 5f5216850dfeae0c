"""One benchmark sample: a fresh process sets a workload up and runs it once.

``run.py`` starts this script once per sample, so every sample pays the
interpreter start and the ``repro`` import, exactly as a user does, and
its peak memory is its own.  The script prints one JSON line: set-up
time (process start to the run call), the timed run, the output check,
the digest of the simulated output and, with ``--trace 1``, the
per-layer numbers of :mod:`tracing`.

Only the run call is timed.  ``repro`` is imported from the ``src/``
directory beside this one and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import workloads  # noqa: E402  (the benchmark's own module, beside this)

#: Largest share by which the traced run's summed self times may differ
#: from its wall time before the span bookkeeping counts as broken.
SELF_SUM_TOLERANCE = 0.03

#: Seconds between two runs of the speed probe's kernel.
PROBE_INTERVAL_S = 0.05


def import_repro(modules: List[str]) -> None:
    """Import *modules* from this checkout's ``src/`` (never elsewhere)."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"worker: no repro package at {package}")
    sys.path.insert(0, str(SRC))
    for module in modules:
        importlib.import_module(module)
    import repro
    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"worker: repro imported from {repro.__file__}, "
                         f"not {package}")


class SpeedProbe:
    """Samples the host's speed while the sample sets up and runs.

    On a shared VM the effective speed can swing by half within seconds,
    independently on each vCPU.  A timer signal runs a tiny, fixed
    kernel every :data:`PROBE_INTERVAL_S` in this very process,
    interleaved with the work it measures (about 1% of the time); the
    kernel's mean duration per phase is the host's speed during that
    phase, which the workloads' times follow closely.  The kernel is the
    benchmark's own code and never changes, so the probe sees only the
    host.
    """

    def __init__(self) -> None:
        import numpy as np  # before the timed import; repro needs it too
        self._np = np
        self.durations: Dict[str, List[float]] = {"setup": [], "run": []}
        self.phase = "setup"
        self._table = list(range(256))
        self._vector = np.arange(64, dtype=np.int64)

    def _kernel(self) -> None:
        # Interpreter work (indexing, arithmetic, a dict) and small numpy
        # calls, in about equal time: hosts slow the two differently, and
        # the workloads mix both.
        table = self._table
        total = 0
        for i in range(2_000):
            total += table[(i * 7) & 255] * i % 13
        scratch: Dict[int, int] = {}
        for i in range(300):
            scratch[i] = i
        vector = self._vector
        for _ in range(30):
            with self._np.errstate(over="ignore"):
                vector = (vector * 2654435761 + 12345) & 1023
                vector = vector ^ (vector >> 3)

    def _on_signal(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        self._kernel()
        self.durations[self.phase].append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self, phase: str) -> Optional[float]:
        durations = self.durations[phase]
        return sum(durations) / len(durations) if durations else None


def cpu_seconds() -> float:
    """Process CPU time, user + system, children included."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_run(workload: workloads.Workload, state: Dict[str, Any],
              tracer: Optional[Any]) -> Dict[str, Any]:
    """The timed run call; traced, its spans carry run id 1."""
    sample: Dict[str, Any] = {"problems": [], "result": None}
    if tracer is not None:
        tracer.counts = {}
        tracer.run_id = 1
        root = tracer.span(tracer.ROOT)
    started_cpu = cpu_seconds()
    started = time.perf_counter()
    try:
        if tracer is None:
            sample["result"] = workload.run(state)
        else:
            with root:
                sample["result"] = workload.run(state)
    except Exception as exc:  # a run that raised fails its output check
        sample["problems"].append(f"run raised {type(exc).__name__}: {exc}")
    sample["run_s"] = time.perf_counter() - started
    sample["cpu_s"] = cpu_seconds() - started_cpu
    if tracer is not None:
        sample["counts"] = dict(tracer.counts)
        tracer.run_id = 0  # the check below is not part of the run
    return sample


def checked(workload: workloads.Workload, state: Dict[str, Any],
            sample: Dict[str, Any], sabotage: bool) -> Dict[str, Any]:
    """Add the operation count, output check and digest to *sample*.

    Operations are counted first: the check may itself read through the
    program (the exact workload verifies every datum).
    """
    result = sample.pop("result")
    problems = sample["problems"]
    try:
        ops = workload.ops(state, result)
    except Exception:  # nothing to count: one attempted operation
        ops = 1
    sample["ops"] = max(1, ops)
    if result is not None:
        if sabotage:
            workload.sabotage(state, result)
        problems.extend(workload.check(state, result))
    sample["failed"] = (sample["ops"] if problems
                        else workload.failed_ops(state, result))
    sample["digest"] = (workloads.digest(workload.canonical(state, result))
                        if result is not None else None)
    sample["layer_counts"] = (workload.layer_counts(state, result)
                              if result is not None else {})
    return sample


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True,
                        help="the generated workload config, as JSON")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preload", action="store_true",
                        help="import the traced layers' modules before the "
                             "build, without tracing (the baseline of a "
                             "traced sample)")
    parser.add_argument("--spans", default=None,
                        help="traced samples: write the spans here")
    parser.add_argument("--sabotage", action="store_true",
                        help="corrupt the output before its check")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    cfg = json.loads(args.config)

    probe = SpeedProbe()
    probe.start()
    import_started = time.perf_counter()
    import_repro(list(workload.modules))
    imported = time.perf_counter()
    tracer = None
    if args.trace:
        # Before the build: engines keep bound methods they look up there.
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    elif args.preload:
        import tracing
        tracing.preload()
    build_started = time.perf_counter()
    state = workload.build(cfg)
    setup_end = time.monotonic()
    built = time.perf_counter()
    gc.collect()
    probe.phase = "run"
    sample = timed_run(workload, state, tracer)
    probe.stop()
    sample.update(probe_setup_s=probe.mean("setup"),
                  probe_run_s=probe.mean("run"))
    sample = checked(workload, state, sample, args.sabotage)
    sample.update(setup_s=setup_end - args.spawned_at,
                  import_s=imported - import_started,
                  build_s=built - build_started,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        counts = sample.pop("counts")
        counts.update(sample["layer_counts"])
        layers = tracing.layer_metrics(tracer, 1, sample["run_s"], counts,
                                       sample["ops"])
        frac = layers["trace.self_sum_frac"]
        if abs(frac - 1.0) > SELF_SUM_TOLERANCE:
            sample["problems"].append(
                f"per-layer self times sum to {frac:.4f} of traced run_s")
        sample["layers"] = layers
        if args.spans is not None:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(sample, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
