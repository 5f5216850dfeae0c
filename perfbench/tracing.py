"""Traced runs: spans around calls into each layer, from outside ``src/``.

Nothing inside ``repro`` is instrumented.  :func:`install` replaces the
public functions and methods each layer exposes with thin wrappers, each
patched where its caller looks the name up (a class attribute for
methods, the importing module's global for functions), for the rest of
the traced process.  Wrappers only observe:
they pass arguments and results through untouched, so a traced run's
simulated output is byte-identical to an untraced one (the worker checks
this by digest).

Spans live in memory in flat arrays (name, start, end, parent, run id)
and are written out once, when the traced run ends.  A span's *self time*
is its duration minus the time its child spans cover; self times by layer
are the per-layer metrics, and over all spans they add up to the traced
run's wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Per-layer metrics: name -> (unit, the end-to-end metric and workload
#: it should move).  A traced run reports every one of them on every
#: workload; layers a workload does not exercise read 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "setup.import_s": ("s", "setup_s on every workload, most on "
                            "serve_failover"),
    "setup.build_s": ("s", "setup_s on serve_failover"),
    "workloads.draw_s": ("s", "ops_per_s, peak_rss_mb on serve_failover"),
    "workloads.draw_calls": ("count", "ops_per_s on serve_failover"),
    "wl.migrate_s": ("s", "ops_per_s on campaign, array_elastic; "
                          "none on serve_failover"),
    "wl.migrations": ("count", "ops_per_s on campaign, array_elastic"),
    "wl.map_s": ("s", "ops_per_s on exact_verify, campaign"),
    "osmodel.translate_s": ("s", "ops_per_s on exact_verify"),
    "pcm.write_s": ("s", "ops_per_s on campaign, exact_verify"),
    "pcm.block_writes": ("count", "ops_per_s on campaign, exact_verify"),
    "sim.redirect_rebuild_s": ("s", "ops_per_s on campaign, "
                                    "array_elastic"),
    "sim.software_apply_s": ("s", "ops_per_s on campaign, array_elastic"),
    "sim.wear_leveling_s": ("s", "ops_per_s on campaign, array_elastic"),
    "sim.epochs": ("count", "ops_per_s on campaign, array_elastic"),
    "sim.cell_build_s": ("s", "ops_per_s on campaign, array_elastic"),
    "sim.exact_loop_s": ("s", "ops_per_s on exact_verify"),
    "sim.verify_s": ("s", "ops_per_s on exact_verify"),
    "mc.service_write_s": ("s", "ops_per_s on exact_verify"),
    "mc.service_read_s": ("s", "ops_per_s on exact_verify"),
    "mc.writes": ("count", "ops_per_s on exact_verify"),
    "mc.reads": ("count", "ops_per_s on exact_verify"),
    "reviver.chain_switches": ("count", "explains ops_per_s on "
                                        "exact_verify"),
    "reviver.pages_acquired": ("count", "explains ops_per_s on "
                                        "exact_verify"),
    "reviver.hidden_failures": ("count", "explains ops_per_s on "
                                         "exact_verify"),
    "experiments.campaign_s": ("s", "ops_per_s on campaign"),
    "parallel.grid_s": ("s", "ops_per_s on array_elastic, campaign"),
    "parallel.cells": ("count", "ops_per_s on array_elastic, campaign"),
    "parallel.cell_s": ("s", "ops_per_s on array_elastic, campaign"),
    "parallel.overhead_s": ("s", "ops_per_s on array_elastic, campaign"),
    "array.loop_s": ("s", "ops_per_s on array_elastic; none on campaign"),
    "array.rounds": ("count", "ops_per_s on array_elastic"),
    "array.cell_runs": ("count", "ops_per_s on array_elastic"),
    "array.simulated_writes": ("count", "ops_per_s on array_elastic"),
    "array.replay_ratio": ("ratio", "ops_per_s on array_elastic"),
    "array.harness_s": ("s", "ops_per_s on array_elastic; none on "
                             "campaign"),
    "balance.steer_s": ("s", "ops_per_s on array_elastic, "
                             "serve_failover"),
    "balance.steer_calls": ("count", "ops_per_s on array_elastic, "
                                     "serve_failover"),
    "balance.remap_swaps": ("count", "ops_per_s on array_elastic, "
                                     "serve_failover"),
    "balance.migration_writes": ("count", "ops_per_s on array_elastic"),
    "serve.loop_s": ("s", "ops_per_s on serve_failover"),
    "serve.account_s": ("s", "ops_per_s on serve_failover"),
    "serve.report_s": ("s", "ops_per_s on serve_failover"),
    "telemetry.calls": ("count", "ops_per_s on serve_failover"),
    "telemetry.s": ("s", "ops_per_s on serve_failover"),
    "trace.unattributed_s": ("s", "time in the run call no listed layer "
                                  "span claims"),
    "trace.spans": ("count", "tracing cost"),
    "trace.self_sum_frac": ("ratio", "sum of self times over traced run_s "
                                     "(1.0 when spans nest correctly)"),
    "trace.overhead_frac": ("ratio", "traced run_s over untraced run_s, "
                                     "minus 1"),
    "host.speed": ("ratio", "none: reference probe time over this "
                            "host's; every time is host seconds times it"),
}

#: Span name -> the per-layer self-time metric it feeds, where that is
#: not the span name plus ``_s``.
SELF_TIME_METRIC: Dict[str, str] = {
    "telemetry": "telemetry.s",
    "bench.run": "trace.unattributed_s",
}


def self_time_metric(span: str) -> str:
    """The metric a span's self time feeds; a span no layer lists (a
    FastEngine phase added later, say) counts as unattributed."""
    metric = SELF_TIME_METRIC.get(span, f"{span}_s")
    return metric if metric in PER_LAYER else "trace.unattributed_s"


class Tracer:
    """Records nested spans of one process in flat in-memory arrays."""

    #: The root span the worker opens around the workload's run call.
    ROOT = "bench.run"

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        #: Identifier of the traced run the next spans belong to.
        self.run_id = 0
        #: Counts recorded at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def arrays(self) -> Dict[str, np.ndarray]:
        # Copies: a live buffer export would stop the arrays growing.
        return {"name": np.array(self._name, dtype=np.int32),
                "parent": np.array(self._parent, dtype=np.int32),
                "run": np.array(self._run, dtype=np.int32),
                "start": np.array(self._start, dtype=np.float64),
                "end": np.array(self._end, dtype=np.float64)}

    def self_times(self, run_id: int) -> Dict[str, float]:
        """Self seconds by span name, over the spans of *run_id*.

        Spans of one thread nest, so the time a span's children cover is
        the sum of their durations.
        """
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        covered = np.bincount(spans["parent"][has_parent],
                              weights=duration[has_parent],
                              minlength=len(duration))
        own = duration - covered
        mask = spans["run"] == run_id
        by_name = np.bincount(spans["name"][mask], weights=own[mask],
                              minlength=len(self.names))
        return {name: float(by_name[i]) for i, name in enumerate(self.names)}

    def span_count(self, run_id: int) -> int:
        return int((self.arrays()["run"] == run_id).sum())

    def write(self, path: str) -> None:
        """Write every span out (compact numpy archive)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class _Span:
    __slots__ = ("_tracer", "_name_id", "_index")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self._index = -1

    def __enter__(self) -> "_Span":
        self._index = self._tracer.open(self._name_id)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer.close(self._index)


# ------------------------------------------------------------------ wrappers

Counter = Callable[[Tracer, tuple, Any], None]


def traced(tracer: Tracer, name: str, fn: Callable[..., Any],
           counter: Optional[Counter] = None) -> Callable[..., Any]:
    """*fn* inside a span named *name*; *counter* sees args and result."""
    name_id = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = open_(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(index)
        if counter is not None:
            counter(tracer, args, result)
        return result

    return wrapper


def counted(tracer: Tracer, fn: Callable[..., Any],
            counter: Counter) -> Callable[..., Any]:
    """*fn* with a boundary count and no span (cheap control calls)."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        counter(tracer, args, result)
        return result

    return wrapper


def _replace(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
    """Set ``owner.attr`` to ``make(original)``."""
    original = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    setattr(owner, attr, make(original))


def _subclasses(base: type) -> Iterator[type]:
    seen = set()
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        todo.extend(cls.__subclasses__())


def _methods(tracer: Tracer, base: type,
             methods: Dict[str, Tuple[str, Optional[Counter]]]) -> None:
    """Wrap each method wherever *base* or a subclass defines it."""
    for cls in _subclasses(base):
        for method, (span, counter) in methods.items():
            if method in cls.__dict__:
                _replace(cls, method, lambda fn, s=span, c=counter:
                         traced(tracer, s, fn, c))


def _count(name: str, amount: Callable[[tuple, Any], float]
           ) -> Counter:
    def counter(tracer: Tracer, args: tuple, result: Any) -> None:
        tracer.count(name, amount(args, result))
    return counter


def _one(name: str) -> Counter:
    return _count(name, lambda args, result: 1)


def _phase_name(phase: str) -> str:
    return "sim." + phase.replace("-", "_")


def _traced_attach_fast(tracer: Tracer, attach: Callable[..., Any]
                        ) -> Callable[..., Any]:
    """``attach_fast`` whose session times FastEngine phases as spans.

    The engine looks ``phase`` up on its session instance, so the span
    wraps the session's own phase timer there.
    """

    @functools.wraps(attach)
    def wrapper(session: Any, engine: Any) -> Any:
        result = attach(session, engine)
        original = session.phase

        def phase(name: str) -> Any:
            if name == "software-apply":
                tracer.count("sim.epochs")
            return _PhaseSpan(tracer.span(_phase_name(name)),
                              original(name))

        session.phase = phase
        return result

    return wrapper


class _PhaseSpan:
    __slots__ = ("_span", "_timer")

    def __init__(self, span: _Span, timer: Any) -> None:
        self._span = span
        self._timer = timer

    def __enter__(self) -> "_PhaseSpan":
        self._span.__enter__()
        self._timer.__enter__()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._timer.__exit__(*exc)
        self._span.__exit__(*exc)


def _traced_grid_run(tracer: Tracer, run: Callable[..., Any]
                     ) -> Callable[..., Any]:
    """``GridRunner.run`` as a span, with cells and in-cell seconds.

    In-cell seconds are the ``CellOutcome.seconds`` the runner hands its
    progress callback; the runner keeps them in ``outcomes``.
    """
    inner = traced(tracer, "parallel.grid", run)

    @functools.wraps(run)
    def wrapper(self: Any, cells: Any) -> Any:
        before = len(self.outcomes)
        started = time.perf_counter()
        result = inner(self, cells)
        wall = time.perf_counter() - started
        fresh = [o for o in self.outcomes[before:] if not o.cached]
        cell_seconds = sum(o.seconds for o in fresh)
        tracer.count("parallel.cells", len(fresh))
        tracer.count("parallel.cell_s", cell_seconds)
        tracer.count("parallel.overhead_s", wall - cell_seconds)
        return result

    return wrapper


#: Modules whose names :func:`install` patches (under ``repro.``).
LAYER_MODULES = (
    "traces.base", "array.trace", "wl.base", "osmodel.allocator",
    "pcm.chip", "mc.controller", "sim.engine", "sim.campaign",
    "array.engine", "array.shard", "experiments.parallel",
    "balance.leveler", "balance.remap", "serve.engine", "serve.account",
    "telemetry", "telemetry.session")


def preload() -> Dict[str, Any]:
    """Import every layer module, as :func:`install` does.

    The untraced samples a traced run is compared with preload too, so
    imports some workloads make lazily inside their run call fall
    outside the timed region on both sides of the overhead ratio.
    """
    return {name: importlib.import_module(f"repro.{name}")
            for name in LAYER_MODULES}


def install(tracer: Tracer) -> None:
    """Wrap every layer's public calls, for the rest of this process."""
    modules = preload()

    def module_fn(module: str, attr: str, span: str,
                  counter: Optional[Counter] = None) -> None:
        _replace(modules[module], attr,
                 lambda fn: traced(tracer, span, fn, counter))

    draw = ("workloads.draw", _one("workloads.draw_calls"))
    _methods(tracer, modules["traces.base"].WriteTrace,
             {"next_write": draw, "batch_counts": draw})
    _methods(tracer, modules["traces.base"].RequestStream,
             {"next_request": draw})
    _methods(tracer, modules["wl.base"].WearLeveler, {
        "bulk_migrations": ("wl.migrate", _count(
            "wl.migrations", lambda args, rows: len(rows))),
        "map": ("wl.map", None), "map_many": ("wl.map", None)})
    _methods(tracer, modules["osmodel.allocator"].PagePool, {
        "translate": ("osmodel.translate", None),
        "translate_many": ("osmodel.translate", None)})
    _methods(tracer, modules["pcm.chip"].PCMChip, {
        "write": ("pcm.write", _one("pcm.block_writes")),
        "write_many": ("pcm.write", _count(
            "pcm.block_writes", lambda args, result: int(args[2].sum())))})
    _methods(tracer, modules["mc.controller"].BaseController, {
        "service_write": ("mc.service_write", _one("mc.writes")),
        "service_read": ("mc.service_read", _one("mc.reads"))})
    _methods(tracer, modules["sim.engine"].ExactEngine, {
        "run": ("sim.exact_loop", None),
        "verify_all": ("sim.verify", None)})
    for module in ("telemetry", "sim.campaign", "array.shard"):
        _replace(modules[module], "attach_fast",
                 lambda fn: _traced_attach_fast(tracer, fn))
    module_fn("sim.campaign", "run_campaign", "experiments.campaign")
    module_fn("sim.campaign", "campaign_cell", "sim.cell_build")
    simulated = _count("array.simulated_writes",
                       lambda args, record: int(record["local_writes"]))

    def shard_counter(tracer_: Tracer, args: tuple, record: Any) -> None:
        tracer_.count("array.cell_runs")
        simulated(tracer_, args, record)

    module_fn("array.shard", "run_shard_cell", "sim.cell_build",
              shard_counter)
    _replace(modules["experiments.parallel"].GridRunner, "run",
             lambda fn: _traced_grid_run(tracer, fn))
    _methods(tracer, modules["array.engine"].ArrayEngine, {
        "run": ("array.loop", _count(
            "array.rounds", lambda args, result: result.rounds))})
    swaps = _count("balance.remap_swaps", lambda args, result: len(result))

    def steer_counter(tracer_: Tracer, args: tuple, result: Any) -> None:
        tracer_.count("balance.steer_calls")
        swaps(tracer_, args, result)

    for module in ("balance.leveler", "serve.engine"):
        module_fn(module, "plan_swaps", "balance.steer", steer_counter)
    _replace(modules["balance.remap"].BalancedDecoder, "add_shard",
             lambda fn: counted(tracer, fn, _count(
                 "balance.moved_addresses",
                 lambda args, result: int(result[0].size))))
    _methods(tracer, modules["serve.engine"].ServiceEngine,
             {"run": ("serve.loop", None)})
    module_fn("serve.engine", "assemble_snapshots", "serve.account")
    module_fn("serve.account", "account_shard_cell", "serve.account")
    module_fn("serve.engine", "build_report", "serve.report")
    telemetry = ("telemetry", _one("telemetry.calls"))
    _methods(tracer, modules["telemetry.session"].TelemetrySession,
             {"count": telemetry, "observe": telemetry,
              "set_gauge": telemetry})


def layer_metrics(tracer: Tracer, run_id: int, run_s: float,
                  counts: Dict[str, float], delivered: int
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced run (every name in PER_LAYER).

    *counts* are the boundary counts of that run alone; *delivered* is
    the operations the run delivered (the workload's ``ops``).
    """
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    self_times = tracer.self_times(run_id)
    for span, seconds in self_times.items():
        values[self_time_metric(span)] += seconds
    for name, amount in counts.items():
        if name in values:
            values[name] += amount
    values["balance.migration_writes"] = (
        2 * counts.get("balance.remap_swaps", 0)
        + counts.get("balance.moved_addresses", 0))
    if counts.get("array.rounds"):
        values["array.replay_ratio"] = (
            counts.get("array.simulated_writes", 0) / delivered)
        values["array.harness_s"] = run_s - counts.get("parallel.cell_s", 0)
    values["trace.spans"] = tracer.span_count(run_id)
    values["trace.self_sum_frac"] = sum(self_times.values()) / run_s
    return values
