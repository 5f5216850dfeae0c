"""Post-run accounting: per-shard sample lists → merged telemetry.

The discrete-event loop is inherently serial (one virtual clock), so
``--jobs`` parallelism lives here instead: each shard's raw samples —
success latencies, batch sizes, queue-depth observations, counters —
become one :class:`~repro.experiments.parallel.Cell` whose function
folds them into a telemetry snapshot.  Cells fan out on the shared
:class:`~repro.experiments.parallel.GridRunner`, and the snapshots merge
with :func:`~repro.telemetry.merge_snapshots`, which is associative and
commutative — so the merged result is byte-identical at any job count.

Shared metric names (``serve.latency.read``/``write``, ``serve.served``)
add across shards into global aggregates; per-shard names carry the
``serve.s<id>.`` prefix so gauges never collide under merge's max rule.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from ..array.shard import deterministic_snapshot
from ..experiments.parallel import Cell, GridRunner
from ..telemetry import TelemetrySession, merge_snapshots
from .config import ServeConfig
from .station import ShardStation

#: Bucket bounds for per-shard batch-size and queue-depth histograms.
SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _fold(session: TelemetrySession, name: str, values: Sequence[int],
          bounds: Sequence[float]) -> None:
    """``session.observe(name, v, bounds)`` for every sample *v*, at once.

    ``searchsorted(side="left")`` picks the bucket ``bisect_left`` would,
    and the samples are integers, so their sum does not depend on the
    order of addition: the histogram ends up exactly as per-value
    observes leave it.  An empty list creates no histogram, as none of
    those observes would have.
    """
    if not values:
        return
    histogram = session.registry.histogram(name, bounds)
    buckets = np.bincount(
        np.searchsorted(histogram.bounds, values, side="left"),
        minlength=len(histogram.counts))
    for bucket, count in enumerate(buckets.tolist()):
        histogram.counts[bucket] += count
    histogram.total += len(values)
    histogram.sum += sum(values)


def account_shard_cell(sid: int,
                       read_latencies: Sequence[int],
                       write_latencies: Sequence[int],
                       batch_sizes: Sequence[int],
                       depth_samples: Sequence[int],
                       served: int, stalls: int, peak_depth: int,
                       writes_served: int, endurance_budget: float,
                       alive: bool, died_at: int,
                       latency_bounds: Sequence[float]
                       ) -> Dict[str, Dict[str, Any]]:
    """Fold one shard's raw samples into a telemetry snapshot.

    A module-level function with plain-data arguments, so the grid
    runner can hand it to worker processes by dotted name.  Everything
    observed here is a deterministic function of the samples — no wall
    clock, no randomness — which is what makes the merged snapshot
    byte-stable across job counts.
    """
    session = TelemetrySession()
    bounds = tuple(latency_bounds)
    _fold(session, "serve.latency.read", read_latencies, bounds)
    _fold(session, "serve.latency.write", write_latencies, bounds)
    _fold(session, f"serve.s{sid}.batch", batch_sizes, SIZE_BOUNDS)
    _fold(session, f"serve.s{sid}.depth", depth_samples, SIZE_BOUNDS)
    session.count("serve.served", served)
    session.count(f"serve.s{sid}.served", served)
    session.count(f"serve.s{sid}.stalls", stalls)
    session.count(f"serve.s{sid}.writes", writes_served)
    session.set_gauge(f"serve.s{sid}.peak_depth", peak_depth)
    session.set_gauge(f"serve.s{sid}.wear",
                      writes_served / endurance_budget)
    session.set_gauge(f"serve.s{sid}.alive", int(alive))
    session.set_gauge(f"serve.s{sid}.died_at", died_at)
    return deterministic_snapshot(session.registry.snapshot())


def shard_cell(station: ShardStation, config: ServeConfig) -> Cell:
    """The accounting cell for one station (plain-data kwargs only)."""
    return Cell(
        key=f"serve/s{station.sid}",
        fn="repro.serve.account:account_shard_cell",
        kwargs={
            "sid": station.sid,
            "read_latencies": list(station.read_latencies),
            "write_latencies": list(station.write_latencies),
            "batch_sizes": list(station.batch_sizes),
            "depth_samples": list(station.depth_samples),
            "served": station.served,
            "stalls": station.stalls,
            "peak_depth": station.peak_depth,
            "writes_served": station.writes_served,
            "endurance_budget": config.endurance_budget,
            "alive": station.alive,
            "died_at": -1 if station.died_at is None else station.died_at,
            "latency_bounds": list(config.latency_bounds),
        })


def assemble_snapshots(stations: List[ShardStation],
                       front_session: TelemetrySession,
                       config: ServeConfig,
                       jobs: int = 1) -> Dict[str, Dict[str, Any]]:
    """Fan per-shard accounting over *jobs* workers and merge everything."""
    runner = GridRunner(jobs=jobs)
    results = runner.run([shard_cell(station, config)
                          for station in stations])
    merged = deterministic_snapshot(front_session.registry.snapshot())
    for key in sorted(results):
        merged = merge_snapshots(merged, results[key])
    return merged


__all__ = ["account_shard_cell", "shard_cell", "assemble_snapshots",
           "SIZE_BOUNDS"]
