"""One array shard: an independent chip + WL + recovery stack in a cell.

:func:`run_shard_cell` is the module-level grid-cell function the
:class:`~repro.experiments.parallel.GridRunner` executes (possibly in a
worker process, which re-imports it by its dotted name).  Everything it
needs arrives as plain JSON-able data — the segment tables of its
:class:`~repro.array.trace.SegmentedTrace`, a per-shard
:class:`~repro.faultinject.FaultSchedule` as canonical JSON — and
everything it returns is plain data, so the serial and pooled paths are
bit-for-bit identical (the harness's standing guarantee).

Seeding discipline: each shard receives one integer seed derived by
:func:`shard_seed` from the array seed and the shard index **only** —
never from the re-decode round — so re-running a surviving shard with
extended segments replays its life prefix byte-identically.

Telemetry: the per-shard snapshot is filtered through
:func:`deterministic_snapshot` before leaving the cell — phase timers
record wall-clock seconds, which would make the merged array snapshot
differ between runs; their deterministic ``.calls`` twins stay.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..ecc import ECP
from ..config import StartGapConfig
from ..faultinject import FaultSchedule, ScheduleDriver
from ..pcm import AddressGeometry, EnduranceModel, PCMChip
from ..rng import SeedLike, derive_rng, spawn_seed
from ..sim.fast import FastConfig, FastEngine
from ..telemetry import TelemetrySession, attach_fast
from ..wl import StartGap
from .trace import SegmentedTrace


def shard_seed(array_seed: SeedLike, shard: int) -> int:
    """The shard's root seed: a function of array seed and shard id only."""
    return spawn_seed(derive_rng(array_seed, f"array-shard-{shard}"))


def deterministic_snapshot(snapshot: Dict[str, Dict[str, object]],
                           ) -> Dict[str, Dict[str, object]]:
    """Drop wall-clock phase counters so snapshots are run-stable.

    ``phase.<name>.seconds`` counters measure real elapsed time and differ
    between otherwise identical runs; every other metric in a seeded
    shard run is deterministic (``phase.<name>.calls`` included).
    """
    counters = {name: value
                for name, value in snapshot.get("counters", {}).items()
                if not (name.startswith("phase.")
                        and name.endswith(".seconds"))}
    return {"counters": counters,
            "gauges": dict(snapshot.get("gauges", {})),
            "histograms": dict(snapshot.get("histograms", {}))}


def run_shard_cell(shard: int, seed: int, device_blocks: int,
                   mean_endurance: float, endurance_cov: float,
                   max_order: int, ecp_k: int, psi: int,
                   batch_writes: int, recovery: str, dead_fraction: float,
                   page_blocks: int, segments: list,
                   max_writes: Optional[int], schedule: Optional[str],
                   telemetry: bool, label: str) -> dict:
    """Run one shard stack to its stop condition; return plain data.

    ``segments`` is a list of ``[start_write, [probabilities...]]`` pairs
    (the JSON form of the shard's segmented local trace); ``schedule`` is
    a shard-local fault schedule as canonical JSON, already projected by
    :func:`repro.faultinject.for_shard`.
    """
    geometry = AddressGeometry(num_blocks=device_blocks, block_bytes=64,
                               page_bytes=64 * page_blocks)
    endurance = EnduranceModel(num_blocks=device_blocks,
                               mean=mean_endurance, cov=endurance_cov,
                               max_order=max_order,
                               seed=spawn_seed(derive_rng(seed, "endurance")))
    chip = PCMChip(geometry, ECP(endurance, ecp_k))
    wl = StartGap(device_blocks, config=StartGapConfig(
        psi=psi, seed=spawn_seed(derive_rng(seed, "startgap"))))
    tables: List[tuple] = [
        (int(start), np.asarray(probabilities, dtype=np.float64))
        for start, probabilities in segments]
    trace = SegmentedTrace(tables, name=f"s{shard}",
                           seed=spawn_seed(derive_rng(seed, "trace")))
    config = FastConfig(recovery=recovery, dead_fraction=dead_fraction,
                        batch_writes=batch_writes, max_writes=max_writes,
                        blocks_per_page=page_blocks,
                        seed=spawn_seed(derive_rng(seed, "engine")))
    engine = FastEngine(chip, wl, trace, config,
                        label=label or f"shard-{shard}")
    if schedule is not None:
        ScheduleDriver(FaultSchedule.from_json(schedule)).attach_fast(engine)
    session = TelemetrySession() if telemetry else None
    if session is not None:
        attach_fast(session, engine)
    engine.run()
    report = engine.end_of_life_report()
    assert report.stop is not None
    snapshot = (deterministic_snapshot(session.registry.snapshot())
                if session is not None else None)
    return {"shard": shard,
            "stop": report.stop.cause.value,
            "local_writes": engine.total_writes,
            "virtual_blocks": engine.ospool.virtual_blocks,
            "series": engine.series.to_payload(),
            "report": report.as_dict(),
            "snapshot": snapshot}


def idle_result(shard: int, virtual_blocks: int) -> dict:
    """Synthetic record for a shard that receives no traffic.

    A shard whose share of the global distribution is zero never wears
    and never advances its local clock; running an engine for it would
    require a drawable distribution it does not have.  The record mirrors
    :func:`run_shard_cell`'s shape with a pristine, zero-write life.
    """
    return {"shard": shard,
            "stop": "max-writes",
            "local_writes": 0,
            "virtual_blocks": virtual_blocks,
            "series": {"writes": [], "survival": [], "usable": [],
                       "avg_access": []},
            "report": {"stop": "max-writes: no traffic decoded to shard",
                       "total_writes": 0, "failed_fraction": 0.0,
                       "usable_fraction": 1.0, "os_interruptions": 0,
                       "victimized_writes": 0, "pages_acquired": 0,
                       "spares_available": 0, "linked_blocks": 0,
                       "pa_da_loops": 0, "crashes_recovered": 0},
            "snapshot": None}
