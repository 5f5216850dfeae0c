"""Figure 8 — software-usable space under ongoing writes: LLS vs WL-Reviver.

For *ocean* and *mg*, the paper compares how software-usable PCM space
shrinks as writes proceed under LLS and under WL-Reviver (both over ECP6 +
Start-Gap).  Expected shape: LLS prevents the precipitous collapse of the
unrevived baseline but sustains far fewer writes than WL-Reviver — mainly
because it must restrict Start-Gap's address randomization to half-space
swaps, and secondarily because chunk-granularity reservation strands idle
blocks; *ocean*'s more uniform writes "barely help".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..sim.fast import FastEngine
from ..sim.metrics import LifetimeSeries
from .common import build_engine, build_lls_engine, scaled_parameters
from .parallel import Cell, GridRunner, ProgressFn, cell_seed, jsonify, make_runner
from .report import format_series

#: Systems of the figure, in plot order.
SYSTEMS = ("WL-Reviver", "LLS", "ECP6-SG")


@dataclass(frozen=True)
class Fig8Curve:
    """One system's usable-space curve."""

    system: str
    benchmark: str
    series: LifetimeSeries
    stats: dict


@dataclass(frozen=True)
class Fig8Result:
    """All curves for the requested benchmarks."""

    curves: List[Fig8Curve]
    scale: str


def _cell(scale: str, benchmark: str, system: str, seed: int) -> dict:
    """One grid cell: a single engine run (executes in a worker)."""
    params = scaled_parameters(scale)
    engine: FastEngine
    if system == "WL-Reviver":
        engine = build_engine(params, benchmark, recovery="reviver",
                              dead_fraction=0.4, seed=seed,
                              label=f"{benchmark}/WL-Reviver")
    elif system == "LLS":
        engine = build_lls_engine(params, benchmark, dead_fraction=0.4,
                                  seed=seed, label=f"{benchmark}/LLS")
    else:
        engine = build_engine(params, benchmark, recovery="none",
                              dead_fraction=0.4, seed=seed,
                              label=f"{benchmark}/ECP6-SG")
    engine.run()
    return {"series": engine.series.to_payload(),
            "stats": jsonify(engine.stats())}


def grid(scale: str, benchmarks: List[str], systems: List[str],
         seed: int) -> List[Cell]:
    """The figure's (benchmark x system) grid."""
    cells = []
    for bench in benchmarks:
        for system in systems:
            key = f"fig8/{scale}/{bench}/{system}"
            cells.append(Cell(key=key, fn=f"{__name__}:_cell",
                              kwargs=dict(scale=scale, benchmark=bench,
                                          system=system,
                                          seed=cell_seed(seed, key))))
    return cells


def run(scale: str = "small",
        benchmarks: Optional[List[str]] = None,
        include_baseline: bool = True,
        seed: int = 1, jobs: int = 1,
        resume: Union[None, str, Path] = None,
        progress: Optional[ProgressFn] = None,
        runner: Optional[GridRunner] = None) -> Fig8Result:
    """Produce the usable-space series for LLS, WLR (and the baseline)."""
    benches = benchmarks if benchmarks is not None else ["ocean", "mg"]
    systems = list(SYSTEMS) if include_baseline else list(SYSTEMS[:2])
    runner = make_runner(jobs=jobs, resume=resume, progress=progress,
                         runner=runner)
    values = runner.run(grid(scale, benches, systems, seed))
    curves = []
    for bench in benches:
        for system in systems:
            cell = values[f"fig8/{scale}/{bench}/{system}"]
            curves.append(Fig8Curve(
                system=system, benchmark=bench,
                series=LifetimeSeries.from_payload(
                    cell["series"], label=f"{bench}/{system}"),
                stats=cell["stats"]))
    return Fig8Result(curves=curves, scale=scale)


def render(result: Fig8Result) -> str:
    """Sparkline per curve plus sustained-writes milestones."""
    lines = [f"Figure 8: software-usable space under ongoing writes "
             f"(scale={result.scale})"]
    for bench in sorted({c.benchmark for c in result.curves}):
        lines.append(f"\n[{bench}]")
        for curve in result.curves:
            if curve.benchmark != bench:
                continue
            writes = [p.writes for p in curve.series.points]
            usable = [p.usable for p in curve.series.points]
            lines.append(format_series(curve.system, writes, usable,
                                       lo=0.5, hi=1.0))
            milestone = curve.series.writes_to_usable(0.7)
            lines.append(f"{'':24s} writes to 70% usable: "
                         + (f"{milestone:,}" if milestone is not None
                            else "not reached"))
    return "\n".join(lines)


def as_dict(result: Fig8Result) -> Dict[str, Dict[str, Optional[int]]]:
    """Sustained-writes milestones keyed by benchmark and system."""
    table: Dict[str, Dict[str, Optional[int]]] = {}
    for curve in result.curves:
        table.setdefault(curve.benchmark, {})[curve.system] = \
            curve.series.writes_to_usable(0.7)
    return table
