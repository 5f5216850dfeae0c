"""Figure 6 — survival-rate curves for *ocean* and *mg*.

The paper plots the percentage of memory capacity still usable (down to
70 %) against writes, for six systems per benchmark:

``ECP6``, ``PAYG`` (no wear leveling), ``ECP6-SG``, ``PAYG-SG``, and the
revived ``ECP6-SG-WLR``, ``PAYG-SG-WLR``.

Expected shape: the no-WL systems drop almost immediately; Start-Gap helps
*ocean* far more than *mg*; PAYG postpones the first failure; WL-Reviver
extends every curve, much more for *mg*, and the ECP6 systems gain more
from revival than the PAYG ones (whose pool is nearly drained when failures
start).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..sim.metrics import LifetimeSeries
from .common import SYSTEM_CONFIGS, build_engine, scaled_parameters
from .parallel import Cell, GridRunner, ProgressFn, cell_seed, make_runner
from .report import format_series


@dataclass(frozen=True)
class Fig6Curve:
    """One system's survival curve."""

    system: str
    benchmark: str
    series: LifetimeSeries


@dataclass(frozen=True)
class Fig6Result:
    """All curves for the requested benchmarks."""

    curves: List[Fig6Curve]
    scale: str
    floor: float = 0.7


def _cell(scale: str, benchmark: str, system: str, seed: int) -> dict:
    """One grid cell: a single engine run (executes in a worker)."""
    params = scaled_parameters(scale)
    engine = build_engine(params, benchmark, seed=seed,
                          label=f"{benchmark}/{system}",
                          **SYSTEM_CONFIGS[system])
    engine.run()
    return {"series": engine.series.to_payload()}


def grid(scale: str, benchmarks: List[str], systems: List[str],
         seed: int) -> List[Cell]:
    """The figure's (benchmark x system) grid."""
    cells = []
    for bench in benchmarks:
        for system in systems:
            key = f"fig6/{scale}/{bench}/{system}"
            cells.append(Cell(key=key, fn=f"{__name__}:_cell",
                              kwargs=dict(scale=scale, benchmark=bench,
                                          system=system,
                                          seed=cell_seed(seed, key))))
    return cells


def run(scale: str = "small",
        benchmarks: Optional[List[str]] = None,
        systems: Optional[List[str]] = None,
        seed: int = 1, jobs: int = 1,
        resume: Union[None, str, Path] = None,
        progress: Optional[ProgressFn] = None,
        runner: Optional[GridRunner] = None) -> Fig6Result:
    """Produce the survival series for every (benchmark, system) pair."""
    benches = benchmarks if benchmarks is not None else ["ocean", "mg"]
    names = systems if systems is not None else list(SYSTEM_CONFIGS)
    runner = make_runner(jobs=jobs, resume=resume, progress=progress,
                         runner=runner)
    values = runner.run(grid(scale, benches, names, seed))
    curves = [Fig6Curve(system=system, benchmark=bench,
                        series=LifetimeSeries.from_payload(
                            values[f"fig6/{scale}/{bench}/{system}"]
                            ["series"], label=f"{bench}/{system}"))
              for bench in benches for system in names]
    return Fig6Result(curves=curves, scale=scale)


def render(result: Fig6Result) -> str:
    """Sparkline per curve plus the lifetime-to-70% milestones."""
    lines = [f"Figure 6: usable-capacity curves (floor {result.floor:.0%}, "
             f"scale={result.scale})"]
    for bench in sorted({c.benchmark for c in result.curves}):
        lines.append(f"\n[{bench}]")
        for curve in result.curves:
            if curve.benchmark != bench:
                continue
            writes = [p.writes for p in curve.series.points]
            usable = [p.usable for p in curve.series.points]
            lines.append(format_series(curve.system, writes, usable,
                                       lo=result.floor, hi=1.0))
            milestone = curve.series.writes_to_usable(result.floor)
            lines.append(f"{'':24s} writes to {result.floor:.0%} usable: "
                         f"{milestone:,}" if milestone is not None else
                         f"{'':24s} never dropped to {result.floor:.0%}")
    return "\n".join(lines)


def as_dict(result: Fig6Result) -> Dict[str, Dict[str, Optional[int]]]:
    """Lifetime-to-70% milestones keyed by benchmark and system."""
    table: Dict[str, Dict[str, Optional[int]]] = {}
    for curve in result.curves:
        table.setdefault(curve.benchmark, {})[curve.system] = \
            curve.series.writes_to_usable(result.floor)
    return table
