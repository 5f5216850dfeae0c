"""Figure 7 — user-usable space: WL-Reviver vs adapted FREE-p.

For *ocean* and *mg*, the paper plots the percentage of user-usable PCM
space (excluding pre-reserved and failed capacity) against writes, for
WL-Reviver and for FREE-p pre-reserving 0 %, 5 %, 10 % and 15 % of the
chip.  Expected shapes:

* every FREE-p curve starts at ``1 - reserve`` and falls off a cliff when
  the reserve is exhausted and Start-Gap ceases to function;
* WL-Reviver keeps 100 % of the space usable before the first failure and
  dominates every FREE-p variant throughout;
* for the biased *mg*, larger reserves postpone the cliff longer.

(One deviation from the paper, documented in EXPERIMENTS.md: at our scale
larger reserves also win for *ocean*, where the paper reports the 5 %
reserve postponing the first exposure longest.)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..sim.metrics import LifetimeSeries
from .common import build_engine, scaled_parameters
from .parallel import Cell, GridRunner, ProgressFn, cell_seed, make_runner
from .report import format_series

#: The paper's pre-reservation sweep.
RESERVES = (0.0, 0.05, 0.10, 0.15)


@dataclass(frozen=True)
class Fig7Curve:
    """One configuration's usable-space curve."""

    label: str
    benchmark: str
    reserve: Optional[float]  # None for WL-Reviver
    series: LifetimeSeries


@dataclass(frozen=True)
class Fig7Result:
    """All curves for the requested benchmarks."""

    curves: List[Fig7Curve]
    scale: str
    floor: float = 0.6


def _cell(scale: str, benchmark: str, reserve: Optional[float],
          seed: int) -> dict:
    """One grid cell: a single engine run (executes in a worker)."""
    params = scaled_parameters(scale)
    if reserve is None:
        engine = build_engine(params, benchmark, recovery="reviver",
                              dead_fraction=0.45, seed=seed,
                              label=f"{benchmark}/WL-Reviver")
    else:
        engine = build_engine(params, benchmark, recovery="freep",
                              freep_reserve=reserve, dead_fraction=0.45,
                              seed=seed,
                              label=f"{benchmark}/FREEp-{reserve:.0%}")
    engine.run()
    return {"series": engine.series.to_payload()}


def _key(scale: str, benchmark: str, reserve: Optional[float]) -> str:
    suffix = "WL-Reviver" if reserve is None else f"FREEp-{reserve:g}"
    return f"fig7/{scale}/{benchmark}/{suffix}"


def grid(scale: str, benchmarks: List[str], reserves: List[float],
         seed: int) -> List[Cell]:
    """The figure's (benchmark x configuration) grid."""
    cells = []
    for bench in benchmarks:
        for reserve in [None] + list(reserves):
            key = _key(scale, bench, reserve)
            cells.append(Cell(key=key, fn=f"{__name__}:_cell",
                              kwargs=dict(scale=scale, benchmark=bench,
                                          reserve=reserve,
                                          seed=cell_seed(seed, key))))
    return cells


def run(scale: str = "small",
        benchmarks: Optional[List[str]] = None,
        reserves: Optional[List[float]] = None,
        seed: int = 1, jobs: int = 1,
        resume: Union[None, str, Path] = None,
        progress: Optional[ProgressFn] = None,
        runner: Optional[GridRunner] = None) -> Fig7Result:
    """Produce the usable-space series for WLR and each FREE-p reserve."""
    benches = benchmarks if benchmarks is not None else ["ocean", "mg"]
    sweep = reserves if reserves is not None else list(RESERVES)
    runner = make_runner(jobs=jobs, resume=resume, progress=progress,
                         runner=runner)
    values = runner.run(grid(scale, benches, sweep, seed))
    curves = []
    for bench in benches:
        for reserve in [None] + list(sweep):
            label = ("WL-Reviver" if reserve is None
                     else f"FREE-p {reserve:.0%}")
            payload = values[_key(scale, bench, reserve)]["series"]
            curves.append(Fig7Curve(
                label=label, benchmark=bench, reserve=reserve,
                series=LifetimeSeries.from_payload(
                    payload, label=f"{bench}/{label}")))
    return Fig7Result(curves=curves, scale=scale)


def render(result: Fig7Result) -> str:
    """Sparkline per curve plus the writes-to-70%-usable milestones."""
    lines = [f"Figure 7: user-usable space, WL-Reviver vs adapted FREE-p "
             f"(scale={result.scale})"]
    for bench in sorted({c.benchmark for c in result.curves}):
        lines.append(f"\n[{bench}]")
        for curve in result.curves:
            if curve.benchmark != bench:
                continue
            writes = [p.writes for p in curve.series.points]
            usable = [p.usable for p in curve.series.points]
            lines.append(format_series(curve.label, writes, usable,
                                       lo=result.floor, hi=1.0))
            milestone = curve.series.writes_to_usable(0.7)
            lines.append(f"{'':24s} writes to 70% usable: "
                         + (f"{milestone:,}" if milestone is not None
                            else "not reached"))
    return "\n".join(lines)


def as_dict(result: Fig7Result) -> Dict[str, Dict[str, Optional[int]]]:
    """Writes-to-70% milestones keyed by benchmark and configuration."""
    table: Dict[str, Dict[str, Optional[int]]] = {}
    for curve in result.curves:
        table.setdefault(curve.benchmark, {})[curve.label] = \
            curve.series.writes_to_usable(0.7)
    return table
