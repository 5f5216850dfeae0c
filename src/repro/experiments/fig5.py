"""Figure 5 — lifetime with and without WL-Reviver, per benchmark.

The paper plots, for all eight benchmarks, the number of writes needed to
make 30 % of the PCM unusable under ECP6 + Start-Gap ("ECP6-SG") and the
same system revived by the framework ("ECP6-SG-WLR").  Expected shape:

* ECP6-SG lifetime strongly anti-correlated with the benchmark's write CoV
  (mg shortest, ocean longest);
* ECP6-SG-WLR lifts every benchmark (paper: +36 % to +325 % at 1 GB scale;
  our scaled chips amplify the high-CoV gains — see EXPERIMENTS.md) and
  flattens the variation across benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..traces import BENCHMARKS
from .common import build_engine, scaled_parameters
from .parallel import Cell, GridRunner, ProgressFn, cell_seed, make_runner
from .report import format_number, format_table

#: The two systems of the figure's bar pairs.
SYSTEMS = {
    "ECP6-SG": "none",
    "ECP6-SG-WLR": "reviver",
}


@dataclass(frozen=True)
class Fig5Row:
    """Lifetimes of one benchmark under both systems."""

    benchmark: str
    write_cov: float
    sg_lifetime: int
    wlr_lifetime: int

    @property
    def improvement(self) -> float:
        """Relative lifetime gain of WL-Reviver."""
        if self.sg_lifetime == 0:
            return float("inf")
        return self.wlr_lifetime / self.sg_lifetime - 1.0


@dataclass(frozen=True)
class Fig5Result:
    """All benchmarks, CoV-ordered like the paper's x-axis."""

    rows: List[Fig5Row]
    scale: str


def _cell(scale: str, benchmark: str, system: str, seed: int) -> dict:
    """One grid cell: a single engine run (executes in a worker)."""
    params = scaled_parameters(scale)
    engine = build_engine(params, benchmark, ecc="ecp6",
                          wear_leveling=True, recovery=SYSTEMS[system],
                          seed=seed, label=f"{benchmark}/{system}")
    return {"lifetime": engine.run().lifetime_writes}


def grid(scale: str, benchmarks: List[str], seed: int) -> List[Cell]:
    """The figure's (benchmark x system) grid."""
    cells = []
    for name in benchmarks:
        for system in SYSTEMS:
            key = f"fig5/{scale}/{name}/{system}"
            cells.append(Cell(key=key, fn=f"{__name__}:_cell",
                              kwargs=dict(scale=scale, benchmark=name,
                                          system=system,
                                          seed=cell_seed(seed, key))))
    return cells


def run(scale: str = "small", benchmarks: Optional[List[str]] = None,
        seed: int = 1, jobs: int = 1,
        resume: Union[None, str, Path] = None,
        progress: Optional[ProgressFn] = None,
        runner: Optional[GridRunner] = None) -> Fig5Result:
    """Measure both configurations' lifetimes for every benchmark."""
    names = benchmarks if benchmarks is not None else list(BENCHMARKS)
    runner = make_runner(jobs=jobs, resume=resume, progress=progress,
                         runner=runner)
    values = runner.run(grid(scale, names, seed))
    rows = [Fig5Row(benchmark=name,
                    write_cov=BENCHMARKS[name].write_cov,
                    sg_lifetime=values[f"fig5/{scale}/{name}/ECP6-SG"]
                    ["lifetime"],
                    wlr_lifetime=values[f"fig5/{scale}/{name}/ECP6-SG-WLR"]
                    ["lifetime"])
            for name in names]
    rows.sort(key=lambda r: r.write_cov)
    return Fig5Result(rows=rows, scale=scale)


def render(result: Fig5Result) -> str:
    """The figure's bar values as a table, plus the headline gains."""
    headers = ["Benchmark", "Write CoV", "ECP6-SG", "ECP6-SG-WLR", "Gain"]
    rows = [[r.benchmark, f"{r.write_cov:.2f}",
             format_number(r.sg_lifetime), format_number(r.wlr_lifetime),
             f"+{100 * r.improvement:.0f}%"]
            for r in result.rows]
    title = (f"Figure 5: writes to make 30% of the PCM unusable "
             f"(scale={result.scale})")
    return format_table(headers, rows, title=title)


def as_dict(result: Fig5Result) -> Dict[str, Dict[str, float]]:
    """Machine-readable form for tests and notebooks."""
    return {r.benchmark: {"cov": r.write_cov, "sg": r.sg_lifetime,
                          "wlr": r.wlr_lifetime,
                          "improvement": r.improvement}
            for r in result.rows}
