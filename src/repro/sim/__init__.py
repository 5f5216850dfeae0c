"""Simulation engines and metrics.

Two engines drive the same component stack at different fidelities:

* :class:`~repro.sim.engine.ExactEngine` — one software write at a time
  through a full :class:`~repro.mc.controller.BaseController`, with
  per-request access accounting, optional data-consistency verification,
  and invariant checking.  Used by tests, Table II, and small studies.
* :class:`~repro.sim.fast.FastEngine` — vectorized epoch simulation for
  lifetime-scale runs (Figures 5-8): writes are applied as batched
  per-block counts, wear-leveling advances in bulk, and failures are
  processed per batch.  Wear outcomes match the exact engine's shape; an
  agreement test pins the two together on small configurations.

:mod:`~repro.sim.metrics` defines the collectors both engines feed
(survival-rate and usable-space series, lifetime summaries).
"""

from .metrics import LifetimeSeries, LifetimeSummary, SamplePoint
from .engine import ExactEngine
from .fast import FastEngine, FastConfig
from .stop import EndOfLifeReport, StopCause, StopReason
from .wearstats import WearReport, endurance_utilization, gini, wear_cov

__all__ = [
    "LifetimeSeries", "LifetimeSummary", "SamplePoint",
    "ExactEngine", "FastEngine", "FastConfig",
    "EndOfLifeReport", "StopCause", "StopReason",
    "WearReport", "endurance_utilization", "gini", "wear_cov",
]
