"""The array engine: shared-nothing shards behind one address map.

:class:`ArrayEngine` services a single global write distribution with an
array of independent shard stacks (chip + Start-Gap + recovery), each a
full :class:`~repro.sim.fast.FastEngine` run as a grid cell of the
parallel harness.  Shards never share state; what couples them is pure
arithmetic:

* the address map — a :class:`~repro.balance.remap.BalancedDecoder`
  over the :class:`~repro.array.decoder.InterleavedDecoder` geometry,
  the identity until something mutates it — projects the global
  distribution into per-shard local mass vectors (a shard's *share* is
  its mass);
* a **global write clock** relates the shards: a shard with share ``f``
  advances its local clock ``f`` writes per global write, giving each
  shard a piecewise-linear local<->global map that the engine maintains
  as shares change.

There is one run loop.  Each *round*, every live shard runs to its own
stop condition, capped at the next scheduled control event (a steering
checkpoint or a shard addition; a static array has none).  The earliest
death on the global clock wins (ties broken by shard id):

``fail-stop``
    The array dies with its first shard.  Survivors are re-run capped at
    the death point (epoch-aligned) so the merged result describes the
    array at the moment it stopped.
``degraded``
    The dead shard's addresses re-home through the map
    (:meth:`~repro.balance.remap.BalancedDecoder.rehome`); every
    survivor that inherits traffic gains a trace segment at its next
    epoch boundary, and the array keeps serving at reduced usable
    capacity until the last shard dies (or the budget runs out).

Determinism: per-shard seeds derive from the array seed and shard index
only, segment boundaries and write caps are quantized to whole epochs,
and per-segment trace generators are independent — so re-running a
survivor with appended segments replays its prefix byte-identically, and
the whole array result (merged telemetry snapshot included) is invariant
under ``jobs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Set,
                    Tuple)

import numpy as np

from ..errors import ConfigurationError
from ..experiments.parallel import Cell, GridRunner, ProgressFn
from ..faultinject import FaultSchedule, for_shard
from ..rng import SeedLike
from ..sim.metrics import LifetimeSeries, SamplePoint
from ..sim.stop import StopCause, StopReason
from ..telemetry import TelemetrySession, merge_snapshots
from ..traces.base import DistributionTrace
from ..units import blocks_of_pages, ceil_div, page_count
from .decoder import INTERLEAVE_MODES, InterleavedDecoder
from .report import ArrayEndOfLifeReport, ShardCensus
from .shard import idle_result, run_shard_cell, shard_seed

if TYPE_CHECKING:  # pragma: no cover - cycle guard: balance wraps our decoder
    from ..balance import BalancedDecoder, LevelerPolicy, ShardHealthModel

#: Array end-of-life policies.
ARRAY_POLICIES: Tuple[str, ...] = ("fail-stop", "degraded")

#: Dotted reference GridRunner workers re-import for each shard cell.
_CELL_FN = f"{run_shard_cell.__module__}:{run_shard_cell.__name__}"


@dataclass
class ArrayConfig:
    """Parameters of a homogeneous shard array."""

    num_shards: int = 4
    #: Device blocks per shard chip (must be a whole number of pages).
    shard_blocks: int = 1024
    interleave: str = "block"
    policy: str = "degraded"
    #: OS page size in blocks (shared by decoder and every shard stack).
    page_blocks: int = 64
    mean_endurance: float = 800.0
    endurance_cov: float = 0.2
    max_order: int = 16
    ecp_k: int = 6
    psi: int = 12
    recovery: str = "reviver"
    dead_fraction: float = 0.3
    #: Software writes per shard epoch (segment boundaries are quantized
    #: to this, so prefix replay is draw-for-draw identical).
    batch_writes: int = 4000
    #: Global write budget (None = run the array to death).
    max_writes: Optional[int] = None
    telemetry: bool = True
    seed: SeedLike = None
    #: Enable risk-steered inter-shard leveling (the balance subsystem).
    balance: bool = False
    #: Max hot/cold swaps per rebalance round (2 migration writes each).
    remap_budget: int = 8
    #: Global writes between steering checkpoints (None with ``balance``:
    #: steer only at shard-death boundaries, so with ``remap_budget=0``
    #: the run is exactly the static one).
    balance_every: Optional[int] = None
    #: Minimum risk spread before the leveler engages.
    min_risk_gap: float = 0.02
    #: Global write count at which one fresh shard joins (None = never).
    add_shard_at: Optional[int] = None

    def __post_init__(self) -> None:
        if self.policy not in ARRAY_POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; "
                f"choose from {ARRAY_POLICIES}")
        if self.interleave not in INTERLEAVE_MODES:
            raise ConfigurationError(
                f"unknown interleave {self.interleave!r}; "
                f"choose from {INTERLEAVE_MODES}")
        if self.num_shards < 1:
            raise ConfigurationError("array needs at least one shard")
        if self.shard_blocks < 2 * self.page_blocks:
            # Start-Gap spends one line on the gap, which costs the
            # software space a whole page; below two pages nothing is
            # left to serve.
            raise ConfigurationError(
                "shard_blocks must be at least two OS pages")
        if self.remap_budget < 0:
            raise ConfigurationError("remap_budget cannot be negative")
        if self.min_risk_gap < 0:
            raise ConfigurationError("min_risk_gap cannot be negative")
        if self.balance_every is not None and self.balance_every < 1:
            raise ConfigurationError("balance_every must be >= 1 writes")
        if self.add_shard_at is not None and self.add_shard_at < 1:
            raise ConfigurationError("add_shard_at must be >= 1 writes")

    @property
    def software_blocks(self) -> int:
        """Software-visible blocks per shard (whole pages after the gap)."""
        return blocks_of_pages(
            page_count(self.shard_blocks - 1, self.page_blocks),
            self.page_blocks)


@dataclass
class _ShardState:
    """Book-keeping the engine keeps per shard between rounds."""

    #: Current local mass vector (in global-probability units).
    mass: np.ndarray
    #: ``(start_write, mass_vector)`` trace segments, epoch-aligned.
    segments: List[Tuple[int, np.ndarray]]
    #: ``(local_start, global_start, share)`` pieces of the clock map.
    pieces: List[Tuple[int, float, float]]
    result: Optional[dict] = None
    dead: bool = False
    death_global: Optional[float] = None
    #: Fail-stop: epoch-aligned local write cap for the truncation re-run.
    forced_cap: Optional[int] = None
    #: Earliest segment boundary appended since ``result`` was recorded
    #: (None: the record ran on the current trace).
    changed_at: Optional[int] = None

    @property
    def share(self) -> float:
        """Current share of global traffic."""
        return float(self.mass.sum())


@dataclass
class ArrayResult:
    """Everything one array run produces."""

    label: str
    config: ArrayConfig
    #: Merged survival/usable series on the global write clock.
    series: LifetimeSeries
    #: Associatively merged per-shard telemetry (plus array counters).
    snapshot: Dict[str, Dict[str, object]]
    report: ArrayEndOfLifeReport
    #: Raw per-shard cell records, by shard index.
    shards: List[dict] = field(default_factory=list)
    rounds: int = 0

    def as_dict(self) -> dict:
        """JSON-ready form for the CLI and experiment artifacts."""
        return {"label": self.label,
                "policy": self.config.policy,
                "interleave": self.config.interleave,
                "num_shards": self.report.num_shards,
                "rounds": self.rounds,
                "report": self.report.as_dict(),
                "series": self.series.to_payload(),
                "snapshot": self.snapshot}


class ArrayEngine:
    """Round-based lifetime simulation of a shard array."""

    def __init__(self, config: ArrayConfig, trace: DistributionTrace,
                 label: str = "array", jobs: int = 1,
                 schedule: Optional[FaultSchedule] = None,
                 progress: Optional[ProgressFn] = None) -> None:
        from ..balance.health import ShardHealthModel
        from ..balance.leveler import LevelerPolicy
        from ..balance.remap import BalancedDecoder
        self.config = config
        self.label = label
        self.jobs = jobs
        self.schedule = schedule
        self.progress = progress
        base = InterleavedDecoder(
            config.num_shards, config.software_blocks,
            interleave=config.interleave, page_blocks=config.page_blocks)
        if trace.virtual_blocks < base.global_blocks:
            raise ConfigurationError(
                f"trace covers {trace.virtual_blocks} blocks, the array "
                f"decodes {base.global_blocks}; build the workload "
                f"for the array's global space")
        folded = trace.restricted_to(base.global_blocks)
        self.probabilities = folded.probabilities
        #: The address map: the identity over *base* until a degraded
        #: death, a steering swap or a shard addition mutates it.
        self.decoder: "BalancedDecoder" = BalancedDecoder(base)
        self.health: "ShardHealthModel" = ShardHealthModel(
            config.num_shards,
            endurance_budget=config.shard_blocks * config.mean_endurance,
            seed=config.seed)
        self._leveler: "LevelerPolicy" = LevelerPolicy(
            budget=config.remap_budget, min_gap=config.min_risk_gap)
        self.result: Optional[ArrayResult] = None
        #: True when the run publishes the balance control plane's
        #: counters and health gauges.
        self.balanced = (config.balance
                         or config.add_shard_at is not None)
        self._states: List[_ShardState] = []
        self._seeds: List[int] = []
        self._migration_writes = 0
        self._remap_swaps = 0
        self._shards_added = 0

    # -------------------------------------------------------------- the clock

    def _global_at_local(self, state: _ShardState, local: int) -> float:
        """Global write count when *state*'s local clock reads *local*."""
        for start, global_start, share in reversed(state.pieces):
            if local >= start:
                if share <= 0:
                    return global_start
                return global_start + (local - start) / share
        return 0.0

    def _local_at_global(self, state: _ShardState, at: float) -> float:
        """*state*'s local clock when the global clock reads *at*."""
        for start, global_start, share in reversed(state.pieces):
            if at >= global_start:
                return start + share * (at - global_start)
        return 0.0

    def _epoch_ceil(self, value: float) -> int:
        """Smallest whole-epoch local write count >= *value*."""
        whole = max(0, int(math.ceil(value - 1e-9)))
        return ceil_div(whole, self.config.batch_writes) \
            * self.config.batch_writes

    # ------------------------------------------------------------------- run

    def run(self) -> ArrayResult:
        """Simulate the array to its end of life; return the merged result.

        Each round runs the pending shards, capped at the *horizon* —
        the next scheduled control event on the global clock.  A static
        array has no events, so its shards run to their own deaths (or
        the budget).  When a round ends with every live shard parked at
        the horizon the event fires — add the scheduled shard, plan
        bounded swaps — before the loop resumes.  Deaths always take
        priority over control events, and an event that a death
        overtakes slips to the death's global time so segment
        boundaries stay monotone.
        """
        cfg = self.config
        states = self._states = [self._boot_state(i)
                                 for i in range(cfg.num_shards)]
        seeds = self._seeds = [shard_seed(cfg.seed, i)
                               for i in range(cfg.num_shards)]
        dead_order: List[int] = []
        add_at = (float(cfg.add_shard_at)
                  if cfg.add_shard_at is not None else None)
        next_balance = (float(cfg.balance_every)
                        if cfg.balance and cfg.balance_every is not None
                        else None)
        rounds = 0
        stop: Optional[StopReason] = None
        while stop is None:
            horizon = self._next_horizon(add_at, next_balance)
            pending = self._pending_shards(states, horizon)
            rounds += 1
            self._run_round(rounds, pending, states, seeds, horizon=horizon)
            deaths: List[Tuple[float, int]] = []
            for i, state in enumerate(states):
                record = state.result
                if (state.dead or record is None
                        or record["stop"] == StopCause.MAX_WRITES.value):
                    continue
                deaths.append((self._global_at_local(
                    state, int(record["local_writes"])), i))
            deaths.sort()
            live = [i for i in range(len(states)) if not states[i].dead]
            self._observe_health(states, live)
            if deaths:
                death_global, victim = deaths[0]
                victim_record = states[victim].result
                victim_writes = (float(victim_record["local_writes"])
                                 if victim_record is not None else 0.0)
                self.health.observe(victim, victim_writes,
                                    self._failed_fraction(victim_record),
                                    dead=True)
                states[victim].dead = True
                states[victim].death_global = death_global
                dead_order.append(victim)
                live = [i for i in range(len(states))
                        if not states[i].dead]
                if cfg.policy == "fail-stop":
                    pending = self._truncate_survivors(states, live,
                                                       death_global)
                    if pending:
                        rounds += 1
                        self._run_round(rounds, pending, states, seeds)
                    stop = StopReason(
                        StopCause.SHARD_FAILED,
                        f"shard {victim} at ~{int(death_global):,} "
                        f"global writes")
                    break
                if not live:
                    stop = StopReason(StopCause.EXHAUSTED,
                                      "all shards dead")
                    break
                affected = self._rehome_victim(victim, live)
                if cfg.balance:
                    affected |= self._steer(live)
                self._apply_masses(states, affected, death_global)
                # Control events a death overtakes slip to the death's
                # global time, keeping segment boundaries monotone.
                if add_at is not None:
                    add_at = max(add_at, death_global)
                if next_balance is not None:
                    next_balance = max(next_balance, death_global)
                continue
            if horizon is None:
                stop = StopReason(StopCause.MAX_WRITES)
                break
            affected = set()
            if add_at is not None and horizon >= add_at:
                affected |= self.add_shard(horizon)
                add_at = None
            if (cfg.balance and next_balance is not None
                    and horizon >= next_balance):
                affected |= self._steer(live)
                assert cfg.balance_every is not None
                next_balance = horizon + float(cfg.balance_every)
            self._apply_masses(states, affected, horizon)
        return self._assemble(states, dead_order, stop, rounds)

    def _next_horizon(self, add_at: Optional[float],
                      next_balance: Optional[float]) -> Optional[float]:
        """Earliest scheduled control event still inside the budget."""
        candidates = [at for at in (add_at, next_balance) if at is not None]
        if not candidates:
            return None
        horizon = min(candidates)
        if (self.config.max_writes is not None
                and horizon >= float(self.config.max_writes)):
            return None
        return horizon

    def _pending_shards(self, states: List[_ShardState],
                        horizon: Optional[float]) -> List[int]:
        """Live shards whose recorded run is stale or short of its cap.

        A record is stale when its shard's trace gained a segment inside
        the recorded run — a death record included: that death happened
        under traffic the shard no longer sees.  A death record the new
        traffic does not reach stays valid and waits its turn in the
        death queue.
        """
        pending = []
        for i, state in enumerate(states):
            record = state.result
            if state.dead or state.share <= 0:
                if record is None:
                    state.result = idle_result(
                        i, self.config.software_blocks)
                continue
            if record is None:
                pending.append(i)
                continue
            local_writes = int(record["local_writes"])
            if state.changed_at is not None \
                    and state.changed_at < local_writes:
                pending.append(i)
            elif (record["stop"] == StopCause.MAX_WRITES.value
                    and local_writes != self._cap_for(state, horizon)):
                pending.append(i)
        return pending

    def _observe_health(self, states: List[_ShardState],
                        live: List[int]) -> None:
        """Feed every live shard's latest record into the health model."""
        for i in live:
            record = states[i].result
            if record is not None:
                self.health.observe(i, float(record["local_writes"]),
                                    self._failed_fraction(record))

    @staticmethod
    def _failed_fraction(record: Optional[dict]) -> float:
        if record is None:
            return 0.0
        report = record.get("report", {})
        value = report.get("failed_fraction", 0.0) \
            if isinstance(report, dict) else 0.0
        return float(value) if isinstance(value, (int, float)) \
            and not isinstance(value, bool) else 0.0

    def _rehome_victim(self, victim: int, live: List[int]) -> Set[int]:
        """Degraded death through the address map.

        :meth:`~repro.balance.remap.BalancedDecoder.rehome` is the one
        re-home rule: slot ``l`` of the dead shard moves to
        ``live[l mod len(live)]`` at the same slot.  Returns the
        survivors that inherit traffic; one that inherits only
        never-written addresses keeps its trace, since a new segment
        would reseed its draws.
        """
        moved = self.decoder.rehome(victim, live)
        self._states[victim].mass = np.zeros_like(
            self._states[victim].mass)
        owners = self.decoder.shard_of(moved[self.probabilities[moved] > 0])
        return {int(s) for s in np.unique(np.asarray(owners))}

    def _steer(self, live: List[int]) -> Set[int]:
        """One bounded leveler round; returns the shards whose map changed."""
        from ..balance.leveler import plan_swaps
        swaps = plan_swaps(self.decoder, self.probabilities,
                           self.health.risks(), live, self._leveler)
        affected: Set[int] = set()
        if swaps:
            self._remap_swaps += len(swaps)
            self._migration_writes += 2 * len(swaps)
            for hot, cold in swaps:
                affected.add(int(self.decoder.shard_of(hot)))
                affected.add(int(self.decoder.shard_of(cold)))
        return affected

    def add_shard(self, at_global: float) -> Set[int]:
        """Grow the array by one fresh shard at a round boundary.

        The new chip+reviver cell starts pristine with its local clock
        pinned to the global clock at *at_global*; the consistent-hash
        movers give it ~``1/(N+1)`` of the address space.  Returns the
        donor shards whose traffic changed (the new shard's own state is
        installed directly).
        """
        cfg = self.config
        movers, donors = self.decoder.add_shard()
        new_index = len(self._states)
        self._seeds.append(shard_seed(cfg.seed, new_index))
        mass = self.decoder.local_mass(self.probabilities, new_index)
        state = _ShardState(
            mass=mass, segments=[(0, mass.copy())],
            pieces=[(0, float(at_global), float(mass.sum()))])
        if state.share <= 0:
            state.result = idle_result(new_index, cfg.software_blocks)
        self._states.append(state)
        self.health.add_shard()
        self._migration_writes += int(movers.size)
        self._shards_added += 1
        return {int(s) for s in np.unique(np.asarray(donors))}

    def _apply_masses(self, states: List[_ShardState],
                      affected: Iterable[int], at_global: float) -> None:
        """Re-project masses for *affected* shards at the event boundary."""
        for i in sorted(set(affected)):
            state = states[i]
            if state.dead:
                continue
            new_mass = self.decoder.local_mass(self.probabilities, i)
            boundary = self._epoch_ceil(
                self._local_at_global(state, at_global))
            boundary = max(boundary, state.segments[-1][0])
            global_at_boundary = max(
                at_global, self._global_at_local(state, boundary))
            state.mass = new_mass
            self._append_segment(state, boundary, new_mass.copy(),
                                 global_at_boundary)

    # ---------------------------------------------------------------- rounds

    def _boot_state(self, shard: int) -> _ShardState:
        mass = self.decoder.local_mass(self.probabilities, shard)
        return _ShardState(mass=mass, segments=[(0, mass.copy())],
                           pieces=[(0, 0.0, float(mass.sum()))])

    def _run_round(self, round_no: int, pending: List[int],
                   states: List[_ShardState], seeds: List[int],
                   horizon: Optional[float] = None) -> None:
        """Run the pending shards' cells and record their results.

        *horizon* caps every cell at the epoch boundary covering that
        global write count, so a control event can fire with all live
        shards parked at the same point of the clock.
        """
        if not pending:
            return
        cells = []
        for i in pending:
            key = f"{self.label}/r{round_no}/s{i}"
            cells.append(Cell(key=key, fn=_CELL_FN,
                              kwargs=self._cell_kwargs(i, states[i],
                                                       seeds[i], horizon)))
        runner = GridRunner(jobs=self.jobs, progress=self.progress)
        values = runner.run(cells)
        for i in pending:
            states[i].result = values[f"{self.label}/r{round_no}/s{i}"]
            states[i].changed_at = None

    def _cap_for(self, state: _ShardState,
                 horizon: Optional[float] = None) -> Optional[int]:
        """Epoch-aligned local write cap for one shard's next cell run."""
        cfg = self.config
        cap: Optional[int] = None
        if cfg.max_writes is not None:
            cap = self._epoch_ceil(
                self._local_at_global(state, float(cfg.max_writes)))
        if horizon is not None:
            capped = self._epoch_ceil(self._local_at_global(state, horizon))
            cap = capped if cap is None else min(cap, capped)
        if state.forced_cap is not None:
            cap = (state.forced_cap if cap is None
                   else min(cap, state.forced_cap))
        return cap

    def _cell_kwargs(self, shard: int, state: _ShardState, seed: int,
                     horizon: Optional[float] = None) -> dict:
        cfg = self.config
        cap = self._cap_for(state, horizon)
        schedule_json: Optional[str] = None
        if self.schedule is not None:
            schedule_json = for_shard(self.schedule, shard).to_json()
        segments = [[start, [float(x) for x in mass]]
                    for start, mass in state.segments]
        return dict(shard=shard, seed=seed,
                    device_blocks=cfg.shard_blocks,
                    mean_endurance=cfg.mean_endurance,
                    endurance_cov=cfg.endurance_cov,
                    max_order=cfg.max_order, ecp_k=cfg.ecp_k, psi=cfg.psi,
                    batch_writes=cfg.batch_writes, recovery=cfg.recovery,
                    dead_fraction=cfg.dead_fraction,
                    page_blocks=cfg.page_blocks, segments=segments,
                    max_writes=cap, schedule=schedule_json,
                    telemetry=cfg.telemetry,
                    label=f"{self.label}/s{shard}")

    def _truncate_survivors(self, states: List[_ShardState],
                            live: List[int],
                            death_global: float) -> List[int]:
        """Fail-stop: cap every survivor at the death point (epoch-aligned).

        Returns the shards that must re-run; a survivor whose previous
        cap already matches keeps its result.
        """
        pending = []
        for i in live:
            state = states[i]
            cap = self._epoch_ceil(
                self._local_at_global(state, death_global))
            assert state.result is not None
            if int(state.result["local_writes"]) != cap:
                state.forced_cap = cap
                pending.append(i)
        return pending

    def _append_segment(self, state: _ShardState, boundary: int,
                        mass: np.ndarray, global_start: float) -> None:
        """Extend a shard's trace and clock map at an epoch boundary.

        A boundary equal to the last segment's start *replaces* it — the
        shard had not consumed any of that segment yet (e.g. an idle
        shard inheriting its first traffic).
        """
        segments = list(state.segments)
        pieces = list(state.pieces)
        if segments and segments[-1][0] == boundary:
            segments[-1] = (boundary, mass)
            pieces[-1] = (boundary, global_start, float(mass.sum()))
        else:
            segments.append((boundary, mass))
            pieces.append((boundary, global_start, float(mass.sum())))
        state.segments = segments
        state.pieces = pieces
        state.changed_at = (boundary if state.changed_at is None
                            else min(state.changed_at, boundary))

    # -------------------------------------------------------------- assembly

    def _assemble(self, states: List[_ShardState], dead_order: List[int],
                  stop: Optional[StopReason],
                  rounds: int) -> ArrayResult:
        cfg = self.config
        # A shard's boot-time share is its first trace segment's mass —
        # identical to the decoder projection for the initial shards,
        # and well-defined for shards added mid-run.
        base_shares = [float(state.segments[0][1].sum())
                       for state in states]
        census = []
        rescaled = []
        total_writes = 0
        for i, state in enumerate(states):
            record = state.result
            assert record is not None
            report = record["report"]
            local_writes = int(record["local_writes"])
            total_writes += local_writes
            died_at = (int(state.death_global)
                       if state.death_global is not None else None)
            census.append(ShardCensus(
                shard=i, share=base_shares[i], final_share=state.share,
                local_writes=local_writes, stop=str(record["stop"]),
                died_at_global=died_at, report=dict(report)))
            rescaled.append(self._global_series(i, state, record))
        merged = LifetimeSeries.merge(
            rescaled, access_weights=(base_shares
                                      if any(base_shares) else None),
            label=self.label)
        snapshot = self._merged_snapshot(states, dead_order, rounds,
                                         total_writes)
        report_out = self._array_report(states, census, dead_order, stop,
                                        rounds, total_writes)
        self.result = ArrayResult(
            label=self.label, config=cfg, series=merged, snapshot=snapshot,
            report=report_out,
            shards=[dict(s.result) for s in states if s.result is not None],
            rounds=rounds)
        return self.result

    def _global_series(self, shard: int, state: _ShardState,
                       record: dict) -> LifetimeSeries:
        """One shard's series rescaled onto the global write clock."""
        local = LifetimeSeries.from_payload(record["series"],
                                            label=f"s{shard}")
        points = [SamplePoint(
            int(round(self._global_at_local(state, p.writes))),
            p.survival, p.usable, p.avg_access) for p in local.points]
        if state.dead and state.death_global is not None:
            last = points[-1] if points else SamplePoint(0, 1.0, 1.0)
            # A dead shard serves nothing: its capacity is gone from the
            # array at the death point onward.
            points.append(SamplePoint(int(round(state.death_global)),
                                      last.survival, 0.0,
                                      last.avg_access))
        return LifetimeSeries(label=f"s{shard}", points=points)

    def _merged_snapshot(self, states: List[_ShardState],
                         dead_order: List[int], rounds: int,
                         total_writes: int,
                         ) -> Dict[str, Dict[str, object]]:
        merged: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for state in states:
            assert state.result is not None
            snapshot = state.result.get("snapshot")
            if snapshot:
                merged = merge_snapshots(merged, snapshot)
        extra: Dict[str, Dict[str, object]] = {
            "counters": {"array.rounds": rounds,
                         "array.shard-deaths": len(dead_order),
                         "array.writes": total_writes},
            "gauges": {"array.shards-live":
                       sum(1 for s in states if not s.dead)}}
        if self.balanced:
            extra["counters"]["balance.migration-writes"] = \
                self._migration_writes
            extra["counters"]["balance.remap-swaps"] = self._remap_swaps
            extra["counters"]["balance.shards-added"] = self._shards_added
        merged = merge_snapshots(merged, extra)
        if self.balanced:
            session = TelemetrySession()
            self.health.publish(session)
            merged = merge_snapshots(merged,
                                     session.registry.snapshot())
        return merged

    def _array_report(self, states: List[_ShardState],
                      census: List[ShardCensus], dead_order: List[int],
                      stop: Optional[StopReason], rounds: int,
                      total_writes: int) -> ArrayEndOfLifeReport:
        cfg = self.config
        shards = len(states)

        def summed(name: str) -> int:
            return sum(int(self._num(c.report.get(name, 0)))
                       for c in census)

        failed = sum(float(self._num(c.report.get("failed_fraction", 0.0)))
                     for c in census) / shards
        usable = sum(
            0.0 if states[c.shard].dead
            else float(self._num(c.report.get("usable_fraction", 0.0)))
            for c in census) / shards
        return ArrayEndOfLifeReport(
            stop=stop, total_writes=total_writes,
            failed_fraction=failed, usable_fraction=usable,
            os_interruptions=summed("os_interruptions"),
            victimized_writes=summed("victimized_writes"),
            pages_acquired=summed("pages_acquired"),
            spares_available=summed("spares_available"),
            linked_blocks=summed("linked_blocks"),
            pa_da_loops=summed("pa_da_loops"),
            crashes_recovered=summed("crashes_recovered"),
            policy=cfg.policy, interleave=cfg.interleave,
            num_shards=shards, rounds=rounds,
            dead_shards=tuple(dead_order), shards=tuple(census))

    @staticmethod
    def _num(value: object) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(
                f"expected a number in a shard report, got {value!r}")
        return value
