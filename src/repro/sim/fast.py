"""The vectorized epoch engine for lifetime-scale simulation.

The paper's figures require simulating the chip to end of life — tens of
millions of writes even at scaled endurance — which a per-write Python loop
cannot sustain.  :class:`FastEngine` preserves the wear *outcome* of the
exact machinery while batching:

* software writes are applied per epoch as a multinomial count vector,
  translated virtual->PA->DA with vectorized maps, and redirected through a
  per-epoch redirect table;
* the wear-leveler's migration schedule advances in bulk
  (:meth:`~repro.wl.base.WearLeveler.bulk_migrations`), adding one write of
  wear per migration to each destination (chains applied);
* failures are resolved at epoch end; the recovery bookkeeping (WL-Reviver
  spare pool and page ledger, FREE-p slots, baseline freezing + page
  retirement) is exact per failure event.

Documented approximations relative to :class:`~repro.sim.engine.ExactEngine`
(an agreement test bounds them on small configs):

* a block failing mid-epoch absorbs the rest of its epoch traffic before
  redirection kicks in;
* WL-Reviver chain *structure* is not maintained — the redirect table
  follows link chains functionally, which yields the same final wear
  destination as the paper's one-step switching;
* inverse-pointer metadata wear is ignored (a handful of writes per page
  acquisition versus millions of data writes);
* the victim page for a delayed acquisition is sampled from the epoch's
  write distribution instead of being literally the next write;
* when several software streams share one final block (a healthy block
  that is simultaneously an identity target and a redirect target) and
  that block dies mid-epoch, the clawed-back overshoot is re-issued to
  *every* contributing stream in proportion to its round traffic rather
  than serialized write-by-write.

The failure hot path (overshoot clawback, redirect-table rebuild, baseline
page retirement) is vectorized with numpy; the redirect rebuild follows
link chains by iterative pointer-jumping instead of per-key dict walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from ..config import ReviverConfig
from ..errors import CapacityExhaustedError, ProtocolError
from ..ecc.freep import FreePRegion
from ..osmodel.allocator import PagePool
from ..osmodel.faults import FaultReporter
from ..pcm.chip import PCMChip
from ..reviver.invariants import InvariantChecker
from ..reviver.pages import PageLedger
from ..reviver.registers import SparePool
from ..rng import SeedLike, derive_rng
from ..traces.base import WriteTrace
from ..wl.base import WearLeveler
from .metrics import LifetimeSeries, LifetimeSummary
from .stop import EndOfLifeReport, StopCause, StopReason

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..faultinject.hooks import ScheduleDriver
    from ..telemetry.session import TelemetrySession

#: Recovery modes the engine understands.
RECOVERY_MODES = ("reviver", "none", "freep")


@dataclass
class FastConfig:
    """Engine parameters."""

    recovery: str = "reviver"
    #: FREE-p pre-reserve as a fraction of the chip (recovery == "freep").
    freep_reserve: float = 0.05
    #: Stop when this fraction of device blocks has failed.
    dead_fraction: float = 0.3
    #: Software writes per epoch.
    batch_writes: int = 20_000
    #: Hard cap on software writes (None = until death).
    max_writes: Optional[int] = None
    #: Also stop once usable capacity falls to ``1 - dead_fraction``.
    #: Table II disables this to reach exact failed-block ratios.
    stop_on_capacity: bool = True
    #: OS page size in blocks.
    blocks_per_page: int = 64
    reviver: ReviverConfig = field(default_factory=ReviverConfig)
    seed: SeedLike = None

    def __post_init__(self) -> None:
        if self.recovery not in RECOVERY_MODES:
            raise ProtocolError(f"unknown recovery mode {self.recovery!r}")
        if self.batch_writes <= 0:
            raise ProtocolError("batch_writes must be positive")


class _FunctionalLinkView:
    """Read adapter giving the engine's plain link dict the LinkTable API.

    The fast engine stores links functionally (failed DA -> VPA, no
    switching); this view exposes the read interface the
    :class:`~repro.reviver.invariants.InvariantChecker` needs, with the
    inverse direction derived on construction.
    """

    def __init__(self, links: Dict[int, int]) -> None:
        self._links = links
        self._rev = {vpa: da for da, vpa in links.items()}

    def vpa_of(self, da: int) -> Optional[int]:
        return self._links.get(da)

    def failed_of(self, vpa: int) -> Optional[int]:
        return self._rev.get(vpa)

    def as_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        das = np.fromiter(self._links.keys(), dtype=np.int64,
                          count=len(self._links))
        vpas = np.fromiter(self._links.values(), dtype=np.int64,
                           count=len(self._links))
        return das, vpas

    def inverse_as_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        vpas = np.fromiter(self._rev.keys(), dtype=np.int64,
                           count=len(self._rev))
        das = np.fromiter(self._rev.values(), dtype=np.int64,
                          count=len(self._rev))
        return vpas, das


class FastEngine:
    """Vectorized lifetime simulator over chip + wear-leveler + recovery."""

    def __init__(self, chip: PCMChip, wl: WearLeveler, trace: WriteTrace,
                 config: Optional[FastConfig] = None, label: str = "",
                 region: Optional[FreePRegion] = None) -> None:
        self.chip = chip
        self.wl = wl
        self.config = config or FastConfig()
        self.ospool = PagePool(wl.logical_blocks,
                               blocks_per_page=self.config.blocks_per_page,
                               seed=self.config.seed)
        self.reporter = FaultReporter(self.ospool)
        self.trace = (trace if trace.virtual_blocks == self.ospool.virtual_blocks
                      else trace.restricted_to(self.ospool.virtual_blocks))
        self.series = LifetimeSeries(label=label or f"{wl.name}-{self.config.recovery}")
        self._rng = derive_rng(self.config.seed, "fast-engine")
        self.total_writes = 0
        #: Structured reason the run ended (None while running).
        self.stop: Optional[StopReason] = None
        #: Fault-injection driver polled once per epoch; ``None`` (the
        #: default) disables injection.  Only :mod:`repro.faultinject`
        #: may set this.
        self.inject: Optional["ScheduleDriver"] = None
        #: Telemetry hook; ``None`` (the default) keeps the epoch hot path
        #: untouched.  Only :mod:`repro.telemetry` may attach a session.
        self.telem: Optional["TelemetrySession"] = None
        # --- recovery state -------------------------------------------------
        self.region = region
        if self.config.recovery == "freep":
            if region is None:
                self.region = FreePRegion(chip.num_blocks,
                                          self.config.freep_reserve)
            if wl.device_blocks != self.region.working_blocks:
                raise ProtocolError(
                    "freep mode: wear-leveler must cover the working space")
        elif wl.device_blocks > chip.num_blocks:
            raise ProtocolError("wear-leveler space exceeds the chip")
        #: WL-Reviver fast bookkeeping.
        self.spares = SparePool()
        self.ledger = PageLedger(self.config.reviver,
                                 self.config.blocks_per_page,
                                 chip.geometry.block_bytes)
        #: failed DA -> virtual shadow PA (functional chains; no switching).
        self.links: Dict[int, int] = {}
        self.hidden_failures = 0
        #: Per-epoch redirect table (identity + chain targets).
        self._redirect = np.arange(chip.num_blocks, dtype=np.int64)
        #: Traffic counts of the current epoch (victim-page sampling).
        self._epoch_counts: Optional[np.ndarray] = None
        #: Redirected (extra-access) traffic accumulator for avg access time.
        self._redirected_traffic = 0
        #: Failures visible to software (baseline always; FREE-p after its
        #: region is exhausted).  Drives the block-granular usable metric.
        self.exposed_failures = 0
        #: Traffic the OS gave up on after repeated relocation churn.
        self.dropped_writes = 0

    @property
    def stopped_reason(self) -> Optional[str]:
        """Legacy string form of :attr:`stop` (None while running)."""
        return self.stop.render() if self.stop is not None else None

    # ------------------------------------------------------------------- run

    def run(self) -> LifetimeSummary:
        """Simulate epochs until a stop condition; return the summary."""
        cfg = self.config
        budget = cfg.max_writes if cfg.max_writes is not None else float("inf")
        self._sample()
        while True:
            if self.inject is not None:
                self.inject.poll(self.total_writes)
            if self.chip.failed_fraction() >= cfg.dead_fraction:
                self.stop = StopReason(StopCause.DEAD_FRACTION)
                break
            if (cfg.stop_on_capacity
                    and self._usable_fraction() <= 1.0 - cfg.dead_fraction):
                # The chip is just as unavailable when the lost capacity
                # comes from retired pages as from dead blocks.
                self.stop = StopReason(StopCause.CAPACITY_LOST)
                break
            if self.total_writes >= budget:
                self.stop = StopReason(StopCause.MAX_WRITES)
                break
            try:
                self._epoch(int(min(cfg.batch_writes,
                                    budget - self.total_writes)))
            except CapacityExhaustedError as exc:
                self.stop = StopReason(StopCause.EXHAUSTED, str(exc))
                # The partial epoch changed state since the last sample.
                self._sample()
                break
            self._sample()
        return LifetimeSummary.from_series(
            self.series, os_reports=self.reporter.report_count)

    # ----------------------------------------------------------------- epoch

    def _epoch(self, batch: int) -> None:
        if self.telem is None:
            # The disabled-telemetry hot path: identical to the historical
            # epoch loop, zero per-epoch overhead beyond this one test.
            counts = self.trace.batch_counts(batch)
            self._epoch_counts = counts
            self._rebuild_redirect()
            self._apply_software(counts)
            self.total_writes += batch
            self._rebuild_redirect()
            self._advance_wear_leveling()
            return
        telem = self.telem
        counts = self.trace.batch_counts(batch)
        self._epoch_counts = counts
        with telem.phase("redirect-rebuild"):
            self._rebuild_redirect()
        with telem.phase("software-apply"):
            self._apply_software(counts)
        self.total_writes += batch
        with telem.phase("redirect-rebuild"):
            self._rebuild_redirect()
        with telem.phase("wear-leveling"):
            self._advance_wear_leveling()
        telem.count("fast.epochs")
        telem.count("fast.writes", batch)

    def _apply_software(self, counts: np.ndarray) -> None:
        """Apply the epoch's software writes with overshoot re-issue.

        A block that dies mid-epoch must not silently absorb the rest of
        its epoch traffic — that would let one shadow block soak up writes
        that in reality would have killed a chain of successors (the
        serial-killing dynamics of hot blocks after wear leveling stops).
        Traffic beyond a dying block's threshold is therefore *re-issued*
        through the updated redirect/translation in further rounds of the
        same epoch until it all lands on live blocks.
        """
        virtual = np.nonzero(counts)[0]
        remaining = counts[virtual].astype(np.int64)
        first_round = True
        limit = self.chip.num_blocks + self.ospool.num_pages + 4
        for _ in range(limit):
            if virtual.size == 0:
                return
            prepared = self._prepare_round(virtual, remaining, first_round)
            if prepared is None:
                return
            virtual, remaining, pas, das, finals = prepared
            first_round = False
            exposed = self.chip.failed[finals]
            live_idx = ~exposed
            newly = self.chip.write_many(finals[live_idx],
                                         remaining[live_idx])
            self._redirected_traffic += int(remaining[live_idx][
                finals[live_idx] != das[live_idx]].sum())
            virtual, remaining = self._settle_round(
                virtual, remaining, pas, das, finals, exposed, newly)
            if virtual.size == 0:
                return
            self._rebuild_redirect()
        # Leftover traffic has nowhere live to go (late-life thrashing);
        # account it rather than looping forever.
        self.dropped_writes += int(remaining.sum())

    def _prepare_round(self, virtual: np.ndarray, remaining: np.ndarray,
                       first_round: bool) -> Optional[tuple]:
        """Translate one round's surviving traffic through OS + WL maps.

        Returns ``(virtual, remaining, pas, das, finals)`` for the round,
        or ``None`` when every stream folded out of the software space.
        Charges per-region schedules on the epoch's first round.
        """
        # The software pool can shrink mid-epoch (LLS chunk reservation);
        # traffic to folded-away virtual blocks is lost in the
        # reorganization.
        in_range = virtual < self.ospool.virtual_blocks
        if not in_range.all():
            self.dropped_writes += int(remaining[~in_range].sum())
            virtual = virtual[in_range]
            remaining = remaining[in_range]
            if virtual.size == 0:
                return None
        pas = self.ospool.translate_many(virtual)
        if first_round:
            charge = getattr(self.wl, "charge_writes", None)
            if charge is not None:
                # Per-region schedules (RegionedStartGap) are charged
                # from the epoch's first-round traffic histogram.
                charge(pas, remaining)
        das = self.wl.map_many(pas)
        finals = self._redirect[das]
        return virtual, remaining, pas, das, finals

    def _settle_round(self, virtual: np.ndarray, remaining: np.ndarray,
                      pas: np.ndarray, das: np.ndarray, finals: np.ndarray,
                      exposed: np.ndarray, newly: np.ndarray) -> tuple:
        """Process one round's failures; return the retry streams.

        Traffic past a dying block's threshold re-routes next round.
        Returns the filtered ``(virtual, remaining)`` pair (both empty when
        nothing needs re-issue).
        """
        over_blocks, over_counts = self._collect_overshoot(newly)
        self._process_failures(newly)
        retry = np.zeros(len(virtual), dtype=bool)
        for block, over in zip(over_blocks.tolist(),
                               over_counts.tolist()):
            # A healthy block can be several streams' final target at
            # once (its own identity plus redirect chains ending on
            # it); every such stream contributed wear, so the clawed-
            # back overshoot is split among them in proportion to what
            # each sent this round.
            idxs = np.nonzero(finals == block)[0]
            sent = remaining[idxs]
            total = int(sent.sum())
            share = sent * over // total
            deficit = over - int(share.sum())
            if deficit:
                order = np.argsort(-sent, kind="stable")
                share[order[:deficit]] += 1
            remaining[idxs] = share
            retry[idxs] = share > 0
        if exposed.any():
            if self.config.recovery == "reviver":
                # Theorem 1: software traffic never reaches a dead
                # block under WL-Reviver.
                raise ProtocolError(
                    f"software traffic reached dead blocks "
                    f"{finals[exposed][:5].tolist()} under the reviver")
            # Known-dead blocks with no redirection (baseline or
            # exhausted FREE-p): the OS retires those pages; the
            # affected virtual pages retry at their new frames.  Dead
            # blocks behind non-retirable PAs (the partial tail page)
            # just eat the writes.
            for i in np.nonzero(exposed)[0]:
                pa = int(pas[i])
                if not self.ospool.pa_in_software_space(pa):
                    continue
                if self.ospool.is_usable(self.ospool.page_of_pa(pa)):
                    self.reporter.report(pa, self.total_writes)
                retry[i] = True
        return virtual[retry], remaining[retry]

    def _collect_overshoot(self, newly: np.ndarray) -> tuple:
        """Wear past the threshold of each newly dead block, clawed back.

        Returns ``(blocks, overshoots)`` int64 arrays and resets each dead
        block's counter to its threshold so the excess is not
        double-counted.  Fully vectorized (clip + subtract over the
        ``newly`` array) — this runs once per re-issue round in the
        late-life regime where most blocks are dying.
        """
        if newly.size == 0:
            return newly, newly
        thresholds = self.chip.ecc.thresholds[newly]
        over = self.chip.wear[newly] - thresholds
        hot = over > 0
        blocks = newly[hot]
        self.chip.wear[blocks] = thresholds[hot]
        return blocks, over[hot]

    def _advance_wear_leveling(self) -> None:
        if self.wl.frozen:
            return
        due = self.wl.schedule_due(self.total_writes)
        if due <= 0:
            return
        rows = self.wl.bulk_migrations(due)
        if rows.size == 0:
            return
        dsts = self._redirect[rows[:, 1]]
        live = ~self.chip.failed[dsts]
        newly = self.chip.write_many(dsts[live],
                                     np.ones(int(live.sum()), dtype=np.int64))
        self._process_failures(newly, migration=True)

    # -------------------------------------------------------------- failures

    def _process_failures(self, newly: np.ndarray,
                          migration: bool = False) -> None:
        if newly.size == 0:
            return
        mode = self.config.recovery
        if mode == "reviver":
            # Each failure may acquire a page or consume a spare, and the
            # choice depends on the bookkeeping left by the previous one:
            # inherently sequential.
            for da in newly.tolist():
                self._reviver_failure(int(da))
        elif mode == "freep":
            for da in newly.tolist():
                self._freep_failure(int(da))
        else:
            self._baseline_failures(newly)

    def _baseline_failures(self, newly: np.ndarray) -> None:
        """Batched no-recovery failure handling, grouped per OS page.

        All failures of the batch freeze the scheme once and are counted
        at once; page retirement is issued once per distinct affected page
        (retiring a page already covers every failure inside it).
        """
        if not self.wl.frozen:
            self.wl.freeze()
        self.exposed_failures += int(newly.size)
        retired_pages = set()
        for da in newly.tolist():
            pa = self.wl.inverse(int(da))
            if pa is None or not self.ospool.pa_in_software_space(pa):
                continue  # unmapped (gap line) or tail slack
            page = self.ospool.page_of_pa(pa)
            if page in retired_pages:
                continue
            if self.ospool.is_usable(page):
                retired_pages.add(page)
                self.reporter.report(pa, self.total_writes)

    def _baseline_failure(self, da: int) -> None:
        """No recovery: the scheme freezes and the OS loses a page.

        The failing access surfaces to the OS, which retires the whole
        page containing the accessed PA (the OS-page-granularity premise
        of Section III-A) and rehomes the application's virtual page — so
        the hot data keeps killing blocks wherever it lands (the paper's
        post-freeze serial-killing dynamics) while each exposed failure
        costs a full page of capacity, the 64x amplification behind the
        precipitous usable-space collapse of Figures 7 and 8.
        """
        if not self.wl.frozen:
            self.wl.freeze()
        self.exposed_failures += 1
        pa = self.wl.inverse(da)
        if pa is None or not self.ospool.pa_in_software_space(pa):
            return  # unmapped (gap line) or tail slack: nothing to retire
        page = self.ospool.page_of_pa(pa)
        if self.ospool.is_usable(page):
            self.reporter.report(pa, self.total_writes)

    def _freep_failure(self, da: int) -> None:
        if self.region is not None and not self.region.exhausted:
            self.region.link(da)
            return
        self._baseline_failure(da)

    def _reserved_fraction(self) -> float:
        """Chip fraction pre-reserved or claimed by the recovery layer."""
        if self.config.recovery == "freep" and self.region is not None:
            return self.region.reserved_blocks / self.chip.num_blocks
        if self.config.recovery == "reviver":
            return self.ledger.blocks_claimed / self.chip.num_blocks
        return 0.0

    def _reviver_failure(self, da: int) -> None:
        if self.spares.available == 0:
            self._acquire_page(da)
        else:
            self.hidden_failures += 1
        mapped_by = self.wl.inverse(da)
        if mapped_by is not None and mapped_by in self.spares:
            # The PA owning the block's data is an unlinked spare: retire
            # the pair as a PA-DA loop without consuming a healthy shadow.
            vpa = self.spares.take_specific(mapped_by)
        else:
            vpa = self.spares.take()
        self.links[da] = vpa
        if self.telem is not None:
            self.telem.emit("link-install", da=da, vpa=vpa)

    def _acquire_page(self, failed_da: int) -> None:
        """Retire a page and claim its PAs as reviver property."""
        victim_pa = self._victim_pa(failed_da)
        pas = self.reporter.report(victim_pa, self.total_writes)
        event = self.reporter.last_event()
        assert event is not None
        page = self.ledger.claim(event.page_id, pas)
        self.spares.add(page.shadow_pas)

    def _victim_pa(self, failed_da: int) -> int:
        """Pick the PA whose page the OS retires for this acquisition.

        Software-exposed failures retire the page of the PA that maps to the
        failed block; otherwise (migration-detected, or that PA already
        reserved) the next software write is victimized — approximated by a
        traffic-weighted sample from the current epoch.
        """
        mapped_by = self.wl.inverse(failed_da)
        if mapped_by is not None and self.ospool.pa_in_software_space(mapped_by):
            if self.ospool.is_usable(self.ospool.page_of_pa(mapped_by)):
                return mapped_by
        counts = self._epoch_counts
        if counts is not None and counts.sum() > 0:
            probabilities = counts / counts.sum()
            vblock = int(self._rng.choice(len(counts), p=probabilities))
        else:
            vblock = int(self._rng.integers(0, self.ospool.virtual_blocks))
        return self.ospool.translate(vblock)

    # -------------------------------------------------------------- redirect

    def _rebuild_redirect(self) -> None:
        """Recompute the failed-block redirect table for the current maps.

        Chains are followed by iterative numpy pointer-jumping over the
        link arrays: all cursors advance in lockstep until each rests on a
        non-link block, or has walked ``len(links)`` hops — long enough to
        prove it is trapped in a loop.
        """
        num_blocks = self.chip.num_blocks
        self._redirect = np.arange(num_blocks, dtype=np.int64)
        mode = self.config.recovery
        if mode == "freep" and self.region is not None:
            links = self.region.links
            if links:
                origins = np.fromiter(links.keys(), dtype=np.int64,
                                      count=len(links))
                slots = np.fromiter(links.values(), dtype=np.int64,
                                    count=len(links))
                self._redirect[origins] = slots
            return
        if mode != "reviver" or not self.links:
            return
        failed_das = np.fromiter(self.links.keys(), dtype=np.int64,
                                 count=len(self.links))
        vpas = np.fromiter(self.links.values(), dtype=np.int64,
                           count=len(self.links))
        shadows = self.wl.map_many(vpas)
        next_da = np.arange(num_blocks, dtype=np.int64)
        next_da[failed_das] = shadows
        is_link = np.zeros(num_blocks, dtype=bool)
        is_link[failed_das] = True
        cursor = shadows.copy()
        active = np.nonzero(is_link[cursor])[0]
        for _ in range(len(failed_das)):
            if active.size == 0:
                break
            cursor[active] = next_da[cursor[active]]
            active = active[is_link[cursor[active]]]
        # A cursor resting on a failed block walked a chain that closed a
        # loop or dead-ends on an unrecovered shadow: garbage data, no
        # redirection.  Everything else found its healthy final block.
        final = np.where(self.chip.failed[cursor], failed_das, cursor)
        self._redirect[failed_das] = final

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """Vectorized subset of Theorems 1-3 that this engine maintains.

        The fast engine keeps links *functionally* (the redirect table
        follows chains to their final healthy block) rather than flattening
        them to one step, so the one-step-chain property and the immediate-
        shadow forms of Theorems 1-2 do not apply here.  What must always
        hold — and is checked — is that every chip-failed block is linked
        with both directions in agreement, and that no PA-DA loop block is
        reachable through an allocatable spare (Theorem 3).  Software
        traffic reaching a dead block is independently enforced per epoch
        in :meth:`_apply_software`.
        """
        view = _FunctionalLinkView(self.links)
        checker = InvariantChecker(
            view, self.spares,
            map_fn=self.wl.map,
            is_failed=self.chip.is_failed,
            software_pas=lambda: [],
            failed_blocks=lambda: self.chip.failed.nonzero()[0].tolist(),
            map_many_fn=self.wl.map_many,
            failed_mask_fn=lambda: self.chip.failed)
        checker.check_link_consistency()
        checker.check_theorem3()

    # --------------------------------------------------------------- metrics

    def _sample(self) -> None:
        if (self.config.reviver.check_invariants
                and self.config.recovery == "reviver"
                and self.stopped_reason is None):
            self.check_invariants()
        avg = 1.0
        if self.total_writes:
            avg = 1.0 + self._redirected_traffic / self.total_writes
        self.series.record(
            writes=self.total_writes,
            survival=1.0 - self.chip.failed_fraction(),
            usable=self._usable_fraction(),
            avg_access=avg)

    def _usable_fraction(self) -> float:
        """Software-usable chip fraction, per Figure 7's definition.

        Pre-reserved space (FREE-p's region, WL-Reviver's acquired pages)
        and pages retired after exposed failures are excluded; failures
        *hidden* by a recovery layer cost nothing beyond the reservation
        that hides them.  Accounting is page-granular, per the OS premise
        of Section III-A: a page with a reported error is never used again.
        """
        reserved = self._reserved_fraction()
        if self.config.recovery == "reviver":
            # Acquired pages are already excluded from the pool; nothing
            # else is lost (every failure hides behind them).
            return max(0.0, 1.0 - reserved)
        retired = self.ospool.retired_blocks / self.chip.num_blocks
        return max(0.0, 1.0 - reserved - retired)

    def end_of_life_report(self) -> EndOfLifeReport:
        """Structured census of how (and how gracefully) the run ended."""
        stop = self.stop if self.stop is not None else StopReason(
            StopCause.MAX_WRITES, "still running")
        loops = 0
        if self.config.recovery == "reviver" and self.links:
            self._rebuild_redirect()
            for da in self.links:
                if self._redirect[da] == da:
                    loops += 1
        return EndOfLifeReport(
            stop=stop,
            total_writes=self.total_writes,
            failed_fraction=self.chip.failed_fraction(),
            usable_fraction=self._usable_fraction(),
            os_interruptions=self.reporter.report_count,
            victimized_writes=self.reporter.victimized_count,
            pages_acquired=self.ledger.pages_acquired,
            spares_available=self.spares.available,
            linked_blocks=len(self.links),
            pa_da_loops=loops,
            crashes_recovered=0)

    def stats(self) -> dict:
        """Counters for experiment reports."""
        return {
            "total_writes": self.total_writes,
            "failed_fraction": self.chip.failed_fraction(),
            "usable_fraction": self._usable_fraction(),
            "pages_acquired": self.ledger.pages_acquired,
            "spares_available": self.spares.available,
            "linked_blocks": len(self.links),
            "hidden_failures": self.hidden_failures,
            "os_reports": self.reporter.report_count,
            "wl_frozen": self.wl.frozen,
            "stopped": self.stopped_reason,
        }
