"""The deterministic online serving engine.

:class:`ServiceEngine` runs a closed-loop service on a *virtual clock*:
a single heap of ``(tick, seq)``-ordered events drives N simulated
clients, routing through the
:class:`~repro.balance.remap.BalancedDecoder` address map, per-shard
bounded queues with batching windows, admission control, deadline
budgets with bounded exponential-backoff retries, circuit breakers with
wear-fed brownout steering, and live degraded-mode failover when a
fault schedule kills a shard mid-traffic.

No wall clock, no module-level randomness: every tick is an integer,
every draw flows through :func:`repro.rng.derive_rng`, and the event
heap is totally ordered by ``(tick, monotone sequence)`` — so a run is
a pure function of ``(config, schedule)``, byte-identical at any
``--jobs`` (parallelism only fans out the post-run accounting cells).

The zero-drop discipline: a request finishes in exactly one of the
:data:`~repro.serve.requests.OUTCOMES`; every queue, overflow lane, and
in-service batch is drained at shard death and each displaced request is
re-homed (``degraded``) or failed (``fail-stop``).  The engine asserts
the accounting identity ``issued == sum(outcomes)`` before returning —
a violated identity is a framework bug and raises
:class:`~repro.errors.ProtocolError`.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, DefaultDict, Dict, List, Optional, Tuple

import numpy as np

from ..array.decoder import InterleavedDecoder
from ..balance import (BalancedDecoder, LevelerPolicy, ShardHealthModel,
                       plan_swaps)
from ..errors import ConfigurationError, ProtocolError
from ..faultinject import FaultSchedule
from ..rng import derive_rng
from ..telemetry import TelemetrySession
from ..traces import RequestStream
from ..workloads import (TraceReplay, uniform_request_stream,
                         zipf_request_stream)
from .account import assemble_snapshots
from .config import ServeConfig
from .report import build_report
from .requests import OUTCOMES, Request
from .station import ServeFaultDriver, ShardStation

# Event kinds, in tie-break-free heap entries (tick, seq, kind, payload).
_ISSUE = 0      # payload: client id
_ADMIT = 1      # payload: Request (fresh routing at fire time)
_DISPATCH = 2   # payload: (sid, generation) — batch window closed
_COMPLETE = 3   # payload: (sid, generation) — batch finished service

#: Counter name of each terminal outcome.
_OUTCOME_COUNTERS = {outcome: f"serve.{outcome}" for outcome in OUTCOMES}

#: Exponential think times drawn per refill of a client's buffer.
_THINK_CHUNK = 16


@dataclass(frozen=True)
class ServiceResult:
    """Everything one serving run produced, JSON-canonical."""

    config: Dict[str, Any]
    #: Merged deterministic telemetry snapshot (front end + every shard).
    snapshot: Dict[str, Dict[str, Any]]
    #: The SLO report derived from the snapshot (latency quantiles,
    #: throughput, shed/retry/failover accounting).
    report: Dict[str, Any]
    #: Final virtual tick (the run's makespan).
    duration: int
    outcomes: Dict[str, int]

    def as_dict(self) -> Dict[str, Any]:
        return {"config": self.config, "snapshot": self.snapshot,
                "report": self.report, "duration": self.duration,
                "outcomes": self.outcomes}

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical runs."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))


class ServiceEngine:
    """Virtual-clock closed-loop service over an interleaved shard array."""

    def __init__(self, config: ServeConfig,
                 schedule: Optional[FaultSchedule] = None) -> None:
        self.config = config
        base = InterleavedDecoder(config.num_shards, config.shard_blocks,
                                  interleave=config.interleave,
                                  page_blocks=config.page_blocks)
        #: True when the repro.balance control plane is live: steering,
        #: elastic growth, or both.
        self.balanced = config.balance or config.add_shard_at is not None
        #: The address map: the identity over *base* until a degraded
        #: death, a steering swap or a shard addition mutates it.
        self.decoder = BalancedDecoder(base)
        self.health: Optional[ShardHealthModel] = None
        self._policy: Optional[LevelerPolicy] = None
        if self.balanced:
            self.health = ShardHealthModel(config.num_shards,
                                           config.endurance_budget,
                                           seed=config.seed)
            self._policy = LevelerPolicy(budget=config.remap_budget)
        #: Empirical per-address write demand, sampled at issue time —
        #: the distribution the leveler steers against.
        self._demand = np.zeros(config.global_blocks, dtype=np.float64)
        self._shard_added = False
        self._writes_seen = 0
        self.stations = [ShardStation(sid, config)
                         for sid in range(config.num_shards)]
        self.faults = ServeFaultDriver(schedule, config)
        self.session = TelemetrySession()
        #: Hot-path counters, tallied here and flushed into the session
        #: once the loop ends; a counter never bumped is never created.
        self._counts: DefaultDict[str, int] = defaultdict(int)
        #: Live shard ids, rebuilt only when a shard dies or joins.
        self._live_sids = list(range(config.num_shards))
        self.now = 0
        self.issued = 0
        self.finished = 0
        self.outcomes: Dict[str, int] = {o: 0 for o in OUTCOMES}
        self._events: List[Tuple[int, int, int, Any]] = []
        self._seq = 0
        #: Every issued request as ``(address, is_write)``, in issue
        #: order — the serving side of the per-shard trace-equivalence
        #: pin (not part of :class:`ServiceResult`).
        self.issue_log: List[Tuple[int, int]] = []
        if config.workload == "trace":
            replay = self._trace_replay()
            self._streams: List[Any] = [replay] * config.clients
        else:
            first = self._client_stream(0)
            self._streams = [first] + [
                first.sibling(f"serve-client-{c}")
                for c in range(1, config.clients)]
        self._think_rngs = [derive_rng(config.seed, f"serve-think-{c}")
                            for c in range(config.clients)]
        #: Each client's pending think times, next draw last.
        self._think_buffers: List[List[float]] = [
            [] for _ in range(config.clients)]

    # --------------------------------------------------------------- set-up

    def _client_stream(self, client: int) -> RequestStream:
        """Per-client stream, built from the shared workload vocabulary.

        Both builders live in :mod:`repro.workloads`; the distribution
        identity is ``("serve", config.seed)`` and each client draws its
        own ``serve-client-<c>`` stream from it.  The engine builds the
        law once, for client 0, and gives every other client a
        :meth:`~repro.traces.RequestStream.sibling` over it.
        """
        config = self.config
        if config.workload == "zipf":
            return zipf_request_stream(
                config.global_blocks, exponent=config.zipf_exponent,
                write_ratio=config.write_ratio, name="serve",
                seed=config.seed, stream_name=f"serve-client-{client}")
        return uniform_request_stream(
            config.global_blocks, write_ratio=config.write_ratio,
            name="serve", seed=config.seed,
            stream_name=f"serve-client-{client}")

    def _trace_replay(self) -> TraceReplay:
        """One shared file cursor for every client: requests are issued
        in file order no matter which client's think timer fires, so the
        per-shard routing sequence equals the file's decode order."""
        assert self.config.trace_path is not None  # validated by config
        replay = TraceReplay.load(self.config.trace_path)
        if replay.virtual_blocks != self.config.global_blocks:
            raise ConfigurationError(
                f"trace covers {replay.virtual_blocks} blocks, the array "
                f"decodes {self.config.global_blocks}")
        return replay

    def _push(self, tick: int, kind: int, payload: Any) -> None:
        heapq.heappush(self._events, (tick, self._seq, kind, payload))
        self._seq += 1

    def _think(self, client: int) -> int:
        if self.config.arrival == "uniform":
            return self.config.think_ticks
        buffer = self._think_buffers[client]
        if not buffer:
            # exponential(scale, size=k) draws the same values as k
            # scalar calls, so buffering changes no think time.
            draws = self._think_rngs[client].exponential(
                self.config.think_ticks, size=_THINK_CHUNK)
            buffer.extend(draws[::-1].tolist())
        return int(buffer.pop())

    # ------------------------------------------------------------------ run

    def run(self, jobs: int = 1) -> ServiceResult:
        """Drive the service to quiescence and assemble the result."""
        for client in range(self.config.clients):
            self._push(0, _ISSUE, client)
        while self._events:
            tick, _seq, kind, payload = heapq.heappop(self._events)
            self.now = tick
            if kind == _ISSUE:
                self._issue(payload)
            elif kind == _ADMIT:
                self._route(payload)
            elif kind == _DISPATCH:
                self._window_closed(*payload)
            else:
                self._complete(*payload)
        self._check_identity()
        for name, amount in self._counts.items():
            self.session.count(name, amount)
        self._final_gauges()
        merged = assemble_snapshots(self.stations, self.session,
                                    self.config, jobs=jobs)
        report = build_report(merged, self.config)
        return ServiceResult(config=self.config.as_dict(), snapshot=merged,
                             report=report, duration=self.now,
                             outcomes=dict(self.outcomes))

    def _check_identity(self) -> None:
        accounted = sum(self.outcomes.values())
        if not (self.issued == self.finished == accounted
                == self.config.total_requests):
            raise ProtocolError(
                f"request accounting broken: issued {self.issued}, "
                f"finished {self.finished}, accounted {accounted}, "
                f"target {self.config.total_requests}")

    def _final_gauges(self) -> None:
        session = self.session
        session.set_gauge("serve.duration", self.now)
        session.set_gauge("serve.clients", self.config.clients)
        session.set_gauge("serve.shards", len(self.stations))
        session.set_gauge("serve.live_shards", len(self._live_sids))
        if self.health is not None:
            self.health.publish(session)
        session.count("serve.deaths",
                      sum(1 for s in self.stations if not s.alive))
        session.count("serve.breaker_opened",
                      sum(s.breaker.opened for s in self.stations))
        session.count("serve.breaker_closed",
                      sum(s.breaker.closed_after_probe
                          for s in self.stations))

    # ------------------------------------------------------------- clients

    def _issue(self, client: int) -> None:
        if self.issued >= self.config.total_requests:
            return  # quota reached while this client was thinking
        if (self.config.add_shard_at is not None and not self._shard_added
                and self.issued >= self.config.add_shard_at):
            self._add_shard()
        address, is_write = self._streams[client].next_request()
        if self.balanced and is_write:
            self._demand[address] += 1.0
        self.issue_log.append((address, int(is_write)))
        request = Request(rid=self.issued, client=client, address=address,
                          is_write=is_write, issued_at=self.now,
                          deadline=self.now + self.config.deadline_ticks)
        self.issued += 1
        self._counts["serve.issued"] += 1
        self._counts["serve.issued_write" if is_write
                     else "serve.issued_read"] += 1
        self._route(request)

    def _finish(self, request: Request, outcome: str) -> None:
        self.outcomes[outcome] += 1
        self.finished += 1
        self._counts[_OUTCOME_COUNTERS[outcome]] += 1
        if self.issued < self.config.total_requests:
            self._push(self.now + self._think(request.client), _ISSUE,
                       request.client)

    # ------------------------------------------------------------- routing

    def _refresh_live(self) -> None:
        self._live_sids = [s.sid for s in self.stations if s.alive]

    def _route(self, request: Request) -> None:
        live = self._live_sids
        if not live:
            self._finish(request, "failed")
            return
        sid = int(self.decoder.shard_of(request.address))
        if not self.stations[sid].alive:
            # Only fail-stop leaves a dead shard in the map: a degraded
            # death re-homes the shard's addresses in ``_kill``.
            self._finish(request, "failed")
            return
        if request.is_write:
            sid = self._steer(sid, live)
        self._admit(self.stations[sid], request)

    def _steer(self, sid: int, live: List[int]) -> int:
        """Wear-fed brownout: steer writes off a worn-out shard."""
        config = self.config
        if self.stations[sid].wear_fraction() < config.brownout_wear:
            return sid
        fresh = [s for s in live
                 if self.stations[s].wear_fraction() < config.brownout_wear]
        if not fresh:
            return sid  # everything is browned out; wear evenly
        target = min(fresh,
                     key=lambda s: (self.stations[s].writes_served, s))
        if target != sid:
            self._counts["serve.steered"] += 1
        return target

    # ----------------------------------------------------------- admission

    def _admit(self, station: ShardStation, request: Request) -> None:
        if self.now >= request.deadline:
            self._finish(request, "deadline")
            return
        if len(station.queue) >= self.config.queue_depth:
            if self.config.admission == "shed":
                self._counts["serve.shed_full_queue"] += 1
                self._finish(request, "shed")
            else:
                station.waiting.append(request)
                self._counts["serve.blocked"] += 1
                station.note_depth()
            return
        self._enqueue(station, request)

    def _enqueue(self, station: ShardStation, request: Request) -> None:
        """Place a request into a queue slot (capacity already checked)."""
        decision = station.breaker.admit(self.now)
        if decision == "fast-fail":
            self._counts["serve.breaker_fast_fail"] += 1
            self._retry(station, request, shard_failure=False)
            return
        if decision == "probe":
            request.probe = True
            self._counts["serve.breaker_probes"] += 1
        station.queue.append(request)
        station.note_depth()
        self._maybe_dispatch(station)

    def _promote(self, station: ShardStation) -> None:
        """Pull overflow-parked requests into freed queue slots."""
        while station.waiting \
                and len(station.queue) < self.config.queue_depth:
            request = station.waiting.popleft()
            if self.now >= request.deadline:
                self._finish(request, "deadline")
                continue
            self._enqueue(station, request)

    # ------------------------------------------------------------ batching

    def _maybe_dispatch(self, station: ShardStation) -> None:
        if station.busy or not station.queue or not station.alive:
            return
        if len(station.queue) >= self.config.batch_max:
            self._dispatch(station)
            return
        if not station.window_armed:
            station.window_armed = True
            self._push(self.now + self.config.batch_window, _DISPATCH,
                       (station.sid, station.generation))

    def _window_closed(self, sid: int, generation: int) -> None:
        station = self.stations[sid]
        if station.generation != generation or not station.alive:
            return  # stale: the batch filled early or the shard died
        station.window_armed = False
        if station.busy or not station.queue:
            return
        self._dispatch(station)

    def _dispatch(self, station: ShardStation) -> None:
        batch: List[Request] = []
        while station.queue and len(batch) < self.config.batch_max:
            batch.append(station.queue.popleft())
        station.in_service = batch
        station.busy = True
        station.window_armed = False
        station.generation += 1
        station.batch_sizes.append(len(batch))
        duration = self.config.service_base + sum(
            self.config.write_ticks if r.is_write
            else self.config.read_ticks for r in batch)
        self._push(self.now + max(1, duration), _COMPLETE,
                   (station.sid, station.generation))
        self._promote(station)

    # ------------------------------------------------------------- service

    def _complete(self, sid: int, generation: int) -> None:
        station = self.stations[sid]
        if station.generation != generation or not station.alive:
            return  # stale: the shard died and drained mid-service
        batch = list(station.in_service)
        station.in_service.clear()
        station.busy = False
        for index, request in enumerate(batch):
            if not station.alive:
                # Death fired mid-batch: the rest of the batch joins the
                # displaced set the drain already re-homed.
                self._displace(batch[index:])
                break
            self._serve_one(station, request)
        if station.alive:
            self._maybe_dispatch(station)

    def _serve_one(self, station: ShardStation, request: Request) -> None:
        if station.stall_remaining > 0:
            station.stall_remaining -= 1
            station.stalls += 1
            self._counts["serve.stalled"] += 1
            self._retry(station, request, shard_failure=True)
            return
        latency = self.now - request.issued_at
        if request.is_write:
            station.writes_served += 1
            station.write_latencies.append(latency)
        else:
            station.read_latencies.append(latency)
        station.served += 1
        station.breaker.record_success(request.probe)
        request.probe = False
        if self.now > request.deadline:
            self._counts["serve.deadline_miss"] += 1
        self._finish(request, "ok")
        if request.is_write and self.faults.poll(station):
            self._kill(station)
        if self.balanced and request.is_write:
            self._writes_seen += 1
            if (self.config.balance
                    and self._writes_seen % self.config.rebalance_every
                    == 0):
                self._rebalance()

    # ------------------------------------------------------- retry/backoff

    def _retry(self, station: ShardStation, request: Request,
               shard_failure: bool) -> None:
        """Bounded exponential-backoff retry (READ_RETRY_LIMIT semantics)."""
        if shard_failure:
            station.breaker.record_failure(self.now, request.probe)
        request.probe = False
        request.attempts += 1
        if request.attempts >= self.config.retry_limit:
            self._counts["serve.retries_exhausted"] += 1
            self._finish(request, "error")
            return
        backoff = self.config.backoff_base * 2 ** (request.attempts - 1)
        retry_at = self.now + backoff
        if retry_at >= request.deadline:
            self._finish(request, "deadline")
            return
        self._counts["serve.retries"] += 1
        self._push(retry_at, _ADMIT, request)

    # ------------------------------------------------------------ failover

    def _kill(self, station: ShardStation) -> None:
        station.alive = False
        station.died_at = self.now
        self._refresh_live()
        if self.health is not None:
            self.health.observe(station.sid, station.writes_served, 0.0,
                                dead=True)
        live = self._live_sids
        if self.config.policy == "degraded" and live:
            # The array's degraded re-home rule, applied to the map once:
            # routing, and later steering rounds, see the survivors'
            # true ownership.
            self.decoder.rehome(station.sid, live)
        self._displace(station.drain())

    def _displace(self, requests: List[Request]) -> None:
        """Re-home (degraded) or fail (fail-stop) displaced requests."""
        for request in requests:
            request.probe = False
            self._counts["serve.failover"] += 1
            if self.config.policy == "fail-stop":
                self._finish(request, "failed")
            else:
                self._push(self.now, _ADMIT, request)

    # ---------------------------------------------- elastic balancing

    def _add_shard(self) -> None:
        """Grow the array by one shard, live, at an issue boundary.

        Consistent-hashing migration: ~1/(N+1) of the address space
        re-homes onto the fresh shard; everything else keeps its exact
        home, so in-flight requests are unaffected (routing is fixed at
        admit time) and the zero-drop identity is preserved.
        """
        self._shard_added = True
        movers, _donors = self.decoder.add_shard()
        sid = len(self.stations)
        self.stations.append(ShardStation(sid, self.config))
        self._refresh_live()
        self.faults.grow()
        assert self.health is not None  # balanced whenever add_shard_at set
        self.health.add_shard()
        self._counts["serve.migrated"] += int(movers.size)
        self._counts["serve.shards_added"] += 1

    def _rebalance(self) -> None:
        """One steering checkpoint: wear telemetry -> bounded swaps."""
        assert self.health is not None and self._policy is not None
        for station in self.stations:
            if station.alive:
                self.health.observe(station.sid, station.writes_served, 0.0)
        live = self._live_sids
        if len(live) < 2:
            return
        swaps = plan_swaps(self.decoder, self._demand,
                           self.health.risks(), live, self._policy)
        if swaps:
            self._counts["serve.remap_swaps"] += len(swaps)


__all__ = ["ServiceEngine", "ServiceResult"]
