"""The online serving layer: admission, breakers, failover, determinism.

The heavyweight properties (byte-identical runs across job counts, the
zero-drop accounting identity under mid-traffic shard death) each run
one small campaign; unit tests cover the circuit breaker's exact cycle
and the degraded re-home rule directly.
"""

import json

import numpy as np
import pytest

from repro.array import InterleavedDecoder
from repro.balance import BalancedDecoder
from repro.errors import ConfigurationError, ProtocolError
from repro.faultinject import (FaultAction, FaultSchedule,
                               shard_death_schedule, shard_stall_schedule)
from repro.serve import (CircuitBreaker, OUTCOMES, Request, ServeConfig,
                         ServiceEngine, build_report)


def small_config(**overrides):
    """A seconds-fast config; overrides land on top."""
    base = dict(num_shards=2, shard_blocks=128, clients=4,
                total_requests=300, think_ticks=2, seed=11)
    base.update(overrides)
    return ServeConfig(**base)


def outcome_counts(result):
    return {name: result.outcomes[name] for name in OUTCOMES}


# --------------------------------------------------------------- breaker


class TestCircuitBreaker:
    def test_full_cycle_closed_open_halfopen_closed(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10)
        assert breaker.admit(0) == "ok"
        for tick in range(3):
            breaker.record_failure(tick, probe=False)
        assert breaker.state == "open"
        assert breaker.opened == 1
        # Open: fast-fail until the cooldown elapses.
        assert breaker.admit(5) == "fast-fail"
        # Half-open: exactly one probe is admitted; others fast-fail.
        assert breaker.admit(12) == "probe"
        assert breaker.state == "half-open"
        assert breaker.admit(12) == "fast-fail"
        breaker.record_success(probe=True)
        assert breaker.state == "closed"
        assert breaker.closed_after_probe == 1
        assert breaker.admit(13) == "ok"

    def test_probe_failure_reopens_a_full_cooldown(self):
        breaker = CircuitBreaker(threshold=2, cooldown=8)
        for tick in range(2):
            breaker.record_failure(tick, probe=False)
        assert breaker.admit(9) == "probe"
        breaker.record_failure(9, probe=True)
        assert breaker.state == "open"
        assert breaker.opened == 2
        assert breaker.admit(12) == "fast-fail"
        assert breaker.admit(17) == "probe"

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, cooldown=4)
        breaker.record_failure(0, probe=False)
        breaker.record_success(probe=False)
        breaker.record_failure(1, probe=False)
        assert breaker.state == "closed"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=0, cooldown=4)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(threshold=1, cooldown=0)


# ----------------------------------------------------------- determinism


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        config = small_config()
        a = ServiceEngine(config).run()
        b = ServiceEngine(config).run()
        assert a.to_json() == b.to_json()

    def test_different_seeds_differ(self):
        a = ServiceEngine(small_config(seed=1)).run()
        b = ServiceEngine(small_config(seed=2)).run()
        assert a.to_json() != b.to_json()

    def test_jobs_do_not_change_bytes_under_mid_traffic_death(self):
        """The PR's pinned regression: merged telemetry and the SLO
        report are byte-identical at --jobs 1 vs --jobs 2 while a shard
        dies mid-traffic under the degraded policy."""
        config = small_config(total_requests=500, clients=6)
        schedule = shard_death_schedule(1, at_write=50,
                                        num_blocks=config.shard_blocks)
        serial = ServiceEngine(config, schedule).run(jobs=1)
        pooled = ServiceEngine(config, schedule).run(jobs=2)
        assert serial.outcomes["ok"] > 0
        assert serial.report["resilience"]["deaths"] == 1
        assert serial.to_json() == pooled.to_json()
        assert json.dumps(serial.snapshot, sort_keys=True) == \
            json.dumps(pooled.snapshot, sort_keys=True)


# ------------------------------------------------- accounting & failover


class TestAccounting:
    def test_zero_drop_identity_under_death(self):
        config = small_config(total_requests=400, clients=6)
        schedule = shard_death_schedule(0, at_write=40,
                                        num_blocks=config.shard_blocks)
        result = ServiceEngine(config, schedule).run()
        counts = outcome_counts(result)
        assert sum(counts.values()) == config.total_requests
        assert result.report["counts"]["issued"] == config.total_requests

    def test_identity_violation_is_a_protocol_error(self):
        engine = ServiceEngine(small_config(total_requests=10))
        engine.issued = 3  # corrupt the books
        with pytest.raises(ProtocolError, match="accounting"):
            engine._check_identity()

    def test_degraded_failover_keeps_serving(self):
        config = small_config(total_requests=500, clients=6)
        schedule = shard_death_schedule(1, at_write=50,
                                        num_blocks=config.shard_blocks)
        result = ServiceEngine(config, schedule).run()
        resilience = result.report["resilience"]
        assert resilience["deaths"] == 1
        assert resilience["failover"] > 0
        assert result.report["shards"]["live"] == 1
        # No hard failures under degraded: displaced requests re-home.
        assert result.outcomes["failed"] == 0
        assert result.outcomes["ok"] > config.total_requests // 2
        # The dead shard's gauge row records the death tick.
        gauges = result.snapshot["gauges"]
        assert gauges["serve.s1.alive"] == 0
        assert gauges["serve.s1.died_at"] >= 0
        assert gauges["serve.s0.alive"] == 1

    def test_fail_stop_fails_dead_shard_traffic(self):
        config = small_config(total_requests=400, clients=6,
                              policy="fail-stop")
        schedule = shard_death_schedule(1, at_write=40,
                                        num_blocks=config.shard_blocks)
        result = ServiceEngine(config, schedule).run()
        assert result.outcomes["failed"] > 0
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_rehome_rule_matches_the_array_engine(self):
        """Dead shard's local address l re-homes to live[l % len(live)],
        keeping its local position — the ArrayEngine redistribution rule."""
        config = ServeConfig(num_shards=3, shard_blocks=64, clients=1,
                             total_requests=1, seed=3)
        engine = ServiceEngine(config)
        engine._kill(engine.stations[1])
        live = [0, 2]
        local = 5
        address = int(engine.decoder.base.encode(1, local))
        request = Request(rid=0, client=0, address=address, is_write=False,
                          issued_at=0, deadline=100)
        engine._route(request)
        expected = live[local % len(live)]
        assert request in engine.stations[expected].queue

    def test_second_death_chains_the_rehome(self):
        """After two degraded deaths every address routes to the home
        the map's chained re-home gives it — the array engine's rule —
        not to one recomputed from its original shard."""
        config = ServeConfig(num_shards=4, shard_blocks=64, clients=1,
                             total_requests=1, seed=3)
        engine = ServiceEngine(config)
        engine._kill(engine.stations[1])
        engine._kill(engine.stations[2])
        base = InterleavedDecoder(4, 64, page_blocks=config.page_blocks)
        reference = BalancedDecoder(base)
        reference.rehome(1, [0, 2, 3])
        reference.rehome(2, [0, 3])
        routed = []
        engine._admit = lambda station, request: routed.append(station.sid)
        for address in range(config.global_blocks):
            engine._route(Request(rid=address, client=0, address=address,
                                  is_write=False, issued_at=0,
                                  deadline=100))
        expected = reference.shard_of(np.arange(config.global_blocks))
        assert routed == expected.tolist()
        # Slot 3 of shard 1 went to shard 0 at the first death and
        # stays there: live[3 % 2] over the final survivors would say 3.
        assert routed[int(base.encode(1, 3))] == 0


# ---------------------------------------------------- admission control


class TestAdmission:
    def test_shed_mode_rejects_on_full_queue(self):
        config = small_config(total_requests=400, clients=16,
                              queue_depth=1, batch_max=1, think_ticks=0,
                              admission="shed", write_ticks=6,
                              read_ticks=4)
        result = ServiceEngine(config).run()
        assert result.outcomes["shed"] > 0
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_block_mode_parks_instead_of_shedding(self):
        config = small_config(total_requests=400, clients=16,
                              queue_depth=1, batch_max=1, think_ticks=0,
                              admission="block", write_ticks=6,
                              read_ticks=4)
        result = ServiceEngine(config).run()
        assert result.outcomes["shed"] == 0
        assert result.report["resilience"]["blocked"] > 0
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_tiny_deadline_is_enforced(self):
        config = small_config(total_requests=300, clients=16,
                              queue_depth=2, batch_max=1, think_ticks=0,
                              admission="block", deadline_ticks=4,
                              write_ticks=6, read_ticks=4)
        result = ServiceEngine(config).run()
        assert result.outcomes["deadline"] > 0
        assert sum(outcome_counts(result).values()) == config.total_requests


# ------------------------------------------------- stalls and breakers


class TestBreakerIntegration:
    def test_stall_trips_and_recovers_the_breaker(self):
        config = small_config(total_requests=600, clients=8,
                              breaker_threshold=3, breaker_cooldown=16)
        schedule = shard_stall_schedule(0, at_write=30, requests=12)
        result = ServiceEngine(config, schedule).run()
        resilience = result.report["resilience"]
        assert resilience["stalled"] == 12
        assert resilience["breaker_opened"] >= 1
        assert resilience["breaker_closed"] >= 1  # half-open probe healed
        assert resilience["retries"] > 0
        assert result.report["resilience"]["deaths"] == 0
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_bounded_retries_exhaust_into_errors(self):
        config = small_config(total_requests=300, clients=4,
                              retry_limit=2, deadline_ticks=5_000)
        schedule = shard_stall_schedule(0, at_write=20, requests=40)
        result = ServiceEngine(config, schedule).run()
        assert result.outcomes["error"] > 0
        assert result.report["resilience"]["retries_exhausted"] == \
            result.outcomes["error"]
        assert sum(outcome_counts(result).values()) == config.total_requests

    def test_brownout_steers_writes_off_worn_shards(self):
        config = small_config(total_requests=400, clients=4,
                              mean_endurance=2.0, brownout_wear=0.5)
        result = ServiceEngine(config).run()
        assert result.report["resilience"]["steered"] > 0
        assert result.outcomes["ok"] == config.total_requests


# ------------------------------------------------------------ reporting


class TestReporting:
    def test_report_derives_from_snapshot_only(self):
        config = small_config()
        result = ServiceEngine(config).run()
        assert build_report(result.snapshot, config) == result.report

    def test_latency_quantiles_present_and_ordered(self):
        result = ServiceEngine(small_config()).run()
        for kind in ("read", "write"):
            table = result.report["latency"][kind]
            assert table["p50"] <= table["p95"] <= table["p99"]

    def test_merged_latency_histogram_covers_all_ok_requests(self):
        result = ServiceEngine(small_config()).run()
        histograms = result.snapshot["histograms"]
        total = sum(histograms[f"serve.latency.{kind}"]["total"]
                    for kind in ("read", "write"))
        assert total == result.outcomes["ok"]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(policy="explode")
        with pytest.raises(ConfigurationError):
            ServeConfig(admission="drop")
        with pytest.raises(ConfigurationError):
            ServeConfig(write_ratio=1.5)
        with pytest.raises(ConfigurationError):
            ServeConfig(retry_limit=0)


# ------------------------------------------------------------------ CLI


class TestCli:
    def test_cli_kill_run_writes_slo_artifact(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        out = tmp_path / "slo.json"
        rc = main(["--shards", "2", "--shard-blocks", "128", "--clients",
                   "4", "--requests", "300", "--kill-shard", "1",
                   "--kill-at", "40", "--jobs", "2", "--json", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "latency[read]" in printed and "deaths=1" in printed
        payload = json.loads(out.read_text())
        assert payload["report"]["resilience"]["deaths"] == 1
        assert payload["report"]["counts"]["issued"] == 300

    def test_cli_stall_run(self, capsys):
        from repro.serve.__main__ import main

        rc = main(["--shards", "2", "--shard-blocks", "128", "--clients",
                   "4", "--requests", "300", "--stall-shard", "0",
                   "--stall-at", "30", "--stall-requests", "8", "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_cli_headline_separates_issued_from_ok(self, capsys):
        from repro.serve.__main__ import main

        rc = main(["--shards", "2", "--shard-blocks", "64", "--clients",
                   "16", "--requests", "400", "--queue-depth", "1",
                   "--batch-max", "1", "--think", "0"])
        assert rc == 0
        headline = capsys.readouterr().out.splitlines()[0]
        ok = int(headline.split(", ")[1].split()[0])
        assert headline.startswith("issued 400 requests, ")
        assert 0 < ok < 400  # most of the burst is shed, not served
        assert "served 400" not in headline

    def test_cli_rejects_bad_config(self, capsys):
        from repro.serve.__main__ import main

        rc = main(["--shards", "0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "--shards", "2",
             "--shard-blocks", "64", "--clients", "2", "--requests", "60"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "outcomes:" in proc.stdout

    def test_custom_schedule_round_trips_into_the_engine(self):
        """A hand-built mixed schedule drives both a stall and a death."""
        config = small_config(total_requests=500, clients=6)
        schedule = FaultSchedule(actions=(
            FaultAction("shard-stall", at_write=20, requests=4, shard=0),
            FaultAction("fail-block", at_write=60,
                        das=tuple(range(config.shard_blocks)), shard=1),
        ), seed=None, name="mixed")
        parsed = FaultSchedule.from_json(schedule.to_json())
        result = ServiceEngine(config, parsed).run()
        assert result.report["resilience"]["deaths"] == 1
        assert result.report["resilience"]["stalled"] >= 4
        assert sum(outcome_counts(result).values()) == config.total_requests


# ----------------------------------------------- workload-package dedupe


class TestWorkloadPackageDedupe:
    """The client streams now come from ``repro.workloads``; these pins
    prove the dedupe kept the served behavior byte-identical (hashes
    recorded from the pre-refactor engine)."""

    PINS = {
        "zipf": ("b05ed60ead7efee49140783b2deb1c897"
                 "3d87e359f9aaf11ca71888d1f77b164"),
        "uniform": ("51d8629df97bb8c8a8ea2e7e58b609f5"
                    "9735503e268ca67c9c75a5588f9f4c81"),
    }

    @staticmethod
    def behavior_hash(result):
        import hashlib
        payload = {"snapshot": result.snapshot, "report": result.report,
                   "duration": result.duration,
                   "outcomes": result.outcomes}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def test_zipf_behavior_is_pinned(self):
        result = ServiceEngine(small_config()).run()
        assert self.behavior_hash(result) == self.PINS["zipf"]

    def test_uniform_behavior_is_pinned(self):
        config = ServeConfig(num_shards=4, shard_blocks=256, clients=6,
                             total_requests=400, seed=23,
                             workload="uniform")
        result = ServiceEngine(config).run()
        assert self.behavior_hash(result) == self.PINS["uniform"]

    def test_streams_come_from_the_workload_package(self):
        from repro.workloads import (uniform_request_stream,
                                     zipf_request_stream)
        from repro.serve import engine as serve_engine
        assert serve_engine.zipf_request_stream is zipf_request_stream
        assert serve_engine.uniform_request_stream is uniform_request_stream


# ------------------------------------------------------ hot-path rewrites


class TestHotPathEquivalence:
    """The request path's fast forms equal the per-value forms they
    replaced: accounting folds, think-time draws, shared client laws."""

    @staticmethod
    def per_value_cell(sid, read_latencies, write_latencies, batch_sizes,
                       depth_samples, latency_bounds):
        from repro.array.shard import deterministic_snapshot
        from repro.serve.account import SIZE_BOUNDS
        from repro.telemetry import TelemetrySession

        session = TelemetrySession()
        bounds = tuple(latency_bounds)
        for latency in read_latencies:
            session.observe("serve.latency.read", latency, bounds=bounds)
        for latency in write_latencies:
            session.observe("serve.latency.write", latency, bounds=bounds)
        for size in batch_sizes:
            session.observe(f"serve.s{sid}.batch", size, bounds=SIZE_BOUNDS)
        for depth in depth_samples:
            session.observe(f"serve.s{sid}.depth", depth, bounds=SIZE_BOUNDS)
        return deterministic_snapshot(session.registry.snapshot())

    @pytest.mark.parametrize("reads,writes,sizes,depths", [
        ([], [], [], []),
        ([], [5, 10, 10, 11, 0], [1, 8, 128, 129], []),
        ([10, 20, 50, 100, 1000, 5000, 3], [], [], [0, 1, 2, 4, 64]),
        ([7] * 50 + [500, 501], [1, 2, 3], [2, 2, 16], [3, 300]),
    ])
    def test_vectorized_fold_equals_per_value_observes(
            self, reads, writes, sizes, depths):
        from repro.serve.account import account_shard_cell

        bounds = [10.0, 20.0, 50.0, 100.0, 500.0]
        folded = account_shard_cell(
            sid=3, read_latencies=reads, write_latencies=writes,
            batch_sizes=sizes, depth_samples=depths, served=0, stalls=0,
            peak_depth=0, writes_served=0, endurance_budget=1.0,
            alive=True, died_at=-1, latency_bounds=bounds)
        expected = self.per_value_cell(3, reads, writes, sizes, depths,
                                       bounds)
        assert folded["histograms"] == expected["histograms"]
        assert json.dumps(folded["histograms"], sort_keys=True) \
            == json.dumps(expected["histograms"], sort_keys=True)

    def test_buffered_think_times_equal_scalar_draws(self):
        from repro.rng import derive_rng
        from repro.serve.engine import _THINK_CHUNK

        config = small_config(clients=3, think_ticks=9, arrival="poisson")
        engine = ServiceEngine(config)
        draws = 3 * _THINK_CHUNK + 5
        for client in range(config.clients):
            rng = derive_rng(config.seed, f"serve-think-{client}")
            scalar = [int(rng.exponential(config.think_ticks))
                      for _ in range(draws)]
            assert [engine._think(client) for _ in range(draws)] == scalar

    def test_clients_share_one_address_law(self):
        from repro.workloads import zipf_request_stream

        config = small_config(clients=5)
        engine = ServiceEngine(config)
        law = engine._streams[0].probabilities
        assert all(s.probabilities is law for s in engine._streams)
        for client in (0, 4):
            fresh = zipf_request_stream(
                config.global_blocks, exponent=config.zipf_exponent,
                write_ratio=config.write_ratio, name="serve",
                seed=config.seed, stream_name=f"serve-client-{client}")
            stream = engine._streams[client]
            assert ([stream.next_request() for _ in range(100)]
                    == [fresh.next_request() for _ in range(100)])

    def test_hot_counters_reach_the_snapshot_once_flushed(self):
        config = small_config(total_requests=400, clients=16,
                              queue_depth=1, batch_max=1, think_ticks=0,
                              admission="shed")
        engine = ServiceEngine(config)
        result = engine.run()
        counters = result.snapshot["counters"]
        assert counters["serve.issued"] == 400
        assert counters["serve.shed"] == result.outcomes["shed"]
        assert (counters["serve.issued_read"]
                + counters["serve.issued_write"]) == 400
        # Never-bumped counters are never created.
        assert "serve.failover" not in counters
        assert "serve.failed" not in counters
