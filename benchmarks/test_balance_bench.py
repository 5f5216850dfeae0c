"""Balance overhead benchmark: the remap layer must not tax decoding.

:class:`~repro.balance.BalancedDecoder` replaces the base decoder's
arithmetic with two materialized-array gathers, and the balanced array
engine consults it on every steering horizon.  This benchmark A/B-times
the same global write budget through the static engine and through the
balanced engine with an idle control loop (an effectively infinite
rebalance horizon, so no swaps fire) — isolating the pure cost of the
remap indirection on the hot path — and pins the balanced run to within
10% of the static run (plus a small absolute slack for timer noise on
sub-second runs).

A bulk-decode microbench rides along: two million mixed lookups through
both decoders, pinning the gather path to at most the arithmetic path's
wall-clock (it is typically *faster*; 1.5x is a generous ceiling).
"""

import time

import numpy as np

from repro.array import (ArrayConfig, ArrayEngine, InterleavedDecoder,
                         uniform_workload)
from repro.balance import BalancedDecoder

TOTAL_BLOCKS = 4096
SHARDS = 4
PAGE_BLOCKS = 16
GLOBAL_WRITES = 2_000_000
LOOKUPS = 2_000_000
RUNS = 3


def _engine_run(balance):
    config = ArrayConfig(num_shards=SHARDS,
                         shard_blocks=TOTAL_BLOCKS // SHARDS,
                         page_blocks=PAGE_BLOCKS, mean_endurance=2_000.0,
                         batch_writes=50_000 // SHARDS,
                         max_writes=GLOBAL_WRITES, telemetry=False, seed=3,
                         balance=balance,
                         balance_every=10 * GLOBAL_WRITES if balance
                         else None)
    decoder = InterleavedDecoder(config.num_shards, config.software_blocks,
                                 page_blocks=config.page_blocks)
    engine = ArrayEngine(config, uniform_workload(decoder, seed=5), jobs=1)
    started = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - started


def _bulk_decode(decoder, addresses):
    started = time.perf_counter()
    for _ in range(5):
        decoder.shard_of(addresses)
        decoder.local_of(addresses)
    return time.perf_counter() - started


def test_balanced_decoder_overhead_is_bounded(benchmark, once, capsys):
    # Warm up, then interleave the sides and keep each side's fastest of
    # RUNS, so cache warm-up and host noise land on neither side's tally.
    _engine_run(False)
    balanced_runs, static_runs = [], []
    for _ in range(RUNS - 1):
        balanced_runs.append(_engine_run(True))
        static_runs.append(_engine_run(False))
    balanced_runs.append(_engine_run(True))
    static_runs.append(once(benchmark, _engine_run, False))
    balanced_s = min(seconds for _, seconds in balanced_runs)
    static_s = min(seconds for _, seconds in static_runs)

    base = InterleavedDecoder(SHARDS, TOTAL_BLOCKS // SHARDS,
                              page_blocks=PAGE_BLOCKS)
    wrapped = BalancedDecoder(base)
    addresses = np.random.default_rng(11).integers(
        0, base.global_blocks, size=LOOKUPS)
    base_decode_s = _bulk_decode(base, addresses)
    wrapped_decode_s = _bulk_decode(wrapped, addresses)

    with capsys.disabled():
        print()
        print(f"{GLOBAL_WRITES:,} writes: static {static_s:.3f}s, "
              f"balanced {balanced_s:.3f}s ({balanced_s / static_s:.2f}x; "
              f"fastest of {RUNS} each); {LOOKUPS:,} decodes: "
              f"arithmetic {base_decode_s:.3f}s, "
              f"gather {wrapped_decode_s:.3f}s")

    # Both engines served the whole budget and stayed healthy.
    for result, _ in static_runs + balanced_runs:
        assert result.report.total_writes == GLOBAL_WRITES
        assert result.report.dead_shards == ()
    # No swaps fired: the only difference is the remap indirection.
    for balanced_result, _ in balanced_runs:
        counters = balanced_result.snapshot["counters"]
        assert counters.get("balance.remap-swaps", 0) == 0
    # The pin: the remap layer costs at most 10% of the static engine's
    # wall-clock, plus a timer-noise slack well under either side's time.
    assert balanced_s <= static_s * 1.10 + 0.05, (balanced_s, static_s)
    # The gathers must not be slower than the arithmetic they replace.
    assert wrapped_decode_s <= base_decode_s * 1.5 + 0.05, (
        wrapped_decode_s, base_decode_s)
