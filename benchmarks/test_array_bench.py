"""Array overhead benchmark: sharding must not tax the hot path.

The array engine adds a decoding/merging layer on top of N independent
FastEngine shard cells; all the heavy lifting still happens inside the
same vectorized epoch loop.  This benchmark A/B-times the same global
write budget served by one 4096-block chip versus a 4-shard array of
1024-block devices (same total capacity, same page size, uniform
traffic), both healthy throughout, and pins the array's wall-clock to a
small multiple of the single chip's.

The array is allowed to cost something — four quarter-size epoch loops
do less work per vector operation and the harness adds bookkeeping — but
a per-shard slowdown (array time growing with the shard count rather
than the work) would show up as a blown factor here.
"""

import time

import numpy as np

from repro.array import ArrayConfig, ArrayEngine, uniform_workload
from repro.ecc import ECP
from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
from repro.sim.fast import FastConfig, FastEngine
from repro.traces import DistributionTrace
from repro.wl import StartGap

TOTAL_BLOCKS = 4096
SHARDS = 4
PAGE_BLOCKS = 16
GLOBAL_WRITES = 2_000_000
RUNS = 3


def _single_chip():
    geometry = AddressGeometry(num_blocks=TOTAL_BLOCKS, block_bytes=64,
                               page_bytes=64 * PAGE_BLOCKS)
    endurance = EnduranceModel(num_blocks=TOTAL_BLOCKS, mean=2_000.0,
                               cov=0.2, max_order=8, seed=17)
    chip = PCMChip(geometry, ECP(endurance, 1))
    config = FastConfig(batch_writes=50_000, max_writes=GLOBAL_WRITES,
                        blocks_per_page=PAGE_BLOCKS, seed=3)
    trace = DistributionTrace(
        np.full(TOTAL_BLOCKS, 1.0 / TOTAL_BLOCKS), name="uniform", seed=5)
    engine = FastEngine(chip, StartGap(TOTAL_BLOCKS), trace, config=config)
    started = time.perf_counter()
    engine.run()
    return engine.total_writes, time.perf_counter() - started


def _shard_array():
    config = ArrayConfig(num_shards=SHARDS,
                         shard_blocks=TOTAL_BLOCKS // SHARDS,
                         page_blocks=PAGE_BLOCKS, mean_endurance=2_000.0,
                         batch_writes=50_000 // SHARDS,
                         max_writes=GLOBAL_WRITES, telemetry=False,
                         seed=3)
    engine = ArrayEngine(config, uniform_workload(engine_decoder(config),
                                                  seed=5), jobs=1)
    started = time.perf_counter()
    result = engine.run()
    return result, time.perf_counter() - started


def engine_decoder(config):
    from repro.array import InterleavedDecoder
    return InterleavedDecoder(config.num_shards, config.software_blocks,
                              page_blocks=config.page_blocks)


def test_array_matches_single_chip_throughput(benchmark, once, capsys):
    # Warm up, then interleave the sides and keep each side's fastest of
    # RUNS, so cache warm-up and host noise land on neither side's tally.
    _single_chip()
    array_runs, single_runs = [], []
    for _ in range(RUNS - 1):
        array_runs.append(_shard_array())
        single_runs.append(_single_chip())
    array_runs.append(_shard_array())
    single_runs.append(once(benchmark, _single_chip))
    single_s = min(seconds for _, seconds in single_runs)
    array_s = min(seconds for _, seconds in array_runs)
    with capsys.disabled():
        print()
        print(f"{GLOBAL_WRITES:,} writes: single chip {single_s:.3f}s, "
              f"{SHARDS}-shard array {array_s:.3f}s "
              f"({array_s / single_s:.2f}x; fastest of {RUNS} each)")
    # Both served the whole budget and stayed healthy.
    assert all(writes == GLOBAL_WRITES for writes, _ in single_runs)
    for array_result, _ in array_runs:
        report = array_result.report
        assert report.stop is not None
        assert report.stop.cause.value == "max-writes"
        assert report.dead_shards == ()
        assert report.total_writes == GLOBAL_WRITES
    # The array runs 4x as many quarter-size epochs plus the harness; a
    # 3x wall-clock envelope is headroom for that fixed overhead while
    # still catching any per-shard scaling pathology.  The absolute slack
    # only absorbs timer noise: it is well under either side's time.
    assert array_s <= single_s * 3.0 + 0.05, (array_s, single_s)
