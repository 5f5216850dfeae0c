"""Telemetry overhead benchmark: disabled hooks must be free.

The fast engine is the lifetime-scale hot path; the telemetry subsystem's
core promise is that an engine with no session attached (``telem is
None``, the default) runs the *identical* epoch code as before the
subsystem existed.  This benchmark A/B-times the same seeded FastEngine
lifetime with telemetry detached and attached:

* detached vs. attached overhead is reported (attached is allowed to
  cost a little — it times three phases per epoch);
* the detached run must not be slower than the attached one beyond noise
  (each side keeps its fastest of three runs, interleaved after a
  warm-up), and every run must produce bit-identical simulation results
  (telemetry observes, never perturbs).
"""

import time

from repro.ecc import ECP
from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
from repro.sim.fast import FastConfig, FastEngine
from repro.telemetry import TelemetrySession, attach_fast
from repro.traces import hotspot_distribution
from repro.units import blocks_of_pages
from repro.wl import StartGap

NUM_BLOCKS = 4096
MAX_WRITES = 3_000_000
#: Timed runs per side; each side keeps its fastest.
RUNS = 3


def _build_engine():
    geometry = AddressGeometry(num_blocks=NUM_BLOCKS, block_bytes=64,
                               page_bytes=512)
    endurance = EnduranceModel(num_blocks=NUM_BLOCKS, mean=2_000.0, cov=0.25,
                               max_order=8, seed=17)
    chip = PCMChip(geometry, ECP(endurance, 1))
    wl = StartGap(NUM_BLOCKS)
    config = FastConfig(batch_writes=50_000, max_writes=MAX_WRITES, seed=3)
    trace = hotspot_distribution(blocks_of_pages(48, config.blocks_per_page),
                                 4.0, seed=5)
    return FastEngine(chip, wl, trace, config=config)


def _lifetime(instrumented):
    engine = _build_engine()
    if instrumented:
        attach_fast(TelemetrySession(), engine)
    started = time.perf_counter()
    engine.run()
    return engine.stats(), time.perf_counter() - started


def test_disabled_telemetry_costs_nothing(benchmark, once, capsys):
    # Warm up, then interleave the sides and keep each side's fastest of
    # RUNS, so cache warm-up and host noise land on neither side's tally.
    _, warm = _lifetime(instrumented=False)
    detached_runs, instrumented_runs = [], []
    for _ in range(RUNS - 1):
        instrumented_runs.append(_lifetime(instrumented=True))
        detached_runs.append(_lifetime(instrumented=False))
    instrumented_runs.append(_lifetime(instrumented=True))
    detached_runs.append(once(benchmark, _lifetime, instrumented=False))
    detached_s = min(seconds for _, seconds in detached_runs)
    instrumented_s = min(seconds for _, seconds in instrumented_runs)
    plain_stats = detached_runs[0][0]
    with capsys.disabled():
        print()
        print(f"fast engine {NUM_BLOCKS} blocks, "
              f"{plain_stats['total_writes']:,} writes: detached "
              f"{detached_s:.2f}s (warm-up {warm:.2f}s), instrumented "
              f"{instrumented_s:.2f}s "
              f"({instrumented_s / detached_s:.2f}x; fastest of {RUNS} "
              f"each)")
    # Telemetry observes, never perturbs: identical simulation outcome.
    assert all(stats == plain_stats
               for stats, _ in detached_runs + instrumented_runs)
    # The detached run must show no telemetry slowdown; 20% headroom
    # absorbs scheduler noise on a busy machine (the real check is that
    # detached does not trend toward the instrumented time).
    assert detached_s <= instrumented_s * 1.2, (detached_s, instrumented_s)
