"""Batched-kernel benchmark: marginal gain over the per-cell path.

The 100-seed campaign is the workload the struct-of-arrays kernel exists
for: one hundred independent chip lifetimes at the campaign's default
working point.  Both sides run the same hundred seeds in one process
(``jobs=1``): the per-cell path runs one
:class:`~repro.sim.fast.FastEngine` per cell, the batched run folds all
hundred cells into one lockstep :class:`~repro.sim.batched.BatchedEngine`.
Both use the same exact Start-Gap and randomizer shortcuts, which live in
:mod:`repro.wl`, so the ratio is what the lockstep batching alone buys.
Cost is CPU-seconds per cell, which a busy or small host does not skew
the way a wall-clock ratio across process pools does.

Two pins:

* marginal gain — the kernel must not cost more CPU per cell than the
  per-cell path it duplicates (ratio >= 1.0);
* equivalence — every per-cell cell must appear byte-identical inside
  the batched payload (same seed root, same derived streams).
"""

import json
import time

from repro.sim.campaign import run_campaign

SEEDS = 100
WARMUP_SEEDS = 2
SPEEDUP_FLOOR = 1.0


def _timed(seeds, batch):
    started = time.process_time()
    payload = run_campaign(seeds, seed=0, jobs=1, batch=batch)
    return payload, time.process_time() - started


def test_batched_campaign_throughput(benchmark, once, capsys):
    # Warm both paths' imports and caches before either side is timed.
    _timed(WARMUP_SEEDS, batch=1)
    _timed(WARMUP_SEEDS, batch=WARMUP_SEEDS)
    baseline, baseline_cpu = _timed(SEEDS, batch=1)
    batched, batched_cpu = once(benchmark, _timed, SEEDS, batch=SEEDS)
    baseline_cost = baseline_cpu / SEEDS
    batched_cost = batched_cpu / SEEDS
    speedup = baseline_cost / batched_cost
    with capsys.disabled():
        print()
        print(f"campaign marginal gain: per-cell {baseline_cost * 1e3:.1f} "
              f"CPU-ms/cell, batched {batched_cost * 1e3:.1f} CPU-ms/cell "
              f"({SEEDS} seeds, jobs=1, batch={SEEDS}) -> {speedup:.2f}x")
    # Byte-identity: the batched campaign must contain the per-cell
    # cells verbatim — same keys, same values, bit for bit.
    subset = {key: batched["cells"][key] for key in baseline["cells"]}
    assert json.dumps(subset, sort_keys=True) == \
        json.dumps(baseline["cells"], sort_keys=True)
    assert speedup >= SPEEDUP_FLOOR, (baseline_cost, batched_cost)
