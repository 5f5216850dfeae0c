"""Serve client-scaling benchmark: per-request cost must stay flat.

:class:`~repro.serve.ServiceEngine` drives one event per client on a
single heap, and every client owns a request stream and a think-time
generator.  When that per-client state is expensive, throughput falls
with the client count even though the work per request is the same.
This benchmark serves the same 50k requests over 4 shards with 100, 1k
and 10k closed-loop clients and pins the 10k-client throughput to at
least half the 100-client throughput, both measured in this run.

The client counts run in ``ROUNDS`` back-to-back rounds.  The gate
takes the 10k/100 throughput ratio within each round, where both sides
see the same host speed, and pins the median over rounds; the printed
rates are each count's fastest run.  The timed region is
``ServiceEngine.run`` (event loop, accounting, report); building the
engine is timed separately and printed.  The test process's own heap
(pytest, every imported test module) is frozen out of the garbage
collector for the duration, so a full collection during a run scans
the engine's objects only, as it would in ``python -m repro.serve``.
"""

import gc
import statistics
import time

from repro.serve import ServeConfig, ServiceEngine

CLIENTS = (100, 1_000, 10_000)
REQUESTS = 50_000
SHARDS = 4
ROUNDS = 5


def _serve(clients):
    config = ServeConfig(num_shards=SHARDS, clients=clients,
                         total_requests=REQUESTS, seed=7)
    started = time.perf_counter()
    engine = ServiceEngine(config)
    built = time.perf_counter()
    result = engine.run()
    finished = time.perf_counter()
    return result, built - started, finished - built


def _rounds(benchmark, once):
    runs = {clients: [] for clients in CLIENTS}
    gc.collect()
    gc.freeze()
    try:
        for _ in range(ROUNDS - 1):
            for clients in CLIENTS:
                runs[clients].append(_serve(clients))
        runs[CLIENTS[0]].append(once(benchmark, _serve, CLIENTS[0]))
        for clients in CLIENTS[1:]:
            runs[clients].append(_serve(clients))
    finally:
        gc.unfreeze()
    return runs


def test_serve_throughput_scales_with_clients(benchmark, once, capsys):
    runs = _rounds(benchmark, once)

    rate = {clients: REQUESTS / min(run_s for _, _, run_s in samples)
            for clients, samples in runs.items()}
    build = {clients: min(build_s for _, build_s, _ in samples)
             for clients, samples in runs.items()}
    ratio = statistics.median(
        few[2] / many[2] for few, many in zip(runs[CLIENTS[0]],
                                              runs[CLIENTS[-1]]))
    benchmark.extra_info.update(
        {f"req_per_s_{clients}": round(rate[clients]) for clients in CLIENTS})
    benchmark.extra_info["scaling_ratio"] = round(ratio, 3)

    with capsys.disabled():
        print()
        print("serve client scaling: " + ", ".join(
            f"{clients:,} clients {rate[clients] / 1e3:.1f}k req/s "
            f"(build {build[clients]:.2f}s)" for clients in CLIENTS)
            + f"; {CLIENTS[-1]:,}/{CLIENTS[0]:,} = {ratio:.2f}x "
            f"(gate >= 0.50x, median of {ROUNDS} rounds)")

    # Every run served the whole quota and kept the zero-drop identity.
    for samples in runs.values():
        for result, _, _ in samples:
            assert sum(result.outcomes.values()) == REQUESTS
    # Same seed, same clients: the runs are byte-identical.
    for samples in runs.values():
        assert len({result.to_json() for result, _, _ in samples}) == 1
    # The pin: a hundredfold client count costs at most half the rate.
    assert ratio >= 0.5, rate
