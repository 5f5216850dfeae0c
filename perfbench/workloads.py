"""The benchmark's four workloads: config, build, run, check, digest.

Every workload is driven through one public entry point of ``repro``:

``campaign``        :func:`repro.sim.campaign.run_campaign`
``array_elastic``   :meth:`repro.array.ArrayEngine.run`
``serve_failover``  :meth:`repro.serve.ServiceEngine.run`
``exact_verify``    :meth:`repro.sim.engine.ExactEngine.run`

Why these four: ``campaign`` is the paper-figure lifetime campaign and is
dominated by wear leveling (Start-Gap migrations, Feistel mapping);
``array_elastic`` is the only one where the array round loop, the grid
runner and the balance control plane carry the load; ``serve_failover``
runs the serving event loop with no chip simulation at all, so a wl or
pcm change must leave it unmoved; ``exact_verify`` is the only workload
that runs the paper's per-write protocol (chain switching, page
acquisition, PA-DA loops) with reads and data verification.

The benchmark seed becomes plain config values here (:func:`make_config`);
the program only ever sees the generated config.  Every ``repro`` import
happens inside a function, so the worker can time the import itself.

Each workload is a :class:`Workload` of plain functions:

``build(cfg)``              construct the engine (timed as set-up)
``run(state)``              the timed call into the entry point
``ops(state, result)``      simulated operations the run delivered
``failed_ops(...)``         operations whose outcome is a failure
``check(state, result)``    output-check failures, as messages
``canonical(...)``          the simulated output as canonical JSON
``sabotage(state, result)`` corrupt the output so the check must fail
                            (used only by the smoke tests)
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

#: Size presets: ``full`` is the benchmark, ``smoke`` the reduced size the
#: benchmark's own tests run.
SCALES = ("full", "smoke")

#: Stop causes that mean "the simulated system reached its end of life".
END_OF_LIFE = ("dead-fraction", "capacity-lost", "exhausted")


def derived_seed(seed: int, purpose: str) -> int:
    """A 31-bit seed for *purpose*, derived from the benchmark seed only."""
    return random.Random(f"{purpose}:{seed}").randrange(1, 2 ** 31)


def digest(text: str) -> str:
    """sha256 of a canonical JSON string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _stop_cause(stop: Any) -> str:
    return str(stop).split(":", 1)[0].strip()


# ------------------------------------------------------------------ campaign

def _campaign_config(seed: int, scale: str) -> Dict[str, Any]:
    cfg: Dict[str, Any] = {"seeds": 8,
                           "seed": derived_seed(seed, "campaign")}
    if scale == "smoke":
        cfg.update(seeds=2, params={"num_blocks": 256,
                                    "mean_endurance": 400.0})
    return cfg


def _campaign_build(cfg: Dict[str, Any]) -> Dict[str, Any]:
    from repro.sim.campaign import run_campaign
    return {"cfg": cfg, "entry": run_campaign}


def _campaign_run(state: Dict[str, Any]) -> Any:
    cfg = state["cfg"]
    return state["entry"](seeds=cfg["seeds"], seed=cfg["seed"], jobs=1,
                          **cfg.get("params", {}))


def _campaign_ops(state: Dict[str, Any], payload: Any) -> int:
    return sum(int(cell["total_writes"])
               for cell in payload["cells"].values())


def _campaign_check(state: Dict[str, Any], payload: Any) -> List[str]:
    problems = []
    cells = payload["cells"]
    if len(cells) != state["cfg"]["seeds"]:
        problems.append(f"campaign ran {len(cells)} cells, "
                        f"expected {state['cfg']['seeds']}")
    for key, cell in sorted(cells.items()):
        if _stop_cause(cell["stop"]) not in END_OF_LIFE:
            problems.append(f"{key} stopped at {cell['stop']!r}, "
                            f"not an end-of-life cause")
    return problems


def _campaign_canonical(state: Dict[str, Any], payload: Any) -> str:
    return canonical_json(payload)


def _campaign_sabotage(state: Dict[str, Any], payload: Any) -> None:
    first = sorted(payload["cells"])[0]
    payload["cells"][first]["stop"] = "max-writes"


# ------------------------------------------------------------- array_elastic

def _array_config(seed: int, scale: str) -> Dict[str, Any]:
    shards, blocks, mean = 4, 512, 300.0
    kill_at, batch, every = 20_000, 2_000, 8_000
    if scale == "smoke":
        shards, blocks, mean = 3, 128, 120.0
        kill_at, batch, every = 1_500, 500, 2_000
    return {"num_shards": shards, "shard_blocks": blocks,
            "interleave": "page", "page_blocks": 16,
            "mean_endurance": mean, "psi": 12, "batch_writes": batch,
            "balance": True, "balance_every": every, "remap_budget": 32,
            # Scale-out at 10% of the array's endurance budget.
            "add_shard_at": int(shards * blocks * mean) // 10,
            "policy": "degraded",
            "seed": derived_seed(seed, "array"),
            "zipf_exponent": 1.0, "kill_shard": 1, "kill_at": kill_at}


def _array_build(cfg: Dict[str, Any]) -> Dict[str, Any]:
    from repro.array import (ArrayConfig, ArrayEngine, InterleavedDecoder,
                             zipf_workload)
    from repro.faultinject import shard_death_schedule
    engine_keys = ("num_shards", "shard_blocks", "interleave",
                   "page_blocks", "mean_endurance", "psi", "batch_writes",
                   "balance", "balance_every", "remap_budget",
                   "add_shard_at", "policy", "seed")
    config = ArrayConfig(**{key: cfg[key] for key in engine_keys})
    decoder = InterleavedDecoder(config.num_shards, config.software_blocks,
                                 interleave=config.interleave,
                                 page_blocks=config.page_blocks)
    trace = zipf_workload(decoder, exponent=cfg["zipf_exponent"],
                          seed=cfg["seed"])
    schedule = shard_death_schedule(cfg["kill_shard"], cfg["kill_at"],
                                    cfg["shard_blocks"])
    engine = ArrayEngine(config, trace, label="array-elastic", jobs=1,
                         schedule=schedule)
    return {"cfg": cfg, "engine": engine}


def _array_run(state: Dict[str, Any]) -> Any:
    return state["engine"].run()


def _array_ops(state: Dict[str, Any], result: Any) -> int:
    return int(result.report.total_writes)


def _array_check(state: Dict[str, Any], result: Any) -> List[str]:
    cfg = state["cfg"]
    report = result.report
    counters = result.snapshot.get("counters", {})
    problems = []
    dead = list(report.dead_shards)
    if sorted(dead) != list(range(report.num_shards)):
        problems.append(f"dead shards {dead} of {report.num_shards}: "
                        f"not every shard died")
    if not dead or dead[0] != cfg["kill_shard"]:
        problems.append(f"first death was {dead[:1]}, expected shard "
                        f"{cfg['kill_shard']}")
    if counters.get("balance.shards-added") != 1:
        problems.append(f"shards added: "
                        f"{counters.get('balance.shards-added')}, expected 1")
    if not counters.get("balance.remap-swaps", 0) > 0:
        problems.append("balance.remap-swaps is 0: the leveler never "
                        "steered")
    return problems


def _array_canonical(state: Dict[str, Any], result: Any) -> str:
    return canonical_json(result.as_dict())


def _array_sabotage(state: Dict[str, Any], result: Any) -> None:
    result.snapshot["counters"]["balance.shards-added"] = 0


# ------------------------------------------------------------ serve_failover

def _serve_config(seed: int, scale: str) -> Dict[str, Any]:
    clients, requests, kill_at = 1000, 200_000, 20_000
    if scale == "smoke":
        clients, requests, kill_at = 40, 6_000, 600
    # Blocking admission and a deadline past the initial burst (every
    # client issues at tick 0) keep every request's outcome "ok", so no
    # operation of the benchmark fails; the burst, the overflow lanes and
    # the failover re-homing are still exercised.
    return {"num_shards": 4, "shard_blocks": 512, "clients": clients,
            "arrival": "poisson", "think_ticks": 800,
            "admission": "block", "deadline_ticks": 4000,
            "total_requests": requests, "workload": "zipf",
            "zipf_exponent": 1.0, "write_ratio": 0.5, "balance": True,
            "policy": "degraded", "seed": derived_seed(seed, "serve"),
            "kill_shard": 1, "kill_at": kill_at}


def _serve_build(cfg: Dict[str, Any]) -> Dict[str, Any]:
    from repro.faultinject import shard_death_schedule
    from repro.serve import ServeConfig, ServiceEngine
    config = ServeConfig(**{key: value for key, value in cfg.items()
                            if key not in ("kill_shard", "kill_at")})
    schedule = shard_death_schedule(cfg["kill_shard"], cfg["kill_at"],
                                    cfg["shard_blocks"])
    return {"cfg": cfg, "engine": ServiceEngine(config, schedule)}


def _serve_run(state: Dict[str, Any]) -> Any:
    return state["engine"].run(jobs=1)


def _serve_ops(state: Dict[str, Any], result: Any) -> int:
    return int(state["engine"].issued)


def _serve_failed(state: Dict[str, Any], result: Any) -> int:
    return sum(count for outcome, count in result.outcomes.items()
               if outcome != "ok")


def _serve_check(state: Dict[str, Any], result: Any) -> List[str]:
    engine = state["engine"]
    total = state["cfg"]["total_requests"]
    accounted = sum(result.outcomes.values())
    problems = []
    if not engine.issued == accounted == total:
        problems.append(f"issued {engine.issued}, outcomes {accounted}, "
                        f"target {total}")
    deaths = result.snapshot.get("counters", {}).get("serve.deaths")
    if deaths != 1:
        problems.append(f"serve.deaths is {deaths}, expected 1")
    return problems


def _serve_canonical(state: Dict[str, Any], result: Any) -> str:
    return result.to_json()


def _serve_sabotage(state: Dict[str, Any], result: Any) -> None:
    result.outcomes["ok"] -= 1


# -------------------------------------------------------------- exact_verify

def _exact_config(seed: int, scale: str) -> Dict[str, Any]:
    blocks, mean = 4096, 300.0
    if scale == "smoke":
        blocks, mean = 512, 120.0
    return {"num_blocks": blocks, "page_blocks": 8, "ecp_k": 1,
            "mean_endurance": mean, "endurance_cov": 0.25, "max_order": 8,
            "utilization": 0.9, "cache_entries": 64, "cache_ways": 4,
            "trace_cov": 3.0, "read_fraction": 0.5, "dead_fraction": 0.3,
            "endurance_seed": derived_seed(seed, "exact-endurance"),
            "startgap_seed": derived_seed(seed, "exact-startgap"),
            "pool_seed": derived_seed(seed, "exact-pool"),
            "trace_seed": derived_seed(seed, "exact-trace")}


_EXACT_MODULES = ("repro.config", "repro.ecc", "repro.mc", "repro.osmodel",
                  "repro.pcm", "repro.sim.engine", "repro.traces.synthetic",
                  "repro.wl")


def _exact_build(cfg: Dict[str, Any]) -> Dict[str, Any]:
    from repro.config import CacheConfig, StartGapConfig
    from repro.ecc import ECP
    from repro.mc import RemapCache, ReviverController
    from repro.osmodel import PagePool
    from repro.pcm import AddressGeometry, EnduranceModel, PCMChip
    from repro.sim.engine import ExactEngine
    from repro.traces.synthetic import hotspot_distribution
    from repro.wl import StartGap
    blocks = cfg["num_blocks"]
    geometry = AddressGeometry(num_blocks=blocks, block_bytes=64,
                               page_bytes=64 * cfg["page_blocks"])
    endurance = EnduranceModel(num_blocks=blocks, mean=cfg["mean_endurance"],
                               cov=cfg["endurance_cov"],
                               max_order=cfg["max_order"],
                               seed=cfg["endurance_seed"])
    chip = PCMChip(geometry, ECP(endurance, capacity=cfg["ecp_k"]),
                   track_contents=True)
    wear_leveler = StartGap(blocks, config=StartGapConfig(
        seed=cfg["startgap_seed"]))
    pool = PagePool(wear_leveler.logical_blocks,
                    blocks_per_page=cfg["page_blocks"],
                    utilization=cfg["utilization"], seed=cfg["pool_seed"])
    controller = ReviverController(
        chip, wear_leveler, pool,
        cache=RemapCache(CacheConfig(capacity_entries=cfg["cache_entries"],
                                     associativity=cfg["cache_ways"])),
        copy_on_retire=True)
    trace = hotspot_distribution(pool.virtual_blocks, cfg["trace_cov"],
                                 seed=cfg["trace_seed"])
    engine = ExactEngine(controller, trace,
                         dead_fraction=cfg["dead_fraction"], verify=True,
                         read_fraction=cfg["read_fraction"])
    return {"cfg": cfg, "engine": engine, "controller": controller}


def _exact_run(state: Dict[str, Any]) -> Any:
    return state["engine"].run()


def _exact_ops(state: Dict[str, Any], summary: Any) -> int:
    stats = state["controller"].stats
    return int(stats.writes + stats.reads)


def _exact_check(state: Dict[str, Any], summary: Any) -> List[str]:
    engine, controller = state["engine"], state["controller"]
    problems = []
    try:
        engine.verify_all()
    except AssertionError as exc:
        problems.append(f"verify: {exc}")
    try:
        controller.check_invariants()
    except AssertionError as exc:
        problems.append(f"invariants: {exc}")
    stop = engine.stop.cause.value if engine.stop is not None else None
    if stop != "dead-fraction":
        problems.append(f"stop cause {stop!r}, expected 'dead-fraction'")
    return problems


def _exact_canonical(state: Dict[str, Any], summary: Any) -> str:
    engine, controller = state["engine"], state["controller"]
    stats = controller.stats
    return canonical_json({
        "report": engine.end_of_life_report().as_dict(),
        "series": engine.series.to_payload(),
        "reviver": controller.reviver.stats(),
        "access": {"requests": stats.requests, "writes": stats.writes,
                   "reads": stats.reads, "pcm_accesses": stats.pcm_accesses,
                   "redirected": stats.redirected, "faults": stats.faults},
        "migration_writes": controller.migration_writes,
        "lost_vblocks": sorted(controller.lost_vblocks),
    })


def _exact_counts(state: Dict[str, Any], summary: Any) -> Dict[str, float]:
    stats = state["controller"].reviver.stats()
    return {f"reviver.{key}": float(stats[key]) for key in
            ("chain_switches", "pages_acquired", "hidden_failures")}


def _exact_sabotage(state: Dict[str, Any], summary: Any) -> None:
    expected = state["engine"].expected
    lost = state["controller"].lost_vblocks
    vblock = min(v for v in expected if v not in lost)
    expected[vblock] += 1


# ------------------------------------------------------------------ registry

@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro`` modules the workload needs, imported (and timed) first.
    modules: Tuple[str, ...]
    make_config: Callable[[int, str], Dict[str, Any]]
    build: Callable[[Dict[str, Any]], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Any]
    ops: Callable[[Dict[str, Any], Any], int]
    check: Callable[[Dict[str, Any], Any], List[str]]
    canonical: Callable[[Dict[str, Any], Any], str]
    sabotage: Callable[[Dict[str, Any], Any], None]
    failed_ops: Callable[[Dict[str, Any], Any], int] = lambda s, r: 0
    #: Simulated counts the traced run reports beside its spans.
    layer_counts: Callable[[Dict[str, Any], Any], Dict[str, float]] = \
        lambda s, r: {}


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("campaign", ("repro.sim.campaign",), _campaign_config,
             _campaign_build, _campaign_run, _campaign_ops,
             _campaign_check, _campaign_canonical, _campaign_sabotage),
    Workload("array_elastic", ("repro.array", "repro.faultinject"),
             _array_config, _array_build, _array_run, _array_ops,
             _array_check, _array_canonical, _array_sabotage),
    Workload("serve_failover", ("repro.faultinject", "repro.serve"),
             _serve_config, _serve_build, _serve_run, _serve_ops,
             _serve_check, _serve_canonical, _serve_sabotage,
             failed_ops=_serve_failed),
    Workload("exact_verify", _EXACT_MODULES, _exact_config, _exact_build,
             _exact_run, _exact_ops, _exact_check, _exact_canonical,
             _exact_sabotage, layer_counts=_exact_counts),
)}


def make_config(workload: str, seed: int, scale: str = "full"
                ) -> Dict[str, Any]:
    """The plain-data config the program receives for *workload*."""
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")
    return WORKLOADS[workload].make_config(seed, scale)
