"""Per-rule fixtures: each rule must flag its bad shape and pass the fix.

Every rule gets (at least) one *bad* fixture that produces a finding —
deleting the rule makes that test fail — and one *good* fixture showing
the sanctioned alternative stays clean.  The RAW-GEOM regression fixture
reintroduces PR 1's shipped bug verbatim.
"""

from pathlib import Path

import pytest

from repro.analysis import get_rule, lint_source, rule_ids

#: A path no rule exempts: findings here are purely content-driven.
GENERIC = Path("src/repro/mc/controller.py")

#: Real source root, for fixtures that lint shipped modules verbatim.
SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def findings_for(rule_id, text, path=GENERIC):
    return lint_source(text, path, rules=[get_rule(rule_id)])


class TestRegistry:
    def test_all_eleven_rules_registered(self):
        assert set(rule_ids()) == {
            "RAW-GEOM", "RNG-DET", "LINK-MUT", "EXC-SWALLOW", "FLOAT-EQ",
            "FAULT-HOOK", "TELEM-API",
            "SOA-ALIAS", "SHM-LIFE", "DET-WALLCLOCK", "HOOK-NONE"}

    def test_get_rule_is_case_insensitive(self):
        assert get_rule("raw-geom").id == "RAW-GEOM"

    def test_rules_carry_rationale(self):
        for rule_id in rule_ids():
            rule = get_rule(rule_id)
            assert rule.summary and rule.rationale


class TestRawGeom:
    def test_pr1_victim_page_bug_is_caught(self):
        # The exact shape PR 1 shipped in sim/fast.py: page id from a PA
        # without the PagePool.base_pa offset.
        bad = "victim_page = pa // self.config.blocks_per_page\n"
        found = findings_for("RAW-GEOM", bad, Path("src/repro/sim/fast.py"))
        assert [f.rule for f in found] == ["RAW-GEOM"]
        assert "blocks_per_page" in found[0].message

    @pytest.mark.parametrize("bad", [
        "offset = pa % blocks_per_page\n",
        "base = page_id * bpp\n",
        "page, offset = divmod(pa, blocks_per_page)\n",
        "blocks = self.ledger.pages_acquired * self.blocks_per_page\n",
    ])
    def test_each_banned_operation_is_caught(self, bad):
        assert [f.rule for f in findings_for("RAW-GEOM", bad)] == ["RAW-GEOM"]

    @pytest.mark.parametrize("good", [
        "victim_page = self.ospool.page_of_pa(pa)\n",
        "offset = self.ospool.offset_in_page(pa)\n",
        "blocks = blocks_of_pages(pages, blocks_per_page)\n",
        "total = count * 2\n",
    ])
    def test_helper_calls_stay_clean(self, good):
        assert findings_for("RAW-GEOM", good) == []

    def test_geometry_owners_are_exempt(self):
        bad = "page = pa // blocks_per_page\n"
        for owner in ("src/repro/pcm/geometry.py",
                      "src/repro/osmodel/allocator.py",
                      "src/repro/units.py"):
            assert findings_for("RAW-GEOM", bad, Path(owner)) == []
        assert findings_for("RAW-GEOM", bad) != []


class TestRngDet:
    @pytest.mark.parametrize("bad", [
        "import numpy as np\nx = np.random.randint(0, 4)\n",
        "import numpy as np\nnp.random.seed(0)\n",
        "import numpy\nnumpy.random.shuffle(values)\n",
        "import random\n",
        "from random import choice\n",
    ])
    def test_global_rng_state_is_caught(self, bad):
        assert [f.rule for f in findings_for("RNG-DET", bad)] == ["RNG-DET"]

    @pytest.mark.parametrize("good", [
        "import numpy as np\nrng = np.random.default_rng(seed)\n",
        "import numpy as np\ng = np.random.Generator(np.random.PCG64(1))\n",
        "from repro.rng import derive_rng\nrng = derive_rng(seed, 'fig5')\n",
        "import numpy as np\nseq = np.random.SeedSequence(7)\n",
    ])
    def test_generator_construction_stays_clean(self, good):
        assert findings_for("RNG-DET", good) == []

    def test_rng_module_is_exempt(self):
        bad = "import random\n"
        assert findings_for("RNG-DET", bad, Path("src/repro/rng.py")) == []


class TestLinkMut:
    @pytest.mark.parametrize("bad", [
        "table._pointer[da] = vpa\n",
        "del reviver.links._inverse[vpa]\n",
        "pool._spares.append(pa)\n",
    ])
    def test_foreign_internal_access_is_caught(self, bad):
        assert [f.rule for f in findings_for("LINK-MUT", bad)] == ["LINK-MUT"]

    @pytest.mark.parametrize("good", [
        "self._pointer[da] = vpa\n",
        "cls._spares = []\n",
        "table.link(da, vpa)\n",
        "pool.add(pas)\n",
    ])
    def test_own_state_and_api_calls_stay_clean(self, good):
        assert findings_for("LINK-MUT", good) == []

    def test_reviver_package_is_exempt(self):
        bad = "table._pointer[da] = vpa\n"
        assert findings_for(
            "LINK-MUT", bad, Path("src/repro/reviver/chains.py")) == []


class TestExcSwallow:
    def test_bare_except_is_caught(self):
        bad = "try:\n    step()\nexcept:\n    pass\n"
        found = findings_for("EXC-SWALLOW", bad)
        assert [f.rule for f in found] == ["EXC-SWALLOW"]
        assert "bare except" in found[0].message

    @pytest.mark.parametrize("bad", [
        "try:\n    step()\nexcept Exception:\n    pass\n",
        "try:\n    step()\nexcept BaseException as exc:\n    log(exc)\n",
        "try:\n    step()\nexcept ReproError:\n    count += 1\n",
        "try:\n    step()\nexcept (ValueError, Exception):\n    pass\n",
        "try:\n    step()\nexcept errors.ReproError:\n    pass\n",
    ])
    def test_broad_handler_without_reraise_is_caught(self, bad):
        assert [f.rule for f in findings_for("EXC-SWALLOW", bad)] \
            == ["EXC-SWALLOW"]

    @pytest.mark.parametrize("good", [
        "try:\n    step()\nexcept Exception:\n    raise\n",
        "try:\n    step()\nexcept Exception as exc:\n"
        "    raise ProtocolError('wrapped') from exc\n",
        "try:\n    step()\nexcept ValueError:\n    pass\n",
        "try:\n    step()\nexcept CapacityExhaustedError:\n    stop()\n",
    ])
    def test_narrow_or_reraising_handlers_stay_clean(self, good):
        assert findings_for("EXC-SWALLOW", good) == []


class TestFloatEq:
    @pytest.mark.parametrize("bad", [
        "if mean == 0.0:\n    return 0.0\n",
        "assert fraction != 1.0\n",
        "ok = 0.5 == ratio\n",
    ])
    def test_float_literal_equality_is_caught(self, bad):
        assert [f.rule for f in findings_for("FLOAT-EQ", bad)] == ["FLOAT-EQ"]

    @pytest.mark.parametrize("good", [
        "if count == 0:\n    return\n",
        "if math.isclose(mean, 0.0):\n    return\n",
        "if fraction <= 0.5:\n    stop()\n",
        "flag = name == 'reviver'\n",
    ])
    def test_sanctioned_comparisons_stay_clean(self, good):
        assert findings_for("FLOAT-EQ", good) == []


class TestFaultHook:
    @pytest.mark.parametrize("bad", [
        "engine.inject = driver\n",
        "chip.inject.on_read(da)\n",
        "controller.inject = None\n",
        "hooks = self.chip.inject\n",
    ])
    def test_foreign_hook_access_is_caught(self, bad):
        assert [f.rule for f in findings_for("FAULT-HOOK", bad)] \
            == ["FAULT-HOOK"]

    @pytest.mark.parametrize("good", [
        "self.inject = None\n",
        "if self.inject is not None:\n    self.inject.poll(writes)\n",
        "driver.attach_exact(engine)\n",
        "schedule = random_schedule(seed, 96, 4000)\n",
    ])
    def test_own_hook_and_driver_api_stay_clean(self, good):
        assert findings_for("FAULT-HOOK", good) == []

    def test_faultinject_package_is_exempt(self):
        bad = "engine.inject = self\n"
        assert findings_for(
            "FAULT-HOOK", bad,
            Path("src/repro/faultinject/hooks.py")) == []

    def test_array_layer_is_not_exempt(self):
        # The shard-array layer wires N engines; hook discipline applies
        # to every one of them.
        bad = "engine.inject = driver\n"
        for path in ("src/repro/array/engine.py",
                     "src/repro/array/shard.py"):
            assert [f.rule for f in findings_for(
                "FAULT-HOOK", bad, Path(path))] == ["FAULT-HOOK"]

    def test_array_shard_wiring_stays_clean(self):
        # The sanctioned per-shard pattern: project the schedule, then
        # let the driver attach itself.
        good = ("driver = ScheduleDriver(for_shard(schedule, shard))\n"
                "driver.attach_fast(engine)\n")
        assert findings_for("FAULT-HOOK", good,
                            Path("src/repro/array/shard.py")) == []


class TestTelemApi:
    @pytest.mark.parametrize("bad", [
        "engine.telem = session\n",
        "controller.telem.emit('crash')\n",
        "reviver.links.telem = session\n",
        "session = self.chip.telem\n",
    ])
    def test_foreign_hook_access_is_caught(self, bad):
        assert [f.rule for f in findings_for("TELEM-API", bad)] \
            == ["TELEM-API"]

    @pytest.mark.parametrize("bad", [
        "count = Counter('events')\n",
        "registry = Registry(enabled=False)\n",
        "hist = Histogram('latency', (0.1, 1.0))\n",
    ])
    def test_direct_metric_construction_is_caught(self, bad):
        assert [f.rule for f in findings_for("TELEM-API", bad)] \
            == ["TELEM-API"]

    @pytest.mark.parametrize("good", [
        "self.telem = None\n",
        "if self.telem is not None:\n    self.telem.emit('crash')\n",
        "attach_exact(session, engine)\n",
        "counter = session.registry.counter('grid.cells')\n",
    ])
    def test_own_hook_and_attach_api_stay_clean(self, good):
        assert findings_for("TELEM-API", good) == []

    def test_telemetry_package_is_exempt(self):
        bad = "engine.telem = session\nregistry = Registry()\n"
        assert findings_for(
            "TELEM-API", bad,
            Path("src/repro/telemetry/__init__.py")) == []

    def test_array_layer_is_not_exempt(self):
        # Per-shard telemetry still goes through sessions and attach_*;
        # neither the shard cell nor the merging engine may shortcut.
        bad = "engine.telem = session\n"
        for path in ("src/repro/array/engine.py",
                     "src/repro/array/shard.py"):
            assert [f.rule for f in findings_for(
                "TELEM-API", bad, Path(path))] == ["TELEM-API"]
        assert [f.rule for f in findings_for(
            "TELEM-API", "registry = Registry()\n",
            Path("src/repro/array/engine.py"))] == ["TELEM-API"]

    def test_array_shard_wiring_stays_clean(self):
        # The sanctioned per-shard pattern: own session, sanctioned
        # attach, pure snapshot merging.
        good = ("session = TelemetrySession()\n"
                "attach_fast(session, engine)\n"
                "merged = merge_snapshots(merged, snapshot)\n")
        assert findings_for("TELEM-API", good,
                            Path("src/repro/array/shard.py")) == []

class TestSoaAlias:
    """The view-aliasing rule over shared device arrays."""

    def test_chained_advanced_index_store_is_caught(self):
        bad = ("import numpy as np\n"
               "def redirect(wear: np.ndarray, limit: int) -> None:\n"
               "    mask = wear > limit\n"
               "    wear[mask][0] = 0\n")
        found = findings_for("SOA-ALIAS", bad)
        assert [f.rule for f in found] == ["SOA-ALIAS"]
        assert "temporary copy" in found[0].message

    def test_dealiasing_rebind_then_write_is_caught(self):
        bad = ("import numpy as np\n"
               "def bump(wear: np.ndarray) -> None:\n"
               "    wear = wear + 1\n"
               "    wear[0] = 5\n")
        found = findings_for("SOA-ALIAS", bad)
        assert [(f.rule, f.line) for f in found] == [("SOA-ALIAS", 3)]
        assert "rebinds a row view" in found[0].message

    def test_view_propagates_through_ravel_and_slices(self):
        bad = ("import numpy as np\n"
               "def flatten(wear: np.ndarray) -> None:\n"
               "    flat = wear.ravel()\n"
               "    flat = flat * 2\n"
               "    flat[0] = 1\n")
        assert [f.rule for f in findings_for("SOA-ALIAS", bad)] \
            == ["SOA-ALIAS"]

    def test_verbatim_startgap_bulk_rows_stays_clean(self):
        # wl/startgap.py's closed-form StartGap.bulk_migrations:
        # basic-slice stores on a fresh array plus scalar attribute
        # rebinds — all sanctioned.
        good = ("import numpy as np\n"
                "def rows_of(wl, moves: int, period: int):\n"
                "    gaps = (wl.gap - np.arange(moves, dtype=np.int64))"
                " % period\n"
                "    rows = np.empty((moves, 2), dtype=np.int64)\n"
                "    rows[:, 0] = (gaps - 1) % period\n"
                "    rows[:, 1] = gaps\n"
                "    wl.gap = int((wl.gap - moves) % period)\n"
                "    return rows\n")
        assert findings_for("SOA-ALIAS", good) == []

    def test_verbatim_rehome_aliasing_stays_clean(self):
        # Re-homing an owner's array onto a row view: storing the view
        # into an attribute IS the aliasing invariant, not a violation.
        good = ("def rehome(self, i: int, chip) -> None:\n"
                "    self.wear[i] = chip.wear\n"
                "    chip.wear = self.wear[i]\n")
        assert findings_for("SOA-ALIAS", good) == []

    def test_verbatim_migration_mask_rebind_stays_clean(self):
        # A migration phase: `dsts` is a fresh index array (advanced
        # indexing), so narrowing it in place is legal; the actual wear
        # write goes through np.add.at on the row view.
        good = ("import numpy as np\n"
                "def migrate(self, engine, rows, i: int) -> None:\n"
                "    dsts = engine._redirect[rows[:, 1]]\n"
                "    dsts = dsts[~self.failed[i][dsts]]\n"
                "    np.add.at(self.wear[i], dsts, 1)\n")
        assert findings_for("SOA-ALIAS", good) == []

    def test_compute_and_return_rebind_stays_clean(self):
        # No later element store through the name: the rebind is a pure
        # value computation, which forward_many-style code relies on.
        good = ("import numpy as np\n"
                "def scaled(wear: np.ndarray) -> np.ndarray:\n"
                "    wear = wear * 2\n"
                "    return wear\n")
        assert findings_for("SOA-ALIAS", good) == []

    def test_explicit_copy_is_the_sanctioned_opt_out(self):
        good = ("import numpy as np\n"
                "def snapshot(wear: np.ndarray) -> np.ndarray:\n"
                "    wear = wear.copy() + 1\n"
                "    wear[0] = 5\n"
                "    return wear\n")
        assert findings_for("SOA-ALIAS", good) == []


class TestShmLife:
    """SharedMemory lifecycle: close on all paths, never unlink twice."""

    def test_missing_close_on_straight_path_is_caught(self):
        bad = ("from multiprocessing import shared_memory\n"
               "def read(name: str, nbytes: int) -> bytes:\n"
               "    segment = shared_memory.SharedMemory(name=name)\n"
               "    return bytes(segment.buf[:nbytes])\n")
        found = findings_for("SHM-LIFE", bad)
        assert [f.rule for f in found] == ["SHM-LIFE"]
        assert "close()" in found[0].message

    def test_missing_close_on_one_branch_is_caught(self):
        bad = ("from multiprocessing import shared_memory\n"
               "def read(name: str, nbytes: int, keep: bool) -> bytes:\n"
               "    segment = shared_memory.SharedMemory(name=name)\n"
               "    data = bytes(segment.buf[:nbytes])\n"
               "    if keep:\n"
               "        segment.close()\n"
               "    return data\n")
        assert [f.rule for f in findings_for("SHM-LIFE", bad)] \
            == ["SHM-LIFE"]

    def test_double_unlink_is_caught(self):
        bad = ("from multiprocessing import shared_memory\n"
               "def consume(name: str) -> None:\n"
               "    segment = shared_memory.SharedMemory(name=name)\n"
               "    segment.close()\n"
               "    segment.unlink()\n"
               "    segment.unlink()\n")
        found = findings_for("SHM-LIFE", bad)
        assert [(f.rule, f.line) for f in found] == [("SHM-LIFE", 6)]
        assert "twice" in found[0].message

    def test_verbatim_pack_and_unpack_stay_clean(self):
        # experiments/shm.py end to end: try/finally close, worker-side
        # no-unlink (the parent owns destruction), escape via _untrack.
        text = (SRC_ROOT / "repro" / "experiments" / "shm.py").read_text(
            encoding="utf-8")
        assert findings_for(
            "SHM-LIFE", text, Path("src/repro/experiments/shm.py")) == []

    def test_try_finally_close_stays_clean(self):
        good = ("from multiprocessing import shared_memory\n"
                "def read(name: str, nbytes: int) -> bytes:\n"
                "    segment = shared_memory.SharedMemory(name=name)\n"
                "    try:\n"
                "        data = bytes(segment.buf[:nbytes])\n"
                "    finally:\n"
                "        segment.close()\n"
                "        segment.unlink()\n"
                "    return data\n")
        assert findings_for("SHM-LIFE", good) == []

    def test_returned_segment_transfers_ownership(self):
        good = ("from multiprocessing import shared_memory\n"
                "def allocate(size: int):\n"
                "    segment = shared_memory.SharedMemory(create=True,"
                " size=size)\n"
                "    return segment\n")
        assert findings_for("SHM-LIFE", good) == []


class TestDetWallclock:
    @pytest.mark.parametrize("bad", [
        "import time\nstamp = time.time()\n",
        "import time\nt0 = time.perf_counter()\n",
        "import datetime\nts = datetime.datetime.now()\n",
        "import random\nx = random.random()\n",
        "from time import perf_counter\n",
    ])
    def test_ambient_clock_reads_are_caught(self, bad):
        assert [f.rule for f in findings_for("DET-WALLCLOCK", bad)] \
            == ["DET-WALLCLOCK"]

    @pytest.mark.parametrize("good", [
        "import time\ntime.sleep(0.1)\n",
        "import numpy as np\nrng = np.random.default_rng(3)\n",
        "import numpy as np\nseq = np.random.SeedSequence(7)\n",
        "import numpy as np\n"
        "g = np.random.Generator(np.random.PCG64(1))\n",
    ])
    def test_seeded_streams_and_sleep_stay_clean(self, good):
        assert findings_for("DET-WALLCLOCK", good) == []

    def test_telemetry_and_benchmarks_are_exempt(self):
        bad = "import time\nstamp = time.time()\n"
        for path in ("src/repro/telemetry/profile.py",
                     "benchmarks/test_fast_bench.py"):
            assert findings_for("DET-WALLCLOCK", bad, Path(path)) == []
        assert findings_for("DET-WALLCLOCK", bad) != []

    def test_justified_allow_comment_silences(self):
        text = ("import time\n"
                "t0 = time.perf_counter()  "
                "# repro: allow(DET-WALLCLOCK): phase profile only\n")
        assert findings_for("DET-WALLCLOCK", text) == []


class TestHookNone:
    @pytest.mark.parametrize("bad", [
        "def attach(engine, telem=0):\n    pass\n",
        "def run(engine, inject):\n    pass\n",
        "def spawn(*, inject=False):\n    pass\n",
    ])
    def test_non_none_hook_defaults_are_caught(self, bad):
        assert [f.rule for f in findings_for("HOOK-NONE", bad)] \
            == ["HOOK-NONE"]

    def test_unguarded_hook_call_is_caught(self):
        bad = ("class E:\n"
               "    def step(self) -> None:\n"
               "        self.telem.emit('x')\n")
        found = findings_for("HOOK-NONE", bad)
        assert [(f.rule, f.line) for f in found] == [("HOOK-NONE", 3)]

    def test_guarded_call_stays_clean(self):
        good = ("class E:\n"
                "    def step(self) -> None:\n"
                "        if self.telem is not None:\n"
                "            self.telem.emit('x')\n")
        assert findings_for("HOOK-NONE", good) == []

    def test_verbatim_fast_epoch_alias_guard_stays_clean(self):
        # sim/fast.py's _epoch idiom: early return on None, then a local
        # alias used unguarded — the dataflow pass must carry the fact
        # through the rebind.
        good = ("class E:\n"
                "    def _epoch(self) -> None:\n"
                "        if self.telem is None:\n"
                "            return\n"
                "        telem = self.telem\n"
                "        telem.phase('software')\n")
        assert findings_for("HOOK-NONE", good) == []

    def test_none_default_with_guard_stays_clean(self):
        good = ("def attach(engine, telem=None):\n"
                "    if telem is not None:\n"
                "        telem.emit('attach')\n")
        assert findings_for("HOOK-NONE", good) == []

    def test_telemetry_and_faultinject_packages_are_exempt(self):
        bad = "def attach(engine, telem=0):\n    pass\n"
        for path in ("src/repro/telemetry/attach.py",
                     "src/repro/faultinject/hooks.py"):
            assert findings_for("HOOK-NONE", bad, Path(path)) == []
