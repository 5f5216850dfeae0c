"""Tests for the parallel experiment-execution layer."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import fig5
from repro.experiments.parallel import (
    Cell,
    GridRunner,
    cell_seed,
    jsonify,
)
from repro.experiments.shm import (RAW, SHM, SHM_MIN_BYTES, pack_result,
                                   unpack_result)
from repro.sim.metrics import LifetimeSeries, SamplePoint


def _square(value, seed):
    """Module-level cell function (workers re-import this module)."""
    return {"square": value * value, "seed": seed}


def _grid(count=4, seed=7):
    cells = []
    for i in range(count):
        key = f"unit/{i}"
        cells.append(Cell(key=key, fn=f"{__name__}:_square",
                          kwargs=dict(value=i, seed=cell_seed(seed, key))))
    return cells


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(1, "fig5/tiny/ocean") == cell_seed(
            1, "fig5/tiny/ocean")

    def test_distinct_per_key_and_seed(self):
        seeds = {cell_seed(s, k) for s in (1, 2)
                 for k in ("a", "b", "c")}
        assert len(seeds) == 6


class TestJsonify:
    def test_numpy_scalars_and_arrays(self):
        payload = jsonify({"a": np.int64(3), "b": np.float64(0.5),
                           "c": np.arange(3), "d": [np.bool_(True)],
                           "e": ("x", np.int32(1))})
        assert json.loads(json.dumps(payload)) == {
            "a": 3, "b": 0.5, "c": [0, 1, 2], "d": [True], "e": ["x", 1]}


class TestGridRunner:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            GridRunner(jobs=0)

    def test_rejects_duplicate_keys(self):
        cell = _grid(1)[0]
        with pytest.raises(ConfigurationError):
            GridRunner().run([cell, cell])

    def test_serial_results(self):
        results = GridRunner(jobs=1).run(_grid())
        assert results["unit/3"]["square"] == 9

    def test_pool_matches_serial(self):
        serial = GridRunner(jobs=1).run(_grid())
        pooled = GridRunner(jobs=2).run(_grid())
        assert serial == pooled

    def test_progress_callback_sees_every_cell(self):
        seen = []
        runner = GridRunner(
            jobs=1, progress=lambda o, done, total: seen.append(
                (o.key, done, total)))
        runner.run(_grid(3))
        assert [s[0] for s in seen] == ["unit/0", "unit/1", "unit/2"]
        assert seen[-1][1:] == (3, 3)

    def test_report_mentions_cells(self):
        runner = GridRunner(jobs=1)
        runner.run(_grid(2))
        text = runner.report()
        assert "2 cells" in text and "unit/1" in text

    def test_resume_skips_completed_cells(self, tmp_path):
        resume = tmp_path / "cells.json"
        GridRunner(jobs=1, resume=resume).run(_grid())
        payload = json.loads(resume.read_text())
        assert set(payload["cells"]) == {f"unit/{i}" for i in range(4)}
        # Poison one cached value: a resumed run must take it verbatim,
        # proving the cell was skipped, not re-executed.
        payload["cells"]["unit/2"]["value"] = {"square": -1, "seed": 0}
        resume.write_text(json.dumps(payload))
        runner = GridRunner(jobs=1, resume=resume)
        results = runner.run(_grid())
        assert results["unit/2"]["square"] == -1
        assert all(o.cached for o in runner.outcomes)

    def test_resume_completes_partial_run(self, tmp_path):
        resume = tmp_path / "cells.json"
        GridRunner(jobs=1, resume=resume).run(_grid(2))
        runner = GridRunner(jobs=1, resume=resume)
        results = runner.run(_grid(4))
        assert len(results) == 4
        cached = {o.key for o in runner.outcomes if o.cached}
        assert cached == {"unit/0", "unit/1"}


class TestSeriesPayload:
    def test_round_trip(self):
        series = LifetimeSeries(label="x", points=[
            SamplePoint(0, 1.0, 1.0, 1.0),
            SamplePoint(500, 0.9, 0.8, 1.25)])
        rebuilt = LifetimeSeries.from_payload(series.to_payload(), label="x")
        assert rebuilt == series


class TestExperimentDeterminism:
    """The parallel runner must reproduce the serial runner bit-for-bit."""

    def test_fig5_parallel_matches_serial_exactly(self):
        serial = fig5.as_dict(fig5.run(scale="tiny",
                                       benchmarks=["ocean", "mg"],
                                       seed=1, jobs=1))
        pooled = fig5.as_dict(fig5.run(scale="tiny",
                                       benchmarks=["ocean", "mg"],
                                       seed=1, jobs=2))
        assert serial == pooled

    def test_fig5_seed_changes_results_deterministically(self):
        one = fig5.as_dict(fig5.run(scale="tiny", benchmarks=["ocean"],
                                    seed=1))
        again = fig5.as_dict(fig5.run(scale="tiny", benchmarks=["ocean"],
                                      seed=1))
        assert one == again


def _nap(seconds, payload):
    """Short sleeping cell for timing-accounting tests."""
    time.sleep(seconds)
    return {"payload": payload}


def _big(n, seed):
    """Cell with a payload large enough to ride shared memory."""
    return {"vals": list(range(seed, seed + n))}


class TestPoolQueueAccounting:
    """Queue seconds measure *per-future* wait, not grid-wide elapsed."""

    def test_single_worker_backlog_is_not_queue_time(self):
        cells = [Cell(key=f"nap/{i}", fn=f"{__name__}:_nap",
                      kwargs={"seconds": 0.05, "payload": i})
                 for i in range(8)]
        runner = GridRunner(jobs=1)
        results = {}
        runner._run_pool(cells, results, {}, len(cells))
        assert len(results) == 8
        wall = sum(o.seconds for o in runner.outcomes)
        queue = sum(o.queue_seconds for o in runner.outcomes)
        assert wall > 0.3
        # Pre-fix, one grid-wide submit stamp meant cell k reported ~k
        # cells' worth of runtime as queue wait: on this single-worker
        # pool the queue total came out ~3.5x the wall total.  With
        # per-future stamps the backlog never counts as queue time.
        assert queue < 0.5 * wall


class TestResumeThrottle:
    """Resume saves are batched; every save is atomic and durable."""

    def test_serial_run_saves_once_per_batch(self, tmp_path, monkeypatch):
        resume = tmp_path / "cells.json"
        replaced = []
        real_replace = os.replace

        def counting_replace(src, dst, **kwargs):
            if Path(dst) == resume:
                replaced.append(dst)
            return real_replace(src, dst, **kwargs)

        monkeypatch.setattr(os, "replace", counting_replace)
        GridRunner(jobs=1, resume=resume).run(
            [Cell(key=f"unit/{i}", fn=f"{__name__}:_square",
                  kwargs=dict(value=i, seed=i)) for i in range(20)])
        # 20 cells at _SAVE_EVERY=8: saves after cells 8 and 16, plus the
        # final-cell flush — never one write per cell.
        assert len(replaced) == 3
        payload = json.loads(resume.read_text())
        assert len(payload["cells"]) == 20

    def test_partial_batch_is_flushed(self, tmp_path):
        resume = tmp_path / "cells.json"
        GridRunner(jobs=1, resume=resume).run(_grid(3))
        assert len(json.loads(resume.read_text())["cells"]) == 3

    def test_killed_run_leaves_absent_or_valid_resume(self, tmp_path):
        resume = tmp_path / "cells.json"
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        script = textwrap.dedent(f"""
            from repro.experiments.parallel import Cell, GridRunner
            GridRunner._SAVE_EVERY = 1  # maximize the save churn
            cells = [Cell(key=f"nap/{{i}}", fn="tests.test_parallel:_nap",
                          kwargs=dict(seconds=0.004, payload=i))
                     for i in range(500)]
            GridRunner(jobs=1, resume={str(resume)!r}).run(cells)
        """)
        for delay in (0.25, 0.4, 0.6):
            if resume.exists():
                resume.unlink()
            proc = subprocess.Popen([sys.executable, "-c", script],
                                    env=env, cwd=root)
            time.sleep(delay)
            proc.kill()
            proc.wait()
            if resume.exists():
                # Atomic replace: whatever survives the kill must parse.
                payload = json.loads(resume.read_text())
                assert isinstance(payload.get("cells"), dict)


class TestSharedMemoryTransport:
    def test_small_payloads_stay_raw(self):
        packed = pack_result({"a": 1})
        assert packed[0] == RAW
        assert unpack_result(packed) == {"a": 1}

    def test_large_payloads_round_trip_shared_memory(self):
        value = {"series": list(range(SHM_MIN_BYTES))}
        packed = pack_result(value)
        assert packed[0] == SHM
        assert unpack_result(packed) == value

    def test_unencodable_payloads_fall_back_to_raw(self):
        value = {"obj": object()}
        tag, body = pack_result(value)
        assert tag == RAW and body is value

    def test_pool_matches_serial_with_big_payloads(self):
        cells = [Cell(key=f"big/{i}", fn=f"{__name__}:_big",
                      kwargs={"n": 2000, "seed": i}) for i in range(3)]
        serial = GridRunner(jobs=1).run(cells)
        pooled = GridRunner(jobs=2).run(cells)
        assert serial == pooled
