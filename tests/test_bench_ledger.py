"""The ledger: one untraced plus one traced run; digests gate the diff,
timings are flagged against bounds only between like machines."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ledger.py"
MACHINE = {"machine": "x86_64", "nproc": 2, "python": "3.11.7"}


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("bench_ledger", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(digest="a" * 64, run_s=2.0, ok_frac=1.0, per_layer=None,
          machine=MACHINE):
    return {"workload": "exact_verify", "digest": digest,
            "machine": machine,
            "source": {"commit": "abc1234", "files_sha256": "f" * 64},
            "end_to_end": {"run_s": {"value": run_s, "unit": "s"},
                           "ok_frac": {"value": ok_frac, "unit": "ratio"}},
            "per_layer": per_layer or {"wl.map_s": 0.5, "sim.epochs": 0.0}}


def perfbench_stdout(trace, digest="d" * 64):
    metrics = ({"wl.map_s": {"value": 0.25, "unit": "s"}} if trace else
               {"run_s": {"value": 1.5, "unit": "s"}})
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": metrics}
    return "\n".join([
        "machine: " + json.dumps(MACHINE),
        f"digest: exact_verify sha256={digest} (3 untraced, 0 traced "
        "samples)",
        json.dumps(result)])


class TestRecord:
    def test_one_untraced_and_one_traced_run(self, ledger, monkeypatch):
        calls = []

        def fake_run(command, **kwargs):
            trace = int(command[command.index("--trace") + 1])
            calls.append(trace)
            return subprocess.CompletedProcess(command, 0,
                                               perfbench_stdout(trace), "")
        monkeypatch.setattr(ledger.subprocess, "run", fake_run)
        monkeypatch.setattr(ledger, "source",
                            lambda: {"commit": "abc1234",
                                     "files_sha256": "f" * 64})
        got = ledger.record("exact_verify", 10.0)
        assert calls == [0, 1]
        assert got["end_to_end"] == {"run_s": {"value": 1.5, "unit": "s"}}
        assert got["per_layer"] == {"wl.map_s": 0.25}
        assert got["digest"] == "d" * 64 and got["machine"] == MACHINE

    def test_runs_disagreeing_on_the_digest_fail(self, ledger, monkeypatch):
        def fake_run(command, **kwargs):
            trace = int(command[command.index("--trace") + 1])
            return subprocess.CompletedProcess(
                command, 0, perfbench_stdout(trace, str(trace) * 64), "")
        monkeypatch.setattr(ledger.subprocess, "run", fake_run)
        with pytest.raises(ledger.LedgerError):
            ledger.record("exact_verify", 10.0)


class TestSource:
    def test_commit_when_clean_parent_when_dirty(self, ledger, tmp_path):
        def git(*args):
            subprocess.run(["git", "-c", "user.name=t",
                            "-c", "user.email=t@t", *args], cwd=tmp_path,
                           check=True, capture_output=True)
        git("init", "-q")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "m.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("a\n")
        git("add", ".")
        git("commit", "-q", "-m", "c")
        head = ledger.git(tmp_path, "rev-parse", "--short", "HEAD")
        clean = ledger.source(tmp_path)
        assert clean == {"commit": head,
                         "files_sha256": ledger.files_sha256(tmp_path)}
        # A change outside src/ and perfbench/ marks the tree dirty but
        # leaves the hash of what the benchmark runs alone.
        (tmp_path / "notes.txt").write_text("b\n")
        notes = ledger.source(tmp_path)
        assert notes == {"parent": head,
                         "files_sha256": clean["files_sha256"]}
        (tmp_path / "src" / "m.py").write_text("x = 2\n")
        changed = ledger.source(tmp_path)
        assert set(changed) == {"parent", "files_sha256"}
        assert changed["files_sha256"] != clean["files_sha256"]


class TestDiff:
    def test_identical_ledgers_pass(self, ledger, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(entry()))
        b.write_text(json.dumps(entry(run_s=1.0)))
        assert ledger.main(["diff", str(a), str(b)]) == 0

    def test_digest_change_fails(self, ledger, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(entry()))
        b.write_text(json.dumps(entry(digest="b" * 64)))
        assert ledger.main(["diff", str(a), str(b)]) == 1

    def test_regression_beyond_bound_is_flagged_not_gated(self, ledger,
                                                          tmp_path):
        # run_s is bounded at 25%, lower is better: +30% regresses.
        lines = ledger.diff(entry(run_s=2.0), entry(run_s=2.6))
        assert any("run_s" in line and "REGRESSION" in line
                   for line in lines)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(entry(run_s=2.0)))
        b.write_text(json.dumps(entry(run_s=2.6)))
        assert ledger.main(["diff", str(a), str(b)]) == 0

    def test_changes_within_bound_or_for_the_better_are_not_flagged(
            self, ledger):
        for after in (2.4, 1.0):
            lines = ledger.diff(entry(run_s=2.0), entry(run_s=after))
            assert not any("REGRESSION" in line for line in lines)

    def test_higher_is_better_metric(self, ledger):
        lines = ledger.diff(entry(ok_frac=1.0), entry(ok_frac=0.98))
        assert any("ok_frac" in line and "REGRESSION" in line
                   for line in lines)

    def test_other_machine_compares_no_times(self, ledger):
        other = dict(MACHINE, nproc=4)
        lines = ledger.diff(entry(run_s=2.0),
                            entry(run_s=9.0, machine=other))
        assert not any("REGRESSION" in line or "->" in line
                       for line in lines[2:])
        assert any("run_s" in line and "9" in line for line in lines)

    def test_per_layer_lists_only_nonzero_metrics(self, ledger):
        lines = ledger.diff(entry(), entry())
        assert any("wl.map_s" in line for line in lines)
        assert not any("sim.epochs" in line for line in lines)
