#!/usr/bin/env python
"""The performance ledger: committed ``BENCH_<workload>.json`` files.

A ledger entry wraps the repository benchmark (``perfbench/run.py``)
without changing it::

    python tools/bench_ledger.py record exact_verify
    python tools/bench_ledger.py diff BENCH_exact_verify.json new.json

``record`` runs ``perfbench/run.py`` once with ``--trace 0`` and once
with ``--trace 1`` and writes ``BENCH_<workload>.json`` (sorted keys):
the machine, the source that ran, perfbench's end-to-end medians from
the untraced run, the per-layer metrics of the traced run, and the
output digest, which both runs must agree on.  The source is named by
the checked-out commit when the tracked files match it; otherwise by
that commit as ``parent`` (the uncommitted change sits on it).  Either
way it carries ``files_sha256``, a hash of the tracked files under
``src/`` and ``perfbench/`` as they ran, which any later checkout can
recompute with :func:`files_sha256`.

``diff A B`` exits 1 when the digests differ (the simulated output
changed) and 0 otherwise.  When both ledgers come from the same machine
it prints every metric of both with its relative change, flagging a
change for the worse beyond the metric's bound in ``BENCHMARK.json`` as
``REGRESSION`` (not a gate).  Times depend on the host, so when the
machines differ it compares no times and prints B's alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = REPO / "BENCHMARK.json"
#: The benchmark seed every ledger is recorded on.
SEED = 1
#: The trees whose files decide what a benchmark run executes.
SOURCE_DIRS = ("src", "perfbench")
DIGEST = re.compile(r"^digest: \S+ sha256=([0-9a-f]{64}) ")


class LedgerError(Exception):
    """A benchmark run failed or printed something unexpected."""


def run_perfbench(workload: str, seconds: float,
                  trace: int) -> Dict[str, Any]:
    """One ``perfbench/run.py`` invocation: machine, digest and metrics."""
    command = [sys.executable, str(REPO / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise LedgerError(f"perfbench exited {done.returncode}:\n"
                          f"{done.stderr.strip()}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise LedgerError("perfbench output checks failed:\n"
                          + "\n".join(lines[:-1]))
    machine = digest = None
    for line in lines:
        if line.startswith("machine: "):
            machine = json.loads(line[len("machine: "):])
        match = DIGEST.match(line)
        if match:
            digest = match.group(1)
    if machine is None or digest is None:
        raise LedgerError("perfbench printed no machine or digest line")
    return {"machine": machine, "digest": digest,
            "metrics": result["metrics"]}


def git(root: Path, *args: str) -> str:
    """Stdout of ``git *args`` run in *root* (empty when git fails)."""
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
                          text=True).stdout.strip()


def files_sha256(root: Path = REPO) -> str:
    """sha256 over the path and content of every tracked file under
    :data:`SOURCE_DIRS` in *root*'s working tree."""
    digest = hashlib.sha256()
    for name in sorted(git(root, "ls-files", *SOURCE_DIRS).splitlines()):
        path = root / name
        if path.is_file():
            digest.update(name.encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def source(root: Path = REPO) -> Dict[str, str]:
    """What a run in *root* executes: the commit, or with uncommitted
    changes to tracked files the commit they sit on, plus the files'
    hash."""
    head = git(root, "rev-parse", "--short", "HEAD") or "unknown"
    dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no"))
    return {("parent" if dirty else "commit"): head,
            "files_sha256": files_sha256(root)}


def describe(src: Dict[str, str]) -> str:
    """One-line name of a ledger's source."""
    name = (src["commit"] if "commit" in src
            else src["parent"] + "+uncommitted")
    return f"{name} (files {src['files_sha256'][:12]})"


def record(workload: str, seconds: float) -> Dict[str, Any]:
    """Run the benchmark and assemble one ledger entry."""
    untraced = run_perfbench(workload, seconds, 0)
    traced = run_perfbench(workload, seconds, 1)
    if untraced["digest"] != traced["digest"]:
        raise LedgerError("the traced and untraced runs disagree on the "
                          f"output digest: {untraced['digest']} vs "
                          f"{traced['digest']}")
    return {
        "workload": workload, "seed": SEED, "seconds": seconds,
        "machine": untraced["machine"], "source": source(),
        "digest": untraced["digest"],
        "end_to_end": untraced["metrics"],
        "per_layer": {name: metric["value"]
                      for name, metric in traced["metrics"].items()},
    }


def regressed(name: str, before: float, after: float,
              bounds: Dict[str, Dict[str, Any]]) -> bool:
    """Whether *after* is worse than *before* beyond *name*'s bound."""
    spec = bounds[name]
    if before == 0:
        return False
    change = (after - before) / abs(before)
    worse = change if spec["better"] == "lower" else -change
    return worse > spec["bound"]


def diff(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Report lines comparing ledger *a* (before) with *b* (after)."""
    bounds = {metric["name"]: metric for metric in
              json.loads(BENCHMARK.read_text())["end_to_end"]}
    same = a["digest"] == b["digest"]
    lines = [f"workload {a['workload']} -> {b['workload']}: digest "
             + ("identical" if same else
                f"DIFFERS {a['digest'][:12]} -> {b['digest'][:12]}"),
             f"source {describe(a['source'])} -> {describe(b['source'])}"]
    same_host = a["machine"] == b["machine"]
    if not same_host:
        lines.append("machines differ, so no times are compared; after, on "
                     + json.dumps(b["machine"], sort_keys=True) + ":")
    for name, metric in sorted(b["end_to_end"].items()):
        after = metric["value"]
        if not same_host or name not in a["end_to_end"]:
            lines.append(f"  {name:12s} {after:14.6g} {metric['unit']}")
            continue
        before = a["end_to_end"][name]["value"]
        change = (after - before) / abs(before) if before else 0.0
        flag = ("  REGRESSION" if regressed(name, before, after, bounds)
                else "")
        lines.append(f"  {name:12s} {before:14.6g} -> {after:14.6g} "
                     f"({change:+.1%}, bound {bounds[name]['bound']:.0%})"
                     f"{flag}")
    lines.append("  per-layer:")
    for name, after in sorted(b["per_layer"].items()):
        before = a["per_layer"].get(name, 0.0) if same_host else 0.0
        if not (before or after):
            continue
        lines.append(f"    {name:26s} {before:14.6g} -> {after:14.6g}"
                     if same_host else f"    {name:26s} {after:14.6g}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Record or compare BENCH_<workload>.json ledgers.")
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="run the benchmark and write "
                                             "its ledger")
    rec.add_argument("workload")
    rec.add_argument("--seconds", type=float, default=30.0,
                     help="perfbench --seconds of each of the two runs")
    rec.add_argument("--out", type=Path, default=None,
                     help="output file (default BENCH_<workload>.json at "
                          "the repository root)")
    cmp_ = commands.add_parser("diff", help="compare two ledgers; exit 1 "
                                            "when their digests differ")
    cmp_.add_argument("before", type=Path)
    cmp_.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        try:
            entry = record(args.workload, args.seconds)
        except LedgerError as exc:
            print(f"bench_ledger: {exc}", file=sys.stderr)
            return 1
        out = args.out or REPO / f"BENCH_{args.workload}.json"
        out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
        print(f"bench_ledger: wrote {out}")
        return 0
    before = json.loads(args.before.read_text())
    after = json.loads(args.after.read_text())
    print("\n".join(diff(before, after)))
    return 0 if before["digest"] == after["digest"] else 1


if __name__ == "__main__":
    sys.exit(main())
