"""Codebase-specific static analysis for the WL-Reviver reproduction.

Every rule in :mod:`repro.analysis.rules` bans a bug class that actually
shipped (and was fixed in a past PR) or that silently breaks a guarantee the
package documents:

* **RAW-GEOM** — raw ``blocks_per_page`` address arithmetic outside the
  geometry owners (:mod:`repro.pcm.geometry`, :mod:`repro.osmodel.allocator`,
  :mod:`repro.units`).
* **RNG-DET** — module-level ``np.random.*`` / stdlib ``random`` instead of
  seeded :class:`numpy.random.Generator` streams from :mod:`repro.rng`.
* **LINK-MUT** — mutation of :class:`~repro.reviver.links.LinkTable` /
  :class:`~repro.reviver.registers.SparePool` internals from outside
  :mod:`repro.reviver`.
* **EXC-SWALLOW** — bare or over-broad ``except`` clauses that can eat
  :class:`~repro.errors.ProtocolError`.
* **FLOAT-EQ** — float equality comparisons in metrics and experiment code.
* **FAULT-HOOK** — fault-injection hook plumbing that bypasses
  :mod:`repro.faultinject`'s registration contract.
* **TELEM-API** — telemetry counter/span misuse outside the
  :mod:`repro.telemetry` facade.
* **SOA-ALIAS** — chained advanced-index stores and copy-semantics rebinds
  on values that must alias a shared array (device wear, failure flags,
  redirect tables).
* **SHM-LIFE** — ``SharedMemory`` handles that miss ``close()`` on some
  path or ``unlink()`` twice, tracked through try/finally.
* **DET-WALLCLOCK** — wall-clock and unseeded-random reads
  (``time.time``, ``datetime.now``, ``random.*``) outside the
  telemetry-exempt modules.
* **HOOK-NONE** — ``inject``/``telem`` hook parameters that do not default
  to ``None`` or are called without an ``is not None`` guard.

Run it with ``python -m repro.analysis src tools benchmarks examples``
(exit code 0 = clean, 1 = findings, 2 = usage error).  A finding is
silenced by a same-line ``# repro: allow(RULE-ID): justification``
comment, or file-wide with ``# repro: allow-file(RULE-ID): justification``.
Re-runs are incremental with ``--cache FILE``; known debt is held in a
``--baseline`` file; ``--format sarif`` emits SARIF 2.1.0 for CI.
"""

from __future__ import annotations

from .baseline import apply_baseline, load_baseline, write_baseline
from .cache import RULESET_VERSION, AnalysisCache, CacheStats
from .core import Finding, ProjectRule, Rule, SourceFile
from .project import ProjectModel, build_project
from .registry import all_rules, get_rule, rule_ids
from .runner import lint_paths, lint_source
from .sarif import to_sarif, validate_sarif

__all__ = [
    "AnalysisCache",
    "CacheStats",
    "Finding",
    "ProjectModel",
    "ProjectRule",
    "RULESET_VERSION",
    "Rule",
    "SourceFile",
    "all_rules",
    "apply_baseline",
    "build_project",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "rule_ids",
    "to_sarif",
    "validate_sarif",
    "write_baseline",
]
