"""Incremental-analysis cache: content-hashed, ruleset-versioned.

CI and pre-commit re-lint trees that usually have not changed since the
last run.  The cache keys a full run on two fingerprints:

* the **ruleset fingerprint** — the sorted rule ids plus
  :data:`RULESET_VERSION`, which every PR that changes rule *behavior*
  (not just adds a rule — id sets are part of the key already) must bump
  so stale findings can never replay against new semantics;
* the **tree digest** — a hash over every file's path and content hash.

A hit replays the stored findings with zero re-parses; the
:class:`CacheStats` counters make that property testable.  Any change —
one edited file, a different file set, a rule bump — misses and the whole
tree re-lints: the project-model rules can move findings into files that
did not themselves change, so per-file reuse would be unsound for them,
and parsing is the dominant cost either way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import Finding, Rule

#: Bump whenever any rule's behavior changes, so cached findings produced
#: by the old semantics cannot satisfy the new gate.
RULESET_VERSION = "2026.10.1"


def ruleset_fingerprint(rules: Sequence[Rule]) -> str:
    """Stable fingerprint of the active rule set."""
    payload = RULESET_VERSION + "|" + ",".join(
        sorted(rule.id for rule in rules))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def tree_digest(contents: Iterable[Tuple[str, str]]) -> str:
    """Hash of every (path, content) pair, order-independent."""
    rows = sorted(
        (path, hashlib.sha256(text.encode("utf-8")).hexdigest())
        for path, text in contents)
    joined = "\n".join(f"{path}\0{digest}" for path, digest in rows)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Observable effect of one run against the cache."""

    hits: int = 0
    misses: int = 0
    #: Files actually parsed this run (zero on a full cache hit).
    parses: int = 0


@dataclass
class AnalysisCache:
    """One cache file; load once, save after a miss re-populates it."""

    path: Optional[Path] = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._ruleset: Optional[str] = None
        self._tree: Optional[str] = None
        self._findings: List[Finding] = []
        if self.path is not None and self.path.exists():
            try:
                payload = json.loads(self.path.read_text(encoding="utf-8"))
                self._ruleset = payload["ruleset"]
                self._tree = payload["tree"]
                self._findings = [
                    Finding(rule=row["rule"], path=row["path"],
                            line=row["line"], col=row["col"],
                            message=row["message"])
                    for row in payload["findings"]]
            except (ValueError, KeyError, TypeError, OSError):
                # A torn or stale cache file is a miss, never an error.
                self._ruleset = None
                self._tree = None
                self._findings = []

    def lookup(self, ruleset: str, tree: str) -> Optional[List[Finding]]:
        """Stored findings when both fingerprints match, else None."""
        if ruleset == self._ruleset and tree == self._tree:
            self.stats.hits += 1
            return list(self._findings)
        self.stats.misses += 1
        return None

    def store(self, ruleset: str, tree: str,
              findings: Sequence[Finding]) -> None:
        """Record a run's findings and persist them when a path is set."""
        self._ruleset = ruleset
        self._tree = tree
        self._findings = list(findings)
        if self.path is None:
            return
        payload = {
            "version": RULESET_VERSION,
            "ruleset": ruleset,
            "tree": tree,
            "findings": [finding.as_dict() for finding in findings],
        }
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(json.dumps(payload, indent=1),
                                 encoding="utf-8")
        except OSError:
            pass  # an unwritable cache degrades to a cold one
