"""Visitor core of the lint framework: findings, source files, rule base.

A :class:`Rule` owns one bug class.  It sees a fully parsed
:class:`SourceFile` and returns :class:`Finding` records; the runner applies
suppressions and path exemptions so rules stay purely syntactic.

:class:`ProjectRule` extends the contract for whole-program analyses: the
runner builds one :class:`~repro.analysis.project.ProjectModel` over every
file in the run and hands it to :meth:`ProjectRule.check_project` alongside
each source, so cross-module facts (import edges, call sites) inform
per-file findings.  Linting a lone file still works —
the fallback builds a single-file model.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from .suppressions import SuppressionIndex, scan_suppressions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .project import ProjectModel


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """Human-readable one-liner (1-based column, editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class SourceFile:
    """A parsed module plus everything rules and the runner need."""

    def __init__(self, path: Path, text: str) -> None:
        self.path = path
        self.text = text
        self.tree: ast.Module = ast.parse(text, filename=str(path))
        self.suppressions: SuppressionIndex = scan_suppressions(text)

    @property
    def posix(self) -> str:
        """Path with forward slashes, for pattern matching and output."""
        return self.path.as_posix()


class Rule:
    """Base class: one registered, self-describing lint rule.

    Subclasses set :attr:`id`, :attr:`summary`, optionally
    :attr:`exempt_patterns` (fnmatch patterns over the posix path naming the
    modules allowed to do what the rule bans), and implement :meth:`check`.
    """

    id: str = ""
    summary: str = ""
    #: The shipped bug (or broken guarantee) this rule exists to prevent.
    rationale: str = ""
    exempt_patterns: Tuple[str, ...] = ()

    def applies_to(self, src: SourceFile) -> bool:
        """Whether *src* is subject to this rule (not an exempt module)."""
        return not any(fnmatch.fnmatch(src.posix, pattern)
                       for pattern in self.exempt_patterns)

    def check(self, src: SourceFile) -> List[Finding]:
        """Return every violation in *src* (suppressions handled later)."""
        raise NotImplementedError

    def finding(self, src: SourceFile, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at *node*."""
        return Finding(rule=self.id, path=src.posix,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)


class ProjectRule(Rule):
    """A rule whose findings depend on the whole-program model.

    Subclasses implement :meth:`check_project`; :meth:`check` stays valid
    for single-file use (fixtures, editor integration) by building a
    one-module project on the fly.
    """

    def check(self, src: SourceFile) -> List[Finding]:
        from .project import build_project
        return self.check_project(src, build_project([src]))

    def check_project(self, src: SourceFile,
                      project: Optional["ProjectModel"]) -> List[Finding]:
        """Return every violation in *src* given the project model."""
        raise NotImplementedError
