"""Whole-program project model: modules, imports, functions, call sites.

The per-file rules of :mod:`repro.analysis.rules` are purely syntactic —
each sees one parsed module and nothing else.  Cross-module facts — who
imports a module, where a protocol function is called, which names a
function assigns — live in a model of the whole tree that a
:class:`~repro.analysis.core.ProjectRule` can query.

:class:`ProjectModel` is built once per lint run over every parsed
:class:`~repro.analysis.core.SourceFile` and gives rules three indexes:

* **modules** — dotted module name (derived from the file path) to
  :class:`ModuleInfo`, with the import edges restricted to project-local
  modules forming the import graph;
* **functions** — every ``def`` (sync or async, nested and methods
  included) as a :class:`FunctionInfo` with its qualified name, parameter
  list and assigned-name symbol table;
* **call index** — callee tail name (``attach_fast`` in
  ``telemetry.attach_fast(...)``) to every call site, so rules can find
  protocol registration points without re-walking each tree.

Rules receive the model through :class:`~repro.analysis.core.ProjectRule`;
``lint_source`` on a lone file builds a single-file model so fixtures and
editors see identical behavior, just with an empty cross-module horizon.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import SourceFile

#: Path components that root an import namespace: the module name of
#: ``src/repro/sim/fast.py`` starts after the ``src`` segment.
_SOURCE_ROOTS = ("src",)


def module_name_for(path: Path) -> str:
    """Derive a dotted module name from a file path.

    ``src/repro/sim/fast.py`` -> ``repro.sim.fast``;
    ``tools/sarif_check.py`` -> ``tools.sarif_check``; an ``__init__.py``
    names its package.  Paths outside any source root keep their full
    relative shape so distinct files never collide.
    """
    parts = list(path.parts)
    for root in _SOURCE_ROOTS:
        if root in parts:
            parts = parts[len(parts) - parts[::-1].index(root):]
            break
    if not parts:
        return path.stem
    parts[-1] = Path(parts[-1]).stem
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else path.stem


@dataclass
class FunctionInfo:
    """One ``def`` with the facts the dataflow rules consume."""

    qualname: str
    module: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: ``(name, annotation source or None, has a literal None default)``
    params: Tuple[Tuple[str, Optional[str], bool], ...]
    #: Every name bound by assignment anywhere in the body.
    assigned: Set[str] = field(default_factory=set)
    #: Tail names of every call made in the body (``fn`` for ``m.fn(...)``).
    calls: Set[str] = field(default_factory=set)


@dataclass
class CallSite:
    """One call expression, indexed by its callee tail name."""

    module: str
    path: str
    node: ast.Call


@dataclass
class ModuleInfo:
    """One project module: identity, imports, functions."""

    name: str
    path: str
    tree: ast.Module
    #: Dotted names of every imported module (absolute form when derivable).
    imports: Set[str] = field(default_factory=set)
    functions: List[FunctionInfo] = field(default_factory=list)


def _callee_tail(func: ast.expr) -> Optional[str]:
    """The final identifier of a call target, if it has one."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _annotation_source(node: Optional[ast.expr]) -> Optional[str]:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except ValueError:  # pragma: no cover - malformed annotation
        return None


def _param_rows(args: ast.arguments) -> Tuple[Tuple[str, Optional[str], bool], ...]:
    """Flatten an arguments node into ``(name, annotation, default-is-None)``."""
    rows: List[Tuple[str, Optional[str], bool]] = []
    positional = args.posonlyargs + args.args
    defaults: List[Optional[ast.expr]] = [None] * (
        len(positional) - len(args.defaults)) + list(args.defaults)
    for arg, default in zip(positional, defaults):
        rows.append((arg.arg, _annotation_source(arg.annotation),
                     isinstance(default, ast.Constant)
                     and default.value is None))
    for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        rows.append((arg.arg, _annotation_source(arg.annotation),
                     isinstance(kw_default, ast.Constant)
                     and kw_default.value is None))
    return tuple(rows)


def _resolve_import(module: str, node: ast.ImportFrom) -> Optional[str]:
    """Best-effort absolute module name for a (possibly relative) import."""
    if node.level == 0:
        return node.module
    base = module.split(".")
    # ``from . import x`` inside package p.q resolves against p.q's package;
    # a module's own dotted name already names the package for __init__.
    hops = node.level
    if len(base) < hops:
        return node.module
    prefix = base[:len(base) - hops]
    if node.module:
        prefix.append(node.module)
    return ".".join(prefix) if prefix else None


class _ModuleScanner(ast.NodeVisitor):
    """Single pass collecting imports, functions and call sites."""

    def __init__(self, info: ModuleInfo, calls: Dict[str, List[CallSite]]):
        self.info = info
        self.calls = calls
        self._stack: List[str] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.imports.add(alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        resolved = _resolve_import(self.info.name, node)
        if resolved:
            self.info.imports.add(resolved)
        self.generic_visit(node)

    def _visit_function(self, node: ast.FunctionDef) -> None:
        qualname = ".".join(self._stack + [node.name])
        info = FunctionInfo(qualname=qualname, module=self.info.name,
                            node=node, params=_param_rows(node.args))
        for child in ast.walk(node):
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            info.assigned.add(leaf.id)
            elif isinstance(child, ast.Call):
                tail = _callee_tail(child.func)
                if tail is not None:
                    info.calls.add(tail)
        self.info.functions.append(info)
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_function

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)  # type: ignore[arg-type]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self.generic_visit(node)
        self._stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        tail = _callee_tail(node.func)
        if tail is not None:
            self.calls.setdefault(tail, []).append(
                CallSite(module=self.info.name, path=self.info.path,
                         node=node))
        self.generic_visit(node)


class ProjectModel:
    """The whole-program view rules query; built once per lint run."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.call_index: Dict[str, List[CallSite]] = {}

    # ------------------------------------------------------------ building

    def add_source(self, name: str, path: str, tree: ast.Module) -> ModuleInfo:
        info = ModuleInfo(name=name, path=path, tree=tree)
        _ModuleScanner(info, self.call_index).visit(tree)
        self.modules[name] = info
        self.by_path[path] = info
        return info

    # ------------------------------------------------------------- queries

    def import_graph(self) -> Dict[str, Set[str]]:
        """Edges of the project-local import graph (external edges dropped)."""
        local = set(self.modules)
        graph: Dict[str, Set[str]] = {}
        for name, info in self.modules.items():
            edges = set()
            for imported in info.imports:
                # ``from repro.sim import fast`` records ``repro.sim``;
                # accept both the exact module and any project child of it.
                if imported in local:
                    edges.add(imported)
                else:
                    edges.update(m for m in local
                                 if m.startswith(imported + "."))
            graph[name] = edges
        return graph

    def importers_of(self, module: str) -> Set[str]:
        """Project modules that (transitively do not matter) import *module*."""
        return {name for name, edges in self.import_graph().items()
                if module in edges}

    def functions_in(self, path: str) -> List[FunctionInfo]:
        info = self.by_path.get(path)
        return list(info.functions) if info is not None else []

    def calls_of(self, tail_name: str) -> List[CallSite]:
        return list(self.call_index.get(tail_name, []))


def build_project(sources: Sequence["SourceFile"]) -> ProjectModel:
    """Assemble the project model over every parsed source file."""
    project = ProjectModel()
    for src in sources:
        project.add_source(module_name_for(src.path), src.posix, src.tree)
    return project
