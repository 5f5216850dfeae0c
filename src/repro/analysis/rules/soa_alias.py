"""SOA-ALIAS: writes that silently de-alias array views.

The simulators keep device state in numpy arrays that several owners
share by reference: ``chip.wear`` and ``chip.failed`` are read through
views by the redirect tables, the wear leveler's migration rows and the
telemetry hooks, and helpers receive such arrays (or slices of them) as
parameters and mutate them in place.  Two write shapes break that
sharing without raising anything:

* **chained advanced-index stores** — ``arr[mask][i] = v``: advanced
  indexing (a boolean mask, an index array, a list) returns a *copy*, so
  the store mutates a temporary and vanishes.  numpy does not warn.
* **copy-semantics rebinds** — ``row = row + 1`` where ``row`` is a view
  (an ndarray parameter, ``self.wear[i]``, a slice/``ravel`` of either):
  the arithmetic allocates a fresh buffer and the name silently stops
  aliasing.  The rebind is only a bug when the function then *writes
  elements through the rebound name* expecting the alias — pure
  compute-and-return rebinds stay legal — so the flag requires a later
  subscript store on the same name.

View-ness is tracked flow-sensitively by the
:class:`~repro.analysis.dataflow.ViewnessFlow` domain: parameter and
row-view origins propagate through slices and ``ravel``; ``.copy()``,
``np.*`` constructors, arithmetic and advanced indexing all produce FRESH
values whose rebinds are unconstrained.  Both checks apply to every
function; ``x = x.copy()`` is the one sanctioned opt-out.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple, Union

from ..core import Finding, Rule, SourceFile
from ..dataflow import (Env, NDARRAY_ANNOTATIONS, Viewness, ViewnessFlow,
                        is_basic_index, viewness_of)
from ..registry import register


def _subscript_store_lines(node: ast.AST) -> Dict[str, List[int]]:
    """Lines where each bare name is the base of a subscript store."""
    lines: Dict[str, List[int]] = {}
    for child in ast.walk(node):
        if isinstance(child, (ast.Assign, ast.AugAssign)):
            targets = child.targets if isinstance(child, ast.Assign) \
                else [child.target]
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name):
                    lines.setdefault(target.value.id, []).append(
                        target.lineno)
    return lines


class _AliasFlow(ViewnessFlow):
    """Viewness pass that records de-aliasing rebinds of live views."""

    def __init__(self, ndarray_params: Tuple[str, ...],
                 store_lines: Dict[str, List[int]]) -> None:
        super().__init__(ndarray_params)
        self.store_lines = store_lines
        self.rebinds: List[Tuple[ast.stmt, str]] = []
        self._seen: Set[Tuple[int, int]] = set()

    def on_assign(self, target: ast.expr, value: Optional[ast.expr],
                  env: Env, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name) and value is not None:
            name = target.id
            was_view = env.get(name) is Viewness.VIEW
            self_referential = any(
                isinstance(leaf, ast.Name) and leaf.id == name
                for leaf in ast.walk(value))
            becomes = viewness_of(value, env)
            if (was_view and self_referential
                    and becomes is Viewness.FRESH
                    and not self._is_sanctioned_copy(value)
                    and self._written_after(name, stmt.lineno)):
                anchor = (stmt.lineno, stmt.col_offset)
                if anchor not in self._seen:
                    self._seen.add(anchor)
                    self.rebinds.append((stmt, name))
        super().on_assign(target, value, env, stmt)

    def _written_after(self, name: str, lineno: int) -> bool:
        return any(line > lineno for line in self.store_lines.get(name, []))

    @staticmethod
    def _is_sanctioned_copy(value: ast.expr) -> bool:
        """``x = x.copy()`` (possibly wrapped) is the documented opt-out."""
        for leaf in ast.walk(value):
            if isinstance(leaf, ast.Call) \
                    and isinstance(leaf.func, ast.Attribute) \
                    and leaf.func.attr == "copy":
                return True
        return False


@register
class SoaAliasRule(Rule):
    """Ban copy-semantics writes on values that must alias shared arrays."""

    id = "SOA-ALIAS"
    summary = ("chained advanced-index store or copy-semantics rebind on "
               "a value that must alias a shared array view")
    rationale = ("device state (wear, failure flags, redirect tables) is "
                 "shared by reference between its owners; one "
                 "`x = x + 1` rebind or `arr[mask][i] = v` chained store "
                 "mutates a silent copy and the divergence surfaces "
                 "epochs later as wear drift")

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            findings.extend(self._check_chained_stores(src, node))
            findings.extend(self._check_rebinds(src, node))
        return findings

    # -------------------------------------------------- chained stores

    def _check_chained_stores(
            self, src: SourceFile,
            func: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> List[Finding]:
        """``base[advanced][...] = v`` stores into a temporary copy."""
        findings: List[Finding] = []
        # Flow-insensitive mask facts are enough for index classification.
        final_env = self._final_env(func)
        for child in ast.walk(func):
            if not isinstance(child, (ast.Assign, ast.AugAssign)):
                continue
            targets = child.targets if isinstance(child, ast.Assign) \
                else [child.target]
            for target in targets:
                if not (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Subscript)):
                    continue
                inner = target.value
                if not is_basic_index(inner.slice, final_env):
                    findings.append(self.finding(
                        src, target,
                        "store through a chained advanced index mutates "
                        "a temporary copy, not the row; index once "
                        "(`arr[mask, i] = v`) or use np.add.at"))
        return findings

    @staticmethod
    def _final_env(func: ast.AST) -> Env:
        """Flow-insensitive mask facts: the join of every binding's class.

        A name is treated as a mask/array index if *any* reaching
        definition makes it one — the conservative direction for a rule
        that must not miss ``mask = wear > limit; arr[mask][i] = v``.
        """
        env: Env = {}
        for child in ast.walk(func):
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        kind = viewness_of(child.value, env)
                        if kind in (Viewness.MASK, Viewness.FRESH,
                                    Viewness.VIEW):
                            env[target.id] = kind
        return env

    # --------------------------------------------------------- rebinds

    def _check_rebinds(
            self, src: SourceFile,
            func: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> List[Finding]:
        params = tuple(
            arg.arg
            for arg in (func.args.posonlyargs + func.args.args
                        + func.args.kwonlyargs)
            if arg.annotation is not None
            and _annotation_names_ndarray(arg.annotation))
        flow = _AliasFlow(params, _subscript_store_lines(func))
        flow.run(func, flow.initial_env())
        return [self.finding(
            src, stmt,
            f"`{name} = ...` rebinds a row view to a fresh buffer and a "
            f"later `{name}[...] = ...` writes into the copy; mutate "
            f"in place (`{name} op= ...`) or take an explicit .copy()")
            for stmt, name in flow.rebinds]


def _annotation_names_ndarray(annotation: ast.expr) -> bool:
    try:
        rendered = ast.unparse(annotation)
    except ValueError:  # pragma: no cover - malformed annotation
        return False
    rendered = rendered.replace('"', "").replace("'", "")
    return rendered in NDARRAY_ANNOTATIONS
