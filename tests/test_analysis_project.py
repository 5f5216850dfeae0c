"""Project model and dataflow engine: the whole-program substrate.

The four cross-module rules are only as good as the facts below: module
naming, import edges, the call-site index, ``is None``
refinement, try/finally exit capture, and the numpy view-ness domain.
Each is pinned here in isolation so a rule regression can be bisected to
either the rule or the substrate.
"""

import ast
from pathlib import Path

from repro.analysis.core import SourceFile
from repro.analysis.dataflow import (Env, FunctionFlow, Viewness,
                                     ViewnessFlow, expr_key, is_basic_index,
                                     viewness_of)
from repro.analysis.project import build_project, module_name_for


def project_of(*files):
    sources = [SourceFile(Path(path), text) for path, text in files]
    return build_project(sources)


class TestModuleNaming:
    def test_src_rooted_paths_strip_the_root(self):
        assert module_name_for(Path("src/repro/sim/fast.py")) \
            == "repro.sim.fast"

    def test_init_names_its_package(self):
        assert module_name_for(Path("src/repro/sim/__init__.py")) \
            == "repro.sim"

    def test_unrooted_paths_keep_their_shape(self):
        assert module_name_for(Path("tools/sarif_check.py")) \
            == "tools.sarif_check"
        assert module_name_for(Path("benchmarks/test_fast_bench.py")) \
            == "benchmarks.test_fast_bench"


class TestProjectModel:
    def test_import_graph_has_only_local_edges(self):
        project = project_of(
            ("src/repro/a.py", "import repro.b\nimport json\n"),
            ("src/repro/b.py", "x = 1\n"))
        graph = project.import_graph()
        assert graph["repro.a"] == {"repro.b"}
        assert graph["repro.b"] == set()
        assert project.importers_of("repro.b") == {"repro.a"}

    def test_from_import_of_package_reaches_children(self):
        project = project_of(
            ("src/repro/user.py", "from repro.sim import campaign\n"),
            ("src/repro/sim/campaign.py", "x = 1\n"))
        assert project.import_graph()["repro.user"] \
            == {"repro.sim.campaign"}

    def test_relative_imports_resolve(self):
        project = project_of(
            ("src/repro/sim/fast.py", "from .campaign import run_campaign\n"),
            ("src/repro/sim/campaign.py", "x = 1\n"))
        assert project.import_graph()["repro.sim.fast"] \
            == {"repro.sim.campaign"}

    def test_functions_carry_qualnames_and_params(self):
        project = project_of(("src/repro/m.py", (
            "import numpy as np\n"
            "class Engine:\n"
            "    def step(self, wear: np.ndarray, telem=None) -> None:\n"
            "        total = wear.sum()\n"
            "        self.note(total)\n")))
        (fn,) = project.functions_in("src/repro/m.py")
        assert fn.qualname == "Engine.step"
        assert fn.params == (("self", None, False),
                             ("wear", "np.ndarray", False),
                             ("telem", None, True))
        assert fn.assigned == {"total"}
        assert {"sum", "note"} <= fn.calls

    def test_call_index_spans_modules(self):
        project = project_of(
            ("src/repro/a.py", "attach_fast(session, engine)\n"),
            ("src/repro/b.py", "telemetry.attach_fast(session, eng)\n"))
        sites = project.calls_of("attach_fast")
        assert {site.module for site in sites} == {"repro.a", "repro.b"}


def run_flow(flow, text, initial=None):
    node = ast.parse(text).body[0]
    flow.run(node, initial)
    return flow


class _ExitRecorder(FunctionFlow):
    """Record (kind, env snapshot) at every function exit."""

    def __init__(self):
        super().__init__()
        self.exits = []

    def on_exit(self, env, stmt, kind):
        self.exits.append((kind, dict(env)))


class _NoneTracker(_ExitRecorder):
    """Track ``x is [not] None`` refinements like HOOK-NONE does."""

    def on_none_test(self, key, is_none, env, test):
        env[key] = "null" if is_none else "nonnull"


class TestFunctionFlow:
    def test_is_none_refinement_splits_branches(self):
        flow = run_flow(_NoneTracker(), (
            "def f(self):\n"
            "    if self.telem is not None:\n"
            "        return 'armed'\n"
            "    return 'idle'\n"))
        assert sorted(env.get("self.telem") for _, env in flow.exits) \
            == ["nonnull", "null"]

    def test_early_return_guard_dominates_the_tail(self):
        flow = run_flow(_NoneTracker(), (
            "def f(self):\n"
            "    if self.telem is None:\n"
            "        return\n"
            "    self.telem.emit('x')\n"))
        tail = [env for kind, env in flow.exits if kind == "fallthrough"]
        assert tail == [{"self.telem": "nonnull"}]

    def test_not_and_conjunction_refine_through(self):
        flow = run_flow(_NoneTracker(), (
            "def f(self, ready):\n"
            "    if not (self.telem is None) and ready:\n"
            "        return 'armed'\n"
            "    return 'idle'\n"))
        armed = flow.exits[0][1]
        assert armed["self.telem"] == "nonnull"

    def test_assignment_kills_stale_facts(self):
        flow = run_flow(_NoneTracker(), (
            "def f(self):\n"
            "    if self.telem is None:\n"
            "        return\n"
            "    self.telem = make()\n"
            "    return self.telem\n"))
        kind, env = flow.exits[-1]
        assert "self.telem" not in env

    def test_finally_sees_the_exceptional_environment(self):
        # The raise happens before ``after`` binds: the captured escape
        # env must be the join of *pre-statement* states, so ``after``
        # cannot be assumed bound on the exceptional path.
        class Snap(_ExitRecorder):
            def on_assign(self, target, value, env, stmt):
                if isinstance(target, ast.Name):
                    env[target.id] = "bound"

        flow = run_flow(Snap(), (
            "def f():\n"
            "    before = 1\n"
            "    try:\n"
            "        boom()\n"
            "        after = 2\n"
            "    finally:\n"
            "        cleanup()\n"
            "    return after\n"))
        # Fall-through exit exists and has both names bound.
        assert any(env.get("after") == "bound" for _, env in flow.exits)

    def test_loop_body_facts_reach_a_fixpoint(self):
        class Collect(ViewnessFlow):
            pass

        flow = Collect(("wear",))
        env = flow.initial_env()
        node = ast.parse(
            "def f(wear):\n"
            "    for i in range(3):\n"
            "        row = wear[i]\n").body[0]
        flow.run(node, env)  # terminates: bounded passes, no exception


class TestExprKey:
    def test_dotted_chains(self):
        assert expr_key(ast.parse("self.telem", mode="eval").body) \
            == "self.telem"
        assert expr_key(ast.parse("x", mode="eval").body) == "x"
        assert expr_key(ast.parse("f().x", mode="eval").body) is None


class TestViewnessDomain:
    def _classify(self, expr_text, env=None):
        expr = ast.parse(expr_text, mode="eval").body
        return viewness_of(expr, dict(env or {}))

    def test_parameter_views_propagate_through_ravel_and_slices(self):
        env = {"wear": Viewness.VIEW}
        assert self._classify("wear.ravel()", env) is Viewness.VIEW
        assert self._classify("wear[1:]", env) is Viewness.VIEW

    def test_copy_and_arithmetic_are_fresh(self):
        env = {"wear": Viewness.VIEW}
        assert self._classify("wear.copy()", env) is Viewness.FRESH
        assert self._classify("wear + 1", env) is Viewness.FRESH
        assert self._classify("np.zeros(4)") is Viewness.FRESH

    def test_comparisons_build_masks(self):
        env = {"wear": Viewness.VIEW}
        assert self._classify("wear > 7", env) is Viewness.MASK
        assert self._classify("~mask", {"mask": Viewness.MASK}) \
            is Viewness.MASK

    def test_attribute_rows_are_views(self):
        assert self._classify("self.wear[i]") is Viewness.VIEW

    def test_advanced_indexing_copies(self):
        env = {"wear": Viewness.VIEW, "mask": Viewness.MASK}
        assert self._classify("wear[mask]", env) is Viewness.FRESH

    def test_basic_index_classification(self):
        env: Env = {"mask": Viewness.MASK, "idx": Viewness.FRESH}
        examples = {
            "1": True, "i": True, "1:": True, "i + 1": True,
            "self.gap": True, "(i, 0)": True,
            "mask": False, "idx": False, "[0, 2]": False,
            "wear > 3": False, "np.nonzero(w)": False,
        }
        for text, expected in examples.items():
            index = ast.parse(f"x[{text}]", mode="eval").body.slice
            assert is_basic_index(index, env) is expected, text

    def test_view_join_is_conservative(self):
        flow = ViewnessFlow(())
        assert flow.join_values(Viewness.VIEW, Viewness.FRESH) \
            is Viewness.VIEW
        assert flow.join_values(Viewness.FRESH, Viewness.MASK) \
            is Viewness.UNKNOWN
