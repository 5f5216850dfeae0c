"""DET-WALLCLOCK: wall-clock and ambient-entropy reads in simulation code.

The repository's reproducibility contract is byte-level: the golden-trace
regression, the pooled-versus-serial campaign ``--check`` and the
fault-injection differential campaigns all compare canonical JSON payloads
across runs and process counts.  One ``time.time()`` folded into a
result — or a ``datetime.now()`` timestamp in a report, or a module-level
``random.*`` draw — makes two correct runs differ and turns every
byte-diff oracle into noise.  Until now the only thing catching such a
leak was the golden trace test, *after* the fact and only on the
instrumented paths.

Telemetry owns wall-clock measurement by design (its profile counters are
stripped before payloads are compared), so :mod:`repro.telemetry` is
exempt, as are the benchmark harnesses whose entire job is timing.
Everything else must either avoid the clock or carry a justified
``# repro: allow(DET-WALLCLOCK)`` explaining why the read cannot reach a
compared payload.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from ..core import Finding, Rule, SourceFile
from ..registry import register

#: ``time.<attr>`` reads of the ambient clock.
CLOCK_ATTRS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock",
    "localtime", "gmtime", "ctime", "asctime", "strftime",
})

#: ``datetime.<attr>`` / ``date.<attr>`` constructors reading the clock.
DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: ``random.<attr>`` exemptions: seedable constructors and types (stdlib
#: ``random.Random``, numpy's ``np.random.default_rng``/``Generator``/
#: ``SeedSequence``/bit generators) are explicit streams — RNG-DET's
#: concern — not ambient entropy.
RANDOM_ALLOWED = frozenset({
    "Random", "SeedSequence", "Generator", "default_rng",
    "BitGenerator", "PCG64", "Philox", "MT19937", "SFC64",
})

_DATETIME_OWNERS = frozenset({"datetime", "date"})


def _owner_name(node: ast.Attribute) -> str:
    """Identifier the attribute hangs off (``time`` in ``time.time``)."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        # ``datetime.datetime.now`` / ``dt.datetime.now``: the inner
        # attribute name decides.
        return value.attr
    return ""


@register
class WallClockRule(Rule):
    """Ban ambient clock/entropy reads outside telemetry and benchmarks."""

    id = "DET-WALLCLOCK"
    summary = ("time.time/perf_counter, datetime.now or module-level "
               "random.* outside the telemetry-exempt modules")
    rationale = ("one wall-clock or ambient-entropy read folded into a "
                 "result payload breaks every byte-identical oracle "
                 "(golden trace, campaign --check, campaign resume diffs); "
                 "only telemetry may measure time, and it strips those "
                 "counters before payloads are compared")
    exempt_patterns: Tuple[str, ...] = (
        "*/repro/telemetry/*",
        "benchmarks/*", "*/benchmarks/*",
    )

    def check(self, src: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute):
                owner = _owner_name(node)
                if owner == "time" and node.attr in CLOCK_ATTRS:
                    findings.append(self.finding(
                        src, node,
                        f"time.{node.attr} reads the ambient clock; route "
                        f"timing through repro.telemetry (timed_call / "
                        f"PhaseTimer) or justify with an allow comment"))
                elif owner in _DATETIME_OWNERS \
                        and node.attr in DATETIME_ATTRS:
                    findings.append(self.finding(
                        src, node,
                        f"{owner}.{node.attr}() stamps wall-clock time "
                        f"into the run; derive timestamps outside the "
                        f"deterministic core or pass them in explicitly"))
                elif owner == "random" and node.attr not in RANDOM_ALLOWED:
                    findings.append(self.finding(
                        src, node,
                        f"random.{node.attr} draws from ambient global "
                        f"state; thread a Generator from "
                        f"repro.rng.derive_rng"))
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in CLOCK_ATTRS:
                            findings.append(self.finding(
                                src, node,
                                f"importing {alias.name} from time pulls "
                                f"the ambient clock into scope; route "
                                f"timing through repro.telemetry"))
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in _DATETIME_OWNERS:
                            findings.append(self.finding(
                                src, node,
                                "importing datetime invites wall-clock "
                                "stamps; derive timestamps outside the "
                                "deterministic core"))
        return findings
