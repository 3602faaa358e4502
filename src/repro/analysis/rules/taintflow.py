"""REPRO011 — determinism taint.

The whole-program taint pass (:mod:`repro.analysis.semantic`) tracks
nondeterministic values — wall clocks, ``os.urandom``, process-global
RNG state, set iteration order, environment reads — through
assignments, returns and calls.  Any such value arriving at a
reproducibility sink (a timeline ``record``, a ``SimEvent`` payload, a
plan-cache key, a ``FleetReport``) silently breaks the repo's
bit-exactness contract: two runs of the "same" experiment stop
producing the same ledger.  This rule surfaces every concrete
source-to-sink flow, including flows that cross module boundaries
through call summaries.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.config import LintConfig
from repro.analysis.engine import Finding, Project, ProjectRule, register


@register
class DeterminismTaintRule(ProjectRule):
    """No nondeterministic value may reach a ledger/cache/report sink."""

    rule_id = "REPRO011"
    name = "determinism-taint"
    description = ("no nondeterministic value (clocks, os.urandom, "
                   "process-global RNG, set order, environment) may reach "
                   "a timeline/SimEvent/plan-cache/fleet-report sink")

    def check_project(self, project: Project,
                      config: LintConfig) -> Iterable[Finding]:
        model = project.semantic()
        scoped = {ctx.relpath for ctx in project.contexts}
        seen: set[tuple[str, int, int]] = set()
        for hit in model.sink_findings:
            if hit.relpath not in scoped:
                continue
            key = (hit.relpath, hit.line, hit.col)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                rule_id=self.rule_id, path=hit.relpath,
                line=hit.line, col=hit.col,
                message=(f"in '{hit.function}': {hit.describe()}"),
                hint=("derive the value from the experiment's seeded RNG "
                      "stream or configuration instead, or sort the "
                      "iteration"))
