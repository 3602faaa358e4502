"""REPRO012 — parity-signature drift.

REPRO002 checks that every fast/``*_reference`` pair is co-exercised
by a test; this rule checks the pair itself stays *usable* as a parity
check.  The twins must accept the same arguments: a renamed parameter,
or a parameter added to one side only, means a parity test cannot call
both with one argument list.  The fast twin may append extra
*defaulted* trailing parameters (the plan-cache / output-buffer
injection idiom); everything else must match.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.config import LintConfig
from repro.analysis.engine import Finding, Project, ProjectRule, register
from repro.analysis.semantic.queries import parity_pairs, signature_drift


@register
class ParitySignatureRule(ProjectRule):
    """Twins must keep call-compatible signatures."""

    rule_id = "REPRO012"
    name = "parity-signature-drift"
    description = ("fast/*_reference twins must keep matching signatures "
                   "so one parity test can drive both")

    def check_project(self, project: Project,
                      config: LintConfig) -> Iterable[Finding]:
        model = project.semantic()
        scoped = {ctx.relpath for ctx in project.contexts}
        for pair in parity_pairs(model.table):
            if pair.reference.relpath not in scoped:
                continue
            drift = signature_drift(pair)
            if drift is None:
                continue
            node = pair.reference.node
            yield Finding(
                rule_id=self.rule_id, path=pair.reference.relpath,
                line=node.lineno, col=node.col_offset,
                message=(f"parity pair '{pair.fast.display}'/"
                         f"'{pair.reference.display}' has drifted "
                         f"signatures: {drift}"),
                hint=("keep the twins call-compatible so one parity "
                      "test drives both"))
