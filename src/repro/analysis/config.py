"""Configuration for the reprolint engine.

Module-scoped rules carry their own ``default_scope``; the built-in
configuration (:func:`default_config`) adds the per-rule exemptions for
this repository's layout.  ``--select`` and ``--ignore`` on the command
line narrow the rule set, and tests build a :class:`LintConfig`
directly to point the scoped rules at fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Files the magic-number rule (REPRO005) skips: the units module itself
#: (it *defines* the conversions) and the analysis package.
DEFAULT_UNITS_EXEMPT = (
    "*/repro/units.py",
    "*/repro/analysis/*",
)

#: Files the accounting rule (REPRO008) skips: the timeline ledger is
#: the one place the simulation clock may legitimately accumulate, and
#: the analysis package manipulates patterns, not simulated time.
DEFAULT_ACCOUNTING_EXEMPT = (
    "*/repro/sim/*",
    "*/repro/analysis/*",
)

#: The one sanctioned engine-calling module the service-discipline rule
#: (REPRO014) polices everyone else into using: the workload adapters.
DEFAULT_SERVICE_EXEMPT = (
    "*/repro/service/workloads.py",
)


@dataclass(frozen=True)
class LintConfig:
    """Resolved reprolint configuration.

    Attributes:
        select: if non-empty, only these rule IDs run.
        ignore: rule IDs that never run.
        rule_scopes: per-rule fnmatch scope overrides, keyed by rule ID.
        rule_exempt: per-rule fnmatch patterns of files the rule skips.
    """

    select: frozenset[str] = frozenset()
    ignore: frozenset[str] = frozenset()
    rule_scopes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    rule_exempt: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def rule_enabled(self, rule_id: str) -> bool:
        """Whether ``rule_id`` should run under this configuration."""
        if rule_id in self.ignore:
            return False
        if self.select:
            return rule_id in self.select
        return True


def default_config() -> LintConfig:
    """The built-in configuration (exemptions wired to the repo layout)."""
    return LintConfig(
        rule_exempt={
            "REPRO005": DEFAULT_UNITS_EXEMPT,
            "REPRO008": DEFAULT_ACCOUNTING_EXEMPT,
            "REPRO014": DEFAULT_SERVICE_EXEMPT,
        })
