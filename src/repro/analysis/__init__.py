"""``repro.analysis`` — domain-aware static analysis ("reprolint").

The reproduction's core claim is that every FPGA/MCU algorithm is
modeled *bit-exactly*.  That property rests on a handful of structural
invariants (explicit RNG threading, frozen plan-cache arrays, tested
``*_reference`` parity twins, explicit masks in quantized arithmetic,
named physical constants with datasheet provenance).  This package
machine-checks them:

* :mod:`repro.analysis.engine` — AST rule engine with a registry,
  per-finding rule IDs / locations / fix-it hints and inline
  ``# reprolint: disable=...`` suppressions.
* :mod:`repro.analysis.rules` — the fifteen domain rules
  (REPRO001..REPRO016; REPRO010 was retired).
* :mod:`repro.analysis.semantic` — the whole-program model behind the
  semantic rules REPRO011..REPRO013.
* :mod:`repro.analysis.determinism` — the ``REPRO_DETERMINISM=1``
  double-run fingerprint checks.
* :mod:`repro.analysis.cli` — the ``python -m repro.analysis`` /
  ``make lint`` entry point.

No other ``repro`` module imports this package, so ``import repro``
never loads the linter.
"""

from repro.analysis.config import LintConfig, default_config
from repro.analysis.engine import (
    FileContext,
    FileRule,
    Finding,
    Project,
    ProjectRule,
    Rule,
    all_rules,
    register,
    run_analysis,
)

__all__ = [
    "FileContext",
    "FileRule",
    "Finding",
    "LintConfig",
    "Project",
    "ProjectRule",
    "Rule",
    "all_rules",
    "default_config",
    "register",
    "run_analysis",
]
