"""``repro.analysis`` — domain-aware static analysis ("reprolint").

The reproduction's core claim is that every FPGA/MCU algorithm is
modeled *bit-exactly*.  That property rests on a handful of structural
invariants (explicit RNG threading, explicit masks in quantized
arithmetic, named physical constants with datasheet provenance,
time and energy accumulated only on the ``repro.sim`` ledger).  This
package machine-checks them:

* :mod:`repro.analysis.engine` — per-file AST rule engine with a
  registry, per-finding rule IDs / locations / fix-it hints and inline
  ``# reprolint: disable=...`` suppressions.
* :mod:`repro.analysis.rules` — the eight domain rules.
* :mod:`repro.analysis.determinism` — the double-run fingerprint checks
  (``REPRO_DETERMINISM=1`` and the ledger double run).
* :mod:`repro.analysis.cli` — the ``python -m repro.analysis`` /
  ``make lint`` entry point.

Invariants that are observable at runtime (parity twins, reset of
streaming state, fault seeds, ledger determinism) are tier-1 property
tests over the real objects, not rules; DESIGN.md lists them.

No other ``repro`` module imports this package, so ``import repro``
never loads the linter.
"""

from repro.analysis.config import LintConfig, default_config
from repro.analysis.engine import (
    FileContext,
    FileRule,
    Finding,
    all_rules,
    register,
    run_analysis,
)

__all__ = [
    "FileContext",
    "FileRule",
    "Finding",
    "LintConfig",
    "all_rules",
    "default_config",
    "register",
    "run_analysis",
]
