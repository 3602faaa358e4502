"""``repro.analysis`` — the pinned determinism run.

:mod:`repro.analysis.determinism` holds the scripted service, ledger
and fleet scenarios behind every pinned digest and computes them in
fresh interpreters under a fixed list of hash seeds
(``tests/test_determinism_pins.py``).  The repository's other
invariants are tier-1 tests over the real objects; DESIGN.md,
"Runtime determinism properties", lists them.

No other ``repro`` module imports this package, so ``import repro``
never loads it.
"""
