"""The reprolint domain rule pack.

Importing this package registers every rule with the engine registry.
Rule IDs are stable and documented in DESIGN.md:

========  ====================  ==========================================
ID        name                  invariant
========  ====================  ==========================================
REPRO001  rng-discipline        no module-global RNG; explicit Generators
REPRO002  parity-pair-coverage  fast/reference twins tested together
REPRO003  cache-immutability    plan-cache values never mutated in place
REPRO004  dtype-contracts       masks/casts explicit in quantized paths
REPRO005  units-discipline      no magic frequency/time literals
REPRO006  constant-provenance   component constants cite datasheet/paper
REPRO007  no-swallowed-errors   no bare/blanket silent exception handlers
REPRO008  accounting-discipline time/energy accumulate on the sim timeline
REPRO009  fault-discipline      fault models constructed with explicit seeds
REPRO011  determinism-taint     no nondeterministic value reaches a
                                ledger/SimEvent/plan-cache/fleet-report
                                sink (whole-program dataflow)
REPRO012  parity-signature-drift  twins keep matching signatures
REPRO013  shard-safety          fleet-reachable code never touches
                                function-mutated module-level state
REPRO014  service-discipline    service/CLI code reaches engines only
                                through the workload registry
REPRO015  streaming-state-discipline  chunked streaming processors
                                define reset() and re-initialize every
                                carry-over attribute in it
REPRO016  recovery-discipline   service except handlers re-raise or
                                record a service event; retries only
                                through RetryPolicy backoff
========  ====================  ==========================================

REPRO011-013 are *semantic* rules: they share one whole-program model
(symbol table, call graph, taint summaries) built by
:mod:`repro.analysis.semantic` from the same parsed ASTs the per-file
rules use.
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    accounting,
    cache_freeze,
    control,
    dtype,
    faultrng,
    parity,
    provenance,
    recovery,
    rng,
    service,
    shardsafety,
    signature,
    streamstate,
    taintflow,
    units,
)
