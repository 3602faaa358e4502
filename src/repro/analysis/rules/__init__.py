"""The reprolint domain rule pack.

Importing this package registers every rule with the engine registry.
Rule IDs are stable and documented in DESIGN.md:

========  ====================  ==========================================
ID        name                  invariant
========  ====================  ==========================================
REPRO001  rng-discipline        no module-global RNG; explicit Generators
REPRO004  dtype-contracts       masks/casts explicit in quantized paths
REPRO005  units-discipline      no magic frequency/time literals
REPRO006  constant-provenance   component constants cite datasheet/paper
REPRO007  no-swallowed-errors   no bare/blanket silent exception handlers
REPRO008  accounting-discipline time/energy accumulate on the sim timeline
REPRO014  service-discipline    service/CLI code reaches engines only
                                through the workload registry
REPRO016  recovery-discipline   service except handlers re-raise or
                                record a service event; retries only
                                through RetryPolicy backoff
========  ====================  ==========================================

The missing IDs belonged to retired rules; their invariants are tier-1
runtime properties now (DESIGN.md, "Runtime determinism properties").
"""

from repro.analysis.rules import (  # noqa: F401  (registration side effects)
    accounting,
    control,
    dtype,
    provenance,
    recovery,
    rng,
    service,
    units,
)
