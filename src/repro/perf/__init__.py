"""Performance subsystem: the shared plan cache.

The sample/bit-level substrates the Fig. 6 pipelines run on (chirp
tables, FFT plans, NCO lookup tables, FIR tap sets) are expensive to
derive and identical across the many modem instances a testbed sweep
constructs.  :mod:`repro.perf.cache` memoizes those derived artifacts
behind a keyed plan cache and freezes every array it hands out.
:mod:`repro.perf.timing`, the throughput harness the hot-path
benchmarks use, is imported by path and is not re-exported here.
"""

from repro.perf.cache import (
    CacheStats,
    PlanCache,
    clear,
    get_or_build,
    plan_cache,
    stats,
)

__all__ = [
    "CacheStats",
    "PlanCache",
    "clear",
    "get_or_build",
    "plan_cache",
    "stats",
]
