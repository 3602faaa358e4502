"""Counter-based per-node random streams for the fleet engine.

The fleet engine advances whole cohorts per step, so its randomness
cannot live in one sequential generator: the draw *order* across nodes
changes with vector scheduling and with shard boundaries.  Instead every
node owns a keyed counter stream, the same idea as
:meth:`repro.faults.FaultPlan.bind` — a node's draws depend only on
``(seed, node_id, draw_index)``, never on when other nodes drew — which
is exactly the property that makes shard count irrelevant to results.

The stream is SplitMix64: draw ``i`` of node ``n`` hashes
``key(seed, n) + i * GOLDEN_GAMMA`` through the finalizer and keeps the
top 53 bits as a float in ``[0, 1)``.  Both lanes are implemented twice
— vectorized on ``uint64`` numpy arrays (wrap-around arithmetic is the
masking) and as scalar Python-int references (explicit ``& MASK64``) —
and the pair is bit-exact: uint64 wraparound equals masked Python-int
arithmetic, and a 53-bit integer converts to float64 exactly.
"""

from __future__ import annotations

import numpy as np

GOLDEN_GAMMA = 0x9E3779B97F4A7C15
"""SplitMix64 stream increment (the 64-bit golden ratio)."""

MIX_MULT_1 = 0xBF58476D1CE4E5B9
"""First finalizer multiplier (Stafford variant 13)."""

MIX_MULT_2 = 0x94D049BB133111EB
"""Second finalizer multiplier (Stafford variant 13)."""

MASK64 = (1 << 64) - 1
"""64-bit wrap-around mask for the scalar reference lane."""

TO_UNIT_53 = 2.0 ** -53
"""Scales a 53-bit integer into [0, 1) exactly."""

_GOLDEN_U64 = np.uint64(GOLDEN_GAMMA)
_MULT1_U64 = np.uint64(MIX_MULT_1)
_MULT2_U64 = np.uint64(MIX_MULT_2)
_ONE_U64 = np.uint64(1)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied to ``z`` in place; returns ``z``."""
    z ^= z >> _SHIFT_30
    z *= _MULT1_U64
    z ^= z >> _SHIFT_27
    z *= _MULT2_U64
    z ^= z >> _SHIFT_31
    return z


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a ``uint64`` array (wraps silently)."""
    return _mix64_inplace(z.copy())


def mix64_reference(z: int) -> int:
    """Scalar SplitMix64 finalizer on masked Python ints (bit-exact)."""
    z &= MASK64
    z ^= z >> 30
    z = (z * MIX_MULT_1) & MASK64
    z ^= z >> 27
    z = (z * MIX_MULT_2) & MASK64
    return z ^ (z >> 31)


def node_keys(seed: int, ids: np.ndarray) -> np.ndarray:
    """Per-node stream keys for a whole cohort (``uint64`` array).

    Depends only on ``(seed, node_id)``, so any slice of the fleet gets
    the same keys regardless of which shard computes them.
    """
    base = np.uint64(seed & MASK64)
    z = base + (ids.astype(np.uint64) + _ONE_U64) * _GOLDEN_U64
    return _mix64_inplace(z)


def node_keys_reference(seed: int, ids: "list[int] | np.ndarray") -> list[int]:
    """Scalar twin of :func:`node_keys` (masked Python-int arithmetic)."""
    return [mix64_reference((seed & MASK64)
                            + (int(node_id) + 1) * GOLDEN_GAMMA)
            for node_id in ids]


def uniforms(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Draw ``counters[i]``-th uniform of each stream (``float64``).

    ``counters`` holds 1-based draw indices (callers increment before
    drawing); equal indices across calls return equal values.
    """
    z = counters * _GOLDEN_U64
    z += keys
    _mix64_inplace(z)
    z >>= _SHIFT_11
    draws = z.astype(np.float64)
    draws *= TO_UNIT_53
    return draws


def uniforms_reference(keys: "list[int] | np.ndarray",
                       counters: "list[int] | np.ndarray") -> list[float]:
    """Scalar twin of :func:`uniforms`, draw by draw."""
    return [float(mix64_reference((int(key) + int(counter) * GOLDEN_GAMMA)
                                  & MASK64) >> 11) * TO_UNIT_53
            for key, counter in zip(keys, counters)]
