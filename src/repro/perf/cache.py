"""Keyed plan cache for expensive derived DSP artifacts.

A "plan" is anything derived deterministically from a hashable
configuration and expensive enough to matter when rebuilt per modem:
chirp symbol tables per :class:`~repro.phy.lora.params.LoRaParams`,
per-CFO dechirp references, :class:`~repro.dsp.fft.Radix2Fft`
twiddle/bit-reverse plans, FIR tap sets, NCO sin/cos lookup tables.
Testbed sweeps build one modem per node per configuration, so without a
cache the same tables are recomputed thousands of times.

The cache is a bounded LRU keyed by arbitrary hashable tuples.  Cached
numpy arrays are frozen (``writeable=False``) so shared plans cannot be
corrupted by one consumer mutating another's view; callers that need a
private mutable array copy the cached one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from threading import RLock
from typing import Any, Callable, Hashable

import numpy as np

from repro.errors import ConfigurationError

DEFAULT_MAX_ENTRIES = 512
"""Default plan-cache capacity; ample for a full multi-config sweep."""


@dataclass(frozen=True)
class CacheStats:
    """Counters snapshot of a :class:`PlanCache`.

    Attributes:
        hits: lookups answered from the cache.
        misses: lookups that invoked the builder.
        entries: plans currently resident.
        evictions: plans dropped to enforce the size bound.
    """

    hits: int
    misses: int
    entries: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _freeze(value: Any) -> Any:
    """Make cached numpy arrays immutable (recursing into containers).

    Tuples, lists and dict values are traversed so builders may return
    structured plans; every numpy array reachable through them is frozen
    at the single choke point all cache entries pass through.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)
    elif isinstance(value, dict):
        for item in value.values():
            _freeze(item)
    return value


class PlanCache:
    """Bounded LRU cache mapping hashable keys to built plans.

    Args:
        max_entries: maximum resident plans; least recently used plans
            are evicted past this bound.

    Raises:
        ConfigurationError: for a non-positive capacity.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(self, key: Hashable,
                     builder: Callable[[], Any]) -> Any:
        """Return the plan for ``key``, building and caching it on a miss.

        The builder runs under the cache lock (reentrant, so builders may
        themselves consult the cache for sub-plans).  Built numpy arrays
        are frozen before being stored.
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
            value = _freeze(builder())
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    def clear(self) -> None:
        """Drop all plans and reset the counters (for test isolation)."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> CacheStats:
        """Snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              entries=len(self._entries),
                              evictions=self._evictions)

    @property
    def hits(self) -> int:
        """Lookups answered from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Lookups that ran the builder."""
        return self._misses

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


_GLOBAL_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide default plan cache."""
    return _GLOBAL_CACHE


def get_or_build(key: Hashable, builder: Callable[[], Any]) -> Any:
    """Look up ``key`` in the default cache, building on a miss."""
    return _GLOBAL_CACHE.get_or_build(key, builder)


def clear() -> None:
    """Clear the default cache (tests call this for isolation)."""
    _GLOBAL_CACHE.clear()


def stats() -> CacheStats:
    """Counters snapshot of the default cache."""
    return _GLOBAL_CACHE.stats()
