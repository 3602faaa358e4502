"""One construction point for every seeded random generator.

Before the campaign service existed every CLI subcommand built its own
``np.random.default_rng(args.seed)`` ad hoc, which made it easy for a
refactor to silently change *where* in the argument flow the generator
was constructed — and therefore which draws land where.  This module is
the single choke point both the thin CLI clients and the
:mod:`repro.service` workload adapters go through, so a
:class:`~repro.service.jobspec.JobSpec` seeds bit-identically no matter
which path runs it.

It is also the one place that derives *sub-streams*: a generator built
from a root seed plus a fixed tag, and optionally a node, job or record
id, so that each fault model, each jitter source and the fleet's
placement draws consume their own stream even when they share a root
seed.  Every tag lives in :data:`STREAM_TAGS` and every sub-stream is
built by :func:`stream_rng`; no other module knows a tag.

The fleet engine's counter-based per-node streams
(:func:`repro.ota.fleet.rng.uniforms`) are deliberately separate: they
key on ``(seed, node_id, draw_index)`` and never touch a sequential
generator.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from repro.errors import ConfigurationError

STREAM_TAGS = MappingProxyType({
    # repro.faults: one stream per node-level and service-level model.
    "fault.burst_loss": 1,
    "fault.corruption": 2,
    "fault.flash": 3,
    "fault.brownout": 4,
    "fault.ap_outage": 5,
    "fault.hang": 6,
    "fault.worker_crash": 7,
    "fault.workload_hang": 8,
    "fault.torn_write": 9,
    # Backoff and cooldown jitter.
    "ota.retry_jitter": 0x0177,
    "service.supervisor_jitter": 0x0178,
    "service.breaker_jitter": 0x00B5,
    # Fleet deployment geometry and shadowing.
    "fleet.placement": 0x1E57,
})
"""Sub-stream name -> the integer tag mixed into its seed.  Tags stay
distinct, so no two streams coincide under a shared root seed, and
fixed, since a new value changes every draw of its stream."""


def job_rng(seed: int) -> np.random.Generator:
    """The sequential generator a seeded job draws from.

    Every workload that consumes a sequential random stream — sweeps,
    campus campaigns, ADR studies — must obtain its generator here with
    the job's root seed, so the draw sequence is a function of the
    :class:`~repro.service.jobspec.JobSpec` alone.

    Raises:
        ConfigurationError: for a negative seed (numpy would accept it
            only via entropy-pool semantics, which are not replayable
            from the spec).
    """
    if seed < 0:
        raise ConfigurationError(f"job seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def stream_rng(seed: int, stream: str, *ids: int) -> np.random.Generator:
    """The sub-stream ``stream`` of root ``seed``, keyed by ``ids``.

    This is ``default_rng([seed, STREAM_TAGS[stream], *ids])``, so a
    stream is a function of its root seed, its tag and its subject ids
    alone, independent of every other stream and of draw order.
    """
    return np.random.default_rng([seed, STREAM_TAGS[stream], *ids])


def fold_seed(seed: int, subject_id: int) -> int:
    """Mix a plan seed with a node or job id into one stream index.

    Fault plans bind each subject through this fold, so a subject's
    fault streams depend on ``(plan seed, subject id)`` only.
    """
    return int(np.random.SeedSequence([seed, subject_id])
               .generate_state(1)[0])


def jittered(value: float, fraction: float,
             rng: np.random.Generator | None) -> float:
    """``value`` spread by up to +/- ``fraction`` of itself.

    Returns ``value * (1 + fraction * (2u - 1))`` for one uniform ``u``
    drawn from ``rng``; with ``fraction == 0`` or no generator it
    returns ``value`` unchanged and draws nothing.
    """
    if fraction == 0.0 or rng is None:
        return value
    return value * (1.0 + fraction * (2.0 * rng.random() - 1.0))
