"""Typed job specifications with content-addressed identity.

A :class:`JobSpec` is the unit of work a tenant submits to the campaign
service: a registered workload kind, a JSON-able configuration mapping
and a root seed.  Because every engine in this repository is a pure
function of ``(config, seed)`` — that is the whole reproducibility
contract the lint rules and parity goldens enforce — two specs with
equal ``(kind, config, seed)`` denote the *same computation*, and the
service dedupes them through a content-addressed result cache.

The content address is a SHA-256 over :func:`canonical_json`, the same
``json.dumps`` serialization the job journal hashes: sorted keys, no
whitespace, non-finite floats rejected.  Python renders floats with
``repr``, which round-trips every finite double, so values that differ
in the last ulp get different addresses; mappings render as objects
and sequences as arrays, so ``[]`` and ``{}`` do too.  A spec holds its
config, and a result its payload, as that canonical text, which makes
both immutable by construction.  Tenant and priority are routing
metadata, not identity: two tenants submitting the same seeded job
share one cache entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

PRIORITY_HIGH = 0
PRIORITY_NORMAL = 10
PRIORITY_BATCH = 20
"""Priority bands: lower sorts earlier.  Ties dispatch in submit order."""

DEFAULT_TENANT = "default"

_CONTAINERS = (dict, list, tuple)


def canonical_json(value: Any) -> str:
    """The canonical JSON text of a JSON-able value.

    Keys are sorted and separators carry no whitespace, so equal values
    give equal text; tuples render as arrays.  The output is the
    hashing pre-image for :func:`content_address`, result fingerprints
    and journal record digests.

    Raises:
        ConfigurationError: for non-string mapping keys, non-finite
            floats, or values outside the JSON vocabulary (no numpy
            arrays, no arbitrary objects — specs must be
            wire-shippable).
    """
    try:
        text = json.dumps(value, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"value is not canonical JSON: {exc}") from exc
    if isinstance(value, _CONTAINERS):
        _reject_non_string_keys(value)
    return text


def _reject_non_string_keys(container: Any) -> None:
    """Refuse the int/float/bool/None keys ``json.dumps`` writes as strings."""
    items = container
    if isinstance(container, dict):
        for key in container:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"JSON object keys must be strings, got {key!r}")
        items = container.values()
    for item in items:
        if isinstance(item, _CONTAINERS):
            _reject_non_string_keys(item)


def _canonical_object(value: Any, what: str) -> str:
    """Canonical text of a job config or result payload (a JSON object)."""
    if not isinstance(value, dict):
        raise ConfigurationError(
            f"job {what} must be a mapping, got "
            f"{type(value).__name__}: {value!r}")
    return canonical_json(value)


def content_address(kind: str, config: Any, seed: int) -> str:
    """SHA-256 content address over the job's identity triple."""
    preimage = canonical_json(
        {"kind": kind, "config": config, "seed": seed})
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One unit of schedulable work: ``(kind, config, seed)`` + routing.

    Attributes:
        kind: workload kind registered in the
            :class:`~repro.service.registry.WorkloadRegistry`.
        config: workload configuration, passed as a JSON-able mapping
            (empty for parameterless workloads) and held as its
            canonical JSON text.
        seed: root seed of every random stream the workload draws.
        tenant: submitting tenant name (routing metadata, not identity).
        priority: scheduling band; lower dispatches first.
    """

    kind: str
    config: Any = field(default_factory=dict)
    seed: int = 0
    tenant: str = DEFAULT_TENANT
    priority: int = PRIORITY_NORMAL

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigurationError("job kind must be non-empty")
        if self.seed < 0:
            raise ConfigurationError(
                f"job seed must be >= 0, got {self.seed}")
        if not self.tenant:
            raise ConfigurationError("tenant name must be non-empty")
        object.__setattr__(self, "config",
                           _canonical_object(self.config, "config"))

    @property
    def content_address(self) -> str:
        """The spec's SHA-256 identity (tenant/priority excluded)."""
        return content_address(self.kind, self.config_mapping(), self.seed)

    def config_mapping(self) -> dict[str, Any]:
        """A fresh dict of the config (sequences come back as lists)."""
        return json.loads(self.config)


@dataclass(frozen=True)
class JobResult:
    """What a completed job produced, cache-addressable and re-servable.

    Attributes:
        address: the producing spec's content address.
        kind: workload kind that produced the payload.
        seed: root seed the workload ran under.
        payload: result data, passed as a JSON-able mapping and held as
            its canonical JSON text (so cached results are immutable
            and bit-stable across re-serves).
        virtual_cost_s: deterministic virtual-time execution span the
            workload reported (what the scheduler charged the clock).
    """

    address: str
    kind: str
    seed: int
    payload: Any = field(repr=False)
    virtual_cost_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.virtual_cost_s < math.inf:
            raise ConfigurationError(
                f"virtual cost must be finite and >= 0, "
                f"got {self.virtual_cost_s!r}")
        object.__setattr__(self, "payload",
                           _canonical_object(self.payload, "payload"))

    def payload_mapping(self) -> dict[str, Any]:
        """A fresh dict of the payload (sequences come back as lists)."""
        return json.loads(self.payload)

    def fingerprint(self) -> str:
        """SHA-256 over the result's canonical serialization."""
        preimage = canonical_json(
            {"address": self.address, "kind": self.kind,
             "seed": self.seed, "payload": self.payload_mapping(),
             "virtual_cost_s": self.virtual_cost_s})
        return hashlib.sha256(preimage.encode("utf-8")).hexdigest()
