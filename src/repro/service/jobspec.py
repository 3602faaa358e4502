"""Typed job specifications with content-addressed identity.

A :class:`JobSpec` is the unit of work a tenant submits to the campaign
service: a registered workload kind, a JSON-able configuration mapping
and a root seed.  Because every engine in this repository is a pure
function of ``(config, seed)`` — that is the whole reproducibility
contract the lint rules and parity goldens enforce — two specs with
equal ``(kind, config, seed)`` denote the *same computation*, and the
service dedupes them through a content-addressed result cache.

The content address is a SHA-256 over :func:`canonical_json`, the same
canonical serialization the job journal hashes: sorted keys, no
whitespace, non-finite floats rejected.  Python renders floats with
``repr``, which round-trips every finite double, so values that differ
in the last ulp get different addresses; mappings render as objects
and sequences as arrays, so ``[]`` and ``{}`` do too.  A spec holds its
config, and a result its payload, as that canonical text, which makes
both immutable by construction.  Tenant and priority are routing
metadata, not identity: two tenants submitting the same seeded job
share one cache entry.

Every pre-image that embeds a config or payload — the content address,
the result fingerprint, the journal's ``submit`` and ``complete``
records — splices the held text into its sorted-key skeleton
(:class:`CanonicalText`) instead of parsing it and encoding it again.
The spliced text equals the encoder's text of the parsed value byte for
byte: the held text is already canonical, the skeleton sorts its keys
as ``sort_keys`` does, and each scalar around it is rendered the way
the encoder renders it.  The constructors refuse mistyped fields with
a :class:`~repro.errors.ConfigurationError` naming the field.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any

from repro.errors import ConfigurationError

PRIORITY_HIGH = 0
PRIORITY_NORMAL = 10
PRIORITY_BATCH = 20
"""Priority bands: lower sorts earlier.  Ties dispatch in submit order."""

DEFAULT_TENANT = "default"

_CONTAINERS = (dict, list, tuple)

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            allow_nan=False)
"""The encoder behind every value :func:`canonical_json` does not splice."""


class CanonicalText:
    """JSON text already in canonical form, spliced in verbatim.

    :func:`canonical_json` renders it as its text, and a mapping holding
    one among its values as that mapping's sorted-key skeleton with each
    value's canonical text in place.  Anywhere else (inside a sequence,
    or in a mapping nested in a mapping that is not spliced) the encoder
    refuses it, so misplaced text fails loudly instead of being quoted.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def canonical_json(value: Any) -> str:
    """The canonical JSON text of a JSON-able value.

    Keys are sorted and separators carry no whitespace, so equal values
    give equal text; tuples render as arrays.  The output is the
    hashing pre-image for :func:`content_address`, result fingerprints
    and journal record digests.  :class:`CanonicalText` is spliced, not
    parsed (see the class).  A ``str``, ``bool``, ``int`` or finite
    ``float`` (exact types) is rendered the way the encoder renders it
    (``encode_basestring_ascii``, ``true``/``false``, ``repr``) without
    calling it; every other value goes through one module-level encoder.

    Raises:
        ConfigurationError: for non-string mapping keys, non-finite
            floats, or values outside the JSON vocabulary (no numpy
            arrays, no arbitrary objects — specs must be
            wire-shippable).
    """
    kind = type(value)
    if kind is CanonicalText:
        return value.text
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    try:
        if kind is int or (kind is float and math.isfinite(value)):
            return repr(value)
        if kind is dict and CanonicalText in map(type, value.values()):
            return _splice(value)
        text = _ENCODER.encode(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"value is not canonical JSON: {exc}") from exc
    if isinstance(value, _CONTAINERS):
        _reject_non_string_keys(value)
    return text


def _splice(mapping: dict) -> str:
    """A mapping's canonical text: its keys sorted as ``sort_keys`` sorts
    them, each followed by its value's canonical text."""
    _reject_non_string_keys(mapping)
    return "{%s}" % ",".join([
        f"{encode_basestring_ascii(key)}:{canonical_json(mapping[key])}"
        for key in sorted(mapping)])


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


def _is_int(value: Any) -> bool:
    """Whether ``value`` is an int and not a bool (JSON tells them apart)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(valid: bool, name: str, rule: str, value: Any) -> None:
    """Refuse a field value that breaks its rule, naming the field."""
    if not valid:
        raise ConfigurationError(
            f"{name} must be {rule}, got {type(value).__name__} {value!r}")


def content_address(kind: str, config: Any, seed: int) -> str:
    """SHA-256 content address over the job's identity triple.

    ``config`` is a JSON-able mapping, or a spec's config text as
    :class:`CanonicalText`; both give the same address.
    """
    preimage = (f'{{"config":{canonical_json(config)},'
                f'"kind":{canonical_json(kind)},'
                f'"seed":{canonical_json(seed)}}}')
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class JobSpec:
    """One unit of schedulable work: ``(kind, config, seed)`` + routing.

    Attributes:
        kind: workload kind registered in the
            :class:`~repro.service.registry.WorkloadRegistry`
            (a non-empty ``str``).
        config: workload configuration, passed as a JSON-able mapping
            (empty for parameterless workloads) and held as its
            canonical JSON text.
        seed: root seed of every random stream the workload draws (an
            ``int`` >= 0, not a ``bool``).
        tenant: submitting tenant name (routing metadata, not identity;
            a non-empty ``str``).
        priority: scheduling band; lower dispatches first (an ``int``,
            not a ``bool``).
    """

    kind: str
    config: Any = field(default_factory=dict)
    seed: int = 0
    tenant: str = DEFAULT_TENANT
    priority: int = PRIORITY_NORMAL

    def __post_init__(self) -> None:
        _require(isinstance(self.kind, str) and self.kind != "",
                 "JobSpec.kind", "a non-empty str", self.kind)
        _require(_is_int(self.seed) and self.seed >= 0,
                 "JobSpec.seed", "an int >= 0", self.seed)
        _require(isinstance(self.tenant, str) and self.tenant != "",
                 "JobSpec.tenant", "a non-empty str", self.tenant)
        _require(_is_int(self.priority),
                 "JobSpec.priority", "an int", self.priority)
        object.__setattr__(self, "config",
                           _canonical_object(self.config, "config"))

    @property
    def content_address(self) -> str:
        """The spec's SHA-256 identity (tenant/priority excluded)."""
        return content_address(self.kind, CanonicalText(self.config),
                               self.seed)

    def canonical_text(self) -> CanonicalText:
        """The whole spec as a JSON object, its config text spliced in.

        This is the ``spec`` of a journal ``submit`` record.
        """
        return CanonicalText(
            f'{{"config":{self.config},"kind":{canonical_json(self.kind)},'
            f'"priority":{canonical_json(self.priority)},'
            f'"seed":{canonical_json(self.seed)},'
            f'"tenant":{canonical_json(self.tenant)}}}')

    def config_mapping(self) -> dict[str, Any]:
        """A fresh dict of the config (sequences come back as lists)."""
        return json.loads(self.config)


@dataclass(frozen=True)
class JobResult:
    """What a completed job produced, cache-addressable and re-servable.

    Attributes:
        address: the producing spec's content address (a ``str``).
        kind: workload kind that produced the payload (a ``str``).
        seed: root seed the workload ran under (an ``int``, not a
            ``bool``).
        payload: result data, passed as a JSON-able mapping and held as
            its canonical JSON text (so cached results are immutable
            and bit-stable across re-serves).
        virtual_cost_s: deterministic virtual-time execution span the
            workload reported (what the scheduler charged the clock): a
            non-negative ``int`` or ``float``, not a ``bool``, no larger
            than the largest finite float.
    """

    address: str
    kind: str
    seed: int
    payload: Any = field(repr=False)
    virtual_cost_s: float = 0.0

    def __post_init__(self) -> None:
        _require(isinstance(self.address, str),
                 "JobResult.address", "a str", self.address)
        _require(isinstance(self.kind, str),
                 "JobResult.kind", "a str", self.kind)
        _require(_is_int(self.seed), "JobResult.seed", "an int", self.seed)
        cost = self.virtual_cost_s
        _require((_is_int(cost) or isinstance(cost, float))
                 and 0 <= cost <= sys.float_info.max,
                 "JobResult.virtual_cost_s",
                 "a finite int or float >= 0", cost)
        object.__setattr__(self, "payload",
                           _canonical_object(self.payload, "payload"))

    def payload_mapping(self) -> dict[str, Any]:
        """A fresh dict of the payload (sequences come back as lists)."""
        return json.loads(self.payload)

    def canonical_text(self) -> CanonicalText:
        """The whole result as a JSON object, its payload text spliced in.

        This is the pre-image :meth:`fingerprint` hashes and the
        ``result`` of a journal ``complete`` record.
        """
        return CanonicalText(
            f'{{"address":{canonical_json(self.address)},'
            f'"kind":{canonical_json(self.kind)},"payload":{self.payload},'
            f'"seed":{canonical_json(self.seed)},'
            f'"virtual_cost_s":{canonical_json(self.virtual_cost_s)}}}')

    def fingerprint(self) -> str:
        """SHA-256 over the result's canonical serialization.

        The payload text is hashed as held, never parsed, so a damaged
        payload changes the fingerprint instead of raising.
        """
        preimage = self.canonical_text().text
        return hashlib.sha256(preimage.encode("utf-8")).hexdigest()
