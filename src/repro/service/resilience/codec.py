"""JSON codecs for the service configuration a journal carries.

The journal must be self-contained: ``CampaignService.recover`` rebuilds
a session from the file alone (plus a workload registry, which is code,
not data).  Every configuration dataclass goes through one generic
pair: :func:`encode_config` is ``dataclasses.asdict``, and
:func:`decode_config` walks the dataclass fields back, recursing into
dataclass-typed ones.  Specs and results are written by their own
splices (``JobSpec.canonical_text()``/``JobResult.canonical_text()`` in
:mod:`repro.service.jobspec`), config or payload inline as a JSON
object, and read back through :func:`decode_config` like any other
dataclass.  Floats round-trip bit-exactly, because
``json.dumps``/``json.loads`` round-trip every finite double through
``repr``, so a replayed spec hashes to the same content address and a
replayed config reconstructs the same seeded streams.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Any

from repro.errors import JournalError


def encode_config(config: Any) -> dict[str, Any] | None:
    """A configuration dataclass as a JSON object; ``None`` stays ``None``."""
    return None if config is None else dataclasses.asdict(config)


def decode_config(hint: Any, payload: Any) -> Any:
    """Rebuild a dataclass of type ``hint`` from its JSON object.

    ``hint`` is a dataclass, or a dataclass ``| None``, in which case a
    ``None`` payload decodes to ``None``.  Fields whose type names a
    dataclass are decoded recursively; the dataclass constructor
    validates the values.

    Raises:
        JournalError: when the payload is not a JSON object or lacks a
            field.
    """
    if payload is None and type(None) in typing.get_args(hint):
        return None
    cls = _dataclass_in(hint)
    if not isinstance(payload, dict):
        raise JournalError(
            f"journal {cls.__name__} payload is not a JSON object")
    hints = typing.get_type_hints(cls)
    values = {}
    for field in dataclasses.fields(cls):
        if field.name not in payload:
            raise JournalError(
                f"journal {cls.__name__} payload is missing the "
                f"{field.name!r} field")
        value = payload[field.name]
        if _dataclass_in(hints[field.name]) is not None:
            value = decode_config(hints[field.name], value)
        values[field.name] = value
    return cls(**values)


def _dataclass_in(hint: Any) -> type | None:
    """The dataclass a type hint names, bare or in a union."""
    return next((arg for arg in (hint, *typing.get_args(hint))
                 if dataclasses.is_dataclass(arg)), None)
