"""Write-ahead job journal: the service's crash-recovery log.

Every lifecycle transition the :class:`~repro.service.api.CampaignService`
makes is appended to a JSONL file as a canonically serialized record
carrying a chained SHA-256 digest (each record's digest covers its body
*and* the previous record's digest, genesis-anchored), so corruption or
reordering anywhere in the log is detected on read.  Intent records
(``submit``, ``dispatch``) are written *before* the service acts;
outcome records (``complete``, ``fail``, ``quarantine``, ``reject``)
after.  Because the service is a deterministic virtual-time machine,
:meth:`CampaignService.recover <repro.service.api.CampaignService.recover>`
rebuilds a crashed session by re-driving the recorded prefix through the
normal code paths — every RNG draw, ledger event and admission verdict
regenerates — substituting only the engine invocation of journaled
successful runs from the logged results.

Serialization is :func:`~repro.service.jobspec.canonical_json`, the
canonical text content addresses and result fingerprints hash.  A
record's body is spliced into the fixed sorted-key skeleton
``{"payload":…,"prev":…,"seq":…,"type":…}``, and the spec of a
``submit`` or the result of a ``complete`` arrives as its own spliced
text (:class:`~repro.service.jobspec.CanonicalText`), so appending
parses nothing.  The line equals one ``json.dumps`` of the parsed record
(sorted keys, compact separators, NaN refused), which is what
:func:`read_journal` re-derives to check each digest.  Python's
``repr``-based float rendering round-trips every finite double
bit-exactly through ``json.loads``, which is what lets replayed specs
and results hash to the same content addresses as the originals.

Torn tails: a crash mid-append can leave a partial final line.
:func:`read_journal` accepts a *valid* trailing record that merely lost
its newline, drops an invalid trailing fragment (``torn_tail=True``),
and raises :class:`~repro.errors.JournalError` for any invalid record
that *is* newline-terminated — mid-file damage is corruption, not a
crash artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, BinaryIO

from repro.errors import ConfigurationError, JournalError, SimulatedCrashError
from repro.faults.service import JournalTornWriteModel
from repro.service.jobspec import canonical_json

RECORD_OPEN = "open"
RECORD_TENANT = "tenant"
RECORD_SUBMIT = "submit"
RECORD_ADMIT = "admit"
RECORD_REJECT = "reject"
RECORD_DISPATCH = "dispatch"
RECORD_COMPLETE = "complete"
RECORD_FAIL = "fail"
RECORD_QUARANTINE = "quarantine"
RECORD_RECOVER = "recover"

RECORD_TYPES = frozenset({
    RECORD_OPEN, RECORD_TENANT, RECORD_SUBMIT, RECORD_ADMIT,
    RECORD_REJECT, RECORD_DISPATCH, RECORD_COMPLETE, RECORD_FAIL,
    RECORD_QUARANTINE, RECORD_RECOVER,
})

#: Terminal outcome record types (at most one per job, audit-verified).
TERMINAL_RECORD_TYPES = frozenset({
    RECORD_COMPLETE, RECORD_FAIL, RECORD_QUARANTINE, RECORD_REJECT,
})

GENESIS_DIGEST = "0" * 64
"""The ``prev`` digest of the first record: anchors the hash chain."""


@dataclass(frozen=True)
class JournalRecord:
    """One parsed, chain-verified journal line.

    Attributes:
        seq: zero-based position in the journal.
        type: one of the ``RECORD_*`` constants.
        payload: the record's JSON body (shape depends on ``type``); in
            a record :meth:`JobJournal.append` returns, a spec or result
            is the :class:`~repro.service.jobspec.CanonicalText` it was
            appended as.
        prev: the previous record's digest (genesis for ``seq == 0``).
        digest: SHA-256 over the canonical body serialization.
    """

    seq: int
    type: str
    payload: dict[str, Any]
    prev: str
    digest: str


@dataclass(frozen=True)
class JournalReadResult:
    """What :func:`read_journal` recovered from a journal file.

    Attributes:
        records: every chain-verified record, in sequence order.
        torn_tail: whether an invalid trailing fragment (a torn write
            from a crash mid-append) was dropped.
    """

    records: tuple[JournalRecord, ...]
    torn_tail: bool


def _canonical_body(seq: int, rtype: str, payload: dict[str, Any],
                    prev: str) -> str:
    """The digest pre-image: the record body, canonically serialized.

    The payload's canonical text (a spec or result in it spliced in, see
    :class:`~repro.service.jobspec.CanonicalText`) is spliced into the
    body's sorted-key skeleton.  ``prev`` is a hex digest, ``seq`` an int
    and ``rtype`` one of :data:`RECORD_TYPES`, so none needs escaping.
    """
    try:
        text = canonical_json(payload)
    except ConfigurationError as exc:
        raise JournalError(
            f"journal payload for {rtype!r} record is not "
            f"JSON-serializable: {exc}") from exc
    return f'{{"payload":{text},"prev":"{prev}","seq":{seq},"type":"{rtype}"}}'


def _record_line(body: str, digest: str) -> bytes:
    """The exact bytes a record occupies on disk (newline included).

    ``"digest"`` sorts before every body key, so splicing it in as the
    first key of the canonical body gives the sorted-key serialization
    of the whole record without encoding the payload twice.
    """
    return f'{{"digest":"{digest}",{body[1:]}\n'.encode("utf-8")


def _make_record(seq: int, rtype: str, payload: dict[str, Any],
                 prev: str) -> tuple[JournalRecord, bytes]:
    """A new record and its on-disk line."""
    if rtype not in RECORD_TYPES:
        raise JournalError(f"unknown journal record type {rtype!r}")
    body = _canonical_body(seq, rtype, payload, prev)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    record = JournalRecord(seq=seq, type=rtype, payload=payload,
                           prev=prev, digest=digest)
    return record, _record_line(body, digest)


def _parse_segment(segment: bytes, seq: int, prev: str) -> JournalRecord:
    """Parse and chain-verify one journal line.

    Raises:
        JournalError: for malformed JSON, a digest mismatch, a broken
            chain link, an out-of-sequence record, or an unknown type.
    """
    try:
        parsed = json.loads(segment.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise JournalError(
            f"journal record {seq} is not valid JSON: {exc}") from exc
    if not isinstance(parsed, dict):
        raise JournalError(
            f"journal record {seq} is not a JSON object")
    for key in ("digest", "payload", "prev", "seq", "type"):
        if key not in parsed:
            raise JournalError(
                f"journal record {seq} is missing the {key!r} field")
    if parsed["seq"] != seq:
        raise JournalError(
            f"journal record out of sequence: expected seq {seq}, "
            f"got {parsed['seq']!r}")
    if parsed["prev"] != prev:
        raise JournalError(
            f"journal record {seq} breaks the hash chain: prev "
            f"{parsed['prev']!r} != expected {prev!r}")
    rtype = parsed["type"]
    if rtype not in RECORD_TYPES:
        raise JournalError(
            f"journal record {seq} has unknown type {rtype!r}")
    payload = parsed["payload"]
    if not isinstance(payload, dict):
        raise JournalError(
            f"journal record {seq} payload is not a JSON object")
    body = _canonical_body(seq, rtype, payload, prev)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if parsed["digest"] != digest:
        raise JournalError(
            f"journal record {seq} digest mismatch: stored "
            f"{parsed['digest']!r}, recomputed {digest!r}")
    return JournalRecord(seq=seq, type=rtype, payload=payload,
                         prev=prev, digest=digest)


def read_journal(path: str) -> JournalReadResult:
    """Parse and chain-verify a journal file, tolerating a torn tail.

    A trailing record that verifies but lost only its newline (a tear
    that cut exactly the separator) is accepted as durable.  An invalid
    trailing fragment is dropped and reported via ``torn_tail``.
    Invalid *newline-terminated* records are corruption and raise.

    Raises:
        JournalError: for a missing file or mid-file corruption.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path!r}: {exc}") from exc
    records: list[JournalRecord] = []
    prev = GENESIS_DIGEST
    segments = raw.split(b"\n")
    # Everything before the final separator was newline-terminated and
    # must verify; the final segment is empty (clean tail), a whole
    # record that lost only its newline, or a torn fragment.
    for segment in segments[:-1]:
        record = _parse_segment(segment, len(records), prev)
        records.append(record)
        prev = record.digest
    tail = segments[-1]
    torn_tail = False
    if tail:
        try:
            record = _parse_segment(tail, len(records), prev)
        except JournalError:
            # An invalid un-terminated tail is the expected artifact of
            # a crash mid-append, not corruption: drop it.  The handler
            # deliberately swallows the error: the dropped record
            # "never durably happened".
            torn_tail = True
        else:
            records.append(record)
    return JournalReadResult(records=tuple(records), torn_tail=torn_tail)


@dataclass(frozen=True)
class CrashPlan:
    """Deterministic kill switch for the chaos harness.

    The owning :class:`JobJournal` raises
    :class:`~repro.errors.SimulatedCrashError` while appending the
    record whose sequence number equals ``after_records`` — i.e. after
    exactly ``after_records`` records are durable — optionally tearing
    the dying record's bytes via a
    :class:`~repro.faults.service.JournalTornWriteModel`.

    Attributes:
        after_records: journal boundary (record count) the crash fires
            at.
        torn_write: when set, decides how many bytes of the dying
            record reach disk; when ``None`` the whole record lands.
    """

    after_records: int
    torn_write: JournalTornWriteModel | None = None

    def __post_init__(self) -> None:
        if self.after_records < 0:
            raise JournalError(
                f"after_records must be >= 0, "
                f"got {self.after_records!r}")


class JobJournal:
    """Append-only, hash-chained lifecycle log for one service session.

    Args:
        path: journal file path; a fresh journal truncates it.
        crash_plan: optional chaos kill switch (see :class:`CrashPlan`).
    """

    def __init__(self, path: str,
                 crash_plan: CrashPlan | None = None) -> None:
        self.path = path
        self.crash_plan = crash_plan
        self._seq = 0
        self._prev = GENESIS_DIGEST
        self._handle: BinaryIO | None = open(path, "wb")

    @classmethod
    def resume(cls, path: str,
               crash_plan: CrashPlan | None = None) -> "JobJournal":
        """Continue an existing journal's chain after a crash.

        Re-reads and chain-verifies the file, cuts off any torn tail in
        place, newline-terminates a last record that lost only its
        newline, and positions the journal to append the next record.
        Durable records are never rewritten, so a failure here leaves
        every one of them on disk.

        Raises:
            JournalError: when the existing journal is corrupt.
            OSError: when the file cannot be reopened or repaired.
        """
        result = read_journal(path)
        handle = open(path, "r+b")
        try:
            raw = handle.read()
            if result.torn_tail:
                handle.truncate(raw.rfind(b"\n") + 1)
                handle.seek(0, os.SEEK_END)
            elif raw and not raw.endswith(b"\n"):
                handle.write(b"\n")
            handle.flush()
        except OSError:
            handle.close()
            raise
        journal = cls.__new__(cls)
        journal.path = path
        journal.crash_plan = crash_plan
        journal._seq = len(result.records)
        journal._prev = (result.records[-1].digest if result.records
                         else GENESIS_DIGEST)
        journal._handle = handle
        return journal

    def append(self, rtype: str, payload: dict[str, Any]) -> JournalRecord:
        """Append one record, honouring the crash plan.

        Raises:
            JournalError: when the journal is closed or the payload is
                not JSON-serializable.
            SimulatedCrashError: when the crash plan fires on this
                append (the record may land whole, torn, or not at all).
        """
        if self._handle is None:
            raise JournalError("journal is closed")
        record, data = _make_record(self._seq, rtype, payload, self._prev)
        plan = self.crash_plan
        if plan is not None and self._seq == plan.after_records:
            keep: int | None = None
            if plan.torn_write is not None:
                keep = plan.torn_write.tear(self._seq, len(data))
            self._handle.write(data if keep is None else data[:keep])
            self._handle.flush()
            self.close()
            raise SimulatedCrashError(
                f"chaos crash while appending journal record "
                f"{record.seq} ({rtype})")
        self._handle.write(data)
        self._handle.flush()
        self._seq += 1
        self._prev = record.digest
        return record

    def close(self) -> None:
        """Flush and release the file handle (idempotent)."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
