"""Crash recovery, supervision and degradation for the campaign service.

Covers the resilience stack bottom-up: the hash-chained write-ahead
journal (round-trip, tamper detection, torn-tail tolerance), the
circuit-breaker state machine, load shedding, the supervised worker
loop (retry, quarantine, deadline), the digest-verifying result cache,
and :meth:`CampaignService.recover` — including an exhaustive
crash-at-every-record-boundary sweep and a hypothesis sweep asserting
the recovered session's digest is bit-identical to the uninterrupted
golden run's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import (
    resilient_session_fingerprint,
    resilient_session_service,
    resilient_session_specs,
    resilient_session_tenants,
    service_digest,
)
from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    JournalError,
    ReproError,
    SimulatedCrashError,
)
from repro.faults.service import (
    JournalTornWriteModel,
    ServiceFaultPlan,
    WorkerCrashModel,
    WorkloadHangModel,
)
from repro.ota.mac import RetryPolicy
from repro.service import (
    JOB_COMPLETED,
    JOB_FAILED,
    JOB_QUARANTINED,
    JOB_REJECTED,
    TERMINAL_STATES,
    BreakerConfig,
    CampaignService,
    CircuitBreaker,
    CrashPlan,
    JobJournal,
    JobSpec,
    ResultCache,
    SheddingPolicy,
    SupervisorConfig,
    TenantConfig,
    WorkloadRegistry,
    read_journal,
)
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    GENESIS_DIGEST,
    RECORD_COMPLETE,
    RECORD_FAIL,
    RECORD_OPEN,
    RECORD_RECOVER,
    RECORD_SUBMIT,
)
from repro.service.resilience import journal as journal_module
from repro.sim import (
    FAULT_WORKER_CRASH,
    FAULT_WORKLOAD_HANG,
    SERVICE_BREAKER_OPEN,
    SERVICE_CACHE_HIT,
    SERVICE_QUARANTINE,
    SERVICE_RETRY,
    SERVICE_SHED,
    WATCHDOG_RESET,
)


def _kinds(timeline):
    return [event.kind for event in timeline]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12)
_JSON_PAYLOADS = st.dictionaries(st.text(), _JSON_VALUES, max_size=5)


# --- journal ----------------------------------------------------------------

class TestJobJournal:
    def test_round_trip_chains_and_verifies(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append(RECORD_OPEN, {"seed": 1})
        journal.append("submit", {"job_id": 1, "spec": {"kind": "info"}})
        journal.append("complete", {"job_id": 1, "cache_hit": False})
        journal.close()
        result = read_journal(str(path))
        assert not result.torn_tail
        assert [r.type for r in result.records] == [
            "open", "submit", "complete"]
        assert result.records[0].prev == GENESIS_DIGEST
        assert result.records[1].prev == result.records[0].digest
        assert result.records[2].seq == 2

    def test_mid_file_tamper_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append(RECORD_OPEN, {"seed": 1})
        journal.append("submit", {"job_id": 1})
        journal.append("complete", {"job_id": 1})
        journal.close()
        lines = path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b'"job_id":1', b'"job_id":2')
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(JournalError):
            read_journal(str(path))

    def test_torn_tail_is_dropped_and_reported(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append(RECORD_OPEN, {"seed": 1})
        journal.append("submit", {"job_id": 1})
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])  # tear the last record mid-JSON
        result = read_journal(str(path))
        assert result.torn_tail
        assert [r.type for r in result.records] == ["open"]

    def test_tail_missing_only_newline_is_durable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append(RECORD_OPEN, {"seed": 1})
        journal.append("submit", {"job_id": 1})
        journal.close()
        path.write_bytes(path.read_bytes()[:-1])  # only the \n is lost
        result = read_journal(str(path))
        assert not result.torn_tail
        assert [r.type for r in result.records] == ["open", "submit"]

    def test_resume_rewrites_torn_tail_and_continues_chain(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path))
        journal.append(RECORD_OPEN, {"seed": 1})
        journal.append("submit", {"job_id": 1})
        journal.close()
        path.write_bytes(path.read_bytes()[:-10])
        resumed = JobJournal.resume(str(path))
        resumed.append("submit", {"job_id": 1})
        resumed.close()
        result = read_journal(str(path))
        assert not result.torn_tail
        assert [r.type for r in result.records] == ["open", "submit"]
        assert result.records[1].seq == 1

    def test_closed_journal_rejects_append(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        with pytest.raises(JournalError):
            journal.append(RECORD_OPEN, {})

    def test_unserializable_payload_raises(self, tmp_path):
        journal = JobJournal(str(tmp_path / "j.jsonl"))
        with pytest.raises(JournalError):
            journal.append(RECORD_OPEN, {"bad": object()})

    def test_crash_plan_fires_and_optionally_tears(self, tmp_path):
        path = tmp_path / "j.jsonl"
        plan = CrashPlan(after_records=1,
                         torn_write=JournalTornWriteModel(seed=3,
                                                          torn_prob=1.0))
        journal = JobJournal(str(path), crash_plan=plan)
        journal.append(RECORD_OPEN, {"seed": 1})
        with pytest.raises(SimulatedCrashError):
            journal.append("submit", {"job_id": 1})
        result = read_journal(str(path))
        assert result.torn_tail
        assert [r.type for r in result.records] == ["open"]

    @given(payloads=st.lists(_JSON_PAYLOADS, min_size=1, max_size=5),
           extra=_JSON_PAYLOADS)
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_line_is_canonical(self, payloads, extra):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.jsonl"
            journal = JobJournal(str(path))
            for payload in payloads:
                journal.append("submit", payload)
            journal.close()
            resumed = JobJournal.resume(str(path))
            resumed.append("submit", extra)
            resumed.close()
            lines = [line + "\n" for line in
                     path.read_bytes().decode("utf-8").split("\n")[:-1]]
            records = read_journal(str(path)).records
        assert [r.payload for r in records] == [*payloads, extra]
        assert len(lines) == len(records)
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":")) + "\n"

    def test_torn_write_model_tears_within_record(self):
        model = JournalTornWriteModel(seed=5, torn_prob=1.0)
        for seq in range(8):
            keep = model.tear(seq, 100)
            assert keep is not None and 0 <= keep < 100
        assert JournalTornWriteModel(seed=5, torn_prob=0.0).tear(0, 100) \
            is None
        with pytest.raises(FaultInjectionError):
            model.tear(0, 0)


# --- circuit breaker --------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        defaults = dict(seed=7, failure_threshold=2, open_duration_s=10.0,
                        probe_jitter_fraction=0.0)
        defaults.update(kwargs)
        return CircuitBreaker(BreakerConfig(**defaults), "info")

    def test_opens_at_threshold_and_blocks(self):
        breaker = self._breaker()
        assert breaker.record_failure(0.0) is None
        assert breaker.state == BREAKER_CLOSED
        assert breaker.record_failure(1.0) == "open"
        assert breaker.state == BREAKER_OPEN
        assert breaker.reopen_at_s == pytest.approx(11.0)
        assert breaker.allow(5.0) == (False, None)

    def test_half_open_probe_then_close(self):
        breaker = self._breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        allowed, transition = breaker.allow(10.0)
        assert allowed and transition == "half_open"
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.record_success() == "close"
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_failure_reopens_immediately(self):
        breaker = self._breaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        assert breaker.record_failure(10.0) == "open"
        assert breaker.reopen_at_s == pytest.approx(20.0)

    def test_success_resets_the_failure_count(self):
        breaker = self._breaker(failure_threshold=2)
        breaker.record_failure(0.0)
        breaker.record_success()
        assert breaker.record_failure(1.0) is None
        assert breaker.state == BREAKER_CLOSED

    def test_probe_jitter_is_seeded_and_bounded(self):
        def reopen(seed):
            breaker = CircuitBreaker(
                BreakerConfig(seed=seed, failure_threshold=1,
                              open_duration_s=10.0,
                              probe_jitter_fraction=0.2), "info")
            breaker.record_failure(0.0)
            return breaker.reopen_at_s

        assert reopen(1) == reopen(1)
        assert reopen(1) != reopen(2)
        assert 8.0 <= reopen(1) <= 12.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(seed=0, failure_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(seed=0, open_duration_s=0.0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(seed=0, probe_jitter_fraction=1.0)


# --- shedding ---------------------------------------------------------------

class TestShedding:
    def test_reasons_name_the_crossed_mark(self):
        policy = SheddingPolicy(queue_high_water=4, tenant_high_water=2)
        assert policy.should_shed(0, 0) is None
        assert "queue depth 4" in policy.should_shed(4, 0)
        assert "tenant backlog 2" in policy.should_shed(0, 2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SheddingPolicy(queue_high_water=0)
        with pytest.raises(ConfigurationError):
            SheddingPolicy(queue_high_water=None, tenant_high_water=None)


# --- supervisor -------------------------------------------------------------

class TestSupervisor:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SupervisorConfig(heartbeat_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorConfig(deadline_s=-1.0)

    def _crashy_service(self, crash_prob=0.0, hang_prob=0.0,
                        max_attempts=2, deadline_s=None):
        return CampaignService(
            seed=3,
            supervisor=SupervisorConfig(
                policy=RetryPolicy(max_attempts=max_attempts,
                                   base_delay_s=0.5),
                deadline_s=deadline_s),
            faults=ServiceFaultPlan(
                seed=4,
                worker_crash=WorkerCrashModel(seed=4,
                                              crash_prob=crash_prob),
                workload_hang=WorkloadHangModel(seed=4,
                                               hang_prob=hang_prob)))

    def test_always_crashing_job_is_quarantined(self):
        service = self._crashy_service(crash_prob=1.0, max_attempts=3)
        job = service.submit_and_run(JobSpec(kind="info", config={},
                                             seed=0))
        assert job.state == JOB_QUARANTINED
        assert job.attempts == 3
        assert "worker crashed" in job.detail
        kinds = _kinds(service.timeline)
        assert kinds.count(FAULT_WORKER_CRASH) == 3
        assert kinds.count(SERVICE_RETRY) == 2
        assert kinds.count(SERVICE_QUARANTINE) == 1
        assert service.stats().quarantined == 1
        assert service.registry.invocations() == 0

    def test_always_hanging_job_resets_the_watchdog(self):
        service = self._crashy_service(hang_prob=1.0, max_attempts=2)
        job = service.submit_and_run(JobSpec(kind="info", config={},
                                             seed=0))
        assert job.state == JOB_QUARANTINED
        assert "workload hung" in job.detail
        kinds = _kinds(service.timeline)
        assert kinds.count(FAULT_WORKLOAD_HANG) == 2
        assert kinds.count(WATCHDOG_RESET) == 2

    def test_retry_backoff_advances_the_virtual_clock(self):
        service = self._crashy_service(crash_prob=1.0, max_attempts=2)
        job = service.submit_and_run(JobSpec(kind="info", config={},
                                             seed=0))
        retries = [event for event in service.timeline
                   if event.kind == SERVICE_RETRY]
        assert retries[0].duration_s == pytest.approx(0.5)
        assert job.completed_at_s > job.started_at_s

    def test_deadline_overrun_strikes_out(self):
        service = self._crashy_service(max_attempts=2, deadline_s=1e-9)
        job = service.submit_and_run(
            JobSpec(kind="campaign", config={"nodes": 2}, seed=0))
        assert job.state == JOB_QUARANTINED
        assert "deadline exceeded" in job.detail
        assert _kinds(service.timeline).count(WATCHDOG_RESET) == 2

    def test_engine_error_fails_permanently_without_retry(self):
        service = self._crashy_service(max_attempts=5)
        job = service.submit_and_run(
            JobSpec(kind="campaign", config={"nodes": 0}, seed=0))
        assert job.state == JOB_FAILED
        assert job.attempts == 1
        assert SERVICE_RETRY not in _kinds(service.timeline)


# Service policy fields that must be finite: a NaN or inf in any of
# them would poison the virtual clock or every admission verdict.
_NON_FINITE_FIELDS = [
    (SupervisorConfig, "heartbeat_timeout_s", math.nan),
    (SupervisorConfig, "heartbeat_timeout_s", math.inf),
    (SupervisorConfig, "watchdog_timeout_s", math.nan),
    (SupervisorConfig, "deadline_s", math.nan),
    (RetryPolicy, "base_delay_s", math.nan),
    (RetryPolicy, "max_delay_s", math.nan),
    (RetryPolicy, "session_deadline_s", math.nan),
    (BreakerConfig, "open_duration_s", math.nan),
    (TenantConfig, "refill_per_s", math.nan),
    (TenantConfig, "refill_per_s", math.inf),
    (TenantConfig, "bucket_capacity", math.nan),
]

_REQUIRED_FIELDS = {BreakerConfig: {"seed": 0}, TenantConfig: {"name": "t"}}


@pytest.mark.parametrize(
    "config, field, value", _NON_FINITE_FIELDS,
    ids=[f"{config.__name__}-{field}-{value}"
         for config, field, value in _NON_FINITE_FIELDS])
def test_policy_configs_reject_non_finite_values(config, field, value):
    with pytest.raises(ConfigurationError, match=field):
        config(**_REQUIRED_FIELDS.get(config, {}), **{field: value})


# --- breaker + shedding integration ----------------------------------------

class TestDegradationIntegration:
    def test_repeated_failures_open_the_breaker(self):
        service = CampaignService(
            seed=5, breakers=BreakerConfig(seed=5, failure_threshold=2,
                                           open_duration_s=1e6))
        bad = {"spreading_factor": 99}
        for seed in (0, 1):
            job = service.submit_and_run(
                JobSpec(kind="sweep-lora", config=bad, seed=seed))
            assert job.state == JOB_FAILED
        blocked = service.submit_and_run(
            JobSpec(kind="sweep-lora", config=bad, seed=2))
        assert blocked.state == JOB_REJECTED
        assert "circuit breaker open" in blocked.detail
        # A rejection at dispatch frees the slot its admission took.
        assert service.tenant("default").pending == 0
        assert blocked.completed_at_s is not None
        assert SERVICE_BREAKER_OPEN in _kinds(service.timeline)
        assert service.registry.invocations("sweep-lora") == 2
        other = service.submit_and_run(JobSpec(kind="info", config={},
                                               seed=0))
        assert other.state == JOB_COMPLETED  # per-kind isolation

    def test_queue_high_water_sheds_submissions(self):
        service = CampaignService(
            seed=6, shedding=SheddingPolicy(queue_high_water=1))
        first = service.submit(JobSpec(kind="info", config={}, seed=0))
        shed = service.submit(JobSpec(kind="info", config={}, seed=1))
        assert first.state == "queued"
        assert shed.state == JOB_REJECTED
        assert "high-water mark" in shed.detail
        assert SERVICE_SHED in _kinds(service.timeline)
        stats = service.stats()
        assert stats.shed == 1 and stats.rejected == 1

    def test_tenant_backlog_sheds_only_the_noisy_tenant(self):
        service = CampaignService(
            seed=6, shedding=SheddingPolicy(queue_high_water=None,
                                            tenant_high_water=1))
        service.submit(JobSpec(kind="info", config={}, seed=0))
        shed = service.submit(JobSpec(kind="info", config={}, seed=1))
        assert shed.state == JOB_REJECTED
        assert service.stats().shed == 1


# --- result-cache digest verification ---------------------------------------

class TestCacheCorruption:
    def test_corrupt_entry_is_a_miss_and_evicted(self):
        seen = []
        cache = ResultCache(max_entries=4, on_corruption=seen.append)
        service = CampaignService(seed=7)
        job = service.submit_and_run(JobSpec(kind="info", config={},
                                             seed=0))
        cache.put(job.result)
        assert cache.get(job.result.address) is job.result
        # Simulate bit rot: the stored fingerprint no longer matches.
        cache._entries[job.result.address] = (job.result, "0" * 64)
        assert cache.get(job.result.address) is None
        assert cache.corruptions == 1
        assert seen == [job.result.address]
        assert job.result.address not in cache
        stats = cache.stats()
        assert stats.misses == 1 and stats.hits == 1

    def test_service_recomputes_after_corruption(self):
        service = CampaignService(seed=7)
        spec = JobSpec(kind="info", config={}, seed=0)
        job = service.submit_and_run(spec)
        service.cache._entries[job.result.address] = (job.result, "!" * 64)
        again = service.submit_and_run(spec)
        assert again.state == JOB_COMPLETED and not again.cache_hit
        assert service.registry.invocations("info") == 2
        corrupt = [event for event in service.timeline
                   if event.kind == SERVICE_CACHE_HIT
                   and "corruption" in event.label]
        assert len(corrupt) == 1


# --- payload boundary -------------------------------------------------------

class TestUnserializablePayload:
    @pytest.mark.parametrize("journaled", [False, True],
                             ids=["memory", "journal"])
    @pytest.mark.parametrize("output", [
        ({"x": np.zeros(2)}, 1.0),
        ({"x": float("nan")}, 1.0),
        ({"x": 1.0}, float("nan")),
    ], ids=["ndarray", "nan-payload", "nan-cost"])
    def test_payload_fails_the_job_not_the_service(self, tmp_path,
                                                   output, journaled):
        registry = WorkloadRegistry()
        registry.register("bad", lambda config, seed, emit: output)
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path)) if journaled else None
        service = CampaignService(
            registry=registry, journal=journal,
            breakers=BreakerConfig(seed=0, failure_threshold=1,
                                   open_duration_s=1e6))
        job = service.submit_and_run(JobSpec(kind="bad"))
        assert job.state == JOB_FAILED
        assert job.detail.startswith("ConfigurationError: ")
        assert job.result is None
        assert service.stats().failed == 1
        assert SERVICE_BREAKER_OPEN in _kinds(service.timeline)
        if journaled:
            journal.close()
            last = read_journal(str(path)).records[-1]
            assert last.type == RECORD_FAIL
            assert last.payload == {"job_id": job.job_id,
                                    "detail": job.detail}


# --- crash recovery ---------------------------------------------------------

def _run_golden(seed, path):
    """The uninterrupted journaled session and its digest."""
    service = resilient_session_service(seed, journal=JobJournal(str(path)))
    for spec in resilient_session_specs(seed):
        service.submit(spec)
    service.run_until_idle()
    return service_digest(service)


def _crash_at(seed, boundary, path):
    """Run the session with a crash planned after ``boundary`` records."""
    torn = JournalTornWriteModel(seed=seed + 9, torn_prob=0.5)
    journal = JobJournal(str(path), crash_plan=CrashPlan(
        after_records=boundary, torn_write=torn))
    with pytest.raises(SimulatedCrashError):
        service = resilient_session_service(seed, journal=journal)
        for spec in resilient_session_specs(seed):
            service.submit(spec)
        service.run_until_idle()


def _rewrite_journal(source, target, edit):
    """Copy a journal through ``edit(type, payload)``, re-chaining it."""
    journal = JobJournal(str(target))
    for record in read_journal(str(source)).records:
        payload = json.loads(json.dumps(record.payload))
        edit(record.type, payload)
        journal.append(record.type, payload)
    journal.close()


def _pair_lists(value):
    """A JSON value in the older on-disk form: mappings as key-sorted
    ``[key, value]`` pair lists."""
    if isinstance(value, dict):
        return [[key, _pair_lists(value[key])] for key in sorted(value)]
    if isinstance(value, list):
        return [_pair_lists(item) for item in value]
    return value


def _empty_kind(rtype, payload):
    if rtype == RECORD_SUBMIT and payload["job_id"] == 1:
        payload["spec"]["kind"] = ""


def _crash_prob_out_of_range(rtype, payload):
    if rtype == RECORD_OPEN:
        payload["faults"]["worker_crash"]["crash_prob"] = 2.0


def _previous_format(rtype, payload):
    if rtype == RECORD_SUBMIT:
        payload["spec"]["config"] = _pair_lists(payload["spec"]["config"])
    elif rtype == RECORD_COMPLETE:
        result = payload["result"]
        result["payload"] = _pair_lists(result["payload"])


_JOURNAL_EDITS = {"empty_kind": _empty_kind,
                  "crash_prob_out_of_range": _crash_prob_out_of_range,
                  "previous_format": _previous_format}


@functools.lru_cache(maxsize=None)
def _golden_journal(seed):
    """The uninterrupted session's journal bytes and record digests."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "golden.jsonl"
        _run_golden(seed, path)
        digests = tuple(r.digest for r in read_journal(str(path)).records)
        return path.read_bytes(), digests


class _FailingWrites:
    """A file handle whose every write fails, as on a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        raise OSError("injected journal write failure")

    def __getattr__(self, name):
        return getattr(self._handle, name)


def _open_with_failing_writes(path, mode="r", *args, **kwargs):
    handle = open(path, mode, *args, **kwargs)
    return handle if mode == "rb" else _FailingWrites(handle)


def _recover_and_finish(seed, path):
    """Recover, re-add lost tenants, resubmit lost specs, drain."""
    service = CampaignService.recover(str(path))
    for config in resilient_session_tenants(seed):
        if config.name not in service.stats().tenants:
            service.add_tenant(config)
    specs = resilient_session_specs(seed)
    for spec in specs[len(service.jobs()):]:
        service.submit(spec)
    service.run_until_idle()
    return service


class TestRecovery:
    def test_recover_full_journal_reproduces_the_session(self, tmp_path):
        path = tmp_path / "j.jsonl"
        golden = _run_golden(0, path)
        service = _recover_and_finish(0, path)
        assert service_digest(service) == golden
        records = read_journal(str(path)).records
        assert records[-1].type == RECORD_RECOVER

    def test_recover_is_idempotent(self, tmp_path):
        path = tmp_path / "j.jsonl"
        golden = _run_golden(0, path)
        first = _recover_and_finish(0, path)
        assert service_digest(first) == golden
        second = _recover_and_finish(0, path)
        assert service_digest(second) == golden

    def test_recovered_journal_is_itself_recoverable(self, tmp_path):
        """A crash during recovery's own writes must not lose history."""
        path = tmp_path / "j.jsonl"
        golden = _run_golden(1, path)
        mid = _recover_and_finish(1, path)
        assert service_digest(mid) == golden
        again = _recover_and_finish(1, path)
        assert service_digest(again) == golden

    @pytest.mark.parametrize("tail", ["newline_lost", "torn"])
    def test_resume_write_failure_keeps_every_durable_record(
            self, tmp_path, monkeypatch, tail):
        raw, _ = _golden_journal(0)
        path = tmp_path / "j.jsonl"
        path.write_bytes(raw)
        expected = read_journal(str(path)).records
        path.write_bytes(raw[:-1] if tail == "newline_lost"
                         else raw + b'{"digest":"0')
        monkeypatch.setattr(journal_module, "open",
                            _open_with_failing_writes, raising=False)
        with contextlib.suppress(OSError):
            JobJournal.resume(str(path)).close()
        monkeypatch.undo()
        assert read_journal(str(path)).records == expected

    # Offsets wrap modulo the file size, so -1 is the final newline; the
    # first (open) record is the journal's first ~700 bytes.
    @given(mutation=st.sampled_from(["flip", "truncate"]),
           offset=st.integers(min_value=0, max_value=1 << 20),
           bit=st.integers(min_value=0, max_value=7))
    @example(mutation="flip", offset=-1, bit=0)
    @example(mutation="truncate", offset=100, bit=0)
    @settings(max_examples=300, deadline=None)
    def test_damaged_journal_recovers_a_verified_prefix_or_raises(
            self, mutation, offset, bit):
        raw, digests = _golden_journal(0)
        position = offset % len(raw)
        if mutation == "flip":
            damaged = bytearray(raw)
            damaged[position] ^= 1 << bit
        else:
            damaged = raw[:position]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "damaged.jsonl"
            path.write_bytes(bytes(damaged))
            try:
                CampaignService.recover(str(path))
            except JournalError:
                return
            records = read_journal(str(path)).records
        kept = next(r.seq for r in records if r.type == RECORD_RECOVER)
        assert records[kept].payload["resumed_at_seq"] == kept
        assert [r.digest for r in records[:kept]] == list(digests[:kept])

    def test_crash_before_open_record_is_unrecoverable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(str(path), crash_plan=CrashPlan(
            after_records=0,
            torn_write=JournalTornWriteModel(seed=2, torn_prob=1.0)))
        with pytest.raises(SimulatedCrashError):
            resilient_session_service(0, journal=journal)
        with pytest.raises(JournalError):
            CampaignService.recover(str(path))

    def test_foreign_journal_replay_divergence_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _run_golden(0, path)
        records = read_journal(str(path)).records
        rewritten = tmp_path / "tampered.jsonl"
        journal = JobJournal(str(rewritten))
        for record in records:
            payload = dict(record.payload)
            if record.type == RECORD_COMPLETE:
                payload["cache_hit"] = not payload["cache_hit"]
            journal.append(record.type, payload)
        journal.close()
        with pytest.raises(JournalError, match="diverged"):
            CampaignService.recover(str(rewritten))

    @pytest.mark.parametrize("edit", [
        "empty_kind", "crash_prob_out_of_range", "previous_format"])
    def test_undecodable_record_raises_journal_error(self, tmp_path, edit):
        golden = tmp_path / "golden.jsonl"
        _run_golden(0, golden)
        copied = tmp_path / "copied.jsonl"
        _rewrite_journal(golden, copied, lambda rtype, payload: None)
        CampaignService.recover(str(copied))  # the rewrite alone is fine
        edited = tmp_path / "edited.jsonl"
        _rewrite_journal(golden, edited, _JOURNAL_EDITS[edit])
        with pytest.raises(JournalError, match=r"record \d+ cannot be"):
            CampaignService.recover(str(edited))

    def test_exhaustive_boundary_sweep(self, tmp_path):
        """Kill and recover at *every* journal record boundary."""
        seed = 0
        golden_path = tmp_path / "golden.jsonl"
        golden = _run_golden(seed, golden_path)
        total = len(read_journal(str(golden_path)).records)
        assert total > 20
        for boundary in range(1, total):
            path = tmp_path / f"crash{boundary}.jsonl"
            _crash_at(seed, boundary, path)
            service = _recover_and_finish(seed, path)
            assert all(job.state in TERMINAL_STATES
                       for job in service.jobs())
            assert service_digest(service) == golden, (
                f"crash after record {boundary} broke recovery parity")

    _GOLDENS: dict[int, tuple[str, int]] = {}

    @given(seed=st.integers(min_value=0, max_value=7),
           draw=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_crash_point_sweep(self, seed, draw):
        with tempfile.TemporaryDirectory() as tmp:
            tmp_path = Path(tmp)
            if seed not in self._GOLDENS:
                golden_path = tmp_path / f"golden{seed}.jsonl"
                digest = _run_golden(seed, golden_path)
                total = len(read_journal(str(golden_path)).records)
                self._GOLDENS[seed] = (digest, total)
            golden, total = self._GOLDENS[seed]
            boundary = 1 + draw % (total - 1)
            path = tmp_path / f"crash-{seed}-{draw}.jsonl"
            _crash_at(seed, boundary, path)
            service = _recover_and_finish(seed, path)
            assert all(job.state in TERMINAL_STATES
                       for job in service.jobs())
            assert service_digest(service) == golden


# --- CLI failure surfacing --------------------------------------------------

class TestCliFailures:
    def test_failed_job_exits_nonzero_with_reason_and_events(self, capsys):
        from repro.cli import main

        rc = main(["service", "--kind", "sweep-lora",
                   "--config", json.dumps({"spreading_factor": 99})])
        captured = capsys.readouterr()
        assert rc == 1
        assert "job failed" in captured.err
        assert "service." in captured.err  # the event tail is echoed

    def test_unknown_kind_exits_nonzero_with_one_line_reason(self, capsys):
        from repro.cli import main

        rc = main(["service", "--kind", "nope"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "UnknownWorkloadError" in captured.err

    def test_bad_config_json_exits_nonzero(self, capsys):
        from repro.cli import main

        rc = main(["service", "--kind", "info", "--config", "{nope"])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_journaled_cli_run_is_recoverable(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        rc = main(["service", "--kind", "info", "--journal", str(path)])
        capsys.readouterr()
        assert rc == 0
        service = CampaignService.recover(str(path))
        assert service.jobs()[0].state == JOB_COMPLETED

    def test_completed_job_prints_payload(self, capsys):
        from repro.cli import main

        rc = main(["service", "--kind", "info"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "unit_cost_usd" in captured.out
