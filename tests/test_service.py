"""Tests for the multi-tenant campaign service.

Covers the canonical serialization and content addressing (spliced
pre-images against one ``json.dumps`` of the parsed whole, and a
journaled job's parsing and hashing pinned as counts), the result
cache's zero-recompute dedupe (asserted through registry invocation
counters), tenancy quotas and token buckets, priority scheduling on
virtual time and the ``service.*`` event stream.
"""

import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.service import (
    PRIORITY_BATCH,
    PRIORITY_HIGH,
    CampaignService,
    JobJournal,
    JobQueue,
    JobResult,
    JobSpec,
    ResultCache,
    TenantConfig,
    TokenBucket,
    UnknownWorkloadError,
    WorkloadRegistry,
    canonical_json,
    content_address,
    read_journal,
)
from repro.service import jobspec
from repro.service.api import JOB_COMPLETED, JOB_FAILED, JOB_REJECTED
from repro.service.jobspec import DEFAULT_TENANT
from repro.sim.events import SERVICE_KINDS

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=16)


def _same_json(sent, got) -> bool:
    """Equal in type and bits; a tuple sent reads back as a list."""
    if isinstance(sent, tuple):
        sent = list(sent)
    if type(sent) is not type(got):
        return False
    if isinstance(sent, float):
        return sent.hex() == got.hex()
    if isinstance(sent, list):
        return (len(sent) == len(got)
                and all(map(_same_json, sent, got)))
    if isinstance(sent, dict):
        return (sent.keys() == got.keys()
                and all(_same_json(sent[key], got[key]) for key in sent))
    return sent == got


class TestCanonicalSerialization:
    def test_mapping_keys_sorted(self):
        assert (canonical_json({"b": 1, "a": 2})
                == canonical_json({"a": 2, "b": 1}))

    def test_floats_render_bit_exact(self):
        # 0.1 + 0.2 != 0.3 in the last ulp; repr must tell them apart.
        assert canonical_json(0.1 + 0.2) != canonical_json(0.3)
        # A float and the string of its hex form are different values.
        assert canonical_json(0.5) != canonical_json("0x1.0000000000000p-1")

    def test_int_and_bool_distinguished(self):
        assert canonical_json(True) != canonical_json(1)
        assert canonical_json(False) != canonical_json(0)

    def test_sequences_positional(self):
        assert canonical_json([1, 2]) != canonical_json([2, 1])
        assert canonical_json([1, 2]) == canonical_json((1, 2))

    def test_nested_structures(self):
        value = {"grid": [1.0, 2.0], "opts": {"deep": None}}
        assert canonical_json(value) == canonical_json(value)

    def test_non_string_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json({1: "x"})

    def test_non_jsonable_values_rejected(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"x": object()})

    @given(value=_JSON_VALUES)
    @example(value={"k": [["a", 1]]})
    @example(value={"k": {"a": 1}})
    @example(value={"k": []})
    @example(value={"k": {}})
    @example(value={"a": 0.5})
    @example(value={"a": "0x1.0000000000000p-1"})
    @example(value=[1, 1.0, True, -0.0, 0.0, (), {}])
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip_is_exact(self, value):
        # An exact round trip makes the text injective: two values that
        # differ in type or bits never share a content address.
        assert _same_json(value, json.loads(canonical_json(value)))

    @pytest.mark.parametrize("first, second", [
        ({"k": [["a", 1]]}, {"k": {"a": 1}}),
        ({"k": []}, {"k": {}}),
        ({"a": 0.5}, {"a": "0x1.0000000000000p-1"}),
    ])
    def test_pair_lists_empties_and_hex_strings_do_not_collide(
            self, first, second):
        assert canonical_json(first) != canonical_json(second)
        assert (content_address("fleet", first, 0)
                != content_address("fleet", second, 0))
        for config in (first, second):
            spec = JobSpec(kind="fleet", config=config)
            assert _same_json(config, spec.config_mapping())


class TestContentAddress:
    def test_stable_across_calls(self):
        a = content_address("sweep-ble", {"packets": 4}, 7)
        b = content_address("sweep-ble", {"packets": 4}, 7)
        assert a == b
        assert len(a) == 64

    def test_identity_triple_fully_discriminates(self):
        base = content_address("sweep-ble", {"packets": 4}, 7)
        assert content_address("sweep-lora", {"packets": 4}, 7) != base
        assert content_address("sweep-ble", {"packets": 5}, 7) != base
        assert content_address("sweep-ble", {"packets": 4}, 8) != base

    def test_tenant_and_priority_are_not_identity(self):
        a = JobSpec(kind="adr", seed=3, tenant="default",
                    priority=PRIORITY_HIGH)
        b = JobSpec(kind="adr", seed=3, tenant="other-lab",
                    priority=PRIORITY_BATCH)
        # Both tenants' identical computations share one cache entry.
        assert (a.content_address == b.content_address
                == content_address("adr", {}, 3))
        assert content_address("adr", [], 3) != content_address("adr", {}, 3)


class TestJobSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobSpec(kind="")
        with pytest.raises(ConfigurationError):
            JobSpec(kind="adr", seed=-1)
        with pytest.raises(ConfigurationError):
            JobSpec(kind="adr", tenant="")

    def test_config_mapping_round_trips(self):
        spec = JobSpec(kind="fleet",
                       config={"nodes": 10, "opts": {"b": 2, "a": 1},
                               "grid": [1.0, 2.0]})
        mapping = spec.config_mapping()
        assert mapping["nodes"] == 10
        assert mapping["opts"] == {"a": 1, "b": 2}
        assert mapping["grid"] == [1.0, 2.0]

    def test_config_is_frozen_canonical_form(self):
        config = {"nodes": 10}
        spec = JobSpec(kind="fleet", config=config)
        assert spec.config == '{"nodes":10}'
        address = spec.content_address
        config["nodes"] = 11
        spec.config_mapping()["nodes"] = 12
        assert spec.content_address == address
        with pytest.raises(AttributeError):
            spec.kind = "other"


class TestJobResult:
    def test_fingerprint_covers_payload(self):
        a = JobResult(address="x", kind="k", seed=0, payload={"v": 1.0})
        b = JobResult(address="x", kind="k", seed=0, payload={"v": 2.0})
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == JobResult(
            address="x", kind="k", seed=0,
            payload={"v": 1.0}).fingerprint()

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            JobResult(address="x", kind="k", seed=0, payload=(),
                      virtual_cost_s=-1.0)


# Fields of the wrong type, each with the field its refusal names.
_MISTYPED_FIELDS = [
    (JobSpec, {"kind": "adr", "priority": "high"}, "JobSpec.priority"),
    (JobSpec, {"kind": "sweep-lora", "seed": 1.5}, "JobSpec.seed"),
    (JobSpec, {"kind": "adr", "seed": "3"}, "JobSpec.seed"),
    (JobSpec, {"kind": "adr", "seed": True}, "JobSpec.seed"),
    (JobSpec, {"kind": 3}, "JobSpec.kind"),
    (JobSpec, {"kind": "adr", "tenant": 7}, "JobSpec.tenant"),
    (JobResult, {"address": None, "kind": "k", "seed": 0, "payload": {}},
     "JobResult.address"),
    (JobResult, {"address": "x", "kind": b"k", "seed": 0, "payload": {}},
     "JobResult.kind"),
    (JobResult, {"address": "x", "kind": "k", "seed": 1.0, "payload": {}},
     "JobResult.seed"),
    (JobResult, {"address": "x", "kind": "k", "seed": False,
                 "payload": {}}, "JobResult.seed"),
]


@pytest.mark.parametrize("cls,fields,name", _MISTYPED_FIELDS)
def test_mistyped_field_is_refused_naming_it(cls, fields, name):
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(name)} "):
        cls(**fields)


# -- spliced pre-images ------------------------------------------------------

def _dumps(value) -> str:
    """The oracle: one ``json.dumps`` of the whole, parsed value."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _oracle_line(seq: int, rtype: str, payload, prev: str) -> bytes:
    """A journal line as one ``json.dumps`` of the record writes it."""
    record = {"payload": payload, "prev": prev, "seq": seq, "type": rtype}
    record["digest"] = _sha(_dumps(record))
    return (_dumps(record) + "\n").encode("utf-8")


_TRICKY_TEXT = st.text() | st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t", " ", "é", "\U0001f4a1",
     "\ud800"])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-(2 ** 200), max_value=2 ** 200)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, 1e308, -1e308]) | _TRICKY_TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_TRICKY_TEXT, children, max_size=4)),
    max_leaves=16)
_MAPPINGS = st.dictionaries(_TRICKY_TEXT, _VALUES, max_size=5)
_NAMES = _TRICKY_TEXT.filter(bool)
_COSTS = (st.floats(min_value=0.0, max_value=1e308)
          | st.integers(min_value=0, max_value=2 ** 80)
          | st.sampled_from([-0.0, 5e-324, 1e308]))
_EDGE_MAPPING = {"": {}, "a": [], "é\"\\": [-0.0, 5e-324, 1e308],
                 "big": 2 ** 100, "nested": [{"x": [None, True]}]}


class TestSplicedPreimages:
    """Every spliced pre-image equals one ``json.dumps`` of the parsed
    whole, the serialization the address, fingerprint and journal
    hashed before the held text was spliced in."""

    @given(kind=_NAMES, config=_MAPPINGS, seed=st.integers(min_value=0),
           address=_TRICKY_TEXT, payload=_MAPPINGS, cost=_COSTS)
    @example(kind='"\\', config=_EDGE_MAPPING, seed=2 ** 70, address='"',
             payload=_EDGE_MAPPING, cost=-0.0)
    @settings(max_examples=200, deadline=None)
    def test_address_and_fingerprint(self, kind, config, seed, address,
                                     payload, cost):
        spec = JobSpec(kind=kind, config=config, seed=seed)
        expected = _sha(_dumps({"kind": kind, "seed": seed,
                                "config": json.loads(spec.config)}))
        assert spec.content_address == expected
        assert content_address(kind, config, seed) == expected
        result = JobResult(address=address, kind=kind, seed=seed,
                           payload=payload, virtual_cost_s=cost)
        assert result.fingerprint() == _sha(_dumps({
            "address": address, "kind": kind, "seed": seed,
            "payload": json.loads(result.payload),
            "virtual_cost_s": cost}))

    @given(kind=_NAMES, tenant=_NAMES, config=_MAPPINGS,
           seed=st.integers(min_value=0), priority=st.integers(),
           payload=_MAPPINGS, cost=_COSTS,
           progress=st.lists(_TRICKY_TEXT, max_size=3))
    @example(kind="k\x00", tenant="é\"", config=_EDGE_MAPPING,
             seed=2 ** 70, priority=-(2 ** 70), payload=_EDGE_MAPPING,
             cost=5e-324, progress=["\\", ""])
    @settings(max_examples=100, deadline=None)
    def test_submit_and_complete_lines(self, kind, tenant, config, seed,
                                       priority, payload, cost, progress):
        def adapter(config, seed, emit):
            for detail in progress:
                emit(detail)
            return payload, cost

        registry = WorkloadRegistry()
        registry.register(kind, adapter)
        spec = JobSpec(kind=kind, config=config, seed=seed, tenant=tenant,
                       priority=priority)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "journal.jsonl"
            journal = JobJournal(str(path))
            service = CampaignService(registry=registry, journal=journal)
            if tenant != DEFAULT_TENANT:
                service.add_tenant(TenantConfig(name=tenant))
            job = service.submit_and_run(spec)
            journal.close()
            lines = path.read_bytes().splitlines(keepends=True)
            # Reading back re-derives every body and checks its digest.
            records = read_journal(str(path)).records
        assert job.state == JOB_COMPLETED
        assert len(records) == len(lines)
        seqs = {record.type: record.seq for record in records}
        submit, complete = seqs["submit"], seqs["complete"]
        assert lines[submit] == _oracle_line(
            submit, "submit",
            {"job_id": job.job_id,
             "spec": {"kind": kind, "config": json.loads(spec.config),
                      "seed": seed, "tenant": tenant,
                      "priority": priority}},
            records[submit - 1].digest)
        assert lines[complete] == _oracle_line(
            complete, "complete",
            {"job_id": job.job_id, "cache_hit": False,
             "result": {"address": spec.content_address, "kind": kind,
                        "seed": seed,
                        "payload": json.loads(job.result.payload),
                        "virtual_cost_s": cost},
             "progress": progress},
            records[complete - 1].digest)


class TestJobWork:
    """A journaled job's parsing and hashing, counted rather than timed.

    A count repeats exactly on any host, so this guards the spliced
    pre-images in tier-1: a job that parses a config or payload it
    holds as canonical text again, or hashes one more pre-image, fails
    it.  A hit hashes its address, its cached result's fingerprint and
    four journal records; a miss hashes the stored result's fingerprint
    instead, and parses once, for the config the adapter reads.
    """

    SPEC = JobSpec(kind="sweep-lora",
                   config={"spreading_factor": 7, "symbols": 24,
                           "start_dbm": -118.0, "stop_dbm": -121.0,
                           "step_db": 3.0},
                   seed=2020)

    def test_a_hit_parses_nothing(self, tmp_path, monkeypatch):
        counts = {}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        service = CampaignService(
            journal=JobJournal(str(tmp_path / "journal.jsonl")))
        monkeypatch.setattr(json, "loads", counted("parses", json.loads))
        monkeypatch.setattr(hashlib, "sha256",
                            counted("digests", hashlib.sha256))
        monkeypatch.setattr(jobspec, "content_address",
                            counted("addresses", jobspec.content_address))
        work = []
        for _ in range(3):
            counts.update(parses=0, digests=0, addresses=0)
            job = service.submit_and_run(self.SPEC)
            assert job.state == JOB_COMPLETED
            work.append((job.cache_hit, dict(counts)))
        miss = {"parses": 1, "digests": 6, "addresses": 1}
        hit = {"parses": 0, "digests": 6, "addresses": 1}
        assert work == [(False, miss), (True, hit), (True, hit)]


def _result(address: str) -> JobResult:
    return JobResult(address=address, kind="k", seed=0,
                     payload={"a": address})


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(max_entries=4)
        assert cache.get("a") is None
        cache.put(_result("a"))
        assert cache.get("a").payload_mapping() == {"a": "a"}
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.entries == 1

    def test_lru_eviction_order(self):
        cache = ResultCache(max_entries=2)
        cache.put(_result("a"))
        cache.put(_result("b"))
        assert cache.get("a") is not None  # refresh a: b becomes LRU
        cache.put(_result("c"))
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats().evictions == 1

    def test_first_write_wins(self):
        cache = ResultCache(max_entries=2)
        first = _result("a")
        cache.put(first)
        cache.put(JobResult(address="a", kind="k", seed=0,
                            payload={"a": "other"}))
        assert cache.get("a") is first


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=1.0, now_s=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert not bucket.try_take(0.5)
        assert bucket.try_take(1.5)  # one token refilled over 1.5 s

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=10.0, now_s=0.0)
        assert bucket.peek(100.0) == 2.0

    def test_time_moving_backwards_rejected(self):
        bucket = TokenBucket(capacity=2.0, refill_per_s=1.0, now_s=5.0)
        with pytest.raises(ConfigurationError):
            bucket.try_take(4.0)

    def test_tenant_config_validation(self):
        with pytest.raises(ConfigurationError):
            TenantConfig(name="")
        with pytest.raises(ConfigurationError):
            TenantConfig(name="t", max_pending=0)
        with pytest.raises(ConfigurationError):
            TenantConfig(name="t", bucket_capacity=0.5)
        with pytest.raises(ConfigurationError):
            TenantConfig(name="t", refill_per_s=0.0)


class TestJobQueue:
    def test_priority_then_fifo(self):
        from repro.service.api import Job

        queue = JobQueue()
        jobs = [Job(job_id=1, spec=JobSpec(kind="a", priority=10)),
                Job(job_id=2, spec=JobSpec(kind="b", priority=0)),
                Job(job_id=3, spec=JobSpec(kind="c", priority=10)),
                Job(job_id=4, spec=JobSpec(kind="d", priority=0))]
        for job in jobs:
            queue.push(job)
        assert [queue.pop().job_id for _ in range(4)] == [2, 4, 1, 3]

    def test_pop_empty_raises(self):
        with pytest.raises(ConfigurationError):
            JobQueue().pop()


class TestWorkloadRegistry:
    def test_register_and_invoke_counts(self):
        registry = WorkloadRegistry()
        registry.register("echo", lambda cfg, seed, emit: (dict(cfg), 1.0))
        assert "echo" in registry
        payload, cost = registry.invoke("echo", {"x": 1}, 0, lambda s: None)
        assert payload == {"x": 1}
        assert registry.invocations("echo") == 1
        assert registry.invocation_counts() == {"echo": 1}

    def test_duplicate_registration_needs_replace(self):
        registry = WorkloadRegistry()
        runner = lambda cfg, seed, emit: ((), 0.0)  # noqa: E731
        registry.register("echo", runner)
        with pytest.raises(ConfigurationError):
            registry.register("echo", runner)
        registry.register("echo", runner, replace=True)

    def test_unknown_kind(self):
        with pytest.raises(UnknownWorkloadError):
            WorkloadRegistry().invoke("nope", {}, 0, lambda s: None)


def _quick_spec(seed: int = 7, **overrides) -> JobSpec:
    defaults = {"kind": "sweep-ble",
                "config": {"packets": 2, "stop_dbm": -84.0},
                "seed": seed}
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestCampaignService:
    def test_duplicate_spec_is_cache_hit_with_zero_recompute(self):
        service = CampaignService()
        first = service.submit_and_run(_quick_spec())
        invocations_after_first = service.registry.invocations("sweep-ble")
        second = service.submit_and_run(_quick_spec())
        assert first.state == second.state == JOB_COMPLETED
        assert not first.cache_hit
        assert second.cache_hit
        # The zero-recompute property: the engine ran exactly once.
        assert invocations_after_first == 1
        assert service.registry.invocations("sweep-ble") == 1
        assert second.result is first.result
        assert first.result.fingerprint() == second.result.fingerprint()

    def test_different_seed_misses_cache(self):
        service = CampaignService()
        service.submit_and_run(_quick_spec(seed=1))
        job = service.submit_and_run(_quick_spec(seed=2))
        assert not job.cache_hit
        assert service.registry.invocations("sweep-ble") == 2

    def test_unknown_kind_rejected_at_submit(self):
        with pytest.raises(UnknownWorkloadError):
            CampaignService().submit(JobSpec(kind="frobnicate"))

    def test_unknown_tenant_rejected_at_submit(self):
        with pytest.raises(ConfigurationError):
            CampaignService().submit(_quick_spec(tenant="nobody"))

    def test_pending_quota_rejection(self):
        service = CampaignService(
            tenants=(TenantConfig(name="lab", max_pending=1,
                                  bucket_capacity=16.0,
                                  refill_per_s=16.0),))
        first = service.submit(_quick_spec(seed=1, tenant="lab"))
        second = service.submit(_quick_spec(seed=2, tenant="lab"))
        assert first.state != JOB_REJECTED
        assert second.state == JOB_REJECTED
        assert "quota" in second.detail
        # An admission rejection never held a slot or ran.
        assert service.tenant("lab").pending == 1
        assert second.completed_at_s is None
        # Completion frees the slot.
        service.run_until_idle()
        third = service.submit(_quick_spec(seed=3, tenant="lab"))
        assert third.state != JOB_REJECTED

    def test_token_bucket_rejection_and_virtual_refill(self):
        service = CampaignService(
            tenants=(TenantConfig(name="lab", max_pending=64,
                                  bucket_capacity=1.0,
                                  refill_per_s=0.001),))
        first = service.submit(_quick_spec(seed=1, tenant="lab"))
        second = service.submit(_quick_spec(seed=2, tenant="lab"))
        assert first.state != JOB_REJECTED
        assert second.state == JOB_REJECTED
        assert "rate limit" in second.detail
        stats = service.stats()
        assert stats.tenants["lab"]["rejected"] == 1
        # Virtual time (not wall time) refills the bucket: the sweep's
        # execution span plus admission overheads credits >= 1 token.
        service.run_until_idle()
        service.timeline.advance_to(service.timeline.now_s + 1000.0)
        third = service.submit(_quick_spec(seed=3, tenant="lab"))
        assert third.state != JOB_REJECTED

    def test_priority_dispatch_order(self):
        service = CampaignService()
        normal = service.submit(_quick_spec(seed=1))
        batch = service.submit(_quick_spec(seed=2,
                                           priority=PRIORITY_BATCH))
        high = service.submit(_quick_spec(seed=3, priority=PRIORITY_HIGH))
        finished = service.run_until_idle()
        assert [job.job_id for job in finished] == [
            high.job_id, normal.job_id, batch.job_id]

    def test_failed_job_frees_quota_and_keeps_service_alive(self):
        service = CampaignService()
        job = service.submit_and_run(
            JobSpec(kind="power", config={"tx_power_dbm": 99.0}))
        assert job.state == JOB_FAILED
        assert "ConfigurationError" in job.detail
        assert job.result is None
        stats = service.stats()
        assert stats.failed == 1
        assert stats.queue_depth == 0
        # The tenant slot is freed and the service still serves work.
        ok = service.submit_and_run(_quick_spec())
        assert ok.state == JOB_COMPLETED

    def test_event_stream_lifecycle(self):
        service = CampaignService()
        job = service.submit_and_run(_quick_spec())
        kinds = [event.kind for event in service.job_events(job.job_id)]
        assert kinds[0] == "service.submit"
        assert kinds[1] == "service.admit"
        assert kinds[2] == "service.dispatch"
        assert kinds[-1] == "service.complete"
        assert "service.execute" in kinds
        assert "service.progress" in kinds
        assert set(kinds) <= SERVICE_KINDS

    def test_cache_hit_event_stream(self):
        service = CampaignService()
        service.submit_and_run(_quick_spec())
        job = service.submit_and_run(_quick_spec())
        kinds = [event.kind for event in service.job_events(job.job_id)]
        assert "service.cache" in kinds
        assert "service.execute" not in kinds

    def test_virtual_clock_only_moves_via_timeline(self):
        service = CampaignService()
        before = service.timeline.now_s
        job = service.submit_and_run(_quick_spec())
        assert service.timeline.now_s > before
        assert job.completed_at_s == service.timeline.now_s
        # The execution span charged equals the workload's virtual cost.
        assert (job.completed_at_s - job.started_at_s
                == job.result.virtual_cost_s)

    def test_same_seed_sessions_are_bit_identical(self):
        def session(seed):
            service = CampaignService(seed=seed)
            for job_seed in (1, 2, 1):
                service.submit(_quick_spec(seed=job_seed))
            service.run_until_idle()
            return [(event.kind, event.label, event.t_start_s,
                     event.duration_s) for event in service.timeline]

        assert session(11) == session(11)
        # A different service seed shifts the admission jitter draws.
        assert session(11) != session(12)

    def test_stats_shape(self):
        service = CampaignService()
        service.submit_and_run(_quick_spec())
        service.submit_and_run(_quick_spec())
        stats = service.stats()
        assert stats.submitted == stats.admitted == stats.completed == 2
        assert stats.cache_hits == 1
        assert stats.cache_hit_ratio == 0.5
        assert stats.cache.hits == 1
        assert stats.cache.entries == 1
        assert stats.invocations["sweep-ble"] == 1
        assert stats.tenants["default"]["completed"] == 2

    def test_duplicate_tenant_registration_rejected(self):
        service = CampaignService()
        with pytest.raises(ConfigurationError):
            service.add_tenant(TenantConfig(name="default"))


# Sweep configs no engine can run, each with the key its failure names.
_BAD_SWEEP_CONFIGS = [
    ("sweep-lora", {"symbols": -1}, "symbols"),
    ("sweep-lora", {"symbols": 0}, "symbols"),
    ("sweep-lora", {"step_db": 0.0}, "step_db"),
    ("sweep-lora", {"step_db": -3.0}, "step_db"),
    ("sweep-lora", {"start_dbm": 1e308, "stop_dbm": -1e308}, "start_dbm"),
    ("sweep-lora", {"start_dbm": 1e15, "stop_dbm": 0.0, "step_db": 1.0},
     "start_dbm"),
    ("sweep-lora", {"start_dbm": -134.0, "stop_dbm": -110.0}, "start_dbm"),
    ("sweep-ble", {"packets": 0}, "packets"),
    ("sweep-ble", {"packets": -1}, "packets"),
    ("sweep-ble", {"step_db": 0.0}, "step_db"),
    ("sweep-ble", {"start_dbm": -98.0, "stop_dbm": -80.0}, "start_dbm"),
]


class TestSweepConfigValidation:
    @pytest.mark.parametrize("kind,config,key", _BAD_SWEEP_CONFIGS)
    def test_bad_config_fails_the_job_with_a_fail_record(
            self, tmp_path, kind, config, key):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(str(path))
        service = CampaignService(journal=journal)
        job = service.submit_and_run(JobSpec(kind=kind, config=config))
        journal.close()
        assert job.state == JOB_FAILED
        assert job.detail.startswith("ConfigurationError: ")
        assert key in job.detail
        assert service.stats().failed == 1
        last = read_journal(str(path)).records[-1]
        assert last.type == "fail"

    def test_cli_zero_step_exits_with_one_line_reason(self, capsys):
        from repro.cli import main

        assert main(["sweep-lora", "--step", "0"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0] == (
            "repro: job failed: ConfigurationError: "
            "step_db must be positive, got 0.0")


# Config values of the wrong type, each with the key its failure names.
_MISTYPED_CONFIGS = [
    ("fleet", {"nodes": "abc"}, "nodes"),
    ("fleet", {"nodes": [1, 2]}, "nodes"),
    ("fleet", {"processes": "abc"}, "processes"),
    ("sweep-lora", {"spreading_factor": "x"}, "spreading_factor"),
    ("sweep-lora", {"symbols": None}, "symbols"),
    ("sweep-ble", {"packets": "many"}, "packets"),
    ("campaign", {"nodes": "x"}, "nodes"),
    ("power", {"tx_power_dbm": "hot"}, "tx_power_dbm"),
    ("info", {"spreading_factor": "x"}, "spreading_factor"),
]


@pytest.mark.parametrize("kind,config,key", _MISTYPED_CONFIGS)
def test_mistyped_config_fails_the_job_and_the_session_recovers(
        tmp_path, kind, config, key):
    from repro.analysis.determinism import service_digest

    path = tmp_path / "journal.jsonl"
    journal = JobJournal(str(path))
    service = CampaignService(journal=journal)
    job = service.submit_and_run(JobSpec(kind=kind, config=config, seed=1))
    journal.close()
    assert job.state == JOB_FAILED
    assert job.detail.startswith(
        f"ConfigurationError: workload {kind!r}: config key {key!r}")
    assert service.tenant("default").pending == 0
    recovered = CampaignService.recover(str(path))
    assert [job.state for job in recovered.jobs()] == [JOB_FAILED]
    assert service_digest(recovered) == service_digest(service)
