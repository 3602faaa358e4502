"""Unit tests for the seeded fault-injection framework."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pkgutil

import pytest

import repro.faults
from repro.errors import FaultInjectionError
from repro.faults.models import (
    ApOutageModel,
    BrownoutModel,
    CorruptionModel,
    FaultModel,
    FlashFaultModel,
    GilbertElliott,
    HangModel,
)
from repro.faults.plan import FaultPlan
from repro.faults.service import ServiceFaultPlan
from repro.ota.flash import PAGE_BYTES, FaultyFlash
from repro.seeding import stream_rng
from repro.sim.events import FAULT_BROWNOUT, FAULT_LOSS, FAULT_OUTAGE
from repro.sim.timeline import Timeline


def _fault_models() -> list[type]:
    """Every concrete fault model, found by walking the class tree."""
    found, pending = [], [FaultModel]
    while pending:
        for cls in pending.pop().__subclasses__():
            found.append(cls)
            pending.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def _float_fields(cls: type) -> list[str]:
    return [field.name for field in dataclasses.fields(cls)
            if field.type in ("float", float)]


class TestModelValidation:
    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(FaultInjectionError):
            GilbertElliott(seed=1, p_enter_bad=1.5)
        with pytest.raises(FaultInjectionError):
            CorruptionModel(seed=1, per_packet_prob=-0.1)
        with pytest.raises(FaultInjectionError):
            FlashFaultModel(seed=1, stuck_bit_prob=2.0)
        with pytest.raises(FaultInjectionError):
            HangModel(seed=1, hang_prob=1.0001)

    def test_brownout_needs_positive_reboot_time(self):
        with pytest.raises(FaultInjectionError):
            BrownoutModel(seed=1, reboot_time_s=0.0)

    def test_outage_needs_positive_spans(self):
        with pytest.raises(FaultInjectionError):
            ApOutageModel(seed=1, mean_interval_s=-1.0)
        with pytest.raises(FaultInjectionError):
            ApOutageModel(seed=1, horizon_s=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("model, name", [
        (ApOutageModel, "mean_interval_s"),
        (ApOutageModel, "mean_duration_s"),
        (ApOutageModel, "horizon_s"),
        (BrownoutModel, "reboot_time_s")])
    def test_positive_spans_must_be_finite(self, model, name, value):
        # An infinite or NaN span never ends the outage-window draw
        # loop, and a NaN reboot dwell reaches the ledger as a raw
        # error: both are refused at construction, naming the field.
        with pytest.raises(FaultInjectionError, match=name):
            model(seed=1, **{name: value})

    def test_every_seeded_fault_dataclass_subclasses_the_base(self):
        seeded = {
            cls
            for info in pkgutil.iter_modules(repro.faults.__path__)
            for cls in vars(importlib.import_module(
                f"repro.faults.{info.name}")).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and "seed" in {f.name for f in dataclasses.fields(cls)}}
        assert seeded - {FaultModel, FaultPlan, ServiceFaultPlan} \
            == set(_fault_models())
        assert len(_fault_models()) == 9

    @pytest.mark.parametrize("model", _fault_models(),
                             ids=lambda cls: cls.__name__)
    def test_fault_model_fields_reject_out_of_range_values(self, model):
        # The seed half of this property is
        # TestSeededStreams.test_constructor_requires_a_keyword_seed.
        model(seed=1)
        assert _float_fields(model)
        for name in _float_fields(model):
            for value in (math.nan, math.inf):
                with pytest.raises(FaultInjectionError, match=name):
                    model(seed=1, **{name: value})
        for name in model.probabilities:
            for value in (-0.1, 1.1):
                with pytest.raises(FaultInjectionError, match=name):
                    model(seed=1, **{name: value})


class TestSeededStreams:
    @pytest.mark.parametrize(
        "cls", [FaultPlan, ServiceFaultPlan, *_fault_models()],
        ids=lambda cls: cls.__name__)
    def test_constructor_requires_a_keyword_seed(self, cls):
        # A chaos run replays from its configuration alone, so a call
        # site that forgets the seed must fail, not fall back to one.
        seed = inspect.signature(cls).parameters["seed"]
        assert seed.kind is inspect.Parameter.KEYWORD_ONLY
        assert seed.default is inspect.Parameter.empty

    def test_spawn_rng_streams_are_independent(self):
        a = stream_rng(7, "fault.burst_loss", 3).random(8).tolist()
        b = stream_rng(7, "fault.corruption", 3).random(8).tolist()
        c = stream_rng(7, "fault.burst_loss", 4).random(8).tolist()
        assert a != b
        assert a != c

    def test_burst_chain_is_reproducible(self):
        model = GilbertElliott(seed=42, p_enter_bad=0.3, loss_bad=0.8)
        chain_a, chain_b = model.start(5), model.start(5)
        assert [chain_a.step() for _ in range(200)] \
            == [chain_b.step() for _ in range(200)]

    def test_burst_chain_differs_across_nodes(self):
        model = GilbertElliott(seed=42, p_enter_bad=0.3, loss_bad=0.8)
        chain_a, chain_b = model.start(1), model.start(2)
        assert [chain_a.step() for _ in range(300)] \
            != [chain_b.step() for _ in range(300)]

    def test_degenerate_loss_probabilities(self):
        chain = GilbertElliott(seed=0, loss_good=1.0, loss_bad=1.0).start(0)
        assert all(chain.step() for _ in range(50))
        chain = GilbertElliott(seed=0, loss_good=0.0, loss_bad=0.0).start(0)
        assert not any(chain.step() for _ in range(50))


class TestOutageWindows:
    def test_windows_are_deterministic_sorted_and_bounded(self):
        model = ApOutageModel(seed=9, mean_interval_s=120.0,
                              mean_duration_s=20.0, horizon_s=3600.0)
        windows = model.windows()
        assert windows == model.windows()
        assert windows  # a 3600 s horizon at 120 s mean up-time fires
        previous_end = 0.0
        for start, end in windows:
            assert previous_end <= start < end <= model.horizon_s
            previous_end = end


class TestFaultPlanBinding:
    def test_bind_is_order_independent(self):
        plan = FaultPlan(seed=5, burst_loss=GilbertElliott(
            seed=5, p_enter_bad=0.2, loss_bad=0.9))
        forward = [plan.bind(n) for n in (1, 2, 3)]
        backward = [plan.bind(n) for n in (3, 2, 1)]
        for a, b in zip(forward, reversed(backward)):
            seq_a = [a.packet_lost(uplink=False, label="x")
                     for _ in range(100)]
            seq_b = [b.packet_lost(uplink=False, label="x")
                     for _ in range(100)]
            assert seq_a == seq_b

    def test_packet_loss_emits_fault_events(self):
        plan = FaultPlan(seed=1, burst_loss=GilbertElliott(
            seed=1, loss_good=1.0, loss_bad=1.0))
        timeline = Timeline()
        injector = plan.bind(0, timeline=timeline)
        assert injector.packet_lost(uplink=False, label="data seq=0")
        assert injector.injected[FAULT_LOSS] == 1
        assert [e.kind for e in timeline.events] == [FAULT_LOSS]

    def test_outage_takes_precedence_over_burst_loss(self):
        plan = FaultPlan(
            seed=3,
            burst_loss=GilbertElliott(seed=3, loss_good=0.0, loss_bad=0.0),
            ap_outage=ApOutageModel(seed=3, mean_interval_s=10.0,
                                    mean_duration_s=50.0, horizon_s=500.0))
        windows = plan.ap_outage.windows()
        start, end = windows[0]
        timeline = Timeline()
        injector = plan.bind(0, timeline=timeline)
        injector.attach(timeline, offset_s=(start + end) / 2.0)
        assert injector.ap_down_now()
        assert injector.packet_lost(uplink=True, label="ack seq=1")
        assert injector.injected[FAULT_OUTAGE] == 1

    def test_brownout_advances_the_timeline_by_the_reboot_dwell(self):
        plan = FaultPlan(seed=2, brownout=BrownoutModel(
            seed=2, prob_per_fragment=1.0, reboot_time_s=3.5))
        timeline = Timeline()
        injector = plan.bind(4, timeline=timeline)
        assert injector.brownout_now()
        assert injector.injected[FAULT_BROWNOUT] == 1
        assert timeline.now_s == pytest.approx(3.5)

    def test_hooks_without_models_never_fire_or_draw(self):
        injector = FaultPlan(seed=11).bind(0)
        assert not injector.packet_lost(uplink=False, label="x")
        assert not injector.packet_corrupted("x")
        assert not injector.brownout_now()
        assert not injector.hangs_now()
        assert not injector.flash_page_failed()
        assert injector.flash_stuck_bit(PAGE_BYTES) is None
        assert injector.injected == {}

    def test_stuck_bit_index_is_within_the_page(self):
        plan = FaultPlan(seed=6, flash=FlashFaultModel(
            seed=6, stuck_bit_prob=1.0))
        injector = plan.bind(0)
        for _ in range(32):
            bit = injector.flash_stuck_bit(PAGE_BYTES)
            assert bit is not None
            assert 0 <= bit < PAGE_BYTES * 8

    def test_require_flash_model_raises_without_one(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(seed=1).bind(0).require_flash_model()


class TestFaultyFlash:
    def _injector(self, **kwargs):
        plan = FaultPlan(seed=8, flash=FlashFaultModel(seed=8, **kwargs))
        return plan.bind(0)

    def test_requires_a_flash_model(self):
        with pytest.raises(FaultInjectionError):
            FaultyFlash(FaultPlan(seed=8).bind(0))

    def test_failed_page_program_keeps_old_contents_but_is_billed(self):
        flash = FaultyFlash(self._injector(page_failure_prob=1.0))
        payload = bytes(i % 251 for i in range(PAGE_BYTES))
        flash.program(0, payload)
        assert flash.read(0, PAGE_BYTES) == b"\xff" * PAGE_BYTES
        stats = flash.stats()
        assert stats.bytes_programmed == PAGE_BYTES
        assert stats.page_programs == 1

    def test_injection_off_models_factory_programming(self):
        flash = FaultyFlash(self._injector(page_failure_prob=1.0))
        flash.inject = False
        flash.program(0, bytes([7]) * PAGE_BYTES)
        assert flash.read(0, PAGE_BYTES) == bytes([7]) * PAGE_BYTES

    def test_stuck_bit_leaves_exactly_one_set_bit_in_a_zero_page(self):
        flash = FaultyFlash(self._injector(stuck_bit_prob=1.0))
        flash.program(0, bytes(PAGE_BYTES))
        readback = flash.read(0, PAGE_BYTES)
        set_bits = sum(bin(byte).count("1") for byte in readback)
        assert set_bits == 1

    def test_identical_seeds_reproduce_identical_arrays(self):
        def run():
            flash = FaultyFlash(self._injector(page_failure_prob=0.3,
                                               stuck_bit_prob=0.3))
            for page in range(8):
                flash.program(page * PAGE_BYTES, bytes(PAGE_BYTES))
            return flash.read(0, 8 * PAGE_BYTES)

        assert run() == run()
