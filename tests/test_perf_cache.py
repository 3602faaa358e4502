"""Tests for the repro.perf plan cache and timing harness."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.perf import cache
from repro.perf.cache import PlanCache
from repro.perf.timing import ThroughputReport, measure_throughput
from repro.dsp.fft import Radix2Fft
from repro.dsp.nco import Nco, NcoConfig
from repro.phy.lora import (
    LoRaDemodulator,
    LoRaModulator,
    LoRaParams,
    SymbolDemodulator,
)


@pytest.fixture(autouse=True)
def clean_global_cache():
    """Isolate every test from plans built by other tests."""
    cache.clear()
    yield
    cache.clear()


class TestPlanCache:
    def test_miss_builds_then_hit_reuses(self):
        plans = PlanCache()
        built = []

        def builder():
            built.append(1)
            return np.arange(4)

        first = plans.get_or_build("k", builder)
        second = plans.get_or_build("k", builder)
        assert built == [1]
        assert first is second
        assert plans.hits == 1
        assert plans.misses == 1

    def test_distinct_keys_build_separately(self):
        plans = PlanCache()
        a = plans.get_or_build(("plan", 1), lambda: np.zeros(2))
        b = plans.get_or_build(("plan", 2), lambda: np.ones(2))
        assert not np.array_equal(a, b)
        assert plans.misses == 2

    def test_cached_arrays_are_frozen(self):
        plans = PlanCache()
        value = plans.get_or_build("k", lambda: np.arange(3))
        with pytest.raises(ValueError):
            value[0] = 99

    def test_freezing_recurses_into_tuples(self):
        plans = PlanCache()
        pair = plans.get_or_build("k", lambda: (np.zeros(2), np.ones(2)))
        for array in pair:
            with pytest.raises(ValueError):
                array[0] = 5.0

    def test_size_bound_evicts_least_recently_used(self):
        plans = PlanCache(max_entries=2)
        plans.get_or_build("a", lambda: 1)
        plans.get_or_build("b", lambda: 2)
        plans.get_or_build("a", lambda: 1)  # refresh a's recency
        plans.get_or_build("c", lambda: 3)  # evicts b
        assert "a" in plans
        assert "b" not in plans
        assert "c" in plans
        assert plans.stats().evictions == 1

    def test_clear_resets_entries_and_counters(self):
        plans = PlanCache()
        plans.get_or_build("k", lambda: 1)
        plans.get_or_build("k", lambda: 1)
        plans.clear()
        stats = plans.stats()
        assert len(plans) == 0
        assert (stats.hits, stats.misses, stats.evictions) == (0, 0, 0)

    def test_hit_rate(self):
        plans = PlanCache()
        assert plans.stats().hit_rate == 0.0
        plans.get_or_build("k", lambda: 1)
        plans.get_or_build("k", lambda: 1)
        assert plans.stats().hit_rate == pytest.approx(0.5)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanCache(max_entries=0)

    def test_builder_may_recurse_into_cache(self):
        plans = PlanCache()

        def outer():
            inner = plans.get_or_build("inner", lambda: 2)
            return inner * 3

        assert plans.get_or_build("outer", outer) == 6
        assert "inner" in plans


# --- freeze paths: every array reachable from a plan is read-only ----------

@pytest.fixture(name="cache")
def small_plan_cache():
    # Named ``cache`` for the tests below; the function name keeps the
    # module-level ``repro.perf.cache`` import unshadowed.
    return PlanCache(max_entries=8)


def iter_arrays(value):
    """Yield every numpy array reachable through common containers."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from iter_arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from iter_arrays(item)


def test_cache_freezes_bare_arrays(cache):
    plan = cache.get_or_build("k", lambda: np.arange(4.0))
    assert not plan.flags.writeable
    with pytest.raises(ValueError):
        plan[0] = 99.0


def test_cache_freezes_arrays_inside_tuples_and_lists(cache):
    plan = cache.get_or_build(
        "k", lambda: (np.arange(3.0), [np.ones(2), np.zeros(2)]))
    for array in iter_arrays(plan):
        assert not array.flags.writeable


def test_cache_freezes_dict_valued_plans(cache):
    # Regression: _freeze originally skipped dict values, leaving
    # structured plans ({"taps": ..., "window": ...}) writable.
    plan = cache.get_or_build(
        "k", lambda: {"taps": np.arange(5.0),
                      "nested": {"window": np.ones(3)}})
    assert not plan["taps"].flags.writeable
    assert not plan["nested"]["window"].flags.writeable
    with pytest.raises(ValueError):
        plan["taps"][0] = 1.0


def test_cached_hit_returns_the_same_frozen_plan(cache):
    first = cache.get_or_build("k", lambda: np.arange(4.0))
    second = cache.get_or_build("k", lambda: np.arange(4.0))
    assert first is second
    assert not second.flags.writeable


class TestPlanCacheIntegration:
    def test_repeated_demodulator_construction_hits_cache(self):
        params = LoRaParams(7, 125e3)
        SymbolDemodulator(params)
        misses_after_first = cache.stats().misses
        # An equal but distinct params object must hit: plan keys are
        # values, never object identities.  `params` stays alive, so
        # the twin cannot reuse its id().
        twin = LoRaParams(7, 125e3)
        assert twin == params and twin is not params
        SymbolDemodulator(twin)
        stats = cache.stats()
        assert stats.hits > 0
        assert stats.misses == misses_after_first

    def test_modulator_and_demodulator_share_chirp_plan(self):
        params = LoRaParams(8, 125e3)
        LoRaModulator(params, quantized=False).symbol(0)
        hits_before = cache.stats().hits
        SymbolDemodulator(params)
        assert cache.stats().hits > hits_before

    def test_fft_plan_shared_across_instances(self):
        Radix2Fft(512)
        hits_before = cache.stats().hits
        Radix2Fft(512)
        assert cache.stats().hits == hits_before + 1

    def test_nco_tables_shared_across_instances(self):
        config = NcoConfig(phase_bits=24, table_address_bits=8,
                           amplitude_bits=10)
        first = Nco(config)
        second = Nco(config)
        assert first._cos_table is second._cos_table

    def test_fir_taps_shared_across_receivers(self):
        params = LoRaParams(7, 125e3, oversampling=2)
        first = LoRaDemodulator(params)
        second = LoRaDemodulator(params)
        assert first._fir_taps is second._fir_taps

    def test_end_to_end_sweep_reports_nonzero_hits(self):
        """Acceptance: multiple modems with identical params hit the cache."""
        params = LoRaParams(7, 125e3)
        modems = [(LoRaModulator(params), LoRaDemodulator(params))
                  for _ in range(3)]
        waveform = modems[0][0].modulate(b"sweep")
        for _, demodulator in modems:
            assert demodulator.receive(waveform).payload == b"sweep"
        assert cache.stats().hits > 0


class TestTiming:
    def test_measure_throughput_counts_items(self):
        result = measure_throughput("noop", lambda: None, items=1000,
                                    unit="words", repeats=2, warmup=0)
        assert result.items == 1000
        assert result.unit == "words"
        assert result.best_seconds >= 0.0
        assert result.items_per_second > 0.0

    def test_measure_throughput_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            measure_throughput("bad", lambda: None, items=0)
        with pytest.raises(ConfigurationError):
            measure_throughput("bad", lambda: None, items=1, repeats=0)

    def test_report_speedup_and_json_roundtrip(self, tmp_path):
        report = ThroughputReport()
        report.add("group", "fast", measure_throughput(
            "g.fast", lambda: None, items=100, repeats=1, warmup=0))
        report.add("group", "reference", measure_throughput(
            "g.ref", lambda: sum(range(2000)), items=100, repeats=1,
            warmup=0))
        ratio = report.speedup("group")
        assert ratio is not None and ratio > 0.0
        assert report.speedup("missing") is None
        path = report.write_json(tmp_path / "bench.json")
        import json
        document = json.loads(path.read_text())
        assert document["results"]["group"]["speedup"] == pytest.approx(
            ratio)
