"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

import measure
from run import STAGE_SUM_TOLERANCE
from spans import (
    END,
    START,
    Tracer,
    self_times,
    stage_table,
    unattributed_share,
)
from workloads import DERIVED, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# -- the tail-percentile rule ------------------------------------------------

def test_p99_needs_ten_samples_beyond_it():
    assert measure.tail_supported(1000, 99.0)
    assert not measure.tail_supported(999, 99.0)
    assert measure.tail_supported(100, 90.0)
    assert not measure.tail_supported(99, 90.0)


def test_tail_reports_p99_when_supported_else_the_maximum():
    values = [float(v) for v in range(1, 1001)]
    value, label = measure.tail(values, 99.0)
    assert label == "p99"
    assert value == pytest.approx(990.01)
    value, label = measure.tail(values[:6], 99.0)
    assert (value, label) == (6.0, "max of 6")


def test_percentile_interpolates_like_numpy():
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert measure.percentile([1.0, 2.0, 3.0], 100.0) == 3.0
    with pytest.raises(ValueError):
        measure.percentile([], 50.0)


def test_spread_is_iqr_over_median():
    values = [10.0, 10.0, 11.0, 9.0, 10.0, 12.0, 8.0, 10.0]
    q1, median, q3 = 9.25, 10.0, 10.75
    assert measure.spread(values) == pytest.approx((q3 - q1) / median)


# -- self time on nested spans -----------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span("op", 0.0, 10.0, -1),
        _span("push", 1.0, 9.0, 0),
        _span("demodulate_stream", 2.0, 6.0, 1),
        _span("demodulate_upchirp_block", 3.0, 5.0, 2),
        _span("dechirp_magnitudes", 3.5, 4.5, 3),
        _span("fir_carry", 6.5, 8.0, 1),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.5, 2.0, 1.0, 1.0, 1.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_stage_check_counts_only_time_under_named_stages():
    covered = [
        _span("op", 0.0, 10.0, -1),
        _span("push", 0.2, 9.9, 0),
        _span("fir_carry", 1.0, 3.0, 1),
        _span("op", 10.0, 20.0, -1),
        _span("push", 10.0, 19.8, 3),
    ]
    assert unattributed_share(covered) == pytest.approx(0.5 / 20.0)
    assert unattributed_share(covered) <= STAGE_SUM_TOLERANCE
    # Work moved out of every wrapped call stays in the root span: all
    # self times still sum to the operation, but the stages cover 40%.
    uncovered = [
        _span("op", 0.0, 10.0, -1),
        _span("push", 1.0, 5.0, 0),
        _span("fir_carry", 2.0, 4.0, 1),
    ]
    assert sum(self_times(uncovered)) == pytest.approx(10.0)
    assert unattributed_share(uncovered) == pytest.approx(0.6)
    assert unattributed_share(uncovered) > STAGE_SUM_TOLERANCE


def test_stage_table_counts_recursive_names_once_inclusively():
    spans = [
        _span("op", 0.0, 4.0, -1),
        _span("record", 0.5, 3.5, 0),
        _span("record", 1.0, 2.0, 1),
    ]
    table = stage_table(spans)
    assert table["record"]["calls"] == 2
    assert table["record"]["inclusive_s"] == pytest.approx(3.0)
    assert table["record"]["self_s"] == pytest.approx(3.0)
    assert table["op"]["self_s"] == pytest.approx(1.0)


class _Engine:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_nests_spans_and_restores_every_attribute():
    module = types.SimpleNamespace(helper=lambda x: x + 1)
    engine = _Engine()
    inner = vars(_Engine)["inner"]
    tracer = Tracer()
    tracer.install(engine, "outer", "outer")
    tracer.install(_Engine, "inner", "inner",
                   lambda a, k, r: {"items": a[1]})
    tracer.install(module, "helper", "helper")
    tracer.install(module, "renamed_away", "gone")
    tracer.begin_op(0)
    assert engine.outer(3) == 7
    assert module.helper(1) == 2
    tracer.end_op()
    assert [span[0] for span in tracer.spans] == \
        ["op", "outer", "inner", "helper"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]
    assert all(span[END] >= span[START] for span in tracer.spans)
    assert tracer.work[("inner", "items")] == 3
    assert tracer.missing == {"gone"}
    tracer.uninstall()
    assert "outer" not in vars(engine)
    assert vars(_Engine)["inner"] is inner
    assert module.helper(1) == 2
    assert not hasattr(module, "renamed_away")
    assert len(tracer.spans) == 4


# -- host-speed calibration --------------------------------------------------

def test_scaling_divides_out_host_speed():
    nominal = measure.NOMINAL_SLICE_S
    assert measure.scale_time(2.0, 2 * nominal) == pytest.approx(1.0)
    assert measure.scale_time(2.0, nominal) == pytest.approx(2.0)
    # A host 1.5x slower at everything reads the same once scaled.
    slow_time = measure.scale_time(1.5, 1.5 * nominal)
    assert slow_time == pytest.approx(measure.scale_time(1.0, nominal))


def test_calibration_keeps_its_share_of_operation_time():
    calibrator = measure.Calibrator()
    for _ in range(20):
        calibrator.after_op(0.01)
    owed = measure.CALIBRATION_SHARE * 0.2
    assert calibrator.spent_s >= owed
    slowest = max(value for _, value in calibrator.stamps)
    assert calibrator.spent_s < owed + 2 * (calibrator.BATCH + 1) * slowest
    assert len(calibrator.stamps) % calibrator.BATCH == 0
    assert calibrator.median_s() > 0.0


def test_calibration_slice_computes_a_dft():
    import numpy as np

    calibrator = measure.Calibrator()
    assert np.allclose(calibrator.fft(),
                       np.fft.fft(calibrator._rows, axis=1))


def test_each_operation_is_scaled_by_samples_around_it():
    # Samples every 1/8 s; the host is twice as slow from t = 10 s on.
    stamps = [(t / 8, 1.0 if t < 80 else 2.0) for t in range(160)]
    short = measure.local_calibrations(stamps, [(5.0, 5.01), (15.0, 15.01)],
                                       margin=0.25, minimum=4)
    assert short == [1.0, 2.0]
    # An operation reaches as far as it is long: 9.75 s .. 10.125 s
    # here, two samples on each side of the change.
    assert measure.local_calibrations(stamps, [(9.875, 10.0)],
                                      margin=0.0625, minimum=2) == [1.5]
    # Too few samples around an operation: take the nearest ones instead.
    sparse = [(0.0, 1.0), (5.0, 3.0), (9.0, 5.0)]
    assert measure.local_calibrations(sparse, [(4.0, 4.0)], margin=0.1,
                                      minimum=2) == [2.0]


def test_epochs_cover_every_operation_once():
    bounds = measure.epoch_bounds([0.4, 0.4, 0.4, 1.5, 0.2, 0.1],
                                  minimum=1.0)
    assert bounds == [(0, 3), (3, 6)]
    assert measure.epoch_bounds([0.2], minimum=1.0) == [(0, 1)]


# -- workload records ----------------------------------------------------------

def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert per_layer == [(name, unit) for name, unit, *_ in PER_LAYER
                         + DERIVED]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    known = {name for name, _ in per_layer} | \
        {m["name"] for m in spec["end_to_end"]}
    for workload in WORKLOADS.values():
        for _, layer_metrics, moves in workload.layers:
            assert set(layer_metrics) <= known
            assert set(moves) <= known
