"""Parity and invariants of the vectorized fleet campaign engine.

The PR-1 discipline applied at fleet scale: ``run_fleet_campaign`` (the
vectorized cohort stepper) and ``run_fleet_campaign_reference`` (a
plain per-node Python loop over the identical draw order) must agree
bit for bit on every per-node array, and the closed-form accounting
must reconcile with both the rollup and the event-level per-node
timeline reconstruction.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, FaultInjectionError
from repro.ota.bank import METADATA_OFFSET, STAGING_OFFSET
from repro.ota.fleet import (
    FleetBurstLoss,
    FleetCampaignConfig,
    fleet_packet_error_probability,
    prepare_links,
    run_fleet_campaign,
    run_fleet_campaign_reference,
    run_fleet_campaign_sharded,
    simulate_node_timeline,
    write_fleet_spill,
)
from repro.ota.fleet.engine import _simulate_range, _simulate_range_reference
from repro.ota.hardened import IMAGE_ID
from repro.ota.mac import (
    ACK_BYTES,
    DATA_PAYLOAD_BYTES,
    DEFAULT_OTA_PARAMS,
    DataPacket,
    EndOfUpdate,
    OtaLink,
    ProgrammingRequest,
    ReadyMessage,
)
from repro.radio.sx1276 import packet_error_probability
from repro.sim.stream import (
    DEFAULT_BUFFER_ROWS,
    TimelineRollup,
    read_jsonl_records,
)

PER_NODE_ARRAYS = (
    "node_ids", "outcome_codes", "fragments", "attempts", "data_rx_full",
    "data_rx_tail", "timeouts", "acks_tx", "forced_losses",
    "session_failures", "resumes", "flash_bank", "duration_s", "energy_j",
    "events_per_node",
)

CLEAN = FleetCampaignConfig(num_nodes=24, image_bytes=1800, seed=3)
LOSSY = FleetCampaignConfig(
    num_nodes=24, image_bytes=1800, seed=5, max_rounds_per_fragment=6,
    loss=FleetBurstLoss(p_enter_bad=0.25, p_exit_bad=0.2,
                        loss_bad=0.9, loss_good=0.01),
    verify_failure_prob=0.2)
HARSH = FleetCampaignConfig(
    num_nodes=24, image_bytes=900, seed=11, max_rounds_per_fragment=4,
    max_session_attempts=2,
    loss=FleetBurstLoss(p_enter_bad=0.35, p_exit_bad=0.15,
                        loss_bad=0.97, loss_good=0.02),
    verify_failure_prob=0.1)
MCU_IMAGE = FleetCampaignConfig(num_nodes=12, image_bytes=700, seed=9,
                                is_fpga_image=False,
                                loss=FleetBurstLoss())
# Compaction edges of the stepper: most of the cohort abandoning in its
# first round, a draw sequence with no loss or verify draws, and a
# one-node fleet.
ABANDON_FAST = FleetCampaignConfig(
    num_nodes=40, image_bytes=120, seed=13, max_rounds_per_fragment=1,
    max_session_attempts=1,
    loss=FleetBurstLoss(p_enter_bad=0.7, p_exit_bad=0.5,
                        loss_bad=1.0, loss_good=0.0))
LOSSLESS = FleetCampaignConfig(
    num_nodes=32, image_bytes=1200, seed=17, max_rounds_per_fragment=2,
    max_radius_m=2500.0, loss=None, verify_failure_prob=0.0)
ONE_NODE = FleetCampaignConfig(num_nodes=1, image_bytes=600, seed=21,
                               loss=FleetBurstLoss(),
                               verify_failure_prob=0.5)

ALL_CONFIGS = (CLEAN, LOSSY, HARSH, MCU_IMAGE, ABANDON_FAST, LOSSLESS,
               ONE_NODE)
CONFIG_IDS = ["clean", "lossy", "harsh", "mcu", "abandon-fast", "lossless",
              "one-node"]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_vectorized_engine_matches_reference_bitwise(config):
    fast = run_fleet_campaign(config)
    reference = run_fleet_campaign_reference(config)
    for name in PER_NODE_ARRAYS:
        assert np.array_equal(getattr(fast, name), getattr(reference, name)), \
            name
    assert fast.rollup == reference.rollup
    assert fast.total_energy_j == reference.total_energy_j


def test_pinned_campaign_golden():
    # A full end-to-end pin: both engine twins drifting together would
    # slip the parity test, so freeze one campaign's aggregate exactly.
    report = run_fleet_campaign(LOSSY)
    assert report.outcome_counts() == {
        "succeeded": 3, "resumed": 7, "rolled_back": 3, "abandoned": 11}
    assert report.total_events == int(np.sum(report.events_per_node))
    assert report.rollup.total_events == report.total_events
    golden = {
        "total_events": 5159,
        "fragments": 635,
        "timeouts": 764,
        "energy_hex": "0x1.d91cf59bc1d96p+3",
    }
    assert report.total_events == golden["total_events"]
    assert int(np.sum(report.fragments)) == golden["fragments"]
    assert int(np.sum(report.timeouts)) == golden["timeouts"]
    assert float(report.total_energy_j).hex() == golden["energy_hex"]


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_node_timeline_reconstruction_is_event_exact(config):
    report = run_fleet_campaign(config)
    plan = prepare_links(config)
    for node in range(0, config.num_nodes, 5):
        timeline = simulate_node_timeline(config, node, plan=plan)
        assert len(timeline) == report.events_per_node[node]
        assert timeline.time_s(advancing_only=True) \
            == pytest.approx(report.duration_s[node], rel=1e-12)
        assert timeline.total_energy_j() \
            == pytest.approx(report.energy_j[node], rel=1e-12)


def test_rollup_reconciles_with_per_node_arrays():
    report = run_fleet_campaign(LOSSY)
    rollup = report.rollup
    assert rollup.count("packet.rx") == int(np.sum(report.data_rx_full)
                                            + np.sum(report.data_rx_tail))
    assert rollup.count("packet.timeout") == int(np.sum(report.timeouts))
    assert rollup.count("packet.tx") == int(np.sum(report.acks_tx))
    assert rollup.count("fault.loss") == int(np.sum(report.forced_losses))
    assert rollup.count("ota.rollback") \
        == report.outcome_counts()["rolled_back"]
    assert rollup.total_energy_j \
        == pytest.approx(report.total_energy_j, rel=1e-12)


def test_completed_nodes_commit_the_update_bank():
    report = run_fleet_campaign(LOSSY)
    outcomes = np.asarray(report.outcomes())
    assert np.all(report.flash_bank[outcomes == "succeeded"] == 1)
    assert np.all(report.flash_bank[outcomes == "rolled_back"] == 0)
    assert np.all(report.fragments[outcomes == "succeeded"]
                  == LOSSY.num_fragments)


def test_harsh_campaign_exercises_retry_paths():
    report = run_fleet_campaign(HARSH)
    assert int(np.sum(report.session_failures)) > 0
    assert int(np.sum(report.resumes)) > 0
    assert np.any(report.attempts > 1)


def test_vectorized_per_matches_scalar_model():
    params = DEFAULT_OTA_PARAMS
    rssi = np.linspace(-140.0, -40.0, 41)
    vector = fleet_packet_error_probability(params, rssi, 68)
    for dbm, per in zip(rssi, vector):
        assert float(per) == pytest.approx(
            packet_error_probability(params, float(dbm), 68), rel=1e-12)


def test_link_plan_airtimes_match_the_per_node_messages():
    # 1,830 B leaves a 30 B tail fragment.  Every fleet airtime is the
    # per-node engine's airtime of the same message.
    config = FleetCampaignConfig(num_nodes=2, image_bytes=1830, seed=1)
    assert config.tail_payload_bytes < DATA_PAYLOAD_BYTES
    plan = prepare_links(config)
    airtime_s = OtaLink().airtime_s
    full = DataPacket(0, bytes(DATA_PAYLOAD_BYTES))
    tail = DataPacket(1, bytes(config.tail_payload_bytes))
    request = ProgrammingRequest((0,), (0.0,), image_id=IMAGE_ID)
    end = EndOfUpdate(config.num_fragments, image_crc=0)
    assert plan.air_data_full_s == airtime_s(full.wire_bytes)
    assert plan.air_data_tail_s == airtime_s(tail.wire_bytes)
    assert plan.air_request_s == airtime_s(request.wire_bytes)
    assert plan.air_ready_s == airtime_s(ReadyMessage(0).wire_bytes)
    assert plan.air_end_s == airtime_s(end.wire_bytes)
    assert plan.air_ack_s == airtime_s(ACK_BYTES)


def test_mcu_image_skips_fpga_configuration():
    report = run_fleet_campaign(MCU_IMAGE)
    assert report.rollup.count("fpga.config") == 0
    assert report.rollup.count("mcu.decompress") \
        == report.outcome_counts()["succeeded"] \
        + report.outcome_counts()["resumed"] \
        + report.outcome_counts()["rolled_back"]


def test_fleet_spill_round_trips_with_bounded_buffer(tmp_path):
    report = run_fleet_campaign(LOSSY)
    path = tmp_path / "fleet.jsonl"
    stats = write_fleet_spill(report, path, buffer_rows=16)
    assert stats["max_buffered"] <= 16
    rows = list(read_jsonl_records(path))
    assert stats["rows_written"] == len(rows)
    header, = [row for row in rows if row["record"] == "fleet-campaign"]
    assert header["total_events"] == report.total_events
    assert header["outcomes"] == report.outcome_counts()
    nodes = [row for row in rows if row["record"] == "node"]
    assert len(nodes) == report.num_nodes
    assert [row["node"] for row in nodes] == list(range(report.num_nodes))
    rebuilt = TimelineRollup.from_rows(
        [row for row in rows if row["record"] == "rollup"])
    assert rebuilt == report.rollup


def test_config_validation_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        FleetCampaignConfig(num_nodes=0, image_bytes=100)
    with pytest.raises(ConfigurationError):
        FleetCampaignConfig(num_nodes=1, image_bytes=0)
    with pytest.raises(ConfigurationError):
        FleetCampaignConfig(num_nodes=1, image_bytes=100,
                            verify_failure_prob=1.5)
    with pytest.raises(FaultInjectionError):
        FleetBurstLoss(p_enter_bad=-0.1)
    with pytest.raises(ConfigurationError):
        simulate_node_timeline(CLEAN, CLEAN.num_nodes)


def test_config_refuses_an_image_the_node_cannot_stage():
    # A 10**9-byte image used to step 16.7 M fragments before returning.
    capacity = METADATA_OFFSET - STAGING_OFFSET
    FleetCampaignConfig(num_nodes=1, image_bytes=capacity)
    for image_bytes in (capacity + 1, 10 ** 9):
        with pytest.raises(ConfigurationError,
                           match=f"image_bytes must be at most {capacity}"):
            FleetCampaignConfig(num_nodes=1, image_bytes=image_bytes)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["max_radius_m"])
def test_config_rejects_a_non_finite_float_naming_the_field(field, value):
    # A NaN link budget used to abandon every node with finite energy.
    with pytest.raises(ConfigurationError, match=field):
        FleetCampaignConfig(num_nodes=8, image_bytes=300, **{field: value})


def test_edge_configs_reach_the_compaction_edges():
    report = run_fleet_campaign(ABANDON_FAST)
    rounds = report.data_rx_full + report.data_rx_tail
    abandoned = np.asarray(report.outcomes()) == "abandoned"
    first_round_abandons = (rounds == 1) & abandoned
    assert 2 * int(np.sum(first_round_abandons)) > ABANDON_FAST.num_nodes
    assert 0 < report.outcome_counts()["succeeded"]
    lossless = run_fleet_campaign(LOSSLESS)
    assert int(np.sum(lossless.forced_losses)) == 0
    assert lossless.outcome_counts()["rolled_back"] == 0
    assert 0 < lossless.outcome_counts()["abandoned"] < LOSSLESS.num_nodes


# Three fragments and a four-round budget: nodes often finish on their
# tail fragment while most of the cohort is still stepping, so a
# finished row that a mask lets through would be counted.
LOSSY_40 = FleetCampaignConfig(
    num_nodes=40, image_bytes=180, seed=0, max_rounds_per_fragment=4,
    max_session_attempts=2,
    loss=FleetBurstLoss(p_enter_bad=0.35, p_exit_bad=0.15,
                        loss_bad=0.97, loss_good=0.02),
    verify_failure_prob=0.1)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32),
       bounds=st.tuples(st.integers(min_value=0, max_value=40),
                        st.integers(min_value=0, max_value=40)))
@example(seed=21, bounds=(7, 40))
def test_range_stepper_matches_reference_on_any_slice(seed, bounds):
    # With lo > 0 a node's row, its slot in the outputs and its id all
    # differ, so an offset bug in the position map cannot hide.
    lo, hi = sorted(bounds)
    config = dataclasses.replace(LOSSY_40, seed=seed)
    plan = prepare_links(config)
    fast = _simulate_range(config, lo, hi, plan)
    reference = _simulate_range_reference(config, lo, hi, plan)
    assert fast.keys() == reference.keys()
    for name, expected in reference.items():
        assert fast[name].dtype == expected.dtype, name
        assert np.array_equal(fast[name], expected), name


# -- spill format ----------------------------------------------------------


def _spill_rows(report) -> list[dict]:
    """The rows a spill encodes, in file order, built as plain dicts.

    This is the oracle: each spill line must be ``json.dumps`` of one.
    """
    outcomes = report.outcomes()
    header = {
        "record": "fleet-campaign",
        "num_nodes": report.num_nodes,
        "image_bytes": report.config.image_bytes,
        "seed": report.config.seed,
        "total_events": report.total_events,
        "total_energy_j": report.total_energy_j,
        "outcomes": report.outcome_counts(),
    }
    nodes = [{
        "record": "node",
        "node": int(report.node_ids[i]),
        "outcome": outcomes[i],
        "fragments": int(report.fragments[i]),
        "attempts": int(report.attempts[i]),
        "timeouts": int(report.timeouts[i]),
        "flash_bank": int(report.flash_bank[i]),
        "duration_s": float(report.duration_s[i]),
        "energy_j": float(report.energy_j[i]),
        "events": int(report.events_per_node[i]),
    } for i in range(report.num_nodes)]
    return [header, *nodes, *report.rollup.to_rows()]


def _assert_spill_is_json_dumps(report, path, buffer_rows) -> None:
    stats = write_fleet_spill(report, path, buffer_rows=buffer_rows)
    lines = [json.dumps(row) for row in _spill_rows(report)]
    assert path.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
    assert stats["rows_written"] == len(lines)
    assert stats["max_buffered"] <= buffer_rows


@pytest.mark.parametrize("buffer_rows", [1, 7, DEFAULT_BUFFER_ROWS])
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_spill_lines_are_json_dumps_of_each_row(tmp_path, config,
                                                buffer_rows):
    _assert_spill_is_json_dumps(run_fleet_campaign(config),
                                tmp_path / "fleet.jsonl", buffer_rows)


#: The integer node-row columns the spill writes after the node id.
_TAIL_INTS = ("outcome_codes", "fragments", "attempts", "timeouts",
              "flash_bank", "events_per_node")


def _tricky_floats(report) -> dict[str, np.ndarray]:
    # Integral, tiny, huge and shortest-repr floats: a %g or fixed
    # precision format would write some of them differently.
    tricky = np.resize([1.0, 0.1, 1e-07, 1e16, 2.5e-320, 123456789.125,
                        -0.0, 1 / 3], report.num_nodes)
    return {"duration_s": tricky, "energy_j": tricky[::-1].copy()}


def _signed_zeros(report) -> dict[str, np.ndarray]:
    # Rows equal but for the sign of a zero duration (rows 0 and 1) or
    # energy (rows 0 and 2): 0.0 == -0.0, so a row cache keyed on float
    # values would write one tail for both.
    columns = {name: np.full_like(getattr(report, name),
                                  getattr(report, name)[0])
               for name in _TAIL_INTS}
    columns["duration_s"] = np.resize([0.0, -0.0], report.num_nodes)
    columns["energy_j"] = np.resize([0.0, 0.0, -0.0, -0.0],
                                    report.num_nodes)
    return columns


def _one_column_apart(report) -> dict[str, np.ndarray]:
    # Constant floats; row 0 holds every integer column at 0 and each of
    # the next six rows sets one column to 1, so a row cache whose key
    # drops any column would write row 0's tail for one of them.
    one_hot = np.eye(7, len(_TAIL_INTS), k=-1, dtype=np.int64)
    one_hot = one_hot[np.arange(report.num_nodes) % 7]
    columns = {name: one_hot[:, j].astype(getattr(report, name).dtype)
               for j, name in enumerate(_TAIL_INTS)}
    columns["duration_s"] = np.full(report.num_nodes, 1.5)
    columns["energy_j"] = np.full(report.num_nodes, 0.25)
    return columns


@pytest.mark.parametrize("columns", [
    _tricky_floats, _signed_zeros, _one_column_apart,
], ids=["tricky-floats", "signed-zeros", "one-column-apart"])
def test_spill_writes_floats_exactly_as_json_dumps(tmp_path, columns):
    report = run_fleet_campaign(CLEAN)
    report = dataclasses.replace(report, **columns(report))
    _assert_spill_is_json_dumps(report, tmp_path / "fleet.jsonl", 5)


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=CONFIG_IDS)
def test_sharded_spill_is_byte_identical(tmp_path, config):
    whole, sharded = tmp_path / "whole.jsonl", tmp_path / "sharded.jsonl"
    write_fleet_spill(run_fleet_campaign(config), whole)
    write_fleet_spill(run_fleet_campaign_sharded(config, shards=3), sharded)
    assert whole.read_bytes() == sharded.read_bytes()


FOUR_NODES = FleetCampaignConfig(num_nodes=4, image_bytes=900, seed=4)


@pytest.mark.parametrize("name, values", [
    ("energy_j", [math.nan, math.inf, 1.0, 2.0]),
    ("energy_j", [1.0, -math.inf, 1.0, 2.0]),
    ("duration_s", [1.0, 2.0, math.nan, 4.0]),
])
def test_spill_rejects_non_finite_values_before_writing(tmp_path, name,
                                                        values):
    report = dataclasses.replace(run_fleet_campaign(FOUR_NODES),
                                 **{name: np.array(values)})
    path = tmp_path / "fleet.jsonl"
    with pytest.raises(ConfigurationError):
        write_fleet_spill(report, path)
    assert not path.exists()


def test_spill_rejects_a_non_finite_rollup_cell(tmp_path):
    report = run_fleet_campaign(FOUR_NODES)
    rollup = TimelineRollup()
    rollup.merge(report.rollup)
    rollup.add("fault.loss", "node_radio", energy_j=math.inf)
    path = tmp_path / "fleet.jsonl"
    with pytest.raises(ConfigurationError):
        write_fleet_spill(dataclasses.replace(report, rollup=rollup), path)
    assert not path.exists()
