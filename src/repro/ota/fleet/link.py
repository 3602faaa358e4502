"""Whole-fleet link precomputation: placements, RSSI, packet PER.

The per-node link budget is static for a campaign (one placement draw,
one shadowing draw per direction), so the fleet engine precomputes the
entire fleet's packet-success probabilities once as flat arrays — the
:class:`FleetLinkPlan` — and the ARQ inner loop reduces to comparing
uniform draws against them.

Shard invariance: the plan is always computed for the *full* fleet from
the ``fleet.placement`` sub-stream (:func:`repro.seeding.stream_rng`)
drawn in a fixed order, then sliced per shard, so a node's link is
identical no matter which shard simulates it.  Both the vectorized
engine and the scalar reference twin consume the same plan; the parity
boundary is the campaign stepping and accounting, not the link-budget
arithmetic.

The PER model is the analytic SX1276 waterfall of
:func:`repro.radio.sx1276.packet_error_probability`, vectorized over
RSSI (``tests/test_fleet_engine.py`` pins the two against each other).
Block fading is deliberately absent — the fleet model draws the
shadowing once per node and holds the link static, trading the legacy
path's per-packet fading draws for a fixed, vectorizable draw budget
per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ota.fleet.config import FleetCampaignConfig
from repro.ota.mac import (
    ACK_BYTES,
    CONTROL_BYTES,
    DATA_PAYLOAD_BYTES,
    DEFAULT_OTA_PARAMS,
    FRAGMENT_HEADER_BYTES,
    OTA_PREAMBLE_SYMBOLS,
    REQUEST_ENTRY_BYTES,
)
from repro.phy.lora.params import LoRaParams
from repro.radio.sx1276 import NOISE_FIGURE_DB, SER_UNDERFLOW_EXPONENT
from repro.seeding import stream_rng
from repro.testbed.deployment import (
    AP_ANTENNA_GAIN_DBI,
    AP_TX_POWER_DBM,
    FREQUENCY_HZ,
    KEEP_OUT_M,
    NODE_TX_POWER_DBM,
    PATHLOSS_EXPONENT,
    SHADOWING_SIGMA_DB,
)
from repro.units import free_space_path_loss_db, noise_floor_dbm


def fleet_packet_error_probability(params: LoRaParams,
                                   rssi_dbm: np.ndarray,
                                   payload_bytes: int,
                                   preamble_symbols: int =
                                   OTA_PREAMBLE_SYMBOLS) -> np.ndarray:
    """Vectorized :func:`repro.radio.sx1276.packet_error_probability`.

    Same union-bound SER expanded to the packet's effective symbol
    count, evaluated elementwise over an RSSI array.
    """
    rssi = np.asarray(rssi_dbm, dtype=np.float64)
    snr_db = rssi - noise_floor_dbm(params.bandwidth_hz, NOISE_FIGURE_DB)
    n = 2 ** params.spreading_factor
    snr = 10.0 ** (snr_db / 10.0)
    exponent = -n * snr / 2.0
    ser = np.where(
        exponent < SER_UNDERFLOW_EXPONENT, 0.0,
        np.minimum(1.0, (n - 1) / 2.0
                   * np.exp(np.maximum(exponent, SER_UNDERFLOW_EXPONENT))))
    symbols = (preamble_symbols + 4.25
               + params.airtime_s(payload_bytes, preamble_symbols)
               / params.symbol_duration_s)
    effective_symbols = max(symbols * 4.0 / params.coding_rate_denominator,
                            1.0)
    per = 1.0 - (1.0 - ser) ** effective_symbols
    return np.minimum(np.maximum(per, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class FleetLinkPlan:
    """Precomputed full-fleet link table (arrays indexed by node id).

    Attributes:
        distances_m: node-to-AP distances.
        x_m: east offsets from the AP.
        y_m: north offsets from the AP.
        downlink_rssi_dbm: node-side RSSI of AP transmissions.
        uplink_rssi_dbm: AP-side RSSI of node transmissions.
        p_data_full: success probability of a full data fragment.
        p_data_tail: success probability of the tail fragment.
        p_ack: success probability of an uplink ACK.
        air_data_full_s: airtime of a full data fragment.
        air_data_tail_s: airtime of the tail fragment.
        air_ack_s: airtime of an ACK.
        air_request_s: airtime of a single-device programming request.
        air_ready_s: airtime of a ready message.
        air_end_s: airtime of an end-of-update message.
    """

    distances_m: np.ndarray
    x_m: np.ndarray
    y_m: np.ndarray
    downlink_rssi_dbm: np.ndarray
    uplink_rssi_dbm: np.ndarray
    p_data_full: np.ndarray
    p_data_tail: np.ndarray
    p_ack: np.ndarray
    air_data_full_s: float
    air_data_tail_s: float
    air_ack_s: float
    air_request_s: float
    air_ready_s: float
    air_end_s: float


def prepare_links(config: FleetCampaignConfig) -> FleetLinkPlan:
    """Build the full-fleet link table for a campaign configuration.

    Geometry mirrors :func:`repro.testbed.deployment.campus_deployment` —
    uniform density over the disk via a square-root radial draw outside the
    :data:`~repro.testbed.deployment.KEEP_OUT_M` keep-out — vectorized
    over the whole fleet, with one lognormal shadowing draw per node per
    direction.
    """
    rng = stream_rng(config.seed, "fleet.placement")
    n = config.num_nodes
    radii = KEEP_OUT_M + (config.max_radius_m - KEEP_OUT_M) \
        * np.sqrt(rng.random(n))
    angles = rng.random(n) * 2.0 * np.pi
    shadow_down = rng.standard_normal(n) * SHADOWING_SIGMA_DB
    shadow_up = rng.standard_normal(n) * SHADOWING_SIGMA_DB

    reference_loss = free_space_path_loss_db(1.0, FREQUENCY_HZ)
    mean_loss = reference_loss + 10.0 * PATHLOSS_EXPONENT * np.log10(radii)
    downlink = (AP_TX_POWER_DBM + AP_ANTENNA_GAIN_DBI
                - (mean_loss + shadow_down))
    uplink = (NODE_TX_POWER_DBM + AP_ANTENNA_GAIN_DBI
              - (mean_loss + shadow_up))

    params = DEFAULT_OTA_PARAMS
    full_wire = FRAGMENT_HEADER_BYTES + DATA_PAYLOAD_BYTES
    tail_wire = FRAGMENT_HEADER_BYTES + config.tail_payload_bytes
    request_wire = CONTROL_BYTES + REQUEST_ENTRY_BYTES

    plan = FleetLinkPlan(
        distances_m=radii,
        x_m=radii * np.cos(angles),
        y_m=radii * np.sin(angles),
        downlink_rssi_dbm=downlink,
        uplink_rssi_dbm=uplink,
        p_data_full=1.0 - fleet_packet_error_probability(
            params, downlink, full_wire),
        p_data_tail=1.0 - fleet_packet_error_probability(
            params, downlink, tail_wire),
        p_ack=1.0 - fleet_packet_error_probability(
            params, uplink, ACK_BYTES),
        air_data_full_s=params.airtime_s(full_wire, OTA_PREAMBLE_SYMBOLS),
        air_data_tail_s=params.airtime_s(tail_wire, OTA_PREAMBLE_SYMBOLS),
        air_ack_s=params.airtime_s(ACK_BYTES, OTA_PREAMBLE_SYMBOLS),
        air_request_s=params.airtime_s(request_wire, OTA_PREAMBLE_SYMBOLS),
        air_ready_s=params.airtime_s(ACK_BYTES, OTA_PREAMBLE_SYMBOLS),
        air_end_s=params.airtime_s(CONTROL_BYTES, OTA_PREAMBLE_SYMBOLS))
    for array in (plan.distances_m, plan.x_m, plan.y_m,
                  plan.downlink_rssi_dbm, plan.uplink_rssi_dbm,
                  plan.p_data_full, plan.p_data_tail, plan.p_ack):
        array.setflags(write=False)
    return plan
