"""Broadcast OTA update MAC (paper section 7, future work).

The paper's deployed protocol programs nodes *sequentially* - simple and
resource-light, but total campaign time scales with the node count.  The
conclusion suggests exploring "modified MAC protocols that simultaneously
broadcast the updates across the network to reduce programming time".

This module implements that protocol so the trade-off can be measured:

1. The AP broadcasts every fragment once (no per-packet ACKs).
2. Nodes track which fragments they missed (per-node packet losses are
   independent draws from each node's link PER).
3. In a NACK phase, each incomplete node reports a missing-fragment
   bitmap in its TDMA slot.
4. The AP rebroadcasts the union of missing fragments, and the cycle
   repeats until every node is complete or the round budget runs out.

Airtime is shared across nodes, so the campaign takes roughly
``one_node_time * (1 + loss_overhead)`` instead of ``N * one_node_time``
- the win the benchmark quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import OtaError
from repro.mcu.msp432 import DECOMPRESS_BANDWIDTH_BPS, NODE_MCU
from repro.ota.blocks import split_and_compress, wire_image
from repro.ota.mac import (
    AP_RADIO,
    DATA_PAYLOAD_BYTES,
    DEFAULT_OTA_PARAMS,
    FRAGMENT_HEADER_BYTES,
    NODE_RADIO,
    OTA_PREAMBLE_SYMBOLS,
    OtaLink,
    fragment_image,
)
from repro.phy.lora.params import LoRaParams
from repro.power import profiles
from repro.radio.sx1276 import packet_error_probability
from repro.sim.events import MCU_DECOMPRESS, PACKET_TX
from repro.sim.timeline import Timeline
from repro.testbed.deployment import Deployment

NACK_SLOT_BYTES = 24
"""A NACK carries the node id plus a compressed missing-fragment bitmap."""

MAX_ROUNDS = 20


@dataclass
class BroadcastNodeState:
    """Per-node reception state across broadcast rounds."""

    node_id: int
    downlink_rssi_dbm: float
    uplink_rssi_dbm: float
    received: set[int] = field(default_factory=set)

    def missing(self, total_fragments: int) -> set[int]:
        """Fragments this node still needs."""
        return set(range(total_fragments)) - self.received


@dataclass(frozen=True)
class BroadcastReport:
    """Outcome of a broadcast campaign.

    Attributes:
        total_time_s: wall-clock campaign duration (shared by all nodes).
        rounds: broadcast+repair rounds used.
        fragments: unique fragments in the image.
        broadcast_packets: total fragment transmissions (incl. repairs).
        nack_packets: NACK transmissions heard by the AP.
        completed_nodes: nodes holding the full image at the end.
        node_count: deployment size.
        per_node_energy_j: node-side energy (radio RX for the whole
            campaign plus NACK TX and decompression).
    """

    total_time_s: float
    rounds: int
    fragments: int
    broadcast_packets: int
    nack_packets: int
    completed_nodes: int
    node_count: int
    per_node_energy_j: float
    timeline: Timeline | None = field(default=None, repr=False,
                                      compare=False)


def simulate_broadcast_campaign(deployment: Deployment, image: bytes,
                                rng: np.random.Generator,
                                params: LoRaParams | None = None,
                                max_rounds: int = MAX_ROUNDS,
                                timeline: Timeline | None = None
                                ) -> BroadcastReport:
    """Push one compressed image to every node via broadcast + NACK repair.

    Fragment broadcasts, NACK slots and the final decompression all land
    as events on ``timeline``; the report's wall-clock total is a replay
    of those advancing events.

    Raises:
        OtaError: if any node remains incomplete after ``max_rounds``.
    """
    if params is None:
        params = DEFAULT_OTA_PARAMS
    fragments = fragment_image(wire_image(split_and_compress(image)))

    nodes = []
    for placement in deployment.nodes:
        nodes.append(BroadcastNodeState(
            node_id=placement.node_id,
            downlink_rssi_dbm=deployment.downlink_rssi_dbm(placement, rng),
            uplink_rssi_dbm=deployment.uplink_rssi_dbm(placement, rng)))

    link = OtaLink(params=params)
    fragment_airtime = link.airtime_s(FRAGMENT_HEADER_BYTES
                                      + DATA_PAYLOAD_BYTES)
    nack_airtime = link.airtime_s(NACK_SLOT_BYTES)

    timeline = timeline if timeline is not None else Timeline()
    since = timeline.checkpoint()
    broadcast_packets = 0
    nack_packets = 0
    to_send = list(range(len(fragments)))

    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        # Broadcast phase: every queued fragment goes out once.
        for fragment_index in to_send:
            broadcast_packets += 1
            timeline.record(
                PACKET_TX, AP_RADIO,
                label=f"broadcast seq={fragment_index} round={rounds}",
                duration_s=fragment_airtime,
                power_w=profiles.BACKBONE_TX_14DBM_W)
            wire = fragments[fragment_index].wire_bytes
            for node in nodes:
                if fragment_index in node.received:
                    continue
                per = packet_error_probability(
                    params,
                    node.downlink_rssi_dbm + float(rng.normal(0.0, 2.0)),
                    wire, OTA_PREAMBLE_SYMBOLS)
                if rng.random() >= per:
                    node.received.add(fragment_index)
        # NACK phase: incomplete nodes report in their slots.
        missing_union: set[int] = set()
        for node in nodes:
            missing = node.missing(len(fragments))
            if not missing:
                continue
            timeline.record(
                PACKET_TX, NODE_RADIO,
                label=f"nack node={node.node_id} round={rounds}",
                duration_s=nack_airtime,
                power_w=profiles.BACKBONE_TX_14DBM_W)
            nack_packets += 1
            per = packet_error_probability(
                params, node.uplink_rssi_dbm + float(rng.normal(0.0, 2.0)),
                NACK_SLOT_BYTES, OTA_PREAMBLE_SYMBOLS)
            if rng.random() >= per:
                missing_union |= missing
            else:
                # Lost NACK: the AP conservatively re-queues everything
                # this node could be missing next round.
                missing_union |= missing
        if not any(node.missing(len(fragments)) for node in nodes):
            to_send = []
            break
        to_send = sorted(missing_union)
        if not to_send:
            break

    incomplete = [node.node_id for node in nodes
                  if node.missing(len(fragments))]
    if incomplete:
        raise OtaError(
            f"nodes {incomplete} incomplete after {rounds} rounds")

    timeline.record(
        MCU_DECOMPRESS, NODE_MCU,
        label=f"{len(image)} bytes",
        duration_s=len(image) * 8 / DECOMPRESS_BANDWIDTH_BPS,
        power_w=profiles.MCU_ACTIVE_W)
    total_time = timeline.time_s(since=since, advancing_only=True)
    per_node_energy = (total_time * profiles.BACKBONE_RX_W
                       + rounds * nack_airtime * profiles.BACKBONE_TX_14DBM_W
                       + total_time * profiles.MCU_ACTIVE_W)
    return BroadcastReport(
        total_time_s=total_time,
        rounds=rounds,
        fragments=len(fragments),
        broadcast_packets=broadcast_packets,
        nack_packets=nack_packets,
        completed_nodes=len(nodes) - len(incomplete),
        node_count=len(nodes),
        per_node_energy_j=per_node_energy,
        timeline=timeline)
