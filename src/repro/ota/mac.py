"""Over-the-air programming MAC protocol (paper section 3.4).

The AP updates nodes sequentially over a LoRa link: a programming request
names the device IDs and their wake times; each selected node answers
with a ready message at its slot; the AP then streams the firmware as
sequence-numbered data packets which the node CRC-checks, writes to
flash, and ACKs - a missing ACK triggers retransmission after a timeout;
a final end-of-update packet tells the node to decompress, reprogram and
resume.

This module defines the wire messages, the per-packet link simulation
(packet error rates from the SX1276 model at the measured RSSI), and the
two state machines.  The byte layouts are explicit so tests can verify
round-trips; :class:`repro.ota.ap.AccessPoint` drives one session per
node over a :mod:`repro.testbed` deployment to reproduce the Fig. 14
CDF.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import BrownoutInterrupt, ProtocolError
from repro.phy.lora.codec import MAX_PAYLOAD_BYTES
from repro.phy.lora.params import LoRaParams
from repro.power import profiles
from repro.radio.sx1276 import packet_error_probability
from repro.retry import MAX_ATTEMPTS_PER_PACKET, RetryPolicy
from repro.sim.events import (
    CONTROL_RX,
    CONTROL_TX,
    OTA_FAILURE,
    PACKET_DELIVERED,
    PACKET_RX,
    PACKET_TIMEOUT,
    PACKET_TX,
)
from repro.sim.timeline import Timeline

if TYPE_CHECKING:
    from repro.faults.plan import NodeFaults

NODE_RADIO = "node_radio"
"""Timeline component name for the node's backbone (SX1276) radio."""

AP_RADIO = "ap_radio"
"""Timeline component name for the access point's LoRa radio."""

# Terminal per-node outcome classes for campaign reporting.
OUTCOME_SUCCEEDED = "succeeded"
OUTCOME_RESUMED = "resumed"
OUTCOME_ROLLED_BACK = "rolled_back"
OUTCOME_ABANDONED = "abandoned"

DATA_PAYLOAD_BYTES = 60
"""'packets of 60 B ... balances protocol overhead versus range'.  This
is the paper's operating point, not a protocol limit - the packet-size
ablation sweeps around it up to :data:`MAX_DATA_PAYLOAD_BYTES`."""

FRAGMENT_HEADER_BYTES = 8
"""Data-fragment wire overhead: sequence number (4) + CRC-32 (4)."""

MAX_DATA_PAYLOAD_BYTES = MAX_PAYLOAD_BYTES - FRAGMENT_HEADER_BYTES
"""LoRa's 255-byte PHY payload minus the fragment header: 247 B."""

REQUEST_ENTRY_BYTES = 6
"""Per-device (id, wake time) entry of a programming request."""

OTA_PREAMBLE_SYMBOLS = 8
"""'We choose a preamble of 8 chirps'."""

DEFAULT_OTA_PARAMS = LoRaParams(
    spreading_factor=8, bandwidth_hz=500e3, coding_rate_denominator=6)
"""AP configuration used in the paper's testbed evaluation (5.3)."""

ACK_BYTES = 6
CONTROL_BYTES = 12

LISTEN_PERIOD_S = 60.0
"""Nodes 'periodically turn off the FPGA and switch ... to the backbone
radio to listen for new firmware updates' - this is that period, and
the wait before a failed node's next session attempt."""


def crc32(data: bytes) -> int:
    """Packet integrity check (CRC-32, as a stand-in for the MAC's CRC)."""
    return zlib.crc32(data) & 0xFFFFFFFF


@dataclass(frozen=True)
class ProgrammingRequest:
    """AP -> nodes: who should update and when to wake."""

    device_ids: tuple[int, ...]
    wake_times_s: tuple[float, ...]
    image_id: int

    def __post_init__(self) -> None:
        if len(self.device_ids) != len(self.wake_times_s):
            raise ProtocolError(
                "each selected device needs exactly one wake time")
        if not self.device_ids:
            raise ProtocolError("a programming request must name devices")

    @property
    def wire_bytes(self) -> int:
        """Serialized size: header + one entry per (id, wake) pair."""
        return CONTROL_BYTES + REQUEST_ENTRY_BYTES * len(self.device_ids)


@dataclass(frozen=True)
class ReadyMessage:
    """Node -> AP: awake and ready to receive at the scheduled slot."""

    device_id: int

    @property
    def wire_bytes(self) -> int:
        """Serialized size."""
        return ACK_BYTES


@dataclass(frozen=True)
class DataPacket:
    """AP -> node: one firmware fragment."""

    sequence: int
    payload: bytes

    def __post_init__(self) -> None:
        if not self.payload:
            raise ProtocolError("data packets must carry a payload")
        if len(self.payload) > MAX_DATA_PAYLOAD_BYTES:
            raise ProtocolError(
                f"payload of {len(self.payload)} exceeds the "
                f"{MAX_DATA_PAYLOAD_BYTES}-byte limit")

    @property
    def crc(self) -> int:
        """Payload CRC carried in the packet."""
        return crc32(self.sequence.to_bytes(4, "big") + self.payload)

    @property
    def wire_bytes(self) -> int:
        """Serialized size: fragment header + payload."""
        return FRAGMENT_HEADER_BYTES + len(self.payload)


@dataclass(frozen=True)
class EndOfUpdate:
    """AP -> node: image complete; decompress, reprogram and resume."""

    total_packets: int
    image_crc: int

    @property
    def wire_bytes(self) -> int:
        """Serialized size."""
        return CONTROL_BYTES


def fragment_image(image: bytes,
                   payload_bytes: int = DATA_PAYLOAD_BYTES) -> list[DataPacket]:
    """Split an image into sequence-numbered data packets.

    Raises:
        ProtocolError: for an empty image or non-positive fragment size.
    """
    if not image:
        raise ProtocolError("cannot fragment an empty image")
    if payload_bytes <= 0:
        raise ProtocolError(
            f"payload size must be positive, got {payload_bytes}")
    return [DataPacket(sequence=index, payload=image[start:start + payload_bytes])
            for index, start in enumerate(range(0, len(image), payload_bytes))]


@dataclass(frozen=True)
class OtaLink:
    """One AP<->node LoRa link at a measured signal strength.

    Attributes:
        params: LoRa configuration of the backbone link.
        downlink_rssi_dbm: node-side RSSI of AP transmissions.
        uplink_rssi_dbm: AP-side RSSI of node transmissions (defaults to
            symmetric).
    """

    params: LoRaParams = DEFAULT_OTA_PARAMS
    downlink_rssi_dbm: float = -100.0
    uplink_rssi_dbm: float | None = None
    fading_sigma_db: float = 2.0
    """Lognormal fading around the mean RSSI.  Outdoor LoRa links are not
    static: this is what turns the analytic PER cliff into the gradual
    per-node slowdown Fig. 14's CDF tail shows."""

    fading_coherence_s: float = 0.15
    """Channel coherence time.  A packet longer than this straddles
    multiple independent fading states and fails if *any* of them dips -
    the physical reason 'long packets with short preambles lead to higher
    PER' (paper 5.3) and the pressure against huge OTA fragments."""

    def packet_success(self, wire_bytes: int, uplink: bool,
                       rng: np.random.Generator) -> bool:
        """Draw one packet delivery outcome under block fading."""
        rssi = (self.uplink_rssi_dbm if uplink and self.uplink_rssi_dbm
                is not None else self.downlink_rssi_dbm)
        airtime = self.airtime_s(wire_bytes)
        blocks = max(1, int(np.ceil(airtime / self.fading_coherence_s)))
        for _ in range(blocks):
            block_rssi = rssi
            if self.fading_sigma_db > 0:
                block_rssi += float(rng.normal(0.0, self.fading_sigma_db))
            per = packet_error_probability(
                self.params, block_rssi,
                max(wire_bytes // blocks, 1), OTA_PREAMBLE_SYMBOLS)
            if rng.random() < per:
                return False
        return True

    def airtime_s(self, wire_bytes: int) -> float:
        """Time-on-air of a packet on this link."""
        return self.params.airtime_s(wire_bytes, OTA_PREAMBLE_SYMBOLS)


@dataclass
class TransferReport:
    """Outcome of one firmware transfer session.

    Every numeric field is a *view* over the session's
    :class:`~repro.sim.timeline.Timeline` ledger, materialized when the session
    ends (see :func:`transfer_report_from_timeline`); nothing here is
    accumulated by hand.

    Attributes:
        duration_s: total session time including retransmissions.
        packets_sent: data packets transmitted (with retries).
        packets_delivered: unique data packets delivered.
        retransmissions: extra transmissions beyond one per fragment.
        node_rx_time_s: time the node's backbone radio spent receiving.
        node_tx_time_s: time the node spent transmitting ACKs.
        failed: the session aborted (a fragment exhausted its retries).
        timeline: the ledger the totals were derived from.
    """

    duration_s: float = 0.0
    packets_sent: int = 0
    packets_delivered: int = 0
    retransmissions: int = 0
    node_rx_time_s: float = 0.0
    node_tx_time_s: float = 0.0
    failed: bool = False
    events: list[str] = field(default_factory=list)
    timeline: Timeline | None = field(default=None, repr=False, compare=False)


#: Per-attempt link supplier for the shared ARQ loop: receives the
#: current sim time, the fragment and the attempt index, returns the
#: link conditions for this transmission attempt.
LinkForAttempt = Callable[[float, DataPacket, int], OtaLink]


def run_stop_and_wait(fragments: list[DataPacket],
                      rng: np.random.Generator,
                      timeline: Timeline,
                      link_for_attempt: LinkForAttempt,
                      policy: RetryPolicy | None = None,
                      faults: "NodeFaults | None" = None,
                      on_delivered: Callable[[DataPacket], None] | None = None,
                      ) -> DataPacket | None:
    """The stop-and-wait ARQ data phase, emitting events onto a timeline.

    For every fragment: transmit (node receives for the data airtime),
    wait for the ACK (node transmits), and on either loss burn the
    retry timeout and try again — up to ``policy.max_attempts`` rounds
    (with ``policy=None``, the historical fixed-timeout behaviour,
    bit-exactly).  This single loop serves the fixed-link transfer
    (:func:`simulate_transfer`), the mobile-node variant
    (:func:`repro.testbed.mobility.simulate_mobile_transfer`), which
    re-derives the link before every attempt via ``link_for_attempt``,
    and the hardened resumable session
    (:class:`repro.ota.hardened.HardenedOtaSession`).

    ``faults`` threads a :class:`~repro.faults.plan.NodeFaults` injector into
    the loop: forced packet loss (AP outages, burst-loss chain) is
    checked *before* the link draw, corruption after a successful data
    delivery (the node refuses to ACK a CRC-failing fragment), and
    brownouts fire right after a fragment is acknowledged.  All fault
    randomness comes from the injector's own streams, never ``rng``.

    ``on_delivered`` runs after each fragment's ``packet.done`` event —
    the hardened session uses it to checkpoint progress to flash.

    Returns:
        ``None`` when every fragment was delivered, else the fragment
        that exhausted its attempts or hit the session deadline (the
        timeline then carries an ``ota.failure`` marker).

    Raises:
        BrownoutInterrupt: the injected brownout fired; the exception
            carries the sequence number to resume from.
    """
    pol = policy if policy is not None else RetryPolicy()
    jitter_rng = pol.jitter_rng()
    started_s = timeline.now_s
    for fragment in fragments:
        delivered = False
        for attempt in range(pol.max_attempts):
            if pol.session_deadline_s is not None and \
                    timeline.now_s - started_s >= pol.session_deadline_s:
                timeline.record(
                    OTA_FAILURE, NODE_RADIO,
                    label=f"session deadline {pol.session_deadline_s:g} s "
                          f"exceeded at fragment {fragment.sequence}")
                return fragment
            link = link_for_attempt(timeline.now_s, fragment, attempt)
            data_airtime = link.airtime_s(fragment.wire_bytes)
            ack_airtime = link.airtime_s(ACK_BYTES)
            timeline.record(
                PACKET_RX, NODE_RADIO,
                label=f"data seq={fragment.sequence} attempt={attempt}",
                duration_s=data_airtime, power_w=profiles.BACKBONE_RX_W)
            forced_loss = faults is not None and faults.packet_lost(
                uplink=False, label=f"data seq={fragment.sequence}")
            if forced_loss or not link.packet_success(
                    fragment.wire_bytes, uplink=False, rng=rng):
                timeline.record(
                    PACKET_TIMEOUT, NODE_RADIO,
                    label=f"data seq={fragment.sequence} lost",
                    duration_s=pol.delay_s(attempt, jitter_rng),
                    power_w=profiles.BACKBONE_RX_W)
                continue
            if faults is not None and faults.packet_corrupted(
                    f"data seq={fragment.sequence}"):
                # Delivered but failing the node's CRC: the node stays
                # silent and the AP's ACK wait expires.
                timeline.record(
                    PACKET_TIMEOUT, NODE_RADIO,
                    label=f"data seq={fragment.sequence} corrupt",
                    duration_s=pol.delay_s(attempt, jitter_rng),
                    power_w=profiles.BACKBONE_RX_W)
                continue
            timeline.record(
                PACKET_TX, NODE_RADIO,
                label=f"ack seq={fragment.sequence}",
                duration_s=ack_airtime,
                power_w=profiles.BACKBONE_TX_14DBM_W)
            ack_forced_loss = faults is not None and faults.packet_lost(
                uplink=True, label=f"ack seq={fragment.sequence}")
            if not ack_forced_loss and link.packet_success(
                    ACK_BYTES, uplink=True, rng=rng):
                delivered = True
                timeline.record(PACKET_DELIVERED, NODE_RADIO,
                                label=f"seq={fragment.sequence}")
                if on_delivered is not None:
                    on_delivered(fragment)
                if faults is not None and faults.brownout_now():
                    raise BrownoutInterrupt(fragment.sequence + 1)
                break
            timeline.record(
                PACKET_TIMEOUT, NODE_RADIO,
                label=f"ack seq={fragment.sequence} lost",
                duration_s=pol.delay_s(attempt, jitter_rng),
                power_w=profiles.BACKBONE_RX_W)
        if not delivered:
            timeline.record(OTA_FAILURE, NODE_RADIO,
                            label=f"fragment {fragment.sequence} undeliverable")
            return fragment
    return None


def transfer_report_from_timeline(timeline: Timeline, since: int,
                                  failed: bool,
                                  messages: list[str],
                                  timeout_is_rx: bool = True
                                  ) -> TransferReport:
    """Materialize a :class:`TransferReport` from the ledger.

    Totals are replayed from the events appended after ``since`` in
    append order, phase by phase (ARQ loop, then control exchange), so
    they are bit-identical to the sequential accumulators this view
    replaced.  ``timeout_is_rx`` controls whether ACK-timeout dwells
    charge the node's receive budget (they do on the fixed link; the
    mobile-node model never did).
    """
    rx_kinds = {PACKET_RX, PACKET_TIMEOUT} if timeout_is_rx \
        else {PACKET_RX}
    node_rx = timeline.time_s(kinds=rx_kinds, component=NODE_RADIO,
                              since=since)
    node_rx = node_rx + timeline.time_s(kinds={CONTROL_RX},
                                        component=NODE_RADIO, since=since)
    node_tx = timeline.time_s(kinds={PACKET_TX}, component=NODE_RADIO,
                              since=since)
    node_tx = node_tx + timeline.time_s(kinds={CONTROL_TX},
                                        component=NODE_RADIO, since=since)
    packets_sent = timeline.count(kinds={PACKET_RX}, component=NODE_RADIO,
                                  since=since)
    delivered = timeline.count(kinds={PACKET_DELIVERED},
                               component=NODE_RADIO, since=since)
    fragments_attempted = delivered + (1 if failed else 0)
    return TransferReport(
        duration_s=timeline.time_s(since=since, advancing_only=True),
        packets_sent=packets_sent,
        packets_delivered=delivered,
        retransmissions=packets_sent - fragments_attempted,
        node_rx_time_s=node_rx,
        node_tx_time_s=node_tx,
        failed=failed,
        events=messages,
        timeline=timeline)


def simulate_transfer(image: bytes, link: OtaLink,
                      rng: np.random.Generator,
                      payload_bytes: int = DATA_PAYLOAD_BYTES,
                      timeline: Timeline | None = None) -> TransferReport:
    """Run the stop-and-wait data phase of an OTA session over a link.

    Every fragment is transmitted until both the fragment (downlink) and
    its ACK (uplink) get through; each failed round costs the data
    airtime plus the ACK timeout.  All radio activity is recorded as
    events on ``timeline`` (a fresh one when not supplied); the returned
    report is a view over that ledger.

    Raises:
        ProtocolError: for an empty image.
    """
    packets = fragment_image(image, payload_bytes)
    timeline = timeline if timeline is not None else Timeline()
    since = timeline.checkpoint()
    lost = run_stop_and_wait(packets, rng, timeline,
                             lambda now_s, fragment, attempt: link)
    if lost is not None:
        return transfer_report_from_timeline(
            timeline, since, failed=True,
            messages=[f"fragment {lost.sequence} exhausted "
                      f"{MAX_ATTEMPTS_PER_PACKET} attempts"])
    # Control overhead: request + ready + end-of-update exchanges.
    request = ProgrammingRequest((1,), (0.0,), image_id=0)
    end = EndOfUpdate(len(packets), crc32(image))
    timeline.record(CONTROL_RX, NODE_RADIO, label="programming request",
                    duration_s=link.airtime_s(request.wire_bytes),
                    power_w=profiles.BACKBONE_RX_W)
    timeline.record(CONTROL_TX, NODE_RADIO, label="ready",
                    duration_s=link.airtime_s(ReadyMessage(1).wire_bytes),
                    power_w=profiles.BACKBONE_TX_14DBM_W)
    timeline.record(CONTROL_RX, NODE_RADIO, label="end of update",
                    duration_s=link.airtime_s(end.wire_bytes),
                    power_w=profiles.BACKBONE_RX_W)
    return transfer_report_from_timeline(timeline, since, failed=False,
                                         messages=[])
