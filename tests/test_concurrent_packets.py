"""Tests for packet-level concurrent reception (section 6, full stack)."""

import numpy as np
import pytest

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.phy.lora import ConcurrentReceiver, LoRaModulator, LoRaParams

BW125 = LoRaParams(8, 125e3)
BW250 = LoRaParams(8, 250e3)


@pytest.fixture
def receiver():
    return ConcurrentReceiver([BW125, BW250])


def _shared_stream(receiver, rng, rssi125, rssi250,
                   payload125=b"from the 125 node",
                   payload250=b"from the 250 node",
                   offset125=500, offset250=900):
    branch125, branch250 = receiver.branch_params
    wave125 = LoRaModulator(branch125).modulate(payload125)
    wave250 = LoRaModulator(branch250).modulate(payload250)
    budget = LinkBudget(bandwidth_hz=receiver.sample_rate_hz)
    length = max(offset125 + wave125.size, offset250 + wave250.size) + 4096
    return receive(
        [ReceivedSignal(wave125, rssi125, start_sample=offset125),
         ReceivedSignal(wave250, rssi250, start_sample=offset250)],
        budget, rng, num_samples=length)


class TestConcurrentPackets:
    def test_both_overlapping_packets_decode(self, receiver, rng):
        stream = _shared_stream(receiver, rng, -110.0, -110.0)
        decoded = receiver.receive_packets(stream)
        assert decoded[0] is not None and decoded[0].crc_ok
        assert decoded[0].payload == b"from the 125 node"
        assert decoded[1] is not None and decoded[1].crc_ok
        assert decoded[1].payload == b"from the 250 node"

    def test_moderate_power_imbalance_tolerated(self, receiver, rng):
        # Orthogonal slopes survive a 10 dB imbalance.
        stream = _shared_stream(receiver, rng, -115.0, -105.0)
        decoded = receiver.receive_packets(stream)
        assert decoded[0] is not None
        assert decoded[0].payload == b"from the 125 node"
        assert decoded[1] is not None
        assert decoded[1].payload == b"from the 250 node"

    def test_fully_aligned_starts(self, receiver, rng):
        stream = _shared_stream(receiver, rng, -108.0, -108.0,
                                offset125=600, offset250=600)
        decoded = receiver.receive_packets(stream)
        assert decoded[0] is not None and decoded[0].crc_ok
        assert decoded[1] is not None and decoded[1].crc_ok

    def test_absent_branch_returns_none(self, receiver, rng):
        branch125, _ = receiver.branch_params
        wave125 = LoRaModulator(branch125).modulate(b"only 125 on air")
        budget = LinkBudget(bandwidth_hz=receiver.sample_rate_hz)
        stream = receive(
            [ReceivedSignal(wave125, -105.0, start_sample=500)],
            budget, rng, num_samples=wave125.size + 4096)
        decoded = receiver.receive_packets(stream)
        assert decoded[0] is not None
        assert decoded[0].payload == b"only 125 on air"
        # The 250 branch found nothing (or garbage that failed CRC).
        assert decoded[1] is None or decoded[1].crc_ok is not True
