"""Tests for the flowgraph framework and its standard blocks."""

import numpy as np
import pytest

from repro.dsp.filters import design_lowpass
from repro.errors import ConfigurationError
from repro.flowgraph.blocks import (
    AddBlock,
    AwgnChannelBlock,
    FirFilterBlock,
    GainBlock,
    LoRaPacketSource,
    LoRaReceiverSink,
    VectorSink,
    VectorSource,
)
from repro.flowgraph.graph import Block, FlowGraph
from repro.phy.lora import LoRaParams


class TestGraphStructure:
    def test_simple_chain_runs(self):
        graph = FlowGraph()
        source = VectorSource(np.arange(100, dtype=complex))
        sink = VectorSink()
        graph.connect(source, sink)
        graph.run()
        assert np.allclose(sink.samples, np.arange(100))

    def test_chunking_preserves_content(self):
        graph = FlowGraph()
        source = VectorSource(np.arange(10_000, dtype=complex), chunk=777)
        sink = VectorSink()
        graph.connect(source, sink)
        graph.run()
        assert sink.samples.size == 10_000
        assert np.allclose(sink.samples, np.arange(10_000))

    def test_unconnected_input_rejected(self):
        graph = FlowGraph()
        graph.add(VectorSink())
        with pytest.raises(ConfigurationError):
            graph.run()

    def test_double_connection_rejected(self):
        graph = FlowGraph()
        a = VectorSource(np.ones(4, dtype=complex))
        b = VectorSource(np.ones(4, dtype=complex))
        sink = VectorSink()
        graph.connect(a, sink)
        with pytest.raises(ConfigurationError):
            graph.connect(b, sink)

    def test_self_loop_rejected(self):
        graph = FlowGraph()
        gain = GainBlock(1.0)
        with pytest.raises(ConfigurationError):
            graph.connect(gain, gain)

    def test_bad_port_rejected(self):
        graph = FlowGraph()
        source = VectorSource(np.ones(4, dtype=complex))
        sink = VectorSink()
        with pytest.raises(ConfigurationError):
            graph.connect(source, sink, source_port=1)

    def test_cycle_detected(self):
        class TwoIn(Block):
            num_inputs = 2
            num_outputs = 1

            def work(self, inputs):
                return [inputs[0]]

        graph = FlowGraph()
        a = GainBlock(1.0, name="a")
        b = TwoIn(name="b")
        source = VectorSource(np.ones(4, dtype=complex))
        graph.connect(source, b, destination_port=0)
        graph.connect(b, a)
        graph.connect(a, b, destination_port=1)
        with pytest.raises(ConfigurationError):
            graph.run()


class TestStandardBlocks:
    def test_gain(self):
        graph = FlowGraph()
        source = VectorSource(np.ones(50, dtype=complex))
        gain = GainBlock(2.0 - 1.0j)
        sink = VectorSink()
        graph.connect(source, gain)
        graph.connect(gain, sink)
        graph.run()
        assert np.allclose(sink.samples, 2.0 - 1.0j)

    def test_add_two_streams(self):
        graph = FlowGraph()
        a = VectorSource(np.ones(64, dtype=complex), chunk=13)
        b = VectorSource(np.full(64, 2.0, dtype=complex), chunk=29)
        adder = AddBlock()
        sink = VectorSink()
        graph.connect(a, adder, destination_port=0)
        graph.connect(b, adder, destination_port=1)
        graph.connect(adder, sink)
        graph.run()
        assert np.allclose(sink.samples, 3.0)
        assert sink.samples.size == 64

    def test_fir_block_filters(self, rng):
        taps = design_lowpass(15, 0.05e6, 1e6)
        graph = FlowGraph()
        # DC plus a high-frequency tone: the filter keeps only DC.
        n = np.arange(4000)
        signal = 1.0 + np.exp(2j * np.pi * 0.4 * n)
        source = VectorSource(signal, chunk=500)
        fir = FirFilterBlock(taps)
        sink = VectorSink()
        graph.connect(source, fir)
        graph.connect(fir, sink)
        graph.run()
        steady = sink.samples[200:3800]
        assert np.max(np.abs(steady - 1.0)) < 0.05

    def test_awgn_block(self, rng):
        graph = FlowGraph()
        source = VectorSource(np.ones(20_000, dtype=complex))
        channel = AwgnChannelBlock(snr_db=10.0, rng=rng)
        sink = VectorSink()
        graph.connect(source, channel)
        graph.connect(channel, sink)
        graph.run()
        noise_power = np.mean(np.abs(sink.samples - 1.0) ** 2)
        assert noise_power == pytest.approx(0.1, rel=0.1)


class TestLoRaPipeline:
    def test_three_packets_through_noise(self, rng):
        params = LoRaParams(8, 125e3)
        graph = FlowGraph()
        payloads = [b"pkt one", b"packet two", b"the third packet"]
        source = LoRaPacketSource(params, list(payloads))
        channel = AwgnChannelBlock(snr_db=0.0, rng=rng)
        sink = LoRaReceiverSink(params)
        graph.connect(source, channel)
        graph.connect(channel, sink)
        graph.run()
        assert sink.payloads == payloads
        assert sink.crc_failures == 0

    def test_sink_sees_tails_flushed_upstream(self):
        class HoldBack(Block):
            """Withholds the last ``count`` samples until finish()."""

            def __init__(self, count):
                super().__init__()
                self.count = count
                self.held = np.zeros(0, dtype=np.complex128)

            def work(self, inputs):
                stream = np.concatenate([self.held, inputs[0]])
                self.held = stream[-self.count:]
                return [stream[:-self.count]]

            def finish(self):
                return [self.held]

        params = LoRaParams(7, 125e3)
        graph = FlowGraph()
        source = LoRaPacketSource(params, [b"held back"], gap_symbols=0)
        hold = HoldBack(4 * params.samples_per_symbol)
        sink = LoRaReceiverSink(params)
        graph.connect(source, hold)
        graph.connect(hold, sink)
        graph.run()
        assert sink.payloads == [b"held back"]

    def test_noiseless_pipeline(self):
        params = LoRaParams(7, 125e3)
        graph = FlowGraph()
        source = LoRaPacketSource(params, [b"clean"])
        gain = GainBlock(0.7)
        sink = LoRaReceiverSink(params)
        graph.connect(source, gain)
        graph.connect(gain, sink)
        graph.run()
        assert sink.payloads == [b"clean"]
