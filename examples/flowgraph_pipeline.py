"""Composing a receiver from flowgraph blocks (paper section 7).

The paper's future-work list includes GNU Radio integration for easy
prototyping.  This example builds a complete LoRa link as a declarative
block graph - packet source, gain, AWGN channel, receiver sink - and a
second graph where two transmitters' streams are summed before the
receiver, showing how channel scenarios compose.

Run:  python examples/flowgraph_pipeline.py
"""

import numpy as np

from repro.flowgraph.blocks import (
    AddBlock,
    AwgnChannelBlock,
    GainBlock,
    LoRaPacketSource,
    LoRaReceiverSink,
)
from repro.flowgraph.graph import FlowGraph
from repro.phy.lora import LoRaParams

rng = np.random.default_rng(14)
params = LoRaParams(spreading_factor=8, bandwidth_hz=125e3)

# --- graph 1: one transmitter through a noisy channel -----------------
graph = FlowGraph()
source = LoRaPacketSource(params, [b"first", b"second", b"third"])
channel = AwgnChannelBlock(snr_db=-3.0, rng=rng)
sink = LoRaReceiverSink(params)
graph.connect(source, channel)
graph.connect(channel, sink)
graph.run()
print("single-transmitter graph:")
print(f"  decoded {len(sink.payloads)} packets: {sink.payloads}")
print(f"  CRC failures: {sink.crc_failures}")

# --- graph 2: a strong and a weak transmitter summed -------------------
graph2 = FlowGraph()
strong = LoRaPacketSource(params, [b"strong node"], gap_symbols=2)
weak = LoRaPacketSource(params, [b"weak node"], gap_symbols=40)
attenuate = GainBlock(0.02)  # the weak node arrives 34 dB down
adder = AddBlock()
sink2 = LoRaReceiverSink(params)
graph2.connect(strong, adder, destination_port=0)
graph2.connect(weak, attenuate)
graph2.connect(attenuate, adder, destination_port=1)
graph2.connect(adder, sink2)
graph2.run()
print("\ntwo-transmitter graph (weak node 34 dB down, overlapping):")
print(f"  decoded: {sink2.payloads}")
print("  the capture effect: only the strong transmission survives a"
      " same-slope collision - unlike the orthogonal-slope concurrency"
      " of examples/concurrent_reception.py")
