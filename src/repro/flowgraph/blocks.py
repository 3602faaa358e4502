"""Standard flowgraph blocks wrapping the repro DSP/PHY components.

Sources, sinks, channel models and PHY stages, so receivers and
transmitters can be assembled declaratively::

    graph = FlowGraph()
    source = LoRaPacketSource(params, [b"hello"])
    channel = AwgnChannelBlock(snr_db=0.0, rng=rng)
    sink = LoRaReceiverSink(params)
    graph.connect(source, channel)
    graph.connect(channel, sink)
    graph.run()
    assert sink.payloads == [b"hello"]
"""

from __future__ import annotations

import numpy as np

from repro.channel.awgn import awgn
from repro.dsp.filters import StreamingFir
from repro.errors import ConfigurationError
from repro.flowgraph.graph import Block
from repro.phy.lora.demodulator import ReceivedPacket
from repro.phy.lora.modulator import LoRaModulator
from repro.phy.lora.params import LoRaParams
from repro.phy.lora.streaming import StreamingDemodulator


class VectorSource(Block):
    """Emits a fixed sample vector in chunks, then exhausts."""

    num_inputs = 0
    num_outputs = 1

    def __init__(self, samples: np.ndarray, chunk: int = 4096,
                 name: str | None = None) -> None:
        super().__init__(name)
        if chunk <= 0:
            raise ConfigurationError(f"chunk must be positive, got {chunk}")
        self._samples = np.asarray(samples, dtype=np.complex128)
        self._chunk = chunk
        self._cursor = 0

    def work(self, inputs):
        if self._cursor >= self._samples.size:
            return None
        chunk = self._samples[self._cursor:self._cursor + self._chunk]
        self._cursor += chunk.size
        return [chunk]


class VectorSink(Block):
    """Accumulates every sample it receives."""

    num_inputs = 1
    num_outputs = 0

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self.samples = np.zeros(0, dtype=np.complex128)

    def work(self, inputs):
        self.samples = np.concatenate([self.samples, inputs[0]])
        return []


class GainBlock(Block):
    """Multiplies the stream by a complex constant."""

    def __init__(self, gain: complex, name: str | None = None) -> None:
        super().__init__(name)
        self.gain = gain

    def work(self, inputs):
        return [inputs[0] * self.gain]


class AddBlock(Block):
    """Sums two streams sample by sample (truncates to the shorter)."""

    num_inputs = 2
    num_outputs = 1

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._pending = [np.zeros(0, dtype=np.complex128),
                         np.zeros(0, dtype=np.complex128)]

    def work(self, inputs):
        for port in range(2):
            self._pending[port] = np.concatenate(
                [self._pending[port], inputs[port]])
        n = min(p.size for p in self._pending)
        if n == 0:
            return [np.zeros(0, dtype=np.complex128)]
        out = self._pending[0][:n] + self._pending[1][:n]
        self._pending = [p[n:] for p in self._pending]
        return [out]


class FirFilterBlock(Block):
    """Streaming FIR filter stage."""

    def __init__(self, taps: np.ndarray, name: str | None = None) -> None:
        super().__init__(name)
        self._fir = StreamingFir(taps)

    def work(self, inputs):
        return [self._fir.process(inputs[0])]


class AwgnChannelBlock(Block):
    """Adds white Gaussian noise at a fixed SNR (unit signal power)."""

    def __init__(self, snr_db: float, rng: np.random.Generator,
                 name: str | None = None) -> None:
        super().__init__(name)
        self.snr_db = snr_db
        self._rng = rng

    def work(self, inputs):
        chunk = inputs[0]
        if chunk.size == 0:
            return [chunk]
        return [awgn(chunk, self.snr_db, self._rng, signal_power=1.0)]


class LoRaPacketSource(Block):
    """Modulates a queue of payloads into a contiguous waveform."""

    num_inputs = 0
    num_outputs = 1

    def __init__(self, params: LoRaParams, payloads: list[bytes],
                 gap_symbols: int = 4, quantized: bool = True,
                 name: str | None = None) -> None:
        super().__init__(name)
        self.params = params
        self._modulator = LoRaModulator(params, quantized=quantized)
        self._payloads = list(payloads)
        self._gap = np.zeros(gap_symbols * params.samples_per_symbol,
                             dtype=np.complex128)

    def work(self, inputs):
        if not self._payloads:
            return None
        payload = self._payloads.pop(0)
        waveform = self._modulator.modulate(payload)
        return [np.concatenate([self._gap, waveform, self._gap])]


class LoRaReceiverSink(Block):
    """Streams samples through the LoRa receiver, keeping every packet."""

    num_inputs = 1
    num_outputs = 0

    def __init__(self, params: LoRaParams, crc: bool = True,
                 name: str | None = None) -> None:
        super().__init__(name)
        self.params = params
        self._receiver = StreamingDemodulator(params, crc=crc)
        self.payloads: list[bytes] = []
        self.crc_failures = 0

    def work(self, inputs):
        self._keep(self._receiver.push(inputs[0]))
        return []

    def finish(self):
        self._keep(self._receiver.flush())
        return None

    def _keep(self, packets: list[ReceivedPacket]) -> None:
        for packet in packets:
            if packet.decoded.crc_ok is False:
                self.crc_failures += 1
            else:
                self.payloads.append(packet.decoded.payload)
