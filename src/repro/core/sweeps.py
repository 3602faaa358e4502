"""Error-rate sweep harness.

Every PHY evaluation in the paper is a sweep of an error rate against
RSSI: packet error rate for the modulator (Fig. 10), chirp symbol error
rate for the demodulator (Fig. 11) and the concurrent receiver
(Fig. 15), bit error rate for BLE (Fig. 12).  This module provides those
measurements over the simulated signal chains with explicit sample
budgets and seeds, so benchmarks and tests share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.errors import DemodulationError
from repro.phy.ble.gfsk import GfskConfig, GfskDemodulator, GfskModulator
from repro.phy.ble.packet import AdvPacket
from repro.phy.lora.chirp import chirp_train
from repro.phy.lora.concurrent import ConcurrentReceiver
from repro.phy.lora.demodulator import LoRaDemodulator, SymbolDemodulator
from repro.phy.lora.modulator import LoRaModulator
from repro.phy.lora.params import LoRaParams

DEFAULT_NOISE_FIGURE_DB = 6.0


@dataclass(frozen=True)
class SweepPoint:
    """One (RSSI, error-rate) measurement.

    Attributes:
        rssi_dbm: swept received signal strength.
        error_rate: measured error fraction.
        trials: number of symbols/bits/packets measured.
    """

    rssi_dbm: float
    error_rate: float
    trials: int


MAX_RESIDUAL_CFO_BINS = 0.4
"""Residual fractional-bin carrier offset after integer correction.
Independent TX/RX crystals leave the dechirped tone off the FFT grid by
up to half a bin; this scalloping is the implementation loss that puts
the measured waterfall at the SX1276's -126 dBm rather than the ~3 dB
lower ideal-synchronization bound."""


def _apply_residual_cfo(waveform: np.ndarray, params: LoRaParams,
                        rng: np.random.Generator) -> np.ndarray:
    """Rotate by a random fractional-bin CFO (uniform +-0.4 bin)."""
    fraction = rng.uniform(-MAX_RESIDUAL_CFO_BINS, MAX_RESIDUAL_CFO_BINS)
    offset_hz = fraction * params.bandwidth_hz / params.chips_per_symbol
    n = np.arange(waveform.size)
    return waveform * np.exp(
        2j * np.pi * offset_hz / params.sample_rate_hz * n)


def lora_symbol_error_rate(params: LoRaParams, rssi_dbm: float,
                           num_symbols: int, rng: np.random.Generator,
                           quantized: bool = True,
                           residual_cfo: bool = True) -> SweepPoint:
    """Chirp symbol error rate at one RSSI (the Fig. 11 measurement).

    Random symbols are rendered as chirps (quantized = tinySDR's FPGA
    pipeline), rotated by a residual fractional-bin CFO as independent
    crystals leave behind, passed through AWGN at the SNR the RSSI
    implies, and demodulated aligned - the paper's methodology of
    recording signals into FPGA memory and counting chirp symbol errors.
    """
    budget = LinkBudget(bandwidth_hz=params.sample_rate_hz,
                        noise_figure_db=DEFAULT_NOISE_FIGURE_DB)
    symbols = rng.integers(0, params.chips_per_symbol, num_symbols)
    waveform = chirp_train(params, symbols, quantized=quantized)
    if residual_cfo:
        waveform = _apply_residual_cfo(waveform, params, rng)
    stream = receive([ReceivedSignal(waveform, rssi_dbm)], budget, rng)
    detected = SymbolDemodulator(params).demodulate_stream(stream, num_symbols)
    errors = int(np.sum(detected != symbols))
    return SweepPoint(rssi_dbm=rssi_dbm, error_rate=errors / num_symbols,
                      trials=num_symbols)


def lora_packet_error_rate(params: LoRaParams, rssi_dbm: float,
                           payload: bytes, num_packets: int,
                           rng: np.random.Generator,
                           quantized_tx: bool = True) -> SweepPoint:
    """Packet error rate at one RSSI (the Fig. 10 measurement).

    TinySDR's (quantized) modulator transmits; an SX1276-style receiver
    (ideal chirps, same demodulation pipeline) receives and checks the
    CRC.  A packet counts as an error on sync failure, header failure or
    CRC mismatch.
    """
    budget = LinkBudget(bandwidth_hz=params.sample_rate_hz,
                        noise_figure_db=DEFAULT_NOISE_FIGURE_DB)
    modulator = LoRaModulator(params, quantized=quantized_tx)
    demodulator = LoRaDemodulator(params)
    frame = modulator.frame_for_payload(payload)
    waveform = modulator.modulate_frame(frame)
    sym = params.samples_per_symbol
    pad = 4 * sym
    errors = 0
    for _ in range(num_packets):
        stream = receive(
            [ReceivedSignal(waveform, rssi_dbm, start_sample=pad)],
            budget, rng, num_samples=waveform.size + 2 * pad)
        try:
            decoded = demodulator.receive(
                stream, payload_symbols=len(frame.payload_symbols))
            ok = decoded.crc_ok is True and decoded.payload == payload
        except DemodulationError:
            ok = False
        errors += int(not ok)
    return SweepPoint(rssi_dbm=rssi_dbm, error_rate=errors / num_packets,
                      trials=num_packets)


def ble_bit_error_rate(rssi_dbm: float, num_bits: int,
                       rng: np.random.Generator,
                       config: GfskConfig | None = None,
                       quantized: bool = True) -> SweepPoint:
    """BLE GFSK bit error rate at one RSSI (the Fig. 12 measurement).

    The noise bandwidth is the full sampled band (4 MHz at 4x
    oversampling); the demodulator's channel filter then recovers the
    in-channel SNR, the same way the CC2650's receive chain does.
    """
    config = config or GfskConfig()
    budget = LinkBudget(bandwidth_hz=config.sample_rate_hz,
                        noise_figure_db=DEFAULT_NOISE_FIGURE_DB)
    bits = rng.integers(0, 2, num_bits)
    waveform = GfskModulator(config, quantized=quantized).modulate(bits)
    stream = receive([ReceivedSignal(waveform, rssi_dbm)], budget, rng)
    decided = GfskDemodulator(config).demodulate(stream, num_bits)
    errors = int(np.sum(decided != bits))
    return SweepPoint(rssi_dbm=rssi_dbm, error_rate=errors / num_bits,
                      trials=num_bits)


def ble_beacon_error_rate(rssi_dbm: float, num_packets: int,
                          rng: np.random.Generator,
                          adv_data: bytes = b"tinySDR beacon",
                          channel: int = 37) -> SweepPoint:
    """Whole-beacon BER measured over real advertising packets."""
    packet = AdvPacket(advertiser_address=bytes(6), adv_data=adv_data)
    bits = packet.air_bits(channel)
    config = GfskConfig()
    budget = LinkBudget(bandwidth_hz=config.sample_rate_hz,
                        noise_figure_db=DEFAULT_NOISE_FIGURE_DB)
    modulator = GfskModulator(config)
    demodulator = GfskDemodulator(config)
    waveform = modulator.modulate(np.asarray(bits))
    errors = 0
    total = 0
    for _ in range(num_packets):
        stream = receive([ReceivedSignal(waveform, rssi_dbm)], budget, rng)
        decided = demodulator.demodulate(stream, bits.size)
        errors += int(np.sum(decided != bits))
        total += bits.size
    return SweepPoint(rssi_dbm=rssi_dbm, error_rate=errors / total,
                      trials=total)


def concurrent_symbol_error_rates(
        config_a: LoRaParams, config_b: LoRaParams,
        rssi_a_dbm: float, rssi_b_dbm: float,
        duration_symbols_a: int, rng: np.random.Generator,
        quantized: bool = True) -> tuple[SweepPoint, SweepPoint]:
    """Per-branch SER with both transmissions in the air (Fig. 15).

    Both transmissions are rendered at the common receiver rate, summed
    at their individual RSSIs over thermal noise, and demodulated by the
    parallel branch receivers.
    """
    receiver = ConcurrentReceiver([config_a, config_b])
    fs = receiver.sample_rate_hz
    branch_a, branch_b = receiver.branch_params
    # Equal air duration: scale branch B's symbol count by the symbol ratio.
    duration_samples = duration_symbols_a * branch_a.samples_per_symbol
    symbols_b = duration_samples // branch_b.samples_per_symbol
    syms_a = rng.integers(0, branch_a.chips_per_symbol, duration_symbols_a)
    syms_b = rng.integers(0, branch_b.chips_per_symbol, symbols_b)
    wave_a = chirp_train(branch_a, syms_a, quantized=quantized)
    wave_b = chirp_train(branch_b, syms_b, quantized=quantized)
    budget = LinkBudget(bandwidth_hz=fs,
                        noise_figure_db=DEFAULT_NOISE_FIGURE_DB)
    stream = receive([ReceivedSignal(wave_a, rssi_a_dbm),
                      ReceivedSignal(wave_b, rssi_b_dbm)], budget, rng,
                     num_samples=duration_samples)
    results = receiver.demodulate(
        stream, [duration_symbols_a, symbols_b])
    errors_a = int(np.sum(results[0].symbols != syms_a))
    errors_b = int(np.sum(results[1].symbols != syms_b))
    return (SweepPoint(rssi_a_dbm, errors_a / duration_symbols_a,
                       duration_symbols_a),
            SweepPoint(rssi_b_dbm, errors_b / max(symbols_b, 1), symbols_b))


def sweep_rssi(measure, rssi_values_dbm) -> list[SweepPoint]:
    """Run a single-RSSI measurement callable over a sweep."""
    return [measure(float(rssi)) for rssi in rssi_values_dbm]


def find_sensitivity_dbm(points: list[SweepPoint],
                         threshold: float = 0.1) -> float:
    """Lowest swept RSSI whose error rate stays at or below ``threshold``.

    This is how the paper reads sensitivity off its waterfall curves
    (e.g. PER 10 % for LoRa).

    Raises:
        DemodulationError: when no swept point meets the threshold.
    """
    qualifying = [p.rssi_dbm for p in points if p.error_rate <= threshold]
    if not qualifying:
        raise DemodulationError(
            f"no swept RSSI reaches error rate <= {threshold}")
    return min(qualifying)
