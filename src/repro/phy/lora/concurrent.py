"""Concurrent reception of orthogonal LoRa transmissions (paper section 6).

Two LoRa configurations are orthogonal when their chirp slopes
``BW**2 / 2**SF`` differ; such transmissions can share a frequency channel.
The paper implements one decoder per configuration *in parallel on the
FPGA*: each generates its own downchirp, correlates (time-domain
multiplication), and takes the appropriate-length FFT.

:class:`ConcurrentReceiver` reproduces this: all branch configurations are
resampled onto one common sample rate (the receiver's ADC stream), and
each branch dechirps and FFTs the shared stream with its own parameters.
A branch's non-matching signal smears across its FFT - that residual
leakage plus the digital-domain quantization is what costs the 0.5-2 dB
the paper reports in Fig. 15a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DemodulationError
from repro.phy.lora.codec import DecodedPayload
from repro.phy.lora.demodulator import LoRaDemodulator, SymbolDemodulator
from repro.phy.lora.params import LoRaParams


@dataclass(frozen=True)
class BranchResult:
    """Per-branch output of one concurrent demodulation pass.

    Attributes:
        params: the branch's LoRa configuration.
        symbols: detected symbol values.
        magnitudes: FFT peak magnitude per symbol.
    """

    params: LoRaParams
    symbols: np.ndarray
    magnitudes: np.ndarray


def common_sample_rate(configs: list[LoRaParams]) -> float:
    """The shared receiver sample rate: the maximum branch bandwidth.

    All branches must end up with a power-of-two oversampling at this
    rate, which holds for the standard LoRa bandwidths (each is double
    the previous).
    """
    if not configs:
        raise ConfigurationError("need at least one configuration")
    return max(c.bandwidth_hz for c in configs)


def align_to_rate(config: LoRaParams, sample_rate_hz: float) -> LoRaParams:
    """Re-express a configuration at the shared receiver sample rate.

    Raises:
        ConfigurationError: if the rate is not a power-of-two multiple of
            the branch bandwidth.
    """
    ratio = sample_rate_hz / config.bandwidth_hz
    oversampling = int(round(ratio))
    if abs(ratio - oversampling) > 1e-9 or oversampling < 1 or (
            oversampling & (oversampling - 1)):
        raise ConfigurationError(
            f"sample rate {sample_rate_hz!r} is not a power-of-two multiple "
            f"of bandwidth {config.bandwidth_hz!r}")
    return config.with_oversampling(oversampling)


class ConcurrentReceiver:
    """Parallel demodulators for multiple orthogonal LoRa configurations.

    Args:
        configs: the transmissions to decode concurrently.  Every pair
            must be orthogonal (different chirp slopes).

    Raises:
        ConfigurationError: for an empty list or non-orthogonal pairs.
    """

    def __init__(self, configs: list[LoRaParams]) -> None:
        if not configs:
            raise ConfigurationError("need at least one configuration")
        for i, a in enumerate(configs):
            for b in configs[i + 1:]:
                if not a.is_orthogonal_to(b):
                    raise ConfigurationError(
                        f"{a.describe()} and {b.describe()} share a chirp "
                        "slope and cannot be decoded concurrently")
        self.sample_rate_hz = common_sample_rate(configs)
        self.branch_params = [align_to_rate(c, self.sample_rate_hz)
                              for c in configs]
        self.branches = [SymbolDemodulator(p) for p in self.branch_params]

    def demodulate(self, samples: np.ndarray,
                   num_symbols: list[int] | None = None) -> list[BranchResult]:
        """Run every branch over a shared aligned sample stream.

        Args:
            samples: the common receive stream at ``sample_rate_hz``.
            num_symbols: symbols to demodulate per branch; defaults to as
                many whole symbols as the stream holds for each branch.

        Raises:
            DemodulationError: if a branch is asked for a negative count
                or more symbols than the stream contains.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        if num_symbols is None:
            num_symbols = [samples.size // p.samples_per_symbol
                           for p in self.branch_params]
        if len(num_symbols) != len(self.branches):
            raise ConfigurationError(
                f"need one symbol count per branch "
                f"({len(self.branches)}), got {len(num_symbols)}")
        results = []
        for demod, params, count in zip(self.branches, self.branch_params,
                                        num_symbols):
            sym = params.samples_per_symbol
            if count < 0 or count * sym > samples.size:
                raise DemodulationError(
                    f"stream of {samples.size} samples cannot hold {count} "
                    f"symbols of {params.describe()}")
            values, magnitudes = demod.demodulate_upchirp_block(
                samples[:count * sym].reshape(count, sym))
            results.append(BranchResult(params=params, symbols=values,
                                        magnitudes=magnitudes))
        return results

    def fpga_fft_lengths(self) -> list[int]:
        """Per-branch FFT lengths, for the resource-usage accounting."""
        return [d.fft_length for d in self.branches]

    def receive_packets(self, samples: np.ndarray,
                        crc: bool = True) -> list["DecodedPayload | None"]:
        """Decode one full packet per branch from the shared stream.

        Each branch runs its complete receiver - packet synchronization,
        CFO handling, codec - over the same capture; the other branch's
        transmission smears across its FFT as residual interference,
        exactly as on the FPGA.  Branches with no decodable packet
        return ``None``.
        """
        samples = np.asarray(samples, dtype=np.complex128)
        results: list[DecodedPayload | None] = []
        for params in self.branch_params:
            receiver = LoRaDemodulator(params, crc=crc)
            try:
                results.append(receiver.receive(samples))
            except DemodulationError:
                results.append(None)
        return results
