"""Fleet campaign configuration: every knob of the cohort engine.

A fleet campaign is fully described by one frozen
:class:`FleetCampaignConfig` — deployment geometry, LoRa configuration,
ARQ/retry budgets, fault model, verify behaviour and the root seed.
Determinism contract: two runs with equal configs produce bit-identical
per-node results, regardless of shard count or process pool (see
``tests/test_fleet_sharding.py``).

The config is a plain picklable value object so shards can ship it to
worker processes unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.ota.mac import (
    ACK_TIMEOUT_S,
    DATA_PAYLOAD_BYTES,
    MAX_ATTEMPTS_PER_PACKET,
    MAX_DATA_PAYLOAD_BYTES,
)
from repro.phy.lora.params import LoRaParams

LISTEN_PERIOD_S = 60.0
"""Default node listen period between session attempts (paper 3.4)."""

DEFAULT_SESSION_ATTEMPTS = 3
"""Session attempts before a node is abandoned (hardened-path default)."""

FREQUENCY_HZ = 915e6  # units: Hz, 915 MHz ISM band
"""Carrier of the backbone link (the paper's campus deployment)."""


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(
            f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True)
class FleetBurstLoss:
    """Gilbert-Elliott burst loss for the fleet engine.

    Same chain as :class:`repro.faults.GilbertElliott`, but stateless:
    the fleet engine keeps the per-node chain state in cohort buffers
    and draws transitions from the node's counter stream, so the model
    needs no seed of its own — all randomness roots in the campaign
    seed.  One transition draw and one loss draw are consumed per ARQ
    round (unconditionally, which keeps every node's draw count
    identical for a given trajectory).

    Attributes:
        p_enter_bad: per-round probability of a good->bad transition.
        p_exit_bad: per-round probability of a bad->good transition.
        loss_good: forced-loss probability in the good state.
        loss_bad: forced-loss probability in the bad state.
    """

    p_enter_bad: float = 0.05
    p_exit_bad: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9

    def __post_init__(self) -> None:
        for name in ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad"):
            _check_probability(name, getattr(self, name))


@dataclass(frozen=True)
class FleetCampaignConfig:
    """One fleet OTA campaign, fully specified.

    Attributes:
        num_nodes: fleet size.
        image_bytes: wire size of the (compressed) firmware image.
        seed: root of every random stream in the campaign.
        is_fpga_image: FPGA images end with a quad-SPI reconfigure.
        payload_bytes: data-fragment payload size.
        spreading_factor: backbone LoRa SF.
        bandwidth_hz: backbone LoRa bandwidth.
        coding_rate_denominator: backbone LoRa CR denominator (5..8).
        max_rounds_per_fragment: ARQ rounds per fragment before the
            session attempt fails.
        max_session_attempts: session attempts before abandoning a node.
        retry_timeout_s: ACK-timeout dwell after a lost round.
        listen_period_s: wait between session attempts.
        max_radius_m: deployment disk radius (30 m keep-out inside).
        pathloss_exponent: log-distance path-loss exponent.
        shadowing_sigma_db: lognormal shadowing sigma (one static draw
            per node per direction).
        frequency_hz: backbone carrier frequency.
        ap_tx_power_dbm: AP transmit power.
        node_tx_power_dbm: node transmit power.
        ap_antenna_gain_dbi: AP antenna gain (applies both directions).
        verify_failure_prob: probability the post-install CRC verify
            fails and the node rolls back to its golden bank.
        loss: optional burst-loss fault model.
    """

    num_nodes: int
    image_bytes: int
    seed: int = 0
    is_fpga_image: bool = True
    payload_bytes: int = DATA_PAYLOAD_BYTES
    spreading_factor: int = 8
    bandwidth_hz: float = 500e3  # units: Hz, widest SX1276 channel
    coding_rate_denominator: int = 6
    max_rounds_per_fragment: int = MAX_ATTEMPTS_PER_PACKET
    max_session_attempts: int = DEFAULT_SESSION_ATTEMPTS
    retry_timeout_s: float = ACK_TIMEOUT_S
    listen_period_s: float = LISTEN_PERIOD_S
    max_radius_m: float = 1050.0
    pathloss_exponent: float = 3.4
    shadowing_sigma_db: float = 4.0
    frequency_hz: float = FREQUENCY_HZ
    ap_tx_power_dbm: float = 14.0
    node_tx_power_dbm: float = 14.0
    ap_antenna_gain_dbi: float = 6.0
    verify_failure_prob: float = 0.0
    loss: FleetBurstLoss | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError(
                f"need at least one node, got {self.num_nodes}")
        if self.image_bytes < 1:
            raise ConfigurationError(
                f"image must be non-empty, got {self.image_bytes} bytes")
        if not 1 <= self.payload_bytes <= MAX_DATA_PAYLOAD_BYTES:
            raise ConfigurationError(
                f"payload must be 1..{MAX_DATA_PAYLOAD_BYTES} bytes, "
                f"got {self.payload_bytes}")
        if self.max_rounds_per_fragment < 1:
            raise ConfigurationError(
                "max_rounds_per_fragment must be >= 1, got "
                f"{self.max_rounds_per_fragment}")
        if self.max_session_attempts < 1:
            raise ConfigurationError(
                "max_session_attempts must be >= 1, got "
                f"{self.max_session_attempts}")
        for name in ("bandwidth_hz", "frequency_hz", "retry_timeout_s",
                     "pathloss_exponent"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be positive and finite, "
                    f"got {getattr(self, name)!r}")
        for name in ("listen_period_s", "shadowing_sigma_db"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be >= 0 and finite, "
                    f"got {getattr(self, name)!r}")
        if not 30.0 < self.max_radius_m < math.inf:
            raise ConfigurationError(
                f"max_radius_m must exceed the 30 m keep-out and be "
                f"finite, got {self.max_radius_m!r}")
        for name in ("ap_tx_power_dbm", "node_tx_power_dbm",
                     "ap_antenna_gain_dbi"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        _check_probability("verify_failure_prob", self.verify_failure_prob)

    @property
    def params(self) -> LoRaParams:
        """The backbone LoRa PHY configuration."""
        return LoRaParams(
            spreading_factor=self.spreading_factor,
            bandwidth_hz=self.bandwidth_hz,
            coding_rate_denominator=self.coding_rate_denominator)

    @property
    def num_fragments(self) -> int:
        """Data fragments the image splits into."""
        return -(-self.image_bytes // self.payload_bytes)

    @property
    def tail_payload_bytes(self) -> int:
        """Payload size of the final (possibly short) fragment."""
        remainder = self.image_bytes % self.payload_bytes
        return remainder if remainder else self.payload_bytes
