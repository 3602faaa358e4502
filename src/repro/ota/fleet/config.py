"""Fleet campaign configuration: what varies between cohort campaigns.

A fleet campaign is fully described by one frozen
:class:`FleetCampaignConfig` — fleet and image size, deployment radius,
ARQ/retry budgets, fault model, verify behaviour and the root seed —
plus the link and protocol constants it shares with the per-node
engine.
Determinism contract: two runs with equal configs produce bit-identical
per-node results, regardless of shard count or process pool (see
``tests/test_fleet_sharding.py``).

The config is a plain picklable value object so shards can ship it to
worker processes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.faults.models import BurstLossChain
from repro.ota.mac import DATA_PAYLOAD_BYTES
from repro.retry import MAX_ATTEMPTS_PER_PACKET
from repro.testbed.deployment import CAMPUS_RADIUS_M, check_max_radius

DEFAULT_SESSION_ATTEMPTS = 3
"""Session attempts before a node is abandoned (hardened-path default)."""


@dataclass(frozen=True, kw_only=True)
class FleetBurstLoss(BurstLossChain):
    """Gilbert-Elliott burst loss for the fleet engine.

    The :class:`~repro.faults.models.BurstLossChain` that
    :class:`repro.faults.GilbertElliott` seeds per node, here stepped
    per ARQ round and stateless: the fleet engine keeps the per-node
    chain state in cohort buffers and draws transitions from the node's
    counter stream, so the model needs no seed of its own — all
    randomness roots in the campaign seed.  One transition draw and one
    loss draw are consumed per ARQ round (unconditionally, which keeps
    every node's draw count identical for a given trajectory).
    """


@dataclass(frozen=True)
class FleetCampaignConfig:
    """One fleet OTA campaign, fully specified.

    The link and protocol constants the campaign shares with the
    per-node engine are read from their one definition: the backbone
    PHY is :data:`repro.ota.mac.DEFAULT_OTA_PARAMS`, the fragment
    payload and listen period are :mod:`repro.ota.mac` constants, the
    ACK timeout and fragment round budget are :mod:`repro.retry`
    constants, and the channel, transmit powers, keep-out and default
    radius are the campus constants of :mod:`repro.testbed.deployment`.

    Attributes:
        num_nodes: fleet size.
        image_bytes: wire size of the (compressed) firmware image.
        seed: root of every random stream in the campaign.
        is_fpga_image: FPGA images end with a quad-SPI reconfigure.
        max_rounds_per_fragment: ARQ rounds per fragment before the
            session attempt fails.
        max_session_attempts: session attempts before abandoning a node.
        max_radius_m: deployment disk radius (the campus keep-out
            inside).
        verify_failure_prob: probability the post-install CRC verify
            fails and the node rolls back to its golden bank.
        loss: optional burst-loss fault model.
    """

    num_nodes: int
    image_bytes: int
    seed: int = 0
    is_fpga_image: bool = True
    max_rounds_per_fragment: int = MAX_ATTEMPTS_PER_PACKET
    max_session_attempts: int = DEFAULT_SESSION_ATTEMPTS
    max_radius_m: float = CAMPUS_RADIUS_M
    verify_failure_prob: float = 0.0
    loss: FleetBurstLoss | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError(
                f"need at least one node, got {self.num_nodes}")
        if self.image_bytes < 1:
            raise ConfigurationError(
                f"image must be non-empty, got {self.image_bytes} bytes")
        if self.max_rounds_per_fragment < 1:
            raise ConfigurationError(
                "max_rounds_per_fragment must be >= 1, got "
                f"{self.max_rounds_per_fragment}")
        if self.max_session_attempts < 1:
            raise ConfigurationError(
                "max_session_attempts must be >= 1, got "
                f"{self.max_session_attempts}")
        check_max_radius(self.max_radius_m)
        if not 0.0 <= self.verify_failure_prob <= 1.0:
            raise ConfigurationError(
                "verify_failure_prob must be a probability in [0, 1], "
                f"got {self.verify_failure_prob!r}")

    @property
    def num_fragments(self) -> int:
        """Data fragments the image splits into."""
        return -(-self.image_bytes // DATA_PAYLOAD_BYTES)

    @property
    def tail_payload_bytes(self) -> int:
        """Payload size of the final (possibly short) fragment."""
        remainder = self.image_bytes % DATA_PAYLOAD_BYTES
        return remainder if remainder else DATA_PAYLOAD_BYTES
