"""Typed, seeded fault models for the OTA robustness harness.

Each model is a frozen configuration dataclass describing *one* way the
campus testbed breaks in practice: bursty packet loss on the LoRa
backbone (a two-state Gilbert-Elliott chain, the standard burst-loss
model), bit corruption that slips past the radio but not the MAC CRC,
NOR-flash page-program failures and stuck bits, node brownouts that
reboot a node mid-transfer, AP outage windows, and MCU hangs that only a
watchdog can clear.

Reproducibility contract: every model carries an explicit keyword-only
``seed``; all randomness in a fault path derives from that seed plus the
node id through independent :func:`numpy.random.default_rng` streams, so
fault sequences are (a) bit-reproducible from configuration alone and
(b) independent of both the session RNG and the order nodes are
simulated in.  The seed has no default, so a call site that omits it
raises ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FaultInjectionError

# Distinct sub-stream tags so each model draws from its own generator
# even when the plan-level seed and node id coincide.
_STREAM_LOSS = 1
_STREAM_CORRUPT = 2
_STREAM_FLASH = 3
_STREAM_BROWNOUT = 4
_STREAM_OUTAGE = 5
_STREAM_HANG = 6


def spawn_rng(seed: int, stream: int, node_id: int) -> np.random.Generator:
    """An independent generator for one (model, node) fault stream."""
    return np.random.default_rng([seed, stream, node_id])


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise FaultInjectionError(
            f"{name} must be a probability in [0, 1], got {value!r}")


@dataclass(frozen=True, kw_only=True)
class GilbertElliott:
    """Burst packet loss: a two-state good/bad Markov chain per packet.

    Attributes:
        seed: randomness root for the chain (keyword-only, required).
        p_enter_bad: per-packet probability of a good->bad transition.
        p_exit_bad: per-packet probability of a bad->good transition.
        loss_good: loss probability while in the good state.
        loss_bad: loss probability while in the bad state.
    """

    seed: int
    p_enter_bad: float = 0.05
    p_exit_bad: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9

    def __post_init__(self) -> None:
        for name in ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad"):
            _check_probability(name, getattr(self, name))

    def start(self, node_id: int) -> "BurstLossProcess":
        """A fresh per-node chain, seeded independently of other nodes."""
        return BurstLossProcess(
            self, spawn_rng(self.seed, _STREAM_LOSS, node_id))


class BurstLossProcess:
    """The stateful side of :class:`GilbertElliott`: one chain instance."""

    def __init__(self, model: GilbertElliott,
                 rng: np.random.Generator) -> None:
        self.model = model
        self.rng = rng
        self.in_bad_state = False

    def step(self) -> bool:
        """Advance one packet; returns True when that packet is lost."""
        if self.in_bad_state:
            if self.rng.random() < self.model.p_exit_bad:
                self.in_bad_state = False
        elif self.rng.random() < self.model.p_enter_bad:
            self.in_bad_state = True
        loss = (self.model.loss_bad if self.in_bad_state
                else self.model.loss_good)
        return bool(self.rng.random() < loss)


@dataclass(frozen=True, kw_only=True)
class CorruptionModel:
    """Bit corruption that survives the radio but not the MAC CRC check.

    A corrupted packet is *delivered* by the link yet fails the node's
    per-packet CRC, so the node refuses to ACK it - the retransmission
    cost of loss with a distinct trace signature.

    Attributes:
        seed: randomness root (keyword-only, required).
        per_packet_prob: probability a delivered data packet is corrupt.
    """

    seed: int
    per_packet_prob: float = 0.02

    def __post_init__(self) -> None:
        _check_probability("per_packet_prob", self.per_packet_prob)

    def start(self, node_id: int) -> np.random.Generator:
        """The per-node corruption draw stream."""
        return spawn_rng(self.seed, _STREAM_CORRUPT, node_id)


@dataclass(frozen=True, kw_only=True)
class FlashFaultModel:
    """NOR-flash misbehaviour: failed page programs and stuck bits.

    Attributes:
        seed: randomness root (keyword-only, required).
        page_failure_prob: probability one page-program operation fails
            outright (the page keeps its pre-program contents).
        stuck_bit_prob: probability one page-program leaves a single bit
            stuck at 1 (NOR programming can only clear bits; a stuck
            cell fails to clear).
    """

    seed: int
    page_failure_prob: float = 0.0
    stuck_bit_prob: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("page_failure_prob", self.page_failure_prob)
        _check_probability("stuck_bit_prob", self.stuck_bit_prob)

    def start(self, node_id: int) -> np.random.Generator:
        """The per-node flash-fault draw stream."""
        return spawn_rng(self.seed, _STREAM_FLASH, node_id)


@dataclass(frozen=True, kw_only=True)
class BrownoutModel:
    """Node brownout/reboot mid-transfer (battery sag, supply glitch).

    Attributes:
        seed: randomness root (keyword-only, required).
        prob_per_fragment: probability the node browns out right after
            acknowledging a fragment.
        reboot_time_s: how long the node is down before it resumes.
    """

    seed: int
    prob_per_fragment: float = 0.001
    reboot_time_s: float = 2.0

    def __post_init__(self) -> None:
        _check_probability("prob_per_fragment", self.prob_per_fragment)
        if self.reboot_time_s <= 0:
            raise FaultInjectionError(
                f"reboot_time_s must be positive, got {self.reboot_time_s!r}")

    def start(self, node_id: int) -> np.random.Generator:
        """The per-node brownout draw stream."""
        return spawn_rng(self.seed, _STREAM_BROWNOUT, node_id)


@dataclass(frozen=True, kw_only=True)
class ApOutageModel:
    """AP downtime windows (power cuts, backhaul loss) on the campaign clock.

    Windows are generated once per plan from the model seed - they are a
    property of the *AP*, shared by every node - as alternating
    exponential up-times and outage durations over a horizon.

    Attributes:
        seed: randomness root (keyword-only, required).
        mean_interval_s: mean up-time between outages.
        mean_duration_s: mean outage length.
        horizon_s: campaign span covered by generated windows.
    """

    seed: int
    mean_interval_s: float = 600.0
    mean_duration_s: float = 30.0
    horizon_s: float = 7200.0

    def __post_init__(self) -> None:
        for name in ("mean_interval_s", "mean_duration_s", "horizon_s"):
            if getattr(self, name) <= 0:
                raise FaultInjectionError(
                    f"{name} must be positive, got {getattr(self, name)!r}")

    def windows(self) -> tuple[tuple[float, float], ...]:
        """The deterministic outage windows, as (start, end) pairs."""
        rng = spawn_rng(self.seed, _STREAM_OUTAGE, 0)
        cursor = 0.0
        spans: list[tuple[float, float]] = []
        while True:
            cursor += float(rng.exponential(self.mean_interval_s))
            if cursor >= self.horizon_s:
                return tuple(spans)
            duration = float(rng.exponential(self.mean_duration_s))
            end = min(cursor + duration, self.horizon_s)
            spans.append((cursor, end))
            cursor = end


@dataclass(frozen=True, kw_only=True)
class HangModel:
    """MCU hangs during decompression/install, cleared by the watchdog.

    Attributes:
        seed: randomness root (keyword-only, required).
        hang_prob: probability the install phase of one session hangs.
    """

    seed: int
    hang_prob: float = 0.0

    def __post_init__(self) -> None:
        _check_probability("hang_prob", self.hang_prob)

    def start(self, node_id: int) -> np.random.Generator:
        """The per-node hang draw stream."""
        return spawn_rng(self.seed, _STREAM_HANG, node_id)
