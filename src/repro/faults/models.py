"""Typed, seeded fault models for the OTA robustness harness.

Each model is a frozen configuration dataclass describing *one* way the
campus testbed breaks in practice: bursty packet loss on the LoRa
backbone (a two-state Gilbert-Elliott chain, the standard burst-loss
model), bit corruption that slips past the radio but not the MAC CRC,
NOR-flash page-program failures and stuck bits, node brownouts that
reboot a node mid-transfer, AP outage windows, and MCU hangs that only a
watchdog can clear.

Every model, here and in :mod:`repro.faults.service`, subclasses
:class:`FaultModel`.  Reproducibility contract: every model carries an
explicit keyword-only ``seed``; all randomness in a fault path derives
from that seed plus the node id through the model's own
:func:`repro.seeding.stream_rng` sub-stream, so fault sequences are (a)
bit-reproducible from configuration alone and (b) independent of both
the session RNG and the order nodes are simulated in.  The seed has no
default, so a call site that omits it raises ``TypeError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import FaultInjectionError
from repro.seeding import stream_rng


@dataclass(frozen=True, kw_only=True)
class FaultModel:
    """The frozen base of every seeded fault model.

    A subclass names its sub-stream in ``stream`` (a key of
    :data:`repro.seeding.STREAM_TAGS`), its probability fields in
    ``probabilities`` and its positive, finite fields in ``positives``;
    the base validates both on construction and derives the model's
    per-subject draw streams.

    Attributes:
        seed: randomness root of every subclass (keyword-only, required).
    """

    stream: ClassVar[str]
    probabilities: ClassVar[tuple[str, ...]] = ()
    positives: ClassVar[tuple[str, ...]] = ()

    seed: int

    def __post_init__(self) -> None:
        # Chained comparisons are false for NaN, so both checks also
        # refuse every non-finite value (an infinite or NaN span would
        # never end the outage-window draw loop).
        for name in self.probabilities:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(
                    f"{name} must be a probability in [0, 1], got {value!r}")
        for name in self.positives:
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise FaultInjectionError(
                    f"{name} must be positive and finite, got {value!r}")

    def start(self, subject_id: int) -> np.random.Generator:
        """The model's draw stream for one node, job or journal record."""
        return stream_rng(self.seed, self.stream, subject_id)


@dataclass(frozen=True, kw_only=True)
class GilbertElliott(FaultModel):
    """Burst packet loss: a two-state good/bad Markov chain per packet.

    Attributes:
        p_enter_bad: per-packet probability of a good->bad transition.
        p_exit_bad: per-packet probability of a bad->good transition.
        loss_good: loss probability while in the good state.
        loss_bad: loss probability while in the bad state.
    """

    stream = "fault.burst_loss"
    probabilities = ("p_enter_bad", "p_exit_bad", "loss_good", "loss_bad")

    p_enter_bad: float = 0.05
    p_exit_bad: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.9

    def start(self, node_id: int) -> "BurstLossProcess":
        """A fresh per-node chain, seeded independently of other nodes."""
        return BurstLossProcess(self, super().start(node_id))


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
class CorruptionModel(FaultModel):
    """Bit corruption that survives the radio but not the MAC CRC check.

    A corrupted packet is *delivered* by the link yet fails the node's
    per-packet CRC, so the node refuses to ACK it - the retransmission
    cost of loss with a distinct trace signature.

    Attributes:
        per_packet_prob: probability a delivered data packet is corrupt.
    """

    stream = "fault.corruption"
    probabilities = ("per_packet_prob",)

    per_packet_prob: float = 0.02


@dataclass(frozen=True, kw_only=True)
class FlashFaultModel(FaultModel):
    """NOR-flash misbehaviour: failed page programs and stuck bits.

    Attributes:
        page_failure_prob: probability one page-program operation fails
            outright (the page keeps its pre-program contents).
        stuck_bit_prob: probability one page-program leaves a single bit
            stuck at 1 (NOR programming can only clear bits; a stuck
            cell fails to clear).
    """

    stream = "fault.flash"
    probabilities = ("page_failure_prob", "stuck_bit_prob")

    page_failure_prob: float = 0.0
    stuck_bit_prob: float = 0.0


@dataclass(frozen=True, kw_only=True)
class BrownoutModel(FaultModel):
    """Node brownout/reboot mid-transfer (battery sag, supply glitch).

    Attributes:
        prob_per_fragment: probability the node browns out right after
            acknowledging a fragment.
        reboot_time_s: how long the node is down before it resumes.
    """

    stream = "fault.brownout"
    probabilities = ("prob_per_fragment",)
    positives = ("reboot_time_s",)

    prob_per_fragment: float = 0.001
    reboot_time_s: float = 2.0


@dataclass(frozen=True, kw_only=True)
class ApOutageModel(FaultModel):
    """AP downtime windows (power cuts, backhaul loss) on the campaign clock.

    Windows are generated once per plan from the model seed - they are a
    property of the *AP*, shared by every node - as alternating
    exponential up-times and outage durations over a horizon.

    Attributes:
        mean_interval_s: mean up-time between outages.
        mean_duration_s: mean outage length.
        horizon_s: campaign span covered by generated windows.
    """

    stream = "fault.ap_outage"
    positives = ("mean_interval_s", "mean_duration_s", "horizon_s")

    mean_interval_s: float = 600.0
    mean_duration_s: float = 30.0
    horizon_s: float = 7200.0

    def windows(self) -> tuple[tuple[float, float], ...]:
        """The deterministic outage windows, as (start, end) pairs."""
        rng = self.start(0)
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
class HangModel(FaultModel):
    """MCU hangs during decompression/install, cleared by the watchdog.

    Attributes:
        hang_prob: probability the install phase of one session hangs.
    """

    stream = "fault.hang"
    probabilities = ("hang_prob",)

    hang_prob: float = 0.0
