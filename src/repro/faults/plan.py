"""Fault plans and the timeline-integrated per-node injector.

A :class:`FaultPlan` bundles the optional fault models for one campaign
run.  :meth:`FaultPlan.bind` derives a :class:`NodeFaults` injector for
one node: the stateful per-node fault processes (seeded independently of
the session RNG and of node iteration order) plus the hooks the hardened
OTA pipeline polls.  Every injected fault is emitted as a namespaced
``fault.*`` :class:`~repro.sim.events.SimEvent` on the bound timeline, so a
trace shows exactly what was done to the system and when - separate from
the ``ota.*`` events that show how the pipeline coped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import FaultInjectionError
from repro.faults.models import (
    ApOutageModel,
    BrownoutModel,
    BurstLossProcess,
    CorruptionModel,
    FlashFaultModel,
    GilbertElliott,
    HangModel,
)
from repro.seeding import fold_seed
from repro.sim.events import (
    FAULT_BROWNOUT,
    FAULT_CORRUPT,
    FAULT_HANG,
    FAULT_LOSS,
    FAULT_OUTAGE,
)
from repro.sim.timeline import Timeline


@dataclass(frozen=True, kw_only=True)
class FaultPlan:
    """Everything that will go wrong in one campaign, fully seeded.

    Attributes:
        seed: plan-level randomness root, folded into every per-node
            stream (keyword-only, required).
        burst_loss: Gilbert-Elliott packet loss on the backbone link.
        corruption: delivered-but-corrupt data packets.
        flash: page-program failures / stuck bits in the node's flash.
        brownout: node reboot mid-transfer.
        ap_outage: AP downtime windows on the campaign clock.
        hang: MCU hangs during install, cleared by the watchdog.
    """

    seed: int
    burst_loss: GilbertElliott | None = None
    corruption: CorruptionModel | None = None
    flash: FlashFaultModel | None = None
    brownout: BrownoutModel | None = None
    ap_outage: ApOutageModel | None = None
    hang: HangModel | None = None

    def bind(self, node_id: int,
             timeline: Timeline | None = None) -> "NodeFaults":
        """The stateful per-node injector for ``node_id``.

        The injector's fault streams are functions of ``(plan seed,
        model seed, node id)`` only, so binding nodes in any order - or
        rebinding the same node - reproduces identical fault sequences.
        """
        return NodeFaults(self, node_id=fold_seed(self.seed, node_id),
                          timeline=timeline)


class FaultInjector:
    """What every bound injector shares: fire counts and fault events.

    ``injected`` counts fires per ``fault.*`` kind for assertions;
    :meth:`_emit` bumps it and records the event on :attr:`timeline`
    (when one is attached), and :meth:`_fires` is the one
    draw-and-emit Bernoulli hook the per-model polls go through.
    """

    def __init__(self, plan: Any, timeline: Timeline | None) -> None:
        self.plan = plan
        self.timeline = timeline
        self.injected: dict[str, int] = {}

    def _emit(self, kind: str, label: str, duration_s: float = 0.0,
              power_w: float | None = None,
              component: str = "faults") -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if self.timeline is not None:
            self.timeline.record(kind, component, label=label,
                                 duration_s=duration_s, power_w=power_w)

    def _fires(self, rng: np.random.Generator, prob: float, kind: str,
               label: str, duration_s: float = 0.0) -> bool:
        """One draw from ``rng``; below ``prob`` it emits ``kind``."""
        if not rng.random() < prob:
            return False
        self._emit(kind, label, duration_s=duration_s)
        return True


class NodeFaults(FaultInjector):
    """One node's fault processes, bound to a timeline for tracing.

    The hardened OTA pipeline polls the ``*_now``/``*_lost`` hooks; each
    hook draws from its own seeded stream and, when a fault fires,
    records the matching ``fault.*`` event on :attr:`timeline` (when one
    is attached).
    """

    def __init__(self, plan: FaultPlan, node_id: int,
                 timeline: Timeline | None = None) -> None:
        super().__init__(plan, timeline)
        self.node_id = node_id
        self.time_offset_s = 0.0
        self._loss: BurstLossProcess | None = (
            plan.burst_loss.start(node_id) if plan.burst_loss else None)
        self._corrupt_rng = (plan.corruption.start(node_id)
                             if plan.corruption else None)
        self._flash_rng = plan.flash.start(node_id) if plan.flash else None
        self._brownout_rng = (plan.brownout.start(node_id)
                              if plan.brownout else None)
        self._hang_rng = plan.hang.start(node_id) if plan.hang else None
        self._outage_windows = (plan.ap_outage.windows()
                                if plan.ap_outage else ())

    # -- timeline binding --------------------------------------------------

    def attach(self, timeline: Timeline, offset_s: float = 0.0) -> None:
        """Point fault events at (a new) ``timeline``.

        ``offset_s`` maps the timeline's local clock onto the campaign
        clock - AP outage windows are campaign-absolute, while per-node
        session events are recorded on per-attempt sub-timelines that
        start at zero.
        """
        self.timeline = timeline
        self.time_offset_s = offset_s

    def campaign_now_s(self) -> float:
        """Current campaign-absolute time per the bound timeline."""
        local = self.timeline.now_s if self.timeline is not None else 0.0
        return self.time_offset_s + local

    # -- hooks polled by the hardened pipeline -----------------------------

    def ap_down_now(self) -> bool:
        """Whether the campaign clock currently sits in an outage window."""
        now = self.campaign_now_s()
        return any(start <= now < end for start, end in self._outage_windows)

    def packet_lost(self, uplink: bool, label: str) -> bool:
        """Forced packet loss: AP outage first, then the burst chain."""
        if self._outage_windows and self.ap_down_now():
            self._emit(FAULT_OUTAGE,
                       f"{label} during AP outage")
            return True
        if self._loss is not None and self._loss.step():
            direction = "uplink" if uplink else "downlink"
            self._emit(FAULT_LOSS, f"{direction} {label} (burst state)")
            return True
        return False

    def packet_corrupted(self, label: str) -> bool:
        """Whether a delivered data packet arrives with corrupt bits."""
        model = self.plan.corruption
        return model is not None and self._fires(
            self._corrupt_rng, model.per_packet_prob, FAULT_CORRUPT,
            f"{label} corrupted in flight")

    def brownout_now(self) -> bool:
        """Whether the node browns out after the fragment it just ACKed.

        A firing records the reboot dwell on the timeline (the node is
        down for the model's ``reboot_time_s``).
        """
        model = self.plan.brownout
        return model is not None and self._fires(
            self._brownout_rng, model.prob_per_fragment, FAULT_BROWNOUT,
            f"node {self.node_id} brownout, "
            f"{model.reboot_time_s:g} s reboot",
            duration_s=model.reboot_time_s)

    def hangs_now(self) -> bool:
        """Whether the install phase of this session hangs the MCU."""
        model = self.plan.hang
        return model is not None and self._fires(
            self._hang_rng, model.hang_prob, FAULT_HANG,
            f"node {self.node_id} MCU hang")

    def flash_page_failed(self) -> bool:
        """Whether one page-program operation fails outright."""
        if self._flash_rng is None:
            return False
        return bool(self._flash_rng.random()
                    < self.plan.flash.page_failure_prob)

    def flash_stuck_bit(self, page_bytes: int) -> int | None:
        """A stuck bit index within a page-program, or None.

        Returns a flat bit offset in ``[0, page_bytes * 8)`` when the
        fault fires; the flash wrapper maps it onto the written bytes.
        """
        if self._flash_rng is None:
            return None
        if self._flash_rng.random() < self.plan.flash.stuck_bit_prob:
            return int(self._flash_rng.integers(0, page_bytes * 8))
        return None

    def require_flash_model(self) -> FlashFaultModel:
        """The flash model, for wiring a faulty flash wrapper.

        Raises:
            FaultInjectionError: when the plan has no flash model.
        """
        if self.plan.flash is None:
            raise FaultInjectionError(
                "this fault plan has no flash model to wire")
        return self.plan.flash
