"""Vectorized fleet campaign engine: whole-cohort OTA stepping.

The legacy campaign path (:class:`repro.ota.ap.AccessPoint`) simulates
one node at a time and appends one :class:`~repro.sim.events.SimEvent` per
protocol action — faithful, but O(events) Python work.  This engine
advances the *whole fleet* one ARQ round per step on struct-of-arrays
cohort buffers, replacing per-event ledger appends with per-node
integer counters that are expanded into a
:class:`~repro.sim.stream.TimelineRollup` at the end.  Same protocol shape as
the hardened session loop — stop-and-wait ARQ with per-fragment round
budgets, bounded session attempts with checkpoint/resume, CRC verify
with golden-bank rollback — at fleet-scale throughput.

Determinism and parity contracts:

* ``run_fleet_campaign`` and ``run_fleet_campaign_reference`` (a plain
  per-node Python loop over the identical draw sequence) produce
  bit-identical per-node arrays (``tests/test_fleet_engine.py``).
* Randomness is counter-based per node (:mod:`repro.ota.fleet.rng`), so
  results are independent of vector scheduling and shard boundaries
  (``tests/test_fleet_sharding.py``).
* :func:`simulate_node_timeline` re-derives any single node's full
  event-level :class:`~repro.sim.timeline.Timeline` from the same draw
  stream — drill-down without ever materializing the fleet's ledger.

Draw order per node per ARQ round (normative — both twins and the
timeline reconstruction follow it exactly): burst-loss transition draw
and forced-loss draw (when a loss model is configured; unconditional,
so every trajectory consumes a fixed two draws per round), then the
data-packet draw (skipped on a forced loss), then the ACK draw (only
when the data packet got through), and a final verify draw on image
completion (only when ``verify_failure_prob > 0``).  The order fixes
which counter each draw uses, not whether it is hashed: the vectorized
stepper skips the hash of a settled draw (a threshold ``>= 1.0`` always
passes, one ``<= 0.0`` never does), yet the draw still uses up its
counter, while the scalar twin hashes every draw.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.fpga.config import NODE_FPGA, programming_time_s
from repro.mcu.msp432 import DECOMPRESS_BANDWIDTH_BPS, NODE_MCU
from repro.ota.flash import NODE_FLASH
from repro.ota.fleet.config import FleetCampaignConfig
from repro.ota.fleet.link import FleetLinkPlan, prepare_links
from repro.ota.fleet.rng import node_keys, node_keys_reference, uniforms, \
    uniforms_reference
from repro.ota.mac import (
    LISTEN_PERIOD_S,
    NODE_RADIO,
    OUTCOME_ABANDONED,
    OUTCOME_RESUMED,
    OUTCOME_ROLLED_BACK,
    OUTCOME_SUCCEEDED,
)
from repro.power import profiles
from repro.retry import ACK_TIMEOUT_S
from repro.sim.events import (
    CONTROL_RX,
    CONTROL_TX,
    FAULT_LOSS,
    FPGA_CONFIG,
    MCU_DECOMPRESS,
    MCU_RUN,
    OTA_CHECKPOINT,
    OTA_FAILURE,
    OTA_RESUME,
    OTA_RETRY_WAIT,
    OTA_ROLLBACK,
    OTA_SESSION,
    OTA_VERIFY,
    PACKET_DELIVERED,
    PACKET_RX,
    PACKET_TIMEOUT,
    PACKET_TX,
)
from repro.sim.stream import (
    DEFAULT_BUFFER_ROWS,
    StreamingLedgerWriter,
    TimelineRollup,
)
from repro.sim.timeline import Timeline

CODE_SUCCEEDED = 0
CODE_RESUMED = 1
CODE_ROLLED_BACK = 2
CODE_ABANDONED = 3

#: Outcome code -> the hardened path's outcome string.
OUTCOME_LABELS = (OUTCOME_SUCCEEDED, OUTCOME_RESUMED, OUTCOME_ROLLED_BACK,
                  OUTCOME_ABANDONED)
#: Outcome code -> its label as the spill writes it (a JSON string).
_OUTCOME_JSON = tuple(json.dumps(label) for label in OUTCOME_LABELS)
#: A node row's spill-cache key: the eight fields after its id (outcome
#: code, fragments, attempts, timeouts, flash bank, duration, energy,
#: events) packed as native 64-bit words, the two floats by their bits.
_NODE_TAIL_KEY = struct.Struct("5q2dq")

GOLDEN_BANK = 0
UPDATE_BANK = 1

_STATE_FIELDS = (
    "node_ids", "fragments", "attempts", "data_rx_full", "data_rx_tail",
    "timeouts", "acks_tx", "forced_losses", "session_failures", "resumes",
    "outcome_codes", "flash_bank",
)


def _new_state(n: int,
               counter_names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Fresh per-node state: ``int64`` zero counters plus the ``int8``
    outcome (unset) and flash-bank (golden) codes."""
    state = {name: np.zeros(n, dtype=np.int64) for name in counter_names}
    state["outcome_codes"] = np.full(n, -1, dtype=np.int8)
    state["flash_bank"] = np.full(n, GOLDEN_BANK, dtype=np.int8)
    return state


def _draw_below(keys: np.ndarray, counters: np.ndarray,
                drawing: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """Whether each ``drawing`` row's next draw falls below its threshold.

    Every ``drawing`` row's counter advances, but only the rows whose
    threshold leaves the outcome open are hashed.  A draw lies in
    ``[0, 1)``, so it passes every threshold ``>= 1.0`` and none
    ``<= 0.0``; a NaN threshold counts as open.  The open rows are
    gathered and hashed alone when they are at most half the cohort;
    otherwise every row is hashed, which then costs less than the
    gather.  Rows outside ``drawing`` come back ``False``.
    """
    counters += drawing
    passed = threshold >= 1.0
    open_rows = ~(passed | (threshold <= 0.0))
    open_rows &= drawing
    passed &= drawing
    if 2 * np.count_nonzero(open_rows) <= keys.size:
        # `.nonzero()[0]` rather than np.flatnonzero here and in
        # _step_round: in a campaign's many small-cohort rounds the
        # wrapper costs more than the scan.
        rows = open_rows.nonzero()[0]
        passed[rows] = uniforms(keys[rows], counters[rows]) < threshold[rows]
    else:
        passed |= open_rows & (uniforms(keys, counters) < threshold)
    return passed


def _step_round(config: FleetCampaignConfig,
                cohort: dict[str, np.ndarray]) -> None:
    """Advance every live row of ``cohort`` by one ARQ round, in place.

    A row's RNG counter moves only when the normative draw order has
    the node draw, so a node's ``k``-th draw always hashes counter
    ``k``, exactly as in :func:`_simulate_node`.  The chain transition
    draw hashes every row, live or not.  The forced-loss, data and ACK
    draws go through :func:`_draw_below`: a settled draw (threshold
    ``>= 1.0`` or ``<= 0.0``) uses up its counter without being hashed.
    The once-per-node verify draw gathers just the completing rows.
    """
    keys, counters = cohort["keys"], cohort["counters"]
    alive, frag = cohort["alive"], cohort["fragments"]
    round_no = cohort["round_no"]
    loss = config.loss

    # (1) burst-loss chain transition + forced-loss draw.  Finished rows
    # take the transition draw too; nothing reads their chain state or
    # counters again.  The chain's boolean two-way select is spelled as
    # `(c & a) | (~c & b)`: on random masks that is several times faster
    # than np.where(c, a, b).
    if loss is not None:
        counters += 1
        t = uniforms(keys, counters)
        was_bad = cohort["ge_bad"]
        bad = cohort["ge_bad"] = ((was_bad & (t >= loss.p_exit_bad))
                                  | (~was_bad & (t < loss.p_enter_bad)))
        forced = _draw_below(keys, counters, alive,
                             np.where(bad, loss.loss_bad, loss.loss_good))
        cohort["forced_losses"] += forced
        clear = alive & ~forced
    else:
        clear = alive

    # (2) the AP transmits this round's fragment to every live node: an
    # RX dwell whether or not the packet decodes.
    is_tail = frag == config.num_fragments - 1
    is_tail &= alive
    cohort["data_rx_tail"] += is_tail
    cohort["rounds"] += alive

    # (3) data-packet outcome (forced losses short-circuit the draw).
    data_ok = _draw_below(
        keys, counters, clear,
        np.where(is_tail, cohort["p_tail"], cohort["p_full"]))

    # (4) the node ACKs every decoded fragment; the AP may miss it.
    delivered = _draw_below(keys, counters, data_ok, cohort["p_ack"])
    cohort["acks_tx"] += data_ok
    frag += delivered
    round_no += 1
    round_no *= ~delivered

    # Image complete (the tail fragment got through): verify, then
    # commit or roll back.
    outcome = cohort["outcome_codes"]
    done = (is_tail & delivered).nonzero()[0]
    if done.size:
        if config.verify_failure_prob > 0.0:
            counters[done] += 1
            draw = uniforms(keys[done], counters[done])
            rolled = draw < config.verify_failure_prob
        else:
            rolled = np.zeros(done.size, dtype=np.bool_)
        outcome[done] = np.where(
            rolled, CODE_ROLLED_BACK,
            np.where(cohort["resumes"][done] > 0, CODE_RESUMED,
                     CODE_SUCCEEDED))
        cohort["flash_bank"][done] = np.where(rolled, GOLDEN_BANK,
                                              UPDATE_BANK)
        alive[done] = False

    # Round budget exhausted: retry the session or abandon the node.
    failed = round_no >= config.max_rounds_per_fragment
    failed &= alive
    sub = failed.nonzero()[0]
    if sub.size:
        attempts = cohort["attempts"]
        cohort["session_failures"][sub] += 1
        retryable = attempts[sub] < config.max_session_attempts
        retry = sub[retryable]
        attempts[retry] += 1
        cohort["resumes"][retry] += frag[retry] > 0
        round_no[retry] = 0
        abandoned = sub[~retryable]
        outcome[abandoned] = CODE_ABANDONED
        alive[abandoned] = False


def _simulate_range(config: FleetCampaignConfig, lo: int, hi: int,
                    plan: FleetLinkPlan | None = None
                    ) -> dict[str, np.ndarray]:
    """Advance nodes ``[lo, hi)`` to completion, one ARQ round per step.

    Returns the raw cohort state arrays (local index ``i`` is node
    ``lo + i``); :func:`finalize_fleet` turns them into a report.  The
    link plan is always the *full-fleet* plan sliced here, so results
    do not depend on the range boundaries.

    The cohort starts as the output arrays themselves and steps in
    place under its ``alive`` mask.  Only once half its rows have
    finished is it compacted: the finished rows are scattered back to
    their nodes' slots through the ``pos`` position map, and every
    column is gathered down to the live rows through one index.  So no
    second full-size copy of the cohort is ever held.  Each round's
    settled draws use up their counters without being hashed
    (:func:`_step_round`), so every per-node array equals
    :func:`_simulate_range_reference`, which hashes every draw.
    """
    if plan is None:
        plan = prepare_links(config)
    n = hi - lo
    ids = np.arange(lo, hi, dtype=np.int64)
    state = _new_state(n, (
        "fragments", "data_rx_tail", "rounds", "acks_tx", "forced_losses",
        "session_failures", "resumes"))
    state["attempts"] = np.ones(n, dtype=np.int64)
    cohort = dict(
        state, pos=np.arange(n, dtype=np.int64),
        keys=node_keys(config.seed, ids),
        counters=np.zeros(n, dtype=np.uint64),
        p_full=np.asarray(plan.p_data_full[lo:hi]),
        p_tail=np.asarray(plan.p_data_tail[lo:hi]),
        p_ack=np.asarray(plan.p_ack[lo:hi]),
        round_no=np.zeros(n, dtype=np.int64),
        ge_bad=np.zeros(n, dtype=np.bool_),
        alive=np.ones(n, dtype=np.bool_))

    live = n
    while live:
        _step_round(config, cohort)
        alive = cohort["alive"]
        live = np.count_nonzero(alive)
        if 2 * live <= alive.size:
            finished = np.flatnonzero(~alive)
            slots = cohort["pos"][finished]
            for name, column in state.items():
                column[slots] = cohort[name][finished]
            keep = np.flatnonzero(alive)
            cohort = {name: rows[keep] for name, rows in cohort.items()}

    # Every round is one data RX and ends in a delivery or a timeout.
    rounds = state.pop("rounds")
    state["data_rx_full"] = rounds - state["data_rx_tail"]
    state["timeouts"] = rounds - state["fragments"]
    state["node_ids"] = ids
    return {name: state[name] for name in _STATE_FIELDS}


def _simulate_node(config: FleetCampaignConfig, plan: FleetLinkPlan,
                   node_id: int, timeline: Timeline | None = None
                   ) -> dict[str, int]:
    """One node's full trajectory as plain scalar Python.

    This is the normative specification of the draw order the
    vectorized stepper must match.  With a ``timeline`` it also emits
    the node's event-level ledger, one :class:`~repro.sim.events.SimEvent` per
    counted action, in chronological order.
    """
    key = node_keys_reference(config.seed, [node_id])[0]
    counter = 0
    p_full = float(plan.p_data_full[node_id])
    p_tail = float(plan.p_data_tail[node_id])
    p_ack = float(plan.p_ack[node_id])
    num_fragments = config.num_fragments
    loss = config.loss

    frag = 0
    round_no = 0
    attempt = 1
    bad = False
    d_full = d_tail = timeouts = acks = 0
    forced_losses = failures = resumes = 0
    outcome = -1
    bank = GOLDEN_BANK

    def record(kind: str, component: str, duration_s: float = 0.0,
               power_w: float | None = None, advance: bool = True) -> None:
        if timeline is not None:
            timeline.record(kind, component, duration_s=duration_s,
                            power_w=power_w, advance=advance)

    record(CONTROL_RX, NODE_RADIO, plan.air_request_s,
           profiles.BACKBONE_RX_W)
    record(CONTROL_TX, NODE_RADIO, plan.air_ready_s,
           profiles.BACKBONE_TX_14DBM_W)
    while True:
        if loss is not None:
            counter += 1
            t = uniforms_reference([key], [counter])[0]
            bad = not (t < loss.p_exit_bad) if bad else t < loss.p_enter_bad
            counter += 1
            drop = uniforms_reference([key], [counter])[0]
            forced = drop < (loss.loss_bad if bad else loss.loss_good)
        else:
            forced = False
        if forced:
            forced_losses += 1
            record(FAULT_LOSS, NODE_RADIO)

        is_tail = frag == num_fragments - 1
        if is_tail:
            d_tail += 1
            record(PACKET_RX, NODE_RADIO, plan.air_data_tail_s,
                   profiles.BACKBONE_RX_W)
        else:
            d_full += 1
            record(PACKET_RX, NODE_RADIO, plan.air_data_full_s,
                   profiles.BACKBONE_RX_W)

        data_ok = False
        if not forced:
            counter += 1
            draw = uniforms_reference([key], [counter])[0]
            data_ok = draw < (p_tail if is_tail else p_full)

        ack_ok = False
        if data_ok:
            counter += 1
            draw = uniforms_reference([key], [counter])[0]
            ack_ok = draw < p_ack
            acks += 1
            record(PACKET_TX, NODE_RADIO, plan.air_ack_s,
                   profiles.BACKBONE_TX_14DBM_W)

        if data_ok and ack_ok:
            frag += 1
            round_no = 0
            record(PACKET_DELIVERED, NODE_RADIO)
            record(OTA_CHECKPOINT, NODE_FLASH, advance=False)
        else:
            timeouts += 1
            round_no += 1
            record(PACKET_TIMEOUT, NODE_RADIO, ACK_TIMEOUT_S,
                   profiles.BACKBONE_RX_W)

        if frag == num_fragments:
            record(CONTROL_RX, NODE_RADIO, plan.air_end_s,
                   profiles.BACKBONE_RX_W)
            record(MCU_DECOMPRESS, NODE_MCU,
                   config.image_bytes * 8 / DECOMPRESS_BANDWIDTH_BPS,
                   profiles.MCU_ACTIVE_W)
            if config.is_fpga_image:
                record(FPGA_CONFIG, NODE_FPGA,
                       programming_time_s(config.image_bytes),
                       profiles.FPGA_STATIC_W)
            record(OTA_VERIFY, NODE_MCU)
            if config.verify_failure_prob > 0.0:
                counter += 1
                draw = uniforms_reference([key], [counter])[0]
                rolled = draw < config.verify_failure_prob
            else:
                rolled = False
            if rolled:
                outcome = CODE_ROLLED_BACK
                bank = GOLDEN_BANK
                record(OTA_ROLLBACK, NODE_FLASH, advance=False)
            else:
                outcome = CODE_RESUMED if resumes > 0 else CODE_SUCCEEDED
                bank = UPDATE_BANK
                record(OTA_SESSION, NODE_RADIO)
            break

        if round_no >= config.max_rounds_per_fragment:
            failures += 1
            record(OTA_FAILURE, NODE_RADIO)
            if attempt < config.max_session_attempts:
                attempt += 1
                record(OTA_RETRY_WAIT, NODE_RADIO, LISTEN_PERIOD_S)
                if frag > 0:
                    resumes += 1
                    record(OTA_RESUME, NODE_RADIO)
                round_no = 0
                record(CONTROL_RX, NODE_RADIO, plan.air_request_s,
                       profiles.BACKBONE_RX_W)
                record(CONTROL_TX, NODE_RADIO, plan.air_ready_s,
                       profiles.BACKBONE_TX_14DBM_W)
            else:
                outcome = CODE_ABANDONED
                break

    return {
        "fragments": frag, "attempts": attempt, "data_rx_full": d_full,
        "data_rx_tail": d_tail, "timeouts": timeouts, "acks_tx": acks,
        "forced_losses": forced_losses, "session_failures": failures,
        "resumes": resumes, "outcome_codes": outcome, "flash_bank": bank,
    }


def _simulate_range_reference(config: FleetCampaignConfig, lo: int, hi: int,
                              plan: FleetLinkPlan | None = None
                              ) -> dict[str, np.ndarray]:
    """Scalar twin of :func:`_simulate_range`: a per-node Python loop."""
    if plan is None:
        plan = prepare_links(config)
    n = hi - lo
    state = _new_state(n, tuple(
        name for name in _STATE_FIELDS
        if name not in ("node_ids", "outcome_codes", "flash_bank")))
    state["node_ids"] = np.arange(lo, hi, dtype=np.int64)
    for i in range(n):
        node = _simulate_node(config, plan, lo + i)
        for name, value in node.items():
            state[name][i] = value
    return state


@dataclass(frozen=True)
class FleetReport:
    """Everything a fleet campaign produced, per node plus rollup.

    Per-node arrays are indexed by node id.  ``duration_s`` and
    ``energy_j`` are the closed-form per-node session integrals (the
    counter-times-constant expansion of the legacy ledger replay);
    ``rollup`` is the hierarchical (kind, component) aggregate that
    replaces the event ledger at fleet scale.
    """

    config: FleetCampaignConfig
    node_ids: np.ndarray
    outcome_codes: np.ndarray
    fragments: np.ndarray
    attempts: np.ndarray
    data_rx_full: np.ndarray
    data_rx_tail: np.ndarray
    timeouts: np.ndarray
    acks_tx: np.ndarray
    forced_losses: np.ndarray
    session_failures: np.ndarray
    resumes: np.ndarray
    flash_bank: np.ndarray
    duration_s: np.ndarray
    energy_j: np.ndarray
    events_per_node: np.ndarray
    rollup: TimelineRollup = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return int(self.node_ids.size)

    @property
    def total_events(self) -> int:
        """Ledger rows an event-level simulation would have written."""
        return int(np.sum(self.events_per_node))

    @property
    def total_energy_j(self) -> float:
        """Fleet-wide node-side energy."""
        return float(np.sum(self.energy_j))

    def outcomes(self) -> list[str]:
        """Per-node outcome labels (hardened-path vocabulary)."""
        return [OUTCOME_LABELS[code] for code in self.outcome_codes]

    def outcome_counts(self) -> dict[str, int]:
        """How many nodes finished in each outcome."""
        return {label: int(np.sum(self.outcome_codes == code))
                for code, label in enumerate(OUTCOME_LABELS)}


def finalize_fleet(config: FleetCampaignConfig, plan: FleetLinkPlan,
                   state: Mapping[str, np.ndarray]) -> FleetReport:
    """Expand cohort counters into per-node integrals and the rollup.

    Every float here is ``integer counter x float constant`` summed over
    the *merged full-fleet* arrays in index order, which is what makes
    totals independent of how the stepping was sharded.
    """
    frag = state["fragments"]
    attempts = state["attempts"]
    d_full = state["data_rx_full"]
    d_tail = state["data_rx_tail"]
    timeouts = state["timeouts"]
    acks = state["acks_tx"]
    outcome = state["outcome_codes"]
    retries = attempts - 1
    ends = (frag == config.num_fragments).astype(np.int64)
    rolled = (outcome == CODE_ROLLED_BACK).astype(np.int64)
    session_ok = ((outcome == CODE_SUCCEEDED)
                  | (outcome == CODE_RESUMED)).astype(np.int64)

    decompress_s = config.image_bytes * 8 / DECOMPRESS_BANDWIDTH_BPS
    fpga_s = (programming_time_s(config.image_bytes)
              if config.is_fpga_image else 0.0)

    rx_time = (d_full * plan.air_data_full_s + d_tail * plan.air_data_tail_s
               + timeouts * ACK_TIMEOUT_S
               + attempts * plan.air_request_s + ends * plan.air_end_s)
    tx_time = acks * plan.air_ack_s + attempts * plan.air_ready_s
    wait_time = retries * LISTEN_PERIOD_S
    decompress_time = ends * decompress_s
    fpga_time = ends * fpga_s
    duration = rx_time + tx_time + wait_time + decompress_time + fpga_time
    energy = (rx_time * profiles.BACKBONE_RX_W
              + tx_time * profiles.BACKBONE_TX_14DBM_W
              + (rx_time + tx_time + decompress_time) * profiles.MCU_ACTIVE_W
              + fpga_time * profiles.FPGA_STATIC_W)

    # One term per rollup cell: delivered markers + checkpoints share
    # `frag`; control RX covers the per-attempt request plus the end
    # message; every completed node decompresses, verifies and (for FPGA
    # images) reconfigures; the trailing +1 is the node's MCU dwell.
    events = (d_full + d_tail + timeouts + acks + frag + frag
              + state["forced_losses"] + state["session_failures"]
              + retries + state["resumes"] + attempts + attempts + ends
              + ends + ends * (1 + int(config.is_fpga_image))
              + rolled + session_ok + 1)

    rollup = TimelineRollup()
    rx_w = profiles.BACKBONE_RX_W
    tx_w = profiles.BACKBONE_TX_14DBM_W

    def cell(kind: str, component: str, count_arr: np.ndarray,
             airtime_s: float = 0.0, power_w: float = 0.0) -> None:
        count = int(np.sum(count_arr))
        dwell = count * airtime_s
        rollup.add(kind, component, count=count, time_s=dwell,
                   energy_j=dwell * power_w)

    cell(CONTROL_RX, NODE_RADIO, attempts, plan.air_request_s, rx_w)
    cell(CONTROL_RX, NODE_RADIO, ends, plan.air_end_s, rx_w)
    cell(CONTROL_TX, NODE_RADIO, attempts, plan.air_ready_s, tx_w)
    cell(PACKET_RX, NODE_RADIO, d_full, plan.air_data_full_s, rx_w)
    cell(PACKET_RX, NODE_RADIO, d_tail, plan.air_data_tail_s, rx_w)
    cell(PACKET_TIMEOUT, NODE_RADIO, timeouts, ACK_TIMEOUT_S, rx_w)
    cell(PACKET_TX, NODE_RADIO, acks, plan.air_ack_s, tx_w)
    cell(PACKET_DELIVERED, NODE_RADIO, frag)
    cell(OTA_CHECKPOINT, NODE_FLASH, frag)
    cell(FAULT_LOSS, NODE_RADIO, state["forced_losses"])
    cell(OTA_FAILURE, NODE_RADIO, state["session_failures"])
    cell(OTA_RETRY_WAIT, NODE_RADIO, retries, LISTEN_PERIOD_S)
    cell(OTA_RESUME, NODE_RADIO, state["resumes"])
    cell(MCU_DECOMPRESS, NODE_MCU, ends, decompress_s,
         profiles.MCU_ACTIVE_W)
    if config.is_fpga_image:
        cell(FPGA_CONFIG, NODE_FPGA, ends, fpga_s, profiles.FPGA_STATIC_W)
    cell(OTA_VERIFY, NODE_MCU, ends)
    cell(OTA_ROLLBACK, NODE_FLASH, rolled)
    cell(OTA_SESSION, NODE_RADIO, session_ok)
    # The MCU runs the radio stack for the whole RX+TX dwell; that time
    # is concurrent with the radio cells, so only its energy is new.
    mcu_dwell = float(np.sum(rx_time) + np.sum(tx_time))
    rollup.add(MCU_RUN, NODE_MCU, count=config.num_nodes, time_s=mcu_dwell,
               energy_j=mcu_dwell * profiles.MCU_ACTIVE_W)

    return FleetReport(
        config=config,
        node_ids=state["node_ids"],
        outcome_codes=outcome,
        fragments=frag,
        attempts=attempts,
        data_rx_full=d_full,
        data_rx_tail=d_tail,
        timeouts=timeouts,
        acks_tx=acks,
        forced_losses=state["forced_losses"],
        session_failures=state["session_failures"],
        resumes=state["resumes"],
        flash_bank=state["flash_bank"],
        duration_s=duration,
        energy_j=energy,
        events_per_node=events,
        rollup=rollup)


def run_fleet_campaign(config: FleetCampaignConfig) -> FleetReport:
    """Run a whole fleet campaign on the vectorized cohort engine."""
    plan = prepare_links(config)
    state = _simulate_range(config, 0, config.num_nodes, plan)
    return finalize_fleet(config, plan, state)


def run_fleet_campaign_reference(config: FleetCampaignConfig) -> FleetReport:
    """Per-node scalar twin of :func:`run_fleet_campaign` (bit-exact)."""
    plan = prepare_links(config)
    state = _simulate_range_reference(config, 0, config.num_nodes, plan)
    return finalize_fleet(config, plan, state)


def simulate_node_timeline(config: FleetCampaignConfig, node_id: int,
                           plan: FleetLinkPlan | None = None) -> Timeline:
    """Reconstruct one node's event-level ledger from its draw stream.

    The fleet engine never materializes per-event ledgers; when one node
    needs debugging, its exact trajectory is re-derived here (counter
    streams make any node's draws reproducible in isolation).  The
    resulting timeline has exactly ``events_per_node[node_id]`` events.
    """
    if not 0 <= node_id < config.num_nodes:
        raise ConfigurationError(
            f"node {node_id} outside fleet of {config.num_nodes}")
    if plan is None:
        plan = prepare_links(config)
    timeline = Timeline()
    _simulate_node(config, plan, node_id, timeline=timeline)
    radio_dwell = timeline.time_s(
        kinds={CONTROL_RX, CONTROL_TX, PACKET_RX, PACKET_TX,
               PACKET_TIMEOUT})
    timeline.record(MCU_RUN, NODE_MCU, label="radio stack",
                    duration_s=radio_dwell, power_w=profiles.MCU_ACTIVE_W,
                    advance=False, t_start_s=0.0)
    return timeline


def _node_tail(key: bytes) -> str:
    """A node row's JSON after its id, from its packed spill-cache key.

    Floats are written by ``repr``, as ``json.dumps`` writes them.
    """
    code, fragments, attempts, timeouts, bank, duration, energy, events = \
        _NODE_TAIL_KEY.unpack(key)
    return (f'"outcome": {_OUTCOME_JSON[code]}, "fragments": {fragments}, '
            f'"attempts": {attempts}, "timeouts": {timeouts}, '
            f'"flash_bank": {bank}, "duration_s": {duration!r}, '
            f'"energy_j": {energy!r}, "events": {events}}}')


def write_fleet_spill(report: FleetReport, path,
                      buffer_rows: int = DEFAULT_BUFFER_ROWS
                      ) -> dict[str, int]:
    """Spill a fleet report to JSONL with a bounded in-memory buffer.

    Layout: one campaign header row, one row per node, then the rollup
    rows; every line is exactly ``json.dumps`` of its row.  Every field
    of a node row after the id is a function of the node's small
    counters, so a fleet repeats few distinct row tails: each is
    rendered once, keyed by the row's exact values (floats by their
    ``int64`` bits, so ``0.0`` and ``-0.0`` stay apart), and a node
    line is its id prefix plus that tail.  Resident at any time:
    ``buffer_rows`` lines plus one cached tail per distinct tail.
    Returns the writer's spill statistics (``rows_written``,
    ``max_buffered``) so callers can assert the buffer stayed bounded.

    Raises:
        ConfigurationError: when the report holds a NaN or infinite
            float, which JSON cannot encode; no file is created.
    """
    rollup_rows = report.rollup.to_rows()
    totals = [report.total_energy_j]
    totals += [row[name] for row in rollup_rows
               for name in ("time_s", "energy_j")]
    if not (np.isfinite(report.duration_s).all()
            and np.isfinite(report.energy_j).all()
            and np.isfinite(totals).all()):
        raise ConfigurationError(
            "fleet report holds NaN or infinite values; JSON cannot "
            "encode them")
    key_columns = (
        report.outcome_codes, report.fragments, report.attempts,
        report.timeouts, report.flash_bank,
        np.asarray(report.duration_s, dtype=np.float64).view(np.int64),
        np.asarray(report.energy_j, dtype=np.float64).view(np.int64),
        report.events_per_node)
    packed_row = np.dtype((np.void, _NODE_TAIL_KEY.size))
    tails: dict[bytes, str] = {}
    with StreamingLedgerWriter(path, buffer_rows=buffer_rows) as writer:
        writer.write_row({
            "record": "fleet-campaign",
            "num_nodes": report.num_nodes,
            "image_bytes": report.config.image_bytes,
            "seed": report.config.seed,
            "total_events": report.total_events,
            "total_energy_j": report.total_energy_j,
            "outcomes": report.outcome_counts(),
        })
        for start in range(0, report.num_nodes, buffer_rows):
            stop = start + buffer_rows
            rows = np.column_stack(
                [column[start:stop] for column in key_columns])
            keys = rows.view(packed_row).ravel().tolist()
            lines = []
            for node, key in zip(report.node_ids[start:stop].tolist(), keys):
                tail = tails.get(key)
                if tail is None:
                    tail = tails[key] = _node_tail(key)
                lines.append(f'{{"record": "node", "node": {node}, {tail}')
            writer.write_lines(lines)
        writer.write_rows(rollup_rows)
    return {"rows_written": writer.rows_written,
            "max_buffered": writer.max_buffered}
