"""Built-in workload adapters: every engine behind one registry.

Each adapter wraps one engine the CLI used to call directly — platform
summary, power table, LoRa/BLE sweeps, the campus OTA campaign, the
fleet engine and the ADR study — behind the uniform
``(config, seed, emit) -> (payload, virtual_cost_s)`` contract of
:class:`~repro.service.registry.WorkloadRegistry`.

Two invariants matter here:

* **Draw-sequence parity.**  An adapter reproduces its legacy CLI
  code path *exactly* — same generator construction point
  (:func:`repro.seeding.job_rng`), same engine call order, same draw
  sequence — so a service-routed job is bit-identical to the direct
  library call it replaced (pinned in ``tests/test_service_parity.py``).
* **Deterministic virtual cost.**  The cost an adapter reports is a
  pure function of its results (simulated campaign spans, trial
  counts), never of wall time, so the service's virtual clock is
  replayable.

Engines are called directly here and nowhere else under
``repro/service/`` or the CLI; the pinned service digests, which hash
the registry's invocation counters, catch a call around it.  Each
adapter imports its engine inside its own body, so ``import
repro.service`` loads no engine until a job of that kind runs.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.seeding import job_rng
from repro.service.registry import ProgressEmit, WorkloadRegistry

ADMIN_COST_S = 1e-3
"""Virtual cost of table-lookup workloads (info, power)."""

SWEEP_TRIAL_COST_S = 1e-4
"""Virtual cost charged per sweep trial (symbol/bit/packet)."""

ADR_NODE_COST_S = 1.0
"""Virtual cost charged per deployment node in the ADR study."""

#: FPGA utilization per campaign image label (the legacy CLI table).
CAMPAIGN_IMAGE_UTILIZATION = {"lora": 0.1125, "ble": 0.03}

CAMPAIGN_BITSTREAM_SEED = 42
"""The legacy CLI's fixed bitstream-content seed (not the job seed)."""


class _Config:
    """Typed reader over a job's config mapping with typo detection."""

    def __init__(self, kind: str, config: Mapping[str, Any]) -> None:
        self._kind = kind
        self._config = dict(config)
        self._seen: set[str] = set()

    def take(self, name: str, default: Any,
             convert: Callable[[Any], Any] | None = None) -> Any:
        """The value of ``name`` passed through ``convert``.

        A missing key (or a null where ``default`` is None) reads as
        ``default`` as is.

        Raises:
            ConfigurationError: naming the workload, the key and the
                value when ``convert`` rejects the value.
        """
        self._seen.add(name)
        value = self._config.get(name, default)
        if convert is None or value is default:
            return value
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"workload {self._kind!r}: config key {name!r} must be "
                f"{convert.__name__}, got {value!r}") from exc

    def finish(self) -> None:
        unknown = set(self._config) - self._seen
        if unknown:
            raise ConfigurationError(
                f"unknown config keys for workload {self._kind!r}: "
                f"{sorted(unknown)}")


def run_info(config: Mapping[str, Any], seed: int,
             emit: ProgressEmit) -> tuple[dict[str, Any], float]:
    """Platform summary: cost, FPGA budgets, operation timings."""
    from repro.core.timing import platform_timings
    from repro.fpga import LFE5U_25F_LUTS, lora_rx_design, lora_tx_design
    from repro.platforms import total_cost_usd

    reader = _Config("info", config)
    spreading_factor = reader.take("spreading_factor", 8, int)
    reader.finish()
    emit("platform tables")
    payload = {
        "unit_cost_usd": float(total_cost_usd()),
        "fpga_luts": int(LFE5U_25F_LUTS),
        "modem_sf": int(spreading_factor),
        "lora_tx_luts": int(lora_tx_design(spreading_factor).luts),
        "lora_rx_luts": int(lora_rx_design(spreading_factor).luts),
        "timings_ms": [[operation, float(milliseconds)]
                       for operation, milliseconds
                       in platform_timings().as_table()],
    }
    return payload, ADMIN_COST_S


def run_power(config: Mapping[str, Any], seed: int,
              emit: ProgressEmit) -> tuple[dict[str, Any], float]:
    """Battery power per platform state (the legacy ``repro power``)."""
    from repro.power.pmu import PlatformState, PowerManagementUnit

    reader = _Config("power", config)
    tx_power_dbm = reader.take("tx_power_dbm", 14.0, float)
    reader.finish()
    pmu = PowerManagementUnit()
    rows = [(PlatformState.SLEEP, {}),
            (PlatformState.MCU_ONLY, {}),
            (PlatformState.IQ_TX, {"tx_power_dbm": tx_power_dbm}),
            (PlatformState.IQ_RX, {}),
            (PlatformState.CONCURRENT_RX, {}),
            (PlatformState.BACKBONE_RX, {}),
            (PlatformState.BACKBONE_TX, {})]
    table = []
    for state, kwargs in rows:
        pmu.enter_state(state, **kwargs)
        table.append([state.value, float(pmu.battery_power_w())])
    emit(f"{len(table)} platform states")
    return {"states": table, "tx_power_dbm": tx_power_dbm}, ADMIN_COST_S


def _sweep_rssi_grid(start: float, stop: float,
                     step: float) -> np.ndarray:
    """The legacy CLI's descending RSSI grid (inclusive of ``stop``).

    Raises:
        ConfigurationError: for a non-positive ``step_db``, or a grid
            that has no points or that NumPy cannot build.
    """
    if not step > 0:
        raise ConfigurationError(f"step_db must be positive, got {step!r}")
    try:
        grid = np.arange(start, stop - 0.5, -step)
    except (ValueError, MemoryError) as exc:
        raise ConfigurationError(
            f"cannot build the RSSI grid from start_dbm {start!r} to "
            f"stop_dbm {stop!r}: {exc}") from exc
    if not grid.size:
        raise ConfigurationError(
            f"start_dbm {start!r} is below stop_dbm {stop!r}: no points")
    return grid


def run_sweep_lora(config: Mapping[str, Any], seed: int,
                   emit: ProgressEmit) -> tuple[dict[str, Any], float]:
    """Chirp SER vs RSSI sweep (the legacy ``repro sweep-lora``)."""
    from repro.core.sweeps import lora_symbol_error_rate
    from repro.phy.lora import LoRaParams

    reader = _Config("sweep-lora", config)
    spreading_factor = reader.take("spreading_factor", 8, int)
    bandwidth_khz = reader.take("bandwidth_khz", 125.0, float)
    start = reader.take("start_dbm", -110.0, float)
    stop = reader.take("stop_dbm", -134.0, float)
    step = reader.take("step_db", 3.0, float)
    symbols = reader.take("symbols", 150, int)
    reader.finish()
    if symbols < 1:
        raise ConfigurationError(f"symbols must be at least 1, got {symbols}")
    grid = _sweep_rssi_grid(start, stop, step)

    rng = job_rng(seed)
    params = LoRaParams(spreading_factor, bandwidth_khz * 1e3)
    points = []
    for rssi in grid:
        point = lora_symbol_error_rate(params, float(rssi), symbols, rng)
        points.append({"rssi_dbm": float(point.rssi_dbm),
                       "error_rate": float(point.error_rate),
                       "trials": int(point.trials)})
        emit(f"rssi {point.rssi_dbm:.1f} dBm")
    payload = {"describe": params.describe(), "symbols": symbols,
               "points": points}
    cost = sum(point["trials"] for point in points) * SWEEP_TRIAL_COST_S
    return payload, cost


def run_sweep_ble(config: Mapping[str, Any], seed: int,
                  emit: ProgressEmit) -> tuple[dict[str, Any], float]:
    """BLE beacon BER vs RSSI sweep (the legacy ``repro sweep-ble``)."""
    from repro.core.sweeps import ble_beacon_error_rate

    reader = _Config("sweep-ble", config)
    start = reader.take("start_dbm", -80.0, float)
    stop = reader.take("stop_dbm", -98.0, float)
    step = reader.take("step_db", 3.0, float)
    packets = reader.take("packets", 8, int)
    reader.finish()
    if packets < 1:
        raise ConfigurationError(f"packets must be at least 1, got {packets}")
    grid = _sweep_rssi_grid(start, stop, step)

    rng = job_rng(seed)
    points = []
    for rssi in grid:
        point = ble_beacon_error_rate(float(rssi), packets, rng)
        points.append({"rssi_dbm": float(point.rssi_dbm),
                       "error_rate": float(point.error_rate),
                       "trials": int(point.trials)})
        emit(f"rssi {point.rssi_dbm:.1f} dBm")
    payload = {"packets": packets, "points": points}
    cost = sum(point["trials"] for point in points) * SWEEP_TRIAL_COST_S
    return payload, cost


def run_testbed_campaign(config: Mapping[str, Any], seed: int,
                         emit: ProgressEmit
                         ) -> tuple[dict[str, Any], float]:
    """Campus OTA programming campaign (the legacy ``repro campaign``)."""
    from repro.fpga import generate_bitstream
    from repro.ota import AccessPoint
    from repro.testbed import campus_deployment

    reader = _Config("campaign", config)
    image_label = reader.take("image", "ble", str)
    nodes = reader.take("nodes", 20, int)
    reader.finish()
    if image_label not in CAMPAIGN_IMAGE_UTILIZATION:
        raise ConfigurationError(
            f"unknown campaign image {image_label!r}; choose from "
            f"{sorted(CAMPAIGN_IMAGE_UTILIZATION)}")

    rng = job_rng(seed)
    deployment = campus_deployment(num_nodes=nodes)
    utilization = CAMPAIGN_IMAGE_UTILIZATION[image_label]
    image = generate_bitstream(utilization, seed=CAMPAIGN_BITSTREAM_SEED)
    emit(f"programming {nodes} nodes with the {image_label} image")
    campaign = AccessPoint(deployment, image,
                           max_attempts_per_node=1).run_campaign(rng)
    durations = campaign.durations_s()
    emit(f"programmed {durations.size}/{nodes} nodes")
    payload = {
        "image": image_label,
        "image_kib": len(image) // 1024,
        "nodes": nodes,
        "programmed": int(durations.size),
        "durations_s": [float(value) for value in durations],
        "mean_duration_s": float(campaign.mean_duration_s()),
        "min_duration_s": float(durations.min()),
        "max_duration_s": float(durations.max()),
        "total_node_energy_j": float(campaign.total_node_energy_j()),
    }
    cost = float(np.sum(durations))
    return payload, cost


def run_fleet(config: Mapping[str, Any], seed: int,
              emit: ProgressEmit) -> tuple[dict[str, Any], float]:
    """Vectorized fleet campaign (the legacy ``repro fleet``)."""
    from repro.ota.fleet import (
        FleetBurstLoss,
        FleetCampaignConfig,
        run_fleet_campaign_sharded,
        write_fleet_spill,
    )

    reader = _Config("fleet", config)
    nodes = reader.take("nodes", 100_000, int)
    image_bytes = reader.take("image_bytes", 1800, int)
    shards = reader.take("shards", 1, int)
    processes = reader.take("processes", None, int)
    loss = reader.take("loss", False, bool)
    verify_failure_prob = reader.take("verify_failure_prob", 0.0, float)
    spill_path = reader.take("spill", None, str)
    reader.finish()

    fleet_config = FleetCampaignConfig(
        num_nodes=nodes, image_bytes=image_bytes, seed=seed,
        loss=FleetBurstLoss() if loss else None,
        verify_failure_prob=verify_failure_prob)
    emit(f"stepping {nodes} nodes x {fleet_config.num_fragments} "
         f"fragments across {shards} shard(s)")
    report = run_fleet_campaign_sharded(
        fleet_config, shards=shards,
        processes=processes)
    payload = {
        "nodes": nodes,
        "image_bytes": image_bytes,
        "num_fragments": int(fleet_config.num_fragments),
        "shards": shards,
        # Ordered pairs, not a mapping: canonical JSON key-sorts
        # mappings, and the CLI must print outcomes in engine order.
        "outcomes": [[label, int(count)] for label, count
                     in report.outcome_counts().items()],
        "total_events": int(report.total_events),
        "total_energy_j": float(report.total_energy_j),
    }
    if spill_path is not None:
        stats = write_fleet_spill(report, spill_path)
        payload["spill"] = {"path": str(spill_path),
                            "rows_written": int(stats["rows_written"]),
                            "max_buffered": int(stats["max_buffered"])}
        emit(f"spilled {stats['rows_written']} rows")
    cost = float(np.max(report.duration_s))
    return payload, cost


def run_adr(config: Mapping[str, Any], seed: int,
            emit: ProgressEmit) -> tuple[dict[str, Any], float]:
    """Rate-adaptation study (the legacy ``repro adr``)."""
    from repro.protocols.lorawan.adr import fixed_rate_cost, simulate_adr
    from repro.testbed import campus_deployment

    reader = _Config("adr", config)
    reader.finish()

    rng = job_rng(seed)
    deployment = campus_deployment()
    _, baseline = fixed_rate_cost(12, 14.0)
    rows = []
    for node in deployment.nodes:
        path_loss = (deployment.ap_tx_power_dbm
                     + deployment.ap_antenna_gain_dbi
                     - deployment.downlink_rssi_dbm(node, rng))
        result = simulate_adr(path_loss, rng)
        saving = baseline / result.energy_j_per_packet
        rows.append({
            "node_id": int(node.node_id),
            "path_loss_db": float(path_loss),
            "final_sf": int(result.final_sf),
            "final_tx_power_dbm": float(result.final_tx_power_dbm),
            "saving": float(saving),
            "delivery_ratio": float(result.delivery_ratio),
        })
        emit(f"node {node.node_id} converged SF{result.final_sf}")
    payload = {"baseline_energy_j_per_packet": float(baseline),
               "nodes": rows}
    return payload, len(rows) * ADR_NODE_COST_S


#: Kind -> adapter, in registration order.
BUILTIN_WORKLOADS: tuple[tuple[str, Callable], ...] = (
    ("info", run_info),
    ("power", run_power),
    ("sweep-lora", run_sweep_lora),
    ("sweep-ble", run_sweep_ble),
    ("campaign", run_testbed_campaign),
    ("fleet", run_fleet),
    ("adr", run_adr),
)


def default_registry() -> WorkloadRegistry:
    """A registry with every built-in workload registered."""
    registry = WorkloadRegistry()
    for kind, runner in BUILTIN_WORKLOADS:
        registry.register(kind, runner)
    return registry
