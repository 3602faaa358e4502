"""Command-line interface for the tinySDR reproduction.

Gives shell access to the experiments a testbed operator runs most:

* ``repro info`` - platform summary (timings, cost, FPGA budgets).
* ``repro power`` - battery power in every platform state.
* ``repro sweep-lora`` - chirp SER vs RSSI for a LoRa configuration.
* ``repro sweep-ble`` - BLE beacon BER vs RSSI.
* ``repro campaign`` - OTA-program a simulated campus testbed.
* ``repro fleet`` - vectorized fleet-scale OTA campaign (100k+ nodes).
* ``repro adr`` - rate-adaptation study across the deployment.
* ``repro service`` - submit one job through the full resilient
  service stack (optionally journaled for crash recovery).

Install the package and run ``python -m repro.cli <command>``.

Every subcommand is a *thin client* of the campaign service: it builds
a typed :class:`~repro.service.JobSpec`, submits it to a
:class:`~repro.service.CampaignService`, and renders the resulting
payload.  No engine is imported here — every engine call goes through
the service's workload registry, whose invocation counters the pinned
service digests hash — so anything the CLI can do, a queued
multi-tenant job can do identically (and dedupes through the
content-addressed result cache when seeded the same way).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.service import (
    JOB_COMPLETED,
    CampaignService,
    Job,
    JobJournal,
    JobSpec,
)

_FAILURE_EVENT_TAIL = 5
"""Trailing ``service.*`` events echoed when a job does not complete."""


def _run_job(kind: str, config: dict,
             seed: int = 0) -> tuple[CampaignService, Job]:
    """Submit one spec to a fresh service and drain the queue.

    The CLI is a single-shot client: one process, one service, one job.
    A failed or rejected job surfaces its reason on stderr and the
    caller maps it to exit code 1.
    """
    service = CampaignService()
    job = service.submit_and_run(
        JobSpec(kind=kind, config=config, seed=seed))
    return service, job


def _payload(service: CampaignService, job: Job) -> dict | None:
    """The completed job's payload, or ``None`` after printing why not.

    A failed, rejected or quarantined job prints a one-line reason plus
    the tail of its ``service.*`` event stream, so the operator sees
    *how* it died (retries, watchdog resets, breaker trips) without
    digging through a timeline dump.
    """
    if job.state != JOB_COMPLETED or job.result is None:
        print(f"repro: job {job.state}: {job.detail}", file=sys.stderr)
        for event in service.job_events(job.job_id)[-_FAILURE_EVENT_TAIL:]:
            print(f"repro:   [{event.t_start_s:.6f}s] {event.kind}: "
                  f"{event.label}", file=sys.stderr)
        return None
    return job.result.payload_mapping()


def _cmd_info(args: argparse.Namespace) -> int:
    payload = _payload(*_run_job("info", {}))
    if payload is None:
        return 1
    print("tinySDR platform summary")
    print(f"  unit cost (1000 units):   ${payload['unit_cost_usd']:.2f}")
    print(f"  FPGA:                     LFE5U-25F, "
          f"{payload['fpga_luts']} LUTs")
    print(f"  LoRa modem (SF{payload['modem_sf']}):         "
          f"TX {payload['lora_tx_luts']} / "
          f"RX {payload['lora_rx_luts']} LUTs")
    print("  operation timings:")
    for operation, milliseconds in payload["timings_ms"]:
        print(f"    {operation:26s} {milliseconds:8.3f} ms")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    payload = _payload(*_run_job(
        "power", {"tx_power_dbm": args.tx_power}))
    if payload is None:
        return 1
    print(f"{'state':16s} {'battery power':>14s}")
    for state, power in payload["states"]:
        unit = "uW" if power < 1e-3 else "mW"
        value = power * (1e6 if unit == "uW" else 1e3)
        print(f"{state:16s} {value:10.1f} {unit}")
    return 0


def _cmd_sweep_lora(args: argparse.Namespace) -> int:
    payload = _payload(*_run_job(
        "sweep-lora",
        {"spreading_factor": args.sf, "bandwidth_khz": args.bandwidth,
         "start_dbm": args.start, "stop_dbm": args.stop,
         "step_db": args.step, "symbols": args.symbols},
        seed=args.seed))
    if payload is None:
        return 1
    print(f"chirp SER vs RSSI for {payload['describe']} "
          f"({payload['symbols']} symbols/point)")
    for point in payload["points"]:
        bar = "#" * int(point["error_rate"] * 40)
        print(f"  {point['rssi_dbm']:7.1f} dBm  "
              f"{point['error_rate'] * 100:6.2f}%  {bar}")
    return 0


def _cmd_sweep_ble(args: argparse.Namespace) -> int:
    payload = _payload(*_run_job(
        "sweep-ble",
        {"start_dbm": args.start, "stop_dbm": args.stop,
         "step_db": args.step, "packets": args.packets},
        seed=args.seed))
    if payload is None:
        return 1
    print(f"BLE beacon BER vs RSSI ({payload['packets']} packets/point)")
    for point in payload["points"]:
        marker = " <-- 1e-3" if point["error_rate"] > 1e-3 else ""
        print(f"  {point['rssi_dbm']:7.1f} dBm  "
              f"BER {point['error_rate']:.5f}{marker}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    payload = _payload(*_run_job(
        "campaign", {"image": args.image, "nodes": args.nodes},
        seed=args.seed))
    if payload is None:
        return 1
    print(f"programming {payload['nodes']} nodes with the "
          f"{payload['image']} image ({payload['image_kib']} kB raw)...")
    print(f"  programmed {payload['programmed']}/{payload['nodes']} nodes")
    print(f"  mean {payload['mean_duration_s']:.0f} s, "
          f"min {payload['min_duration_s']:.0f} s, "
          f"max {payload['max_duration_s']:.0f} s")
    print(f"  fleet energy {payload['total_node_energy_j']:.0f} J")
    return 0 if payload["programmed"] == payload["nodes"] else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    config = {"nodes": args.nodes, "image_bytes": args.image_bytes,
              "shards": args.shards, "processes": args.processes,
              "loss": args.loss,
              "verify_failure_prob": args.verify_failure_prob,
              "spill": args.spill}
    payload = _payload(*_run_job("fleet", config, seed=args.seed))
    if payload is None:
        return 1
    print(f"fleet campaign: {payload['nodes']} nodes, "
          f"{payload['num_fragments']} fragments x "
          f"{payload['image_bytes']} B image, "
          f"seed {args.seed}, {payload['shards']} shard(s)")
    for label, count in payload["outcomes"]:
        print(f"  {label:12s} {count:>9d}")
    print(f"  {'events':12s} {payload['total_events']:>9d}")
    print(f"  {'energy':12s} {payload['total_energy_j']:>11.1f} J")
    if "spill" in payload:
        spill = payload["spill"]
        print(f"  spilled {spill['rows_written']} rows to "
              f"{spill['path']} ({spill['max_buffered']} max resident)")
    abandoned = dict(payload["outcomes"])["abandoned"]
    return 0 if abandoned < payload["nodes"] else 1


def _cmd_service(args: argparse.Namespace) -> int:
    try:
        config = json.loads(args.config)
    except ValueError as exc:
        print(f"repro: --config is not valid JSON: {exc}",
              file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print(f"repro: --config must be a JSON object, "
              f"got {type(config).__name__}", file=sys.stderr)
        return 1
    try:
        journal = JobJournal(args.journal) if args.journal else None
        service = CampaignService(journal=journal)
        job = service.submit_and_run(
            JobSpec(kind=args.kind, config=config, seed=args.seed))
    except ReproError as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    payload = _payload(service, job)
    if payload is None:
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    stats = service.stats()
    print(f"repro: job{job.job_id} completed "
          f"{'from cache' if job.cache_hit else 'by the engine'} at "
          f"t={job.completed_at_s:.6f}s "
          f"(invocations: {stats.invocations})", file=sys.stderr)
    return 0


def _cmd_adr(args: argparse.Namespace) -> int:
    payload = _payload(*_run_job("adr", {}, seed=args.seed))
    if payload is None:
        return 1
    print(f"{'node':>4s} {'path loss':>10s} {'converged':>14s} "
          f"{'saving':>8s} {'delivery':>9s}")
    for row in payload["nodes"]:
        print(f"{row['node_id']:4d} {row['path_loss_db']:7.0f} dB "
              f"SF{row['final_sf']}/{row['final_tx_power_dbm']:4.0f} dBm "
              f"{row['saving']:7.1f}x {row['delivery_ratio']:9.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="tinySDR reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="platform summary").set_defaults(
        func=_cmd_info)

    power = sub.add_parser("power", help="power per platform state")
    power.add_argument("--tx-power", type=float, default=14.0,
                       help="radio output power for TX states (dBm)")
    power.set_defaults(func=_cmd_power)

    lora = sub.add_parser("sweep-lora", help="LoRa SER vs RSSI sweep")
    lora.add_argument("--sf", type=int, default=8)
    lora.add_argument("--bandwidth", type=float, default=125.0,
                      help="kHz")
    lora.add_argument("--start", type=float, default=-110.0)
    lora.add_argument("--stop", type=float, default=-134.0)
    lora.add_argument("--step", type=float, default=3.0)
    lora.add_argument("--symbols", type=int, default=150)
    lora.add_argument("--seed", type=int, default=0)
    lora.set_defaults(func=_cmd_sweep_lora)

    ble = sub.add_parser("sweep-ble", help="BLE BER vs RSSI sweep")
    ble.add_argument("--start", type=float, default=-80.0)
    ble.add_argument("--stop", type=float, default=-98.0)
    ble.add_argument("--step", type=float, default=3.0)
    ble.add_argument("--packets", type=int, default=8)
    ble.add_argument("--seed", type=int, default=0)
    ble.set_defaults(func=_cmd_sweep_ble)

    campaign = sub.add_parser("campaign", help="simulate an OTA campaign")
    campaign.add_argument("--image", choices=("lora", "ble"),
                          default="ble")
    campaign.add_argument("--nodes", type=int, default=20)
    campaign.add_argument("--seed", type=int, default=0)
    campaign.set_defaults(func=_cmd_campaign)

    fleet = sub.add_parser("fleet",
                           help="vectorized fleet-scale OTA campaign")
    fleet.add_argument("--nodes", type=int, default=100_000)
    fleet.add_argument("--image-bytes", type=int, default=1800,
                       help="update image size (fragmented for transfer)")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--shards", type=int, default=1,
                       help="contiguous node ranges simulated separately "
                            "(results are shard-count invariant)")
    fleet.add_argument("--processes", type=int, default=None,
                       help="multiprocessing pool size (default: "
                            "run shards sequentially in-process)")
    fleet.add_argument("--loss", action="store_true",
                       help="enable the bursty-loss downlink channel")
    fleet.add_argument("--verify-failure-prob", type=float, default=0.0,
                       help="post-transfer image verification failure "
                            "probability (drives rollbacks)")
    fleet.add_argument("--spill", default=None, metavar="PATH",
                       help="stream the campaign report to this JSONL "
                            "file via the bounded-memory writer")
    fleet.set_defaults(func=_cmd_fleet)

    adr = sub.add_parser("adr", help="rate-adaptation study")
    adr.add_argument("--seed", type=int, default=0)
    adr.set_defaults(func=_cmd_adr)

    service = sub.add_parser(
        "service",
        help="submit one job through the resilient campaign service")
    service.add_argument("--kind", required=True,
                         help="registered workload kind (e.g. info)")
    service.add_argument("--config", default="{}",
                         help="job configuration as a JSON object")
    service.add_argument("--seed", type=int, default=0)
    service.add_argument("--journal", default=None, metavar="PATH",
                         help="write-ahead job journal for crash "
                              "recovery (JSONL)")
    service.set_defaults(func=_cmd_service)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
