"""Ablation: sequential OTA (the paper's protocol) vs broadcast + NACK.

Paper section 7 suggests broadcast MACs "to reduce programming time".
This bench runs both protocols over the same 20-node deployment and the
same BLE-sized image, and quantifies the campaign-time win and its cost
(every node's radio listens for the whole broadcast).
"""

import numpy as np
from _report import format_table, publish

from repro.fpga.bitstream import generate_bitstream
from repro.ota.ap import AccessPoint
from repro.ota.broadcast import simulate_broadcast_campaign
from repro.testbed.deployment import campus_deployment


def run_ablation(rng):
    deployment = campus_deployment(max_radius_m=900.0)
    image = generate_bitstream(0.03, seed=43)
    sequential = AccessPoint(deployment, image,
                             max_attempts_per_node=1).run_campaign(rng)
    broadcast = simulate_broadcast_campaign(deployment, image, rng)
    return sequential, broadcast


def test_ablation_broadcast_vs_sequential(benchmark, rng):
    sequential, broadcast = benchmark.pedantic(run_ablation, args=(rng,),
                                               rounds=1, iterations=1)
    seq_total = float(np.sum(sequential.durations_s()))
    seq_energy = sequential.total_node_energy_j() / 20.0
    rows = [
        ["campaign time (20 nodes)", f"{seq_total:.0f} s",
         f"{broadcast.total_time_s:.0f} s"],
        ["per-node energy", f"{seq_energy * 1e3:.0f} mJ",
         f"{broadcast.per_node_energy_j * 1e3:.0f} mJ"],
        ["data packets on air",
         f"{sum(s.report.transfer.packets_sent for s in sequential.sessions if s.report)}",
         f"{broadcast.broadcast_packets}"],
        ["nodes completed", "20/20",
         f"{broadcast.completed_nodes}/{broadcast.node_count}"],
    ]
    publish("ablation_broadcast", format_table(
        "Ablation: sequential (paper) vs broadcast+NACK OTA",
        ["Metric", "Sequential", "Broadcast"], rows))

    assert broadcast.completed_nodes == broadcast.node_count
    # The headline: campaign time collapses by roughly the node count.
    speedup = seq_total / broadcast.total_time_s
    assert speedup > 5.0
    # The cost: each broadcast node listens the whole campaign, so its
    # energy is no longer independent of fleet size - the trade-off a
    # testbed operator must weigh.
    assert broadcast.broadcast_packets < 3 * broadcast.fragments
