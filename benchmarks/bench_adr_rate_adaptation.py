"""Research question (paper section 7): are there benefits of rate
adaptation?

Runs the LoRaWAN ADR algorithm for every node of the campus deployment
and compares converged airtime/energy against the fixed-SF12 baseline a
network without adaptation would use - one of the PHY/MAC studies the
paper says tinySDR exists to enable.
"""

import numpy as np
from _report import format_table, publish

from repro.protocols.lorawan.adr import fixed_rate_cost, simulate_adr
from repro.testbed.deployment import campus_deployment


def run_adr(rng):
    deployment = campus_deployment()
    results = []
    for node in deployment.nodes:
        path_loss = (deployment.ap_tx_power_dbm
                     + deployment.ap_antenna_gain_dbi
                     - deployment.downlink_rssi_dbm(node, rng))
        results.append((node.node_id, node.distance_m, path_loss,
                        simulate_adr(path_loss, rng)))
    return results


def test_adr_rate_adaptation(benchmark, rng):
    results = benchmark.pedantic(run_adr, args=(rng,), rounds=1,
                                 iterations=1)
    baseline_airtime, baseline_energy = fixed_rate_cost(12, 14.0)
    rows = []
    for node_id, distance, path_loss, result in sorted(
            results, key=lambda r: r[1]):
        rows.append([
            str(node_id), f"{distance:.0f} m", f"{path_loss:.0f} dB",
            f"SF{result.final_sf}/{result.final_tx_power_dbm:.0f} dBm",
            f"{result.airtime_s_per_packet * 1e3:.0f} ms",
            f"{baseline_energy / result.energy_j_per_packet:.1f}x",
            f"{result.delivery_ratio:.2f}",
        ])
    publish("adr_rate_adaptation", format_table(
        "Research study: ADR vs fixed SF12/14 dBm "
        f"(baseline {baseline_airtime * 1e3:.0f} ms, "
        f"{baseline_energy * 1e3:.0f} mJ per packet)",
        ["Node", "Distance", "Path loss", "Converged", "Airtime",
         "Energy saving", "Delivery"], rows))

    savings = [baseline_energy / r.energy_j_per_packet
               for _, _, _, r in results]
    deliveries = [r.delivery_ratio for _, _, _, r in results]
    # Every node keeps delivering after convergence.
    assert min(deliveries) > 0.75
    # Most of the fleet saves heavily; the fleet-wide mean saving is
    # large - the answer to the paper's research question is "yes".
    assert np.median(savings) > 5.0
    # Nodes converge to different rates: adaptation is doing real work.
    final_sfs = {r.final_sf for _, _, _, r in results}
    assert len(final_sfs) >= 2
