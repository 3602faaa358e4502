"""Reproduce paper Fig. 14: OTA programming time CDF over the testbed.

An AP with a patch antenna (SF8/BW500/CR6 at 14 dBm) programs the 20
campus nodes one by one with three images: the LoRa FPGA bitstream
(compresses to ~99 kB -> ~150 s average), the BLE FPGA bitstream
(~40 kB -> ~59 s) and the shared MCU program (~24 kB -> ~39 s).  We run
the full pipeline - compression, stop-and-wait MAC with per-packet
fading, flash staging, decompression, reconfiguration - for every node
and report the resulting CDFs.
"""

import numpy as np
from _report import format_table, publish

from repro.fpga.bitstream import generate_bitstream, generate_mcu_program
from repro.ota.ap import AccessPoint
from repro.testbed.deployment import campus_deployment

PAPER_MEAN_S = {"FPGA: LoRa": 150.0, "FPGA: BLE": 59.0, "MCU": 39.0}


def run_fig14(rng):
    deployment = campus_deployment()
    images = {
        "FPGA: LoRa": (generate_bitstream(0.1125, seed=42), True),
        "FPGA: BLE": (generate_bitstream(0.03, seed=43), True),
        "MCU": (generate_mcu_program(seed=44), False),
    }
    campaigns = {}
    for label, (image, is_fpga) in images.items():
        campaigns[label] = AccessPoint(
            deployment, image, max_attempts_per_node=1).run_campaign(
                rng, is_fpga_image=is_fpga)
    return campaigns


def test_fig14_ota_programming_cdf(benchmark, rng):
    campaigns = benchmark.pedantic(run_fig14, args=(rng,), rounds=1,
                                   iterations=1)
    rows = []
    for label, campaign in campaigns.items():
        durations = campaign.durations_s()
        rows.append([
            label,
            f"{len(durations)}/20",
            f"{np.min(durations) / 60:.2f}",
            f"{np.median(durations) / 60:.2f}",
            f"{np.max(durations) / 60:.2f}",
            f"{campaign.mean_duration_s():.0f} s",
            f"{PAPER_MEAN_S[label]:.0f} s",
        ])
    publish("fig14_ota_cdf", format_table(
        "Fig. 14: OTA Programming Time (20-node campus testbed)",
        ["Image", "Programmed", "Min (min)", "Median (min)", "Max (min)",
         "Mean", "Paper mean"], rows))

    for label, campaign in campaigns.items():
        # Nearly every node programs successfully.
        assert campaign.success_count >= 18, label
        # Mean within 35 % of the paper's average.
        mean = campaign.mean_duration_s()
        assert abs(mean - PAPER_MEAN_S[label]) / PAPER_MEAN_S[label] \
            < 0.35, label
        # The CDF has spread: the slowest node pays for retransmissions.
        durations = campaign.durations_s()
        assert np.max(durations) > np.min(durations)
    # Ordering: LoRa image slowest, MCU fastest (file size ordering).
    assert campaigns["FPGA: LoRa"].mean_duration_s() > \
        campaigns["FPGA: BLE"].mean_duration_s() > \
        campaigns["MCU"].mean_duration_s()
