"""Reproduce paper section 5.3 energy figures: OTA update cost.

The backbone radio and MCU consume ~6144 mJ per LoRa FPGA update and
~2342 mJ per BLE update; a 1000 mAh LiPo funds ~2100 / ~5600 updates,
and at one update per day the OTA subsystem's average power is
71 / 27 uW.
"""

import numpy as np
from _report import format_table, publish

from repro.fpga.bitstream import generate_bitstream
from repro.ota.mac import OtaLink
from repro.ota.updater import OtaUpdater
from repro.power.battery import LIPO_1000MAH

PAPER = {
    "LoRa": {"energy_mj": 6144.0, "updates": 2100, "daily_uw": 71.0},
    "BLE": {"energy_mj": 2342.0, "updates": 5600, "daily_uw": 27.0},
}


def run_ota_energy(rng):
    images = {"LoRa": generate_bitstream(0.1125, seed=42),
              "BLE": generate_bitstream(0.03, seed=43)}
    results = {}
    for label, image in images.items():
        report = OtaUpdater().update(
            image, OtaLink(downlink_rssi_dbm=-100.0), rng)
        energy = report.node_energy_j
        results[label] = {
            "energy_mj": energy * 1e3,
            "updates": LIPO_1000MAH.operations_supported(energy),
            "daily_uw": energy / 86400.0 * 1e6,
        }
    return results


def test_ota_update_energy(benchmark, rng):
    results = benchmark.pedantic(run_ota_energy, args=(rng,), rounds=1,
                                 iterations=1)
    rows = []
    for label in ("LoRa", "BLE"):
        measured, paper = results[label], PAPER[label]
        rows.append([
            label,
            f"{measured['energy_mj']:.0f} / {paper['energy_mj']:.0f}",
            f"{measured['updates']} / {paper['updates']}",
            f"{measured['daily_uw']:.0f} / {paper['daily_uw']:.0f}",
        ])
    publish("ota_energy", format_table(
        "Section 5.3: OTA Energy (measured / paper)",
        ["Image", "Energy (mJ)", "Updates on 1000 mAh",
         "Avg power at 1/day (uW)"], rows))

    for label in ("LoRa", "BLE"):
        measured, paper = results[label], PAPER[label]
        # Within 2x of the paper's measured energy (our stop-and-wait
        # MAC keeps the node's radio on longer than their pipeline did).
        ratio = measured["energy_mj"] / paper["energy_mj"]
        assert 0.5 < ratio < 2.0, label
        assert measured["updates"] > 1000, label
        # Daily OTA remains a rounding error against the battery.
        assert measured["daily_uw"] < 150.0, label
    # Ordering holds: the LoRa image costs more than the BLE image.
    assert results["LoRa"]["energy_mj"] > results["BLE"]["energy_mj"]
