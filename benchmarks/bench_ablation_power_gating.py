"""Ablation: what the granular power-domain design buys (paper 3.3).

The paper argues the seven-domain PMU is the key to the 30 uW sleep
floor: "there exists a trade-off between the granularity of power
control and the price/complexity of a design."  This bench measures
sleep power under three alternatives:

* **tinySDR (7 domains)** - everything but the MCU rail gated off.
* **coarse gating** - one shared gateable rail: sleeping still leaves
  every component's standby draw on the rail (radios idle, FPGA
  configured, flash standby), because nothing can be switched
  individually.
* **no gating** - the USRP-class approach: "sleep" is just idling, the
  radio and FPGA stay powered.
"""

from _report import format_table, publish

from repro.fpga.resources import lora_rx_design
from repro.power import profiles
from repro.power.battery import LIPO_1000MAH
from repro.power.pmu import PlatformState, PowerManagementUnit


def run_ablation():
    pmu = PowerManagementUnit()
    pmu.enter_state(PlatformState.SLEEP)
    fine = pmu.battery_power_w()

    # Coarse: components stay powered at standby/idle draw.
    radio_standby = 0.0003           # AT86RF215 TRXOFF
    backbone_standby = 0.0016        # SX1276 idle
    fpga_static = profiles.FPGA_STATIC_W
    flash_standby = profiles.FLASH_STANDBY_W
    coarse = (profiles.MCU_LPM3_W + radio_standby + backbone_standby
              + fpga_static + flash_standby
              + profiles.BOARD_LEAKAGE_W) / 0.9

    # None: receive chain simply left running.
    pmu.enter_state(PlatformState.IQ_RX,
                    fpga_luts=lora_rx_design(8).luts)
    ungated = pmu.battery_power_w()
    return fine, coarse, ungated


def test_ablation_power_gating(benchmark):
    fine, coarse, ungated = benchmark(run_ablation)
    rows = []
    for label, power in (("tinySDR: 7 domains", fine),
                         ("coarse: 1 gateable rail", coarse),
                         ("none: idle = 'sleep'", ungated)):
        years = LIPO_1000MAH.lifetime_years(power)
        rows.append([label, f"{power * 1e6:.0f} uW", f"{years:.2f} years"])
    publish("ablation_power_gating", format_table(
        "Ablation: power-gating granularity vs sleep floor",
        ["Design", "Sleep power", "1000 mAh lifetime (sleep only)"],
        rows))

    assert fine < 35e-6
    # Coarse gating is an order of magnitude worse...
    assert coarse > 10 * fine
    # ...and no gating is three-plus orders worse (the Table 1 story).
    assert ungated > 1000 * fine
