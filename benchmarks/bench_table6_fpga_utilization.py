"""Reproduce paper Table 6: FPGA utilization for the LoRa protocol.

LUT usage of the modulator (SF-independent, 976 LUTs / 4 %) and the
demodulator (2656-2818 LUTs / 10-11 %, growing with the FFT) across
SF 6-12, plus the paper's conclusion that plenty of fabric remains for
custom logic.
"""

from _report import format_table, publish

from repro.fpga.resources import (
    LFE5U_25F_LUTS,
    ble_tx_design,
    concurrent_rx_design,
    lora_rx_design,
    lora_tx_design,
    table6,
)

PAPER_TABLE6 = {
    6: (976, 2656), 7: (976, 2670), 8: (976, 2700), 9: (976, 2742),
    10: (976, 2786), 11: (976, 2794), 12: (976, 2818),
}


def test_table6_fpga_utilization(benchmark):
    measured = benchmark(table6)
    rows = []
    for sf, (tx, rx) in measured.items():
        rows.append([
            str(sf),
            f"{tx} ({tx / LFE5U_25F_LUTS * 100:.0f}%)",
            f"{rx} ({rx / LFE5U_25F_LUTS * 100:.0f}%)",
            f"{PAPER_TABLE6[sf][0]} / {PAPER_TABLE6[sf][1]}",
        ])
    publish("table6_fpga_utilization", format_table(
        "Table 6: FPGA Utilization for LoRa Protocol",
        ["SF", "LoRa TX (LUT)", "LoRa RX (LUT)", "Paper TX/RX"], rows))

    assert measured == PAPER_TABLE6
    # RX grows monotonically with SF (the FFT scales); TX does not.
    rx_series = [rx for _, rx in measured.values()]
    assert rx_series == sorted(rx_series)
    # Paper 5.2: the other case studies' designs.
    assert round(ble_tx_design().lut_utilization * 100) == 3
    assert round(concurrent_rx_design([8, 8]).lut_utilization * 100) == 17
    # "sufficient resources ... and still leave space": even TX+RX at
    # SF12 plus the BLE generator uses under half the fabric.
    combined = (lora_tx_design(12).luts + lora_rx_design(12).luts
                + ble_tx_design().luts)
    assert combined < LFE5U_25F_LUTS / 2
