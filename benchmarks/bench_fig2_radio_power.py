"""Reproduce paper Fig. 2: radio-module power consumption per platform.

The bar chart of TX/RX power for each SDR's radio module, with the TX
output power annotated.  TinySDR's radio draw is the catalog's measured
LoRa TX/RX figure; the shape to reproduce is that every other platform
burns hundreds of milliwatts to watts while tinySDR sits far below.
"""

from _report import format_table, publish

from repro.platforms.catalog import SDR_PLATFORMS, get_platform


def build_fig2() -> list[list[str]]:
    rows = []
    for platform in SDR_PLATFORMS:
        tx = ("no TX" if platform.tx_power_w is None
              else f"{platform.tx_power_w * 1e3:.0f} mW")
        rx = ("N/A" if platform.rx_power_w is None
              else f"{platform.rx_power_w * 1e3:.0f} mW")
        output = ("-" if platform.tx_output_dbm is None
                  else f"{platform.tx_output_dbm:g} dBm")
        rows.append([platform.name, tx, rx, output])
    return rows


def test_fig2_radio_module_power(benchmark):
    rows = benchmark(build_fig2)
    publish("fig2_radio_power", format_table(
        "Fig. 2: Radio Module Power Consumption",
        ["Platform", "TX power", "RX power", "TX output"], rows))
    tinysdr = get_platform("TinySDR")
    # TinySDR transmits at 14 dBm using less power than any other
    # platform needs to *receive*.
    competitors_rx = [p.rx_power_w for p in SDR_PLATFORMS
                      if p.rx_power_w is not None and p.name != "TinySDR"]
    assert tinysdr.tx_power_w < min(competitors_rx)
    # ~5x less RX power than the next-best radio module (Fig. 2 text).
    assert min(competitors_rx) / tinysdr.rx_power_w > 1.5
