"""Reproduce paper Table 1: SDR platform comparison.

Regenerates the comparison rows from the platform catalog and checks the
claims the paper draws from them - tinySDR is the only standalone, OTA-
programmable, sub-$100 platform with microwatt sleep.
"""

from _report import format_table, publish

from repro.platforms.catalog import (
    SDR_PLATFORMS,
    endpoint_requirements_report,
    sleep_power_advantage,
)


def build_table1() -> str:
    rows = []
    for platform in SDR_PLATFORMS:
        sleep = ("N/A" if platform.sleep_power_w is None
                 else f"{platform.sleep_power_w * 1e3:g} mW")
        bands = ", ".join(f"{low / 1e6:g}-{high / 1e6:g}"
                          for low, high in platform.frequency_ranges_hz)
        rows.append([
            platform.name, sleep,
            "yes" if platform.standalone else "no",
            "yes" if platform.ota_programmable else "no",
            f"${platform.cost_usd:g}",
            f"{platform.max_bandwidth_hz / 1e6:g}",
            str(platform.adc_bits), bands,
            f"{platform.size_cm[0]:g}x{platform.size_cm[1]:g}",
        ])
    return format_table(
        "Table 1: Comparison Between Different SDR Platforms",
        ["Platform", "Sleep", "Standalone", "OTA", "Cost", "BW (MHz)",
         "ADC", "Spectrum (MHz)", "Size (cm)"],
        rows)


def test_table1_platform_comparison(benchmark):
    table = benchmark(build_table1)
    publish("table1_platforms", table)
    # Headline claims drawn from the table.
    advantages = sleep_power_advantage()
    assert min(advantages.values()) > 10_000
    report = endpoint_requirements_report()
    assert all(report["TinySDR"].values())
    others = {name: checks for name, checks in report.items()
              if name != "TinySDR"}
    assert all(not all(checks.values()) for checks in others.values())
