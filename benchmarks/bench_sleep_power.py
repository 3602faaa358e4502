"""Reproduce paper section 5.1: sleep mode power.

Shutting down the radios, the FPGA's regulators and the PAs, and putting
the MCU in LPM3 leaves a measured system sleep power of 30 uW - 10,000x
below existing SDR platforms, which is what makes duty cycling pay off.
"""

from _report import format_table, publish

from repro.platforms import SDR_PLATFORMS
from repro.power import LIPO_1000MAH, duty_cycle_profile
from repro.power.pmu import PlatformState, PowerBreakdown, PowerManagementUnit


def run_sleep_power():
    pmu = PowerManagementUnit()
    pmu.enter_state(PlatformState.SLEEP)
    return pmu.breakdown()


def test_sleep_power(benchmark):
    breakdown: PowerBreakdown = benchmark(run_sleep_power)
    rows = [[name, f"{power * 1e6:.2f} uW"]
            for name, power in breakdown.by_domain_w.items()]
    rows.append(["board leakage",
                 f"{(breakdown.total_w - sum(breakdown.by_domain_w.values())) * 1e6:.2f} uW"])
    rows.append(["TOTAL", f"{breakdown.total_w * 1e6:.2f} uW"])
    publish("sleep_power", format_table(
        "Section 5.1: Sleep Mode Power (paper: 30 uW)",
        ["Domain", "Battery draw"], rows))

    total = breakdown.total_w
    assert abs(total - 30e-6) / 30e-6 < 0.05
    # 10,000x below every other platform with a published sleep figure.
    for platform in SDR_PLATFORMS:
        if platform.name == "TinySDR" or platform.sleep_power_w is None:
            continue
        assert platform.sleep_power_w / total > 10_000, platform.name
    # The argument's payoff: a 0.1 % duty cycle at 283 mW TX still gives
    # multi-year battery life.
    meter = duty_cycle_profile(active_power_w=0.283, active_time_s=3.6,
                               sleep_power_w=total, period_s=3600.0)
    assert LIPO_1000MAH.lifetime_years(meter.average_power_w) > 1.0
