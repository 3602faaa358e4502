"""Battery-life explorer: why microwatt sleep is the whole ballgame.

Compares battery lifetimes for an IoT workload (one LoRa report per
period) across tinySDR and the other SDR platforms from paper Table 1,
sweeping the reporting period.  Reproduces the paper's core argument:
platforms whose "sleep" burns hundreds of milliwatts gain nothing from
duty cycling, while tinySDR's 30 uW floor turns the same battery into
years of operation.

Run:  python examples/battery_life_explorer.py
"""

from repro.phy.lora import LoRaParams
from repro.platforms.catalog import SDR_PLATFORMS
from repro.power.battery import LIPO_1000MAH
from repro.power.meter import duty_cycle_profile

params = LoRaParams(spreading_factor=8, bandwidth_hz=125e3)
airtime = params.airtime_s(20)

PERIODS = (60.0, 600.0, 3600.0)


def lifetime_days(tx_power_w: float, sleep_power_w: float,
                  period_s: float) -> float:
    meter = duty_cycle_profile(
        active_power_w=tx_power_w, active_time_s=airtime,
        sleep_power_w=sleep_power_w, period_s=period_s)
    return LIPO_1000MAH.lifetime_s(meter.average_power_w) / 86400.0


header = f"{'Platform':14s}" + "".join(
    f"  every {int(period / 60)} min" for period in PERIODS)
print(f"battery life (days on 1000 mAh), one 20-byte LoRa report per period")
print(header)
print("-" * len(header))

for platform in SDR_PLATFORMS:
    if platform.sleep_power_w is None or platform.tx_power_w is None:
        continue  # not standalone / receive-only: can't run this workload
    cells = []
    for period in PERIODS:
        days = lifetime_days(platform.tx_power_w, platform.sleep_power_w,
                             period)
        cells.append(f"{days:12.1f}")
    print(f"{platform.name:14s}" + "".join(cells))

print("\nsleep power, not transmit power, sets the ceiling: tinySDR's")
print("lifetime keeps growing as reports get rarer; every other platform")
print("plateaus at its sleep floor within days.")
