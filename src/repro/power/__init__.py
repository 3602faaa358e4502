"""Power substrate: regulators, domains, metering and batteries.

The PMU is imported from :mod:`repro.power.pmu`: it reads the FPGA
models, and :mod:`repro.fpga.config` imports this package.
"""

from repro.power.battery import Battery, LIPO_1000MAH, SECONDS_PER_YEAR
from repro.power.domains import (
    DOMAIN_TABLE,
    DomainSpec,
    PowerDomain,
    build_domains,
    domain_for_component,
)
from repro.power.meter import EnergyMeter, TimelineSegment, duty_cycle_profile
from repro.power.profiles import fpga_power_w, iq_radio_tx_w
from repro.power.regulators import (
    Regulator,
    RegulatorSpec,
    SC195,
    TPS62080,
    TPS62240,
    TPS78218,
)

__all__ = [
    "Battery",
    "DOMAIN_TABLE",
    "DomainSpec",
    "EnergyMeter",
    "LIPO_1000MAH",
    "PowerDomain",
    "Regulator",
    "RegulatorSpec",
    "SC195",
    "SECONDS_PER_YEAR",
    "TPS62080",
    "TPS62240",
    "TPS78218",
    "TimelineSegment",
    "build_domains",
    "domain_for_component",
    "duty_cycle_profile",
    "fpga_power_w",
    "iq_radio_tx_w",
]
