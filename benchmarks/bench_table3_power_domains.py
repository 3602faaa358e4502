"""Reproduce paper Table 3: power domains in tinySDR.

Regenerates the domain/voltage/component map from the PMU model and
verifies the structural properties the design argues for: the MCU is the
only always-on domain, the radios share the adjustable V5 rail, and every
other domain can be gated off.
"""

from _report import format_table, publish

from repro.errors import PowerError
from repro.power.domains import (
    DOMAIN_TABLE,
    build_domains,
    domain_for_component,
)


def build_table3() -> list[list[str]]:
    rows = []
    for spec in DOMAIN_TABLE:
        rows.append([spec.name, f"{spec.voltage_v:g} V",
                     spec.regulator_spec.name,
                     ", ".join(spec.components),
                     "always-on" if spec.always_on else "gateable"])
    return rows


def test_table3_power_domains(benchmark):
    rows = benchmark(build_table3)
    publish("table3_power_domains", format_table(
        "Table 3: Power Domains in TinySDR",
        ["Domain", "Voltage", "Regulator", "Components", "Gating"], rows))
    domains = build_domains()
    assert domains["V1"].is_on
    gateable = [name for name in domains if name != "V1"]
    for name in gateable:
        domains[name].turn_on()
        domains[name].turn_off()
    try:
        domains["V1"].turn_off()
        raise AssertionError("V1 must refuse to turn off")
    except PowerError:
        pass
    # Shared V5: both radios and the FPGA I/O bank.
    assert domain_for_component("iq_radio") == "V5"
    assert domain_for_component("backbone_radio") == "V5"
    assert domain_for_component("fpga_io") == "V5"
    # Adjustable regulator on V5 only.
    adjustable = [spec.name for spec in DOMAIN_TABLE
                  if spec.regulator_spec.adjustable_range_v is not None]
    assert adjustable == ["V5"]
