"""repro: a full software reproduction of TinySDR (NSDI 2020).

TinySDR is a low-power software-defined radio platform for over-the-air
programmable IoT testbeds (Hessar, Najafi, Iyer, Gollakota).  This
package reimplements the platform and every experiment in its evaluation
as a Python library: the LoRa and BLE PHYs at the sample level, the
AT86RF215 radio and LVDS interface models, the ECP5 FPGA resource and
configuration models, the MSP432 MCU, the seven-domain power management
unit, the miniLZO-based OTA programming stack, a LoRaWAN MAC, and a
campus testbed with its OTA programming campaigns.

Each subsystem is imported from the package that owns it; importing
this package loads nothing else.  Quick start::

    from repro.phy.lora import LoRaDemodulator, LoRaModulator, LoRaParams
    params = LoRaParams(spreading_factor=8, bandwidth_hz=125e3)
    samples = LoRaModulator(params).modulate(b"hello")
    decoded = LoRaDemodulator(params).receive(samples)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every table and figure.
"""

__version__ = "1.0.0"
