"""repro: a full software reproduction of TinySDR (NSDI 2020).

TinySDR is a low-power software-defined radio platform for over-the-air
programmable IoT testbeds (Hessar, Najafi, Iyer, Gollakota).  This
package reimplements the platform and every experiment in its evaluation
as a Python library: the LoRa and BLE PHYs at the sample level, the
AT86RF215 radio and LVDS interface models, the ECP5 FPGA resource and
configuration models, the MSP432 MCU, the seven-domain power management
unit, the miniLZO-based OTA programming stack, a LoRaWAN MAC, and a
campus testbed with its OTA programming campaigns.

Quick start::

    from repro import LoRaParams, LoRaModulator, LoRaDemodulator
    params = LoRaParams(spreading_factor=8, bandwidth_hz=125e3)
    samples = LoRaModulator(params).modulate(b"hello")
    decoded = LoRaDemodulator(params).receive(samples)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured results of every table and figure.
"""

from repro.core.tinysdr import TinySdr
from repro.phy.ble.gfsk import GfskDemodulator, GfskModulator
from repro.phy.ble.packet import AdvPacket
from repro.phy.lora.concurrent import ConcurrentReceiver
from repro.phy.lora.demodulator import LoRaDemodulator
from repro.phy.lora.modulator import LoRaModulator
from repro.phy.lora.params import LoRaParams
from repro.power.pmu import PlatformState, PowerManagementUnit

__version__ = "1.0.0"

__all__ = [
    "AdvPacket",
    "ConcurrentReceiver",
    "GfskDemodulator",
    "GfskModulator",
    "LoRaDemodulator",
    "LoRaModulator",
    "LoRaParams",
    "PlatformState",
    "PowerManagementUnit",
    "TinySdr",
    "__version__",
]
