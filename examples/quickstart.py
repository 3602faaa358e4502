"""Quickstart: a tinySDR node's day in thirty lines.

Boots a simulated tinySDR, loads the LoRa modem personality, transmits a
packet, receives it back through a noisy channel, duty-cycles to sleep,
and prints the energy bill - touching each subsystem of the platform.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.core.tinysdr import TinySdr
from repro.phy.lora import LoRaParams

rng = np.random.default_rng(1)

# Bring up a node: flash the LoRa personality and pick a configuration.
node = TinySdr(node_id=1, frequency_hz=915e6)
node.load_firmware("lora_modem")
params = LoRaParams(spreading_factor=8, bandwidth_hz=125e3)
node.configure_lora(params)

# Transmit a sensor report at +14 dBm.
record = node.transmit_lora(b"temperature=21.5C", tx_power_dbm=14.0)
print(f"transmitted {record.airtime_s * 1e3:.1f} ms of LoRa "
      f"({record.energy_j * 1e3:.1f} mJ)")

# Put the waveform through a weak link (-120 dBm at the receiver) and
# demodulate it on the same platform.
budget = LinkBudget(bandwidth_hz=params.sample_rate_hz)
stream = receive(
    [ReceivedSignal(record.samples, rssi_dbm=-120.0, start_sample=1000)],
    budget, rng, num_samples=record.samples.size + 3000)
decoded = node.receive_lora(stream)
print(f"received: {decoded.payload!r}  CRC ok: {decoded.crc_ok}")

# Duty cycle: sleep for an hour at the platform's 30 uW floor.
node.sleep()
node.record_sleep(3600.0)

print("\nenergy by activity:")
for label, joules in node.energy_report().items():
    print(f"  {label:10s} {joules * 1e3:10.3f} mJ")

print("\noperation timings (paper Table 4):")
for operation, milliseconds in node.timing_table():
    print(f"  {operation:26s} {milliseconds:8.3f} ms")
