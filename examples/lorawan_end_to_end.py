"""LoRaWAN over the PHY: OTAA join and encrypted uplinks, end to end.

A device joins a network server over the air (join-request/join-accept
riding the actual LoRa PHY through a noisy channel), then sends
AES-encrypted, CMAC-authenticated uplinks - the TTN-compatible MAC the
paper runs on the MSP432 (section 4.1).

Run:  python examples/lorawan_end_to_end.py
"""

import numpy as np

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.phy.lora import LoRaDemodulator, LoRaModulator, LoRaParams
from repro.protocols.lorawan.mac import (
    DeviceIdentity,
    LoRaWanDevice,
    NetworkServer,
)

rng = np.random.default_rng(9)
params = LoRaParams(spreading_factor=8, bandwidth_hz=125e3, sync_word=0x34)
modulator = LoRaModulator(params)
demodulator = LoRaDemodulator(params)
budget = LinkBudget(bandwidth_hz=params.sample_rate_hz)


def over_the_air(payload: bytes, rssi_dbm: float = -115.0) -> bytes:
    """One PHY hop: modulate, add channel noise, demodulate."""
    waveform = modulator.modulate(payload)
    stream = receive(
        [ReceivedSignal(waveform, rssi_dbm, start_sample=512)],
        budget, rng, num_samples=waveform.size + 2048)
    decoded = demodulator.receive(stream)
    assert decoded.crc_ok, "PHY CRC failed"
    return decoded.payload


identity = DeviceIdentity(dev_eui=0x70B3D57ED0051234,
                          app_eui=0x70B3D57ED0050000,
                          app_key=bytes.fromhex(
                              "8a7b6c5d4e3f2a1b0c9d8e7f6a5b4c3d"))
server = NetworkServer()
server.register(identity)
device = LoRaWanDevice(identity=identity)

print("OTAA join over the air...")
join_request = device.start_join(dev_nonce=0x4242)
join_accept = server.handle_join_request(over_the_air(join_request))
device.complete_join(over_the_air(join_accept))
print(f"  joined: DevAddr {device.dev_addr:#010x}")
print(f"  NwkSKey {device.session.nwk_skey.hex()}")
print(f"  AppSKey {device.session.app_skey.hex()}")

print("\nencrypted uplinks:")
for reading in (b"t=21.5", b"t=21.7", b"t=21.4"):
    phy_payload = device.uplink(reading, fport=7)
    frame = server.handle_uplink(over_the_air(phy_payload, -121.0))
    print(f"  fcnt={frame.fcnt}  on-air={len(phy_payload)} B "
          f"(ciphertext)  server decrypts: {frame.payload!r}")

print("\nthe payload bytes never appear on the air:")
final = device.uplink(b"secret reading", fport=7)
print(f"  {final.hex()}")
assert b"secret" not in final
