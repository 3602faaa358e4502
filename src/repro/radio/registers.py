"""AT86RF215 SPI register interface.

"The MCU communicates with the I/Q radio, backbone radio, FPGA and Flash
memory through SPI which it uses to send commands for changing the
frequency, selecting the outputs, etc." (paper section 3.2.3).  This
module models that control path at the register level: a register map
with named fields, the two-byte-address SPI transaction format the chip
uses, and a driver that performs the multi-register sequences (channel
programming, state commands) the datasheet prescribes.

The behavioural radio model (:class:`repro.radio.at86rf215.At86Rf215`)
stays the source of truth for signal-path behaviour; the register layer
drives it, so firmware-style control code can be written and tested
against the same sequences real firmware issues.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, RadioError
from repro.radio.at86rf215 import MAX_TX_POWER_DBM, At86Rf215, RadioState

# Register addresses (sub-GHz radio block, RF09_*).
REG_STATE = 0x0102       # datasheet: AT86RF215 register map, RF09_STATE
REG_CMD = 0x0103         # datasheet: AT86RF215 register map, RF09_CMD
REG_CS = 0x0104          # datasheet: AT86RF215, RF09_CS (channel spacing)
REG_CCF0L = 0x0105       # datasheet: AT86RF215, RF09_CCF0L (center freq low)
REG_CCF0H = 0x0106       # datasheet: AT86RF215, RF09_CCF0H
REG_CNL = 0x0107         # datasheet: AT86RF215, RF09_CNL (channel num low)
REG_CNM = 0x0108         # datasheet: AT86RF215, RF09_CNM (chan high + mode)
REG_PAC = 0x0114         # datasheet: AT86RF215, RF09_PAC (PA control)

# RF_CMD command codes.
CMD_NOP = 0x0     # datasheet: AT86RF215, table 4-3
CMD_SLEEP = 0x1   # datasheet: AT86RF215, table 4-3
CMD_TRXOFF = 0x2  # datasheet: AT86RF215, table 4-3
CMD_TXPREP = 0x3  # datasheet: AT86RF215, table 4-3
CMD_TX = 0x4      # datasheet: AT86RF215, table 4-3
CMD_RX = 0x5      # datasheet: AT86RF215, table 4-3

# RF_STATE codes (datasheet: AT86RF215, RF09_STATE field values).
STATE_CODES = {  # datasheet: AT86RF215, RF09_STATE
    RadioState.SLEEP: 0x1,
    RadioState.TRXOFF: 0x2,
    RadioState.TXPREP: 0x3,
    RadioState.RX: 0x5,
    RadioState.TX: 0x4,
}

CHANNEL_STEP_HZ = 25_000  # datasheet: AT86RF215, fine-mode channel scheme
"""Fine-mode channel scheme: CCF0 counts 25 kHz steps."""

PAC_TXPWR_MASK = 0x1F  # datasheet: AT86RF215, RF09_PAC.TXPWR (5 bits)
"""5-bit TX power field: 0 = max (14 dBm), 31 = max attenuation."""


@dataclass
class SpiTransaction:
    """One SPI access: 2 address bytes (MSB = write flag) + data."""

    address: int
    value: int
    is_write: bool

    def to_wire(self) -> bytes:
        """Encode as the 3-byte on-wire transaction."""
        if not 0 <= self.address <= 0x3FFF:
            raise ConfigurationError(
                f"register address must be 14-bit, got {self.address:#x}")
        if not 0 <= self.value <= 0xFF:
            raise ConfigurationError(
                f"register value must be 8-bit, got {self.value:#x}")
        high = (self.address >> 8) & 0x3F
        if self.is_write:
            high |= 0x80
        return bytes((high, self.address & 0xFF,
                      self.value if self.is_write else 0x00))

    @classmethod
    def from_wire(cls, wire: bytes) -> "SpiTransaction":
        """Decode a 3-byte transaction.

        Raises:
            ConfigurationError: for the wrong length.
        """
        if len(wire) != 3:
            raise ConfigurationError(
                f"SPI transaction is 3 bytes, got {len(wire)}")
        is_write = bool(wire[0] & 0x80)
        address = ((wire[0] & 0x3F) << 8) | wire[1]
        return cls(address=address, value=wire[2], is_write=is_write)


class RegisterFile:
    """The radio's register array plus the side effects of writes."""

    def __init__(self, radio: At86Rf215) -> None:
        self.radio = radio
        self._registers: dict[int, int] = {
            REG_STATE: STATE_CODES[radio.state],
            REG_CMD: CMD_NOP,
            REG_CS: 0x08,
            REG_CCF0L: 0x00, REG_CCF0H: 0x00,
            REG_CNL: 0x00, REG_CNM: 0x00,
            REG_PAC: 0x00,
        }
        self.log: list[SpiTransaction] = []

    def read(self, address: int) -> int:
        """SPI register read.

        Raises:
            RadioError: for unmapped addresses.
        """
        if address == REG_STATE:
            value = STATE_CODES[self.radio.state]
        elif address in self._registers:
            value = self._registers[address]
        else:
            raise RadioError(f"read of unmapped register {address:#06x}")
        self.log.append(SpiTransaction(address, value, is_write=False))
        return value

    def write(self, address: int, value: int) -> None:
        """SPI register write, applying command side effects.

        Raises:
            RadioError: for unmapped addresses or invalid commands.
        """
        if address not in self._registers:
            raise RadioError(f"write to unmapped register {address:#06x}")
        if not 0 <= value <= 0xFF:
            raise ConfigurationError(
                f"register value must be 8-bit, got {value:#x}")
        self.log.append(SpiTransaction(address, value, is_write=True))
        self._registers[address] = value
        if address == REG_CMD:
            self._execute_command(value)

    def _execute_command(self, command: int) -> None:
        if command == CMD_NOP:
            return
        if command == CMD_SLEEP:
            self.radio.sleep()
        elif command == CMD_TRXOFF:
            if self.radio.state == RadioState.SLEEP:
                self.radio.wake()
        elif command == CMD_RX:
            self.radio.enter_rx()
        elif command == CMD_TX:
            self.radio.enter_tx()
        elif command == CMD_TXPREP:
            if self.radio.state == RadioState.SLEEP:
                self.radio.wake()
        else:
            raise RadioError(f"unknown RF_CMD {command:#x}")


class At86Rf215Driver:
    """Firmware-style driver issuing the datasheet register sequences."""

    def __init__(self, radio: At86Rf215 | None = None) -> None:
        self.radio = radio or At86Rf215()
        self.registers = RegisterFile(self.radio)

    def set_channel(self, frequency_hz: float) -> None:
        """Program CCF0/CN for a carrier in fine-channel mode.

        The datasheet sequence: write CCF0L/CCF0H/CNL/CNM while in
        TRXOFF/TXPREP; the frequency latches on the CNM write.

        Raises:
            RadioError: when asleep or out of band.
        """
        steps = round(frequency_hz / CHANNEL_STEP_HZ)
        ccf0 = steps >> 8
        channel = steps & 0xFF
        self.registers.write(REG_CCF0L, ccf0 & 0xFF)
        self.registers.write(REG_CCF0H, (ccf0 >> 8) & 0xFF)
        self.registers.write(REG_CNL, channel)
        self.registers.write(REG_CNM, 0xC0)  # fine mode, latch
        self.radio.set_frequency(steps * CHANNEL_STEP_HZ)

    def set_tx_power(self, power_dbm: float) -> None:
        """Program the PAC register for a target output power."""
        attenuation = round(MAX_TX_POWER_DBM - power_dbm)
        if not 0 <= attenuation <= PAC_TXPWR_MASK:
            raise ConfigurationError(
                f"power {power_dbm!r} dBm outside the PAC range")
        self.registers.write(REG_PAC, attenuation & PAC_TXPWR_MASK)
        self.radio.set_tx_power(MAX_TX_POWER_DBM - attenuation)

    def command(self, code: int) -> None:
        """Issue an RF_CMD."""
        self.registers.write(REG_CMD, code)

    def state(self) -> RadioState:
        """Read back the radio state via RF_STATE."""
        code = self.registers.read(REG_STATE)
        for state, value in STATE_CODES.items():
            if value == code:
                return state
        raise RadioError(f"unknown state code {code:#x}")

    def wire_log(self) -> list[bytes]:
        """The raw SPI byte stream of every transaction so far."""
        return [t.to_wire() for t in self.registers.log]
