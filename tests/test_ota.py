"""Tests for OTA: miniLZO, blocks, flash, MAC and the end-to-end updater."""

import numpy as np
import pytest

from repro.errors import (
    CompressionError,
    ConfigurationError,
    FlashError,
    OtaError,
    ProtocolError,
)
from repro.fpga.bitstream import generate_bitstream, generate_mcu_program
from repro.mcu.msp432 import Msp432
from repro.ota.blocks import (
    BLOCK_BYTES,
    compression_summary,
    reassemble,
    split_and_compress,
)
from repro.ota.flash import BOOT_OFFSET, SECTOR_BYTES, Mx25R6435F
from repro.ota.mac import (
    DataPacket,
    EndOfUpdate,
    OtaLink,
    ProgrammingRequest,
    fragment_image,
    simulate_transfer,
)
from repro.ota.minilzo import compress, decompress
from repro.ota.updater import OtaUpdater
from repro.phy.lora import LoRaParams


class TestMiniLzo:
    @pytest.mark.parametrize("data", [
        b"", b"a", b"ab", b"abc", bytes(1000),
        b"abcabcabcabc" * 100, bytes(range(256)) * 4,
    ])
    def test_roundtrip(self, data):
        assert decompress(compress(data)) == data

    def test_roundtrip_random(self, rng):
        data = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
        assert decompress(compress(data)) == data

    def test_roundtrip_overlapping_matches(self):
        # Runs force overlapping copy semantics in the decompressor.
        data = b"\x00" * 5000 + b"ab" * 3000 + b"\xff" * 100
        assert decompress(compress(data)) == data

    def test_zeros_compress_massively(self):
        # One literal + one long match; the 255-cascade length encoding
        # costs ~1 byte per 255 zeros.
        assert len(compress(bytes(100_000))) < 600

    def test_random_data_overhead_bounded(self, rng):
        data = rng.integers(0, 256, 50_000, dtype=np.uint8).tobytes()
        assert len(compress(data)) < len(data) * 1.02

    def test_expected_size_check(self):
        compressed = compress(b"hello world")
        with pytest.raises(CompressionError):
            decompress(compressed, expected_size=5)

    def test_truncated_stream_rejected(self):
        compressed = compress(b"some reasonably long input text here")
        with pytest.raises(CompressionError):
            decompress(compressed[:-3], expected_size=36)

    def test_bad_distance_rejected(self):
        # A match token pointing before the output start.
        with pytest.raises(CompressionError):
            decompress(bytes([0x80, 0x05]))

    def test_paper_compression_ratios(self):
        lora = generate_bitstream(0.1125, seed=42)
        ble = generate_bitstream(0.03, seed=43)
        mcu = generate_mcu_program()
        assert len(compress(lora)) / 1024 == pytest.approx(99, rel=0.12)
        assert len(compress(ble)) / 1024 == pytest.approx(40, rel=0.12)
        assert len(compress(mcu)) / 1024 == pytest.approx(24, rel=0.2)


class TestBlocks:
    def test_split_sizes(self):
        data = bytes(100_000)
        blocks = split_and_compress(data)
        assert len(blocks) == 4  # 3 x 30 kB + remainder
        assert blocks[0].raw_size == BLOCK_BYTES
        assert blocks[-1].raw_size == 100_000 - 3 * BLOCK_BYTES

    def test_reassemble_roundtrip(self, rng):
        data = rng.integers(0, 256, 90_000, dtype=np.uint8).tobytes()
        assert reassemble(split_and_compress(data)) == data

    def test_reassemble_respects_sram_budget(self, rng):
        data = rng.integers(0, 256, 70_000, dtype=np.uint8).tobytes()
        mcu = Msp432()
        mcu.sram.allocate("runtime", 20 * 1024)
        assert reassemble(split_and_compress(data), sram=mcu.sram) == data
        # The working region was released each time.
        assert "ota_decompress" not in mcu.sram.regions

    def test_block_too_big_for_sram_fails(self, rng):
        data = rng.integers(0, 256, 80_000, dtype=np.uint8).tobytes()
        blocks = split_and_compress(data, block_bytes=60 * 1024)
        mcu = Msp432()
        mcu.sram.allocate("runtime", 20 * 1024)
        from repro.errors import MemoryError_
        with pytest.raises(MemoryError_):
            reassemble(blocks, sram=mcu.sram)

    def test_out_of_order_blocks_rejected(self):
        blocks = split_and_compress(bytes(70_000))
        with pytest.raises(CompressionError):
            reassemble([blocks[1], blocks[0], blocks[2]])

    def test_header_wire_format(self):
        blocks = split_and_compress(bytes(40_000))
        header = blocks[1].header()
        assert len(header) == 6
        assert int.from_bytes(header[0:2], "big") == 1
        assert int.from_bytes(header[2:4], "big") == 40_000 - BLOCK_BYTES

    def test_summary(self):
        summary = compression_summary(generate_bitstream(0.03, seed=9))
        assert summary["blocks"] == pytest.approx(20)  # 579k / 30k
        assert summary["ratio"] < 0.15

    def test_empty_image_rejected(self):
        with pytest.raises(ConfigurationError):
            split_and_compress(b"")


class TestFlash:
    def test_erased_state_is_ff(self):
        flash = Mx25R6435F()
        assert flash.read(0, 16) == b"\xff" * 16

    def test_write_read_roundtrip(self, rng):
        flash = Mx25R6435F()
        data = rng.integers(0, 256, 10_000, dtype=np.uint8).tobytes()
        flash.write(0x1000, data)
        assert flash.read(0x1000, len(data)) == data

    def test_program_requires_erase(self):
        flash = Mx25R6435F()
        flash.program(0, b"\x00")  # 0xFF -> 0x00 fine
        with pytest.raises(FlashError):
            flash.program(0, b"\xff")  # 0x00 -> 0xFF needs erase

    def test_program_can_clear_more_bits(self):
        flash = Mx25R6435F()
        flash.program(0, b"\xf0")
        flash.program(0, b"\x30")  # only clears bits: allowed
        assert flash.read(0, 1) == b"\x30"

    def test_sector_erase_restores_ff(self):
        flash = Mx25R6435F()
        flash.program(100, b"\x00" * 10)
        flash.erase_sector(0)
        assert flash.read(100, 10) == b"\xff" * 10

    def test_unaligned_erase_rejected(self):
        with pytest.raises(FlashError):
            Mx25R6435F().erase_sector(100)

    def test_out_of_range_rejected(self):
        flash = Mx25R6435F()
        with pytest.raises(FlashError):
            flash.read(flash.capacity_bytes - 4, 8)

    def test_stats_accumulate(self):
        flash = Mx25R6435F()
        flash.write(0, bytes(SECTOR_BYTES))
        stats = flash.stats()
        assert stats.sectors_erased == 1
        assert stats.bytes_programmed == SECTOR_BYTES
        assert stats.busy_time_s > 0
        assert stats.energy_j > 0


class TestOtaMac:
    def test_fragmentation_roundtrip(self, rng):
        image = rng.integers(0, 256, 5000, dtype=np.uint8).tobytes()
        packets = fragment_image(image)
        assert all(len(p.payload) <= 60 for p in packets)
        assert [p.sequence for p in packets] == list(range(len(packets)))
        assert b"".join(p.payload for p in packets) == image

    def test_fragment_rejects_empty(self):
        with pytest.raises(ProtocolError):
            fragment_image(b"")

    def test_data_packet_crc_changes_with_payload(self):
        a = DataPacket(0, b"aaa")
        b = DataPacket(0, b"aab")
        assert a.crc != b.crc

    def test_data_packet_rejects_oversize(self):
        # 247 B is the LoRa PHY limit after the 8-byte fragment header.
        DataPacket(0, bytes(247))
        with pytest.raises(ProtocolError):
            DataPacket(0, bytes(248))

    def test_programming_request_validation(self):
        with pytest.raises(ProtocolError):
            ProgrammingRequest((), (), image_id=0)
        with pytest.raises(ProtocolError):
            ProgrammingRequest((1, 2), (0.0,), image_id=0)

    def test_good_link_no_retransmissions(self, rng):
        report = simulate_transfer(bytes(2000),
                                   OtaLink(downlink_rssi_dbm=-80.0,
                                           fading_sigma_db=0.0), rng)
        assert not report.failed
        assert report.retransmissions == 0
        assert report.packets_delivered == 34  # ceil(2000/60)

    def test_marginal_link_retransmits(self, rng):
        link = OtaLink(downlink_rssi_dbm=-119.5, fading_sigma_db=2.0)
        report = simulate_transfer(bytes(3000), link, rng)
        assert not report.failed
        assert report.retransmissions > 0

    def test_dead_link_fails(self, rng):
        link = OtaLink(downlink_rssi_dbm=-135.0, fading_sigma_db=0.0)
        report = simulate_transfer(bytes(500), link, rng)
        assert report.failed

    def test_duration_scales_with_image_size(self, rng):
        link = OtaLink(downlink_rssi_dbm=-80.0, fading_sigma_db=0.0)
        small = simulate_transfer(bytes(1000), link, rng)
        large = simulate_transfer(bytes(10_000), link, rng)
        assert large.duration_s > 5 * small.duration_s

    def test_airtime_uses_paper_config(self):
        link = OtaLink()
        # 68-byte data packet at SF8/BW500/CR6, 8-chirp preamble.
        assert link.airtime_s(68) == pytest.approx(
            LoRaParams(8, 500e3, 6).airtime_s(68, 8), rel=1e-9)


class TestUpdater:
    def test_fpga_update_end_to_end(self, rng):
        image = generate_bitstream(0.03, seed=50)
        updater = OtaUpdater()
        report = updater.update(image, OtaLink(downlink_rssi_dbm=-90.0),
                                rng)
        assert report.raw_bytes == len(image)
        assert report.reconfigure_time_s == pytest.approx(22e-3, rel=0.1)
        assert updater.configurator.configured
        # The installed image is byte-identical.
        installed = updater.flash.read(BOOT_OFFSET, len(image))
        assert installed == image

    def test_mcu_update_skips_reconfigure(self, rng):
        image = generate_mcu_program(seed=51)
        report = OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-90.0),
                                     rng, is_fpga_image=False)
        assert report.reconfigure_time_s == 0.0

    def test_update_fails_on_dead_link(self, rng):
        image = generate_mcu_program(seed=52)
        with pytest.raises(OtaError):
            OtaUpdater().update(image,
                                OtaLink(downlink_rssi_dbm=-140.0,
                                        fading_sigma_db=0.0), rng)

    def test_lora_update_time_near_paper(self, rng):
        image = generate_bitstream(0.1125, seed=42)
        report = OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-100.0),
                                     rng)
        # Paper Fig. 14: LoRa FPGA average ~150 s.
        assert report.total_time_s == pytest.approx(150.0, rel=0.10)

    def test_decompress_under_450ms(self, rng):
        image = generate_bitstream(0.1125, seed=42)
        report = OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-90.0),
                                     rng)
        assert report.decompress_time_s <= 0.45

    def test_energy_within_2x_of_paper(self, rng):
        image = generate_bitstream(0.1125, seed=42)
        report = OtaUpdater().update(image, OtaLink(downlink_rssi_dbm=-100.0),
                                     rng)
        # Paper: 6144 mJ for a LoRa FPGA update.
        assert 3.0 < report.node_energy_j < 12.3
