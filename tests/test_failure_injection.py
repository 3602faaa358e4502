"""Failure injection across the full stack.

Each test breaks the system at a specific point - corrupted bits on the
LVDS link, a stalled consumer overflowing the FIFO, flash corruption
under an OTA image, crypto tampering, mid-air packet truncation - and
verifies the failure is *detected and contained* rather than silently
propagated, which is what separates a deployable stack from a demo.
"""

import numpy as np
import pytest

from repro.channel.link import LinkBudget, ReceivedSignal, receive
from repro.errors import (
    CompressionError,
    DemodulationError,
    FifoOverflowError,
    FpgaError,
    MicError,
    OtaError,
)
from repro.fpga.bitstream import bitstream_fingerprint, generate_bitstream
from repro.fpga.config import FpgaConfigurator
from repro.fpga.fifo import SampleFifo
from repro.ota.flash import BOOT_OFFSET
from repro.ota.mac import OtaLink
from repro.ota.minilzo import compress, decompress
from repro.ota.updater import OtaUpdater
from repro.phy.lora import LoRaDemodulator, LoRaModulator, LoRaParams

PARAMS = LoRaParams(8, 125e3)


class TestLinkLayerCorruption:
    def test_corrupted_word_sync_is_detected_not_decoded(self, rng):
        from repro.errors import FramingError
        from repro.radio.iqword import samples_to_words, unpack_word
        words = samples_to_words(rng.uniform(-0.9, 0.9, 10) + 0j)
        corrupted = int(words[3]) ^ (1 << 31)  # breaks I_SYNC
        with pytest.raises(FramingError):
            unpack_word(corrupted)

    def test_truncated_packet_fails_crc_or_sync(self, rng):
        modulator = LoRaModulator(PARAMS)
        waveform = modulator.modulate(b"truncate me please")
        budget = LinkBudget(bandwidth_hz=PARAMS.sample_rate_hz)
        # Cut the transmission halfway through the payload.
        cut = waveform[:int(waveform.size * 0.6)]
        stream = receive([ReceivedSignal(cut, -100.0, start_sample=512)],
                         budget, rng, num_samples=waveform.size + 2048)
        try:
            decoded = LoRaDemodulator(PARAMS).receive(stream)
            assert decoded.crc_ok is not True or \
                decoded.payload != b"truncate me please"
        except DemodulationError:
            pass  # equally acceptable: no packet found

    def test_collision_of_same_slope_packets_detected(self, rng):
        modulator = LoRaModulator(PARAMS)
        a = modulator.modulate(b"packet aaaa")
        b = modulator.modulate(b"packet bbbb")
        budget = LinkBudget(bandwidth_hz=PARAMS.sample_rate_hz)
        # Equal-power full overlap: neither should decode cleanly as both.
        stream = receive([
            ReceivedSignal(a, -100.0, start_sample=512),
            ReceivedSignal(b, -100.0, start_sample=512 + 700)],
            budget, rng, num_samples=a.size + 4096)
        try:
            decoded = LoRaDemodulator(PARAMS).receive(stream)
            assert not (decoded.crc_ok and decoded.payload
                        not in (b"packet aaaa", b"packet bbbb"))
        except DemodulationError:
            pass


class TestRealtimeFailures:
    def test_stalled_consumer_overflows_loudly(self):
        fifo = SampleFifo(capacity_bytes=1024)
        with pytest.raises(FifoOverflowError):
            for _ in range(10):
                fifo.write(np.zeros(100, dtype=complex))

    def test_drop_mode_counts_every_lost_sample(self):
        fifo = SampleFifo(capacity_bytes=400)  # 100 samples
        total = 0
        for _ in range(5):
            total += fifo.write(np.zeros(60, dtype=complex),
                                drop_on_overflow=True)
        assert total == 100
        assert fifo.overflow_count == 200

    def test_unconfigured_fpga_refuses_work(self):
        configurator = FpgaConfigurator()
        with pytest.raises(FpgaError):
            configurator.require_configured()
        configurator.program(b"design")
        configurator.shutdown()  # power gating wipes SRAM config
        with pytest.raises(FpgaError):
            configurator.require_configured()


class TestOtaFailures:
    def test_flash_corruption_detected_by_fingerprint(self, rng):
        image = generate_bitstream(0.03, seed=60)
        updater = OtaUpdater()
        updater.update(image, OtaLink(downlink_rssi_dbm=-90.0), rng)
        # A cosmic ray flips one flash bit under the installed image.
        address = BOOT_OFFSET + 12345
        byte = updater.flash.read(address, 1)[0]
        updater.flash.erase_range(address & ~0xFFF, 4096)
        restored = bytearray(image[12288 - 57:])  # arbitrary valid refill
        updater.flash.program(address & ~0xFFF,
                              bytes(4096))  # corrupt the whole sector
        stored = updater.flash.read(BOOT_OFFSET, len(image))
        assert bitstream_fingerprint(stored) != bitstream_fingerprint(image)

    def test_corrupt_compressed_stream_never_passes_silently(self):
        # miniLZO itself has no integrity check - a corrupted stream
        # either fails structurally (bad match/length) or yields wrong
        # bytes.  The contract is that it can never yield the *original*
        # bytes; the OTA MAC's per-packet CRC is what rejects the packet
        # before the stream ever reaches the decompressor.
        payload = bytes(range(256)) * 40
        compressed = compress(payload)
        for position in (1, len(compressed) // 2, len(compressed) - 2):
            tampered = bytearray(compressed)
            tampered[position] ^= 0xFF
            try:
                output = decompress(bytes(tampered),
                                    expected_size=len(payload))
                assert output != payload
            except CompressionError:
                pass

    def test_session_abort_leaves_boot_image_untouched(self, rng):
        good = generate_bitstream(0.03, seed=61)
        updater = OtaUpdater()
        updater.update(good, OtaLink(downlink_rssi_dbm=-90.0), rng)
        fingerprint = bitstream_fingerprint(
            updater.flash.read(BOOT_OFFSET, len(good)))
        bad_link = OtaLink(downlink_rssi_dbm=-140.0, fading_sigma_db=0.0)
        with pytest.raises(OtaError):
            updater.update(generate_bitstream(0.1, seed=62), bad_link, rng)
        # The failed session never reached the boot region.
        assert bitstream_fingerprint(
            updater.flash.read(BOOT_OFFSET, len(good))) == fingerprint


class TestCryptoFailures:
    def test_bitflip_anywhere_in_frame_is_caught(self, rng):
        from repro.protocols.lorawan.frames import (
            DataFrame,
            MType,
            SessionKeys,
            deserialize,
            serialize,
        )
        keys = SessionKeys(nwk_skey=bytes(range(16)),
                           app_skey=bytes(range(16, 32)))
        frame = DataFrame(mtype=MType.UNCONFIRMED_UP, dev_addr=0x1234,
                          fcnt=9, payload=b"integrity", fport=3)
        encoded = serialize(frame, keys)
        for index in rng.choice(len(encoded), size=8, replace=False):
            tampered = bytearray(encoded)
            tampered[index] ^= 0x40
            with pytest.raises(MicError):
                deserialize(bytes(tampered), keys)

    def test_replayed_join_request_makes_fresh_session(self):
        # LoRaWAN 1.0's known weakness, made visible: replaying a join
        # creates a *different* session (new AppNonce), so the replayer
        # gains nothing but the server does burn an address.
        from repro.protocols.lorawan.mac import (
            DeviceIdentity,
            NetworkServer,
            build_join_request,
        )
        identity = DeviceIdentity(dev_eui=5, app_eui=6,
                                  app_key=bytes(range(16)))
        server = NetworkServer()
        server.register(identity)
        request = build_join_request(identity, dev_nonce=1)
        first = server.handle_join_request(request)
        second = server.handle_join_request(request)
        assert first != second
