"""Tests for the LoRaWAN stack: AES, CMAC, frames, ABP/OTAA MAC."""

import pytest

from repro.errors import ConfigurationError, MicError, ProtocolError
from repro.protocols.lorawan.aes import decrypt_block, encrypt_block
from repro.protocols.lorawan.cmac import aes_cmac, truncated_cmac
from repro.protocols.lorawan.frames import (
    DataFrame,
    MType,
    SessionKeys,
    deserialize,
    encrypt_payload,
    serialize,
)
from repro.protocols.lorawan.mac import (
    DeviceIdentity,
    LoRaWanDevice,
    NetworkServer,
    build_join_request,
    derive_session_keys,
)

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NWK = bytes(range(16))
APP = bytes(range(16, 32))
SESSION = SessionKeys(nwk_skey=NWK, app_skey=APP)


class TestAes:
    def test_fips197_appendix_c(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert encrypt_block(key, plaintext) == expected
        assert decrypt_block(key, expected) == plaintext

    def test_fips197_appendix_b(self):
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert encrypt_block(KEY, plaintext) == expected

    def test_roundtrip_random_blocks(self, rng):
        import numpy as np
        for _ in range(5):
            block = rng.integers(0, 256, 16, dtype=np.uint8).tobytes()
            assert decrypt_block(KEY, encrypt_block(KEY, block)) == block

    def test_rejects_bad_key_size(self):
        with pytest.raises(ConfigurationError):
            encrypt_block(b"short", bytes(16))

    def test_rejects_bad_block_size(self):
        with pytest.raises(ConfigurationError):
            encrypt_block(KEY, bytes(15))


class TestCmac:
    def test_rfc4493_vectors(self):
        message = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert aes_cmac(KEY, b"").hex() == \
            "bb1d6929e95937287fa37d129b756746"
        assert aes_cmac(KEY, message).hex() == \
            "070a16b46b4d4144f79bdd9dd04a287c"

    def test_rfc4493_multi_block(self):
        m40 = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c"
            "9eb76fac45af8e5130c81c46a35ce411")
        assert aes_cmac(KEY, m40).hex() == \
            "dfa66747de9ae63030ca32611497c827"

    def test_truncation(self):
        assert truncated_cmac(KEY, b"msg", 4) == aes_cmac(KEY, b"msg")[:4]
        with pytest.raises(ConfigurationError):
            truncated_cmac(KEY, b"msg", 0)

    def test_different_messages_differ(self):
        assert aes_cmac(KEY, b"a") != aes_cmac(KEY, b"b")


class TestFrames:
    def _frame(self, **overrides):
        defaults = dict(mtype=MType.UNCONFIRMED_UP, dev_addr=0x26011BDA,
                        fcnt=7, payload=b"sensor reading", fport=10)
        defaults.update(overrides)
        return DataFrame(**defaults)

    def test_serialize_deserialize_roundtrip(self):
        encoded = serialize(self._frame(), SESSION)
        decoded = deserialize(encoded, SESSION)
        assert decoded == self._frame()

    def test_payload_is_encrypted_on_air(self):
        encoded = serialize(self._frame(), SESSION)
        assert b"sensor reading" not in encoded

    def test_mic_tamper_detected(self):
        encoded = bytearray(serialize(self._frame(), SESSION))
        encoded[10] ^= 0x01
        with pytest.raises(MicError):
            deserialize(bytes(encoded), SESSION)

    def test_wrong_network_key_rejected(self):
        encoded = serialize(self._frame(), SESSION)
        other = SessionKeys(nwk_skey=bytes(16), app_skey=APP)
        with pytest.raises(MicError):
            deserialize(encoded, other)

    def test_wrong_app_key_garbles_payload_only(self):
        encoded = serialize(self._frame(), SESSION)
        other = SessionKeys(nwk_skey=NWK, app_skey=bytes(16))
        decoded = deserialize(encoded, other)
        assert decoded.payload != b"sensor reading"

    def test_crypto_involutive(self):
        cipher = encrypt_payload(b"data bytes", APP, 0x1234, 5, True)
        plain = encrypt_payload(cipher, APP, 0x1234, 5, True)
        assert plain == b"data bytes"

    def test_keystream_differs_per_counter(self):
        a = encrypt_payload(bytes(16), APP, 0x1234, 1, True)
        b = encrypt_payload(bytes(16), APP, 0x1234, 2, True)
        assert a != b

    def test_fopts_roundtrip(self):
        frame = self._frame(fopts=b"\x02\x30")
        decoded = deserialize(serialize(frame, SESSION), SESSION)
        assert decoded.fopts == b"\x02\x30"

    def test_port_zero_uses_network_key(self):
        frame = self._frame(fport=0, payload=b"\x02")
        decoded = deserialize(serialize(frame, SESSION), SESSION)
        assert decoded.payload == b"\x02"

    def test_downlink_direction(self):
        frame = self._frame(mtype=MType.UNCONFIRMED_DOWN)
        decoded = deserialize(serialize(frame, SESSION), SESSION)
        assert not decoded.is_uplink

    def test_rejects_join_types(self):
        with pytest.raises(ConfigurationError):
            serialize(self._frame(mtype=MType.JOIN_REQUEST), SESSION)

    def test_rejects_short_payloads(self):
        with pytest.raises(ConfigurationError):
            deserialize(bytes(8), SESSION)

    def test_rejects_oversize_fopts(self):
        with pytest.raises(ConfigurationError):
            self._frame(fopts=bytes(16))


class TestActivation:
    def _identity(self):
        return DeviceIdentity(dev_eui=0x70B3D57ED0000001,
                              app_eui=0x70B3D57ED0000000,
                              app_key=KEY)

    def test_otaa_join_flow(self):
        identity = self._identity()
        server = NetworkServer()
        server.register(identity)
        device = LoRaWanDevice(identity=identity)
        assert not device.activated
        accept = server.handle_join_request(device.start_join(0x0042))
        device.complete_join(accept)
        assert device.activated
        # Both ends derived the same keys: an uplink verifies.
        uplink = device.uplink(b"joined!", fport=2)
        frame = server.handle_uplink(uplink)
        assert frame.payload == b"joined!"

    def test_join_request_mic_checked(self):
        identity = self._identity()
        server = NetworkServer()
        server.register(identity)
        request = bytearray(build_join_request(identity, 1))
        request[5] ^= 0xFF
        with pytest.raises(MicError):
            server.handle_join_request(bytes(request))

    def test_unknown_device_rejected(self):
        server = NetworkServer()
        request = build_join_request(self._identity(), 1)
        with pytest.raises(ProtocolError):
            server.handle_join_request(request)

    def test_session_keys_depend_on_nonces(self):
        a = derive_session_keys(KEY, 1, 0x13, 100)
        b = derive_session_keys(KEY, 2, 0x13, 100)
        c = derive_session_keys(KEY, 1, 0x13, 101)
        assert a.nwk_skey != b.nwk_skey
        assert a.app_skey != c.app_skey

    def test_abp_flow(self):
        server = NetworkServer()
        server.personalize(0x26011001, SESSION)
        device = LoRaWanDevice(session=SESSION, dev_addr=0x26011001)
        assert device.activated
        frame = server.handle_uplink(device.uplink(b"abp data"))
        assert frame.payload == b"abp data"
        assert frame.dev_addr == 0x26011001

    def test_frame_counter_advances(self):
        device = LoRaWanDevice(session=SESSION, dev_addr=1)
        device.uplink(b"a")
        device.uplink(b"b")
        assert device.fcnt_up == 2

    def test_downlink_replay_rejected(self):
        device = LoRaWanDevice(session=SESSION, dev_addr=0x11)
        downlink = serialize(DataFrame(
            mtype=MType.UNCONFIRMED_DOWN, dev_addr=0x11, fcnt=5,
            payload=b"cmd"), SESSION)
        assert device.receive_downlink(downlink).payload == b"cmd"
        with pytest.raises(ProtocolError):
            device.receive_downlink(downlink)

    def test_uplink_requires_activation(self):
        with pytest.raises(ProtocolError):
            LoRaWanDevice().uplink(b"x")

    def test_join_requires_identity(self):
        with pytest.raises(ProtocolError):
            LoRaWanDevice().start_join(1)
