"""Synthetic ECP5 bitstream generation.

The OTA evaluation (paper section 5.3) hinges on bitstream properties:
raw programming files are 579 kB regardless of design, but their miniLZO
compressibility tracks FPGA utilization - the LoRa demodulator design
(11 % of LUTs) compresses to 99 kB while the BLE design (3 %) compresses
to 40 kB.  We cannot ship Lattice's proprietary bitstreams, so this
module generates synthetic ones with the property that matters: a fixed
container size whose configured fraction carries high-entropy
configuration frames and whose unused fraction is structured fill.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError

BITSTREAM_BYTES = 579 * 1024  # paper: section 5.3 (579 kB programming file)
"""'Raw programming files for our FPGA are 579 kB' (paper 5.3)."""

FRAME_BYTES = 64  # datasheet: Lattice ECP5 configuration frame granularity
_HEADER = b"\xff\x00LFE5U-25F-synthetic\x00"

ROUTING_OVERHEAD = 1.29  # paper: section 5.3 (compressed-size calibration)
"""Configuration-frame footprint per unit of LUT utilization.  A design
does not only configure its LUTs: routing, I/O and clocking multiply the
touched-frame fraction.  Solving the paper's two (utilization, compressed
size) data points - 11 % -> 99 kB and 3 % -> 40 kB - for a common factor
gives 1.29 for both, which is the consistency check behind this value."""

_MARKER_PERIOD = 288
"""Unused fabric is not perfectly uniform: frame addresses/CRCs recur at
this period, costing the compressor ~2 bytes each - the residual ~3 %
floor that keeps an empty bitstream from compressing to nothing."""


def generate_bitstream(utilization: float, seed: int = 0,
                       size_bytes: int = BITSTREAM_BYTES) -> bytes:
    """Create a synthetic bitstream for a design of given LUT utilization.

    The stream is a header followed by configuration frames.  A fraction
    ``utilization`` of the frames (spread uniformly, as placed logic is)
    contains pseudo-random configuration bits; the rest holds the
    repetitive default-frame pattern real unused fabric produces.

    Args:
        utilization: fraction of the fabric carrying logic, in [0, 1].
        seed: deterministic content seed.
        size_bytes: total container size.

    Raises:
        ConfigurationError: for utilization outside [0, 1] or a container
            smaller than the header.
    """
    if not 0.0 <= utilization <= 1.0:
        raise ConfigurationError(
            f"utilization must be in [0, 1], got {utilization!r}")
    if size_bytes <= len(_HEADER):
        raise ConfigurationError(
            f"bitstream must exceed the {len(_HEADER)}-byte header")
    body_bytes = size_bytes - len(_HEADER)
    num_frames = body_bytes // FRAME_BYTES
    remainder = body_bytes - num_frames * FRAME_BYTES
    rng = np.random.default_rng(seed)
    touched = min(1.0, utilization * ROUTING_OVERHEAD)
    used = rng.random(num_frames) < touched
    frames = bytearray()
    for frame_used in used:
        if frame_used:
            frames += rng.integers(0, 256, FRAME_BYTES,
                                   dtype=np.uint8).tobytes()
        else:
            frames += bytes(FRAME_BYTES)
    frames += b"\x00" * remainder
    # Frame address/CRC markers recur through used and unused fabric alike.
    for offset in range(0, len(frames) - 1, _MARKER_PERIOD):
        marker = int(rng.integers(0, 1 << 16))
        frames[offset] = marker & 0xFF
        frames[offset + 1] = marker >> 8
    return _HEADER + bytes(frames)


def bitstream_fingerprint(bitstream: bytes) -> str:
    """Stable content hash for verifying flash/OTA integrity end to end."""
    return hashlib.sha256(bitstream).hexdigest()


def generate_mcu_program(size_bytes: int = 78 * 1024, seed: int = 1,
                         code_fraction: float = 0.35) -> bytes:
    """Synthetic MCU firmware image (paper: ~78 kB for LoRa and BLE).

    Compiled Cortex-M code mixes dense opcode regions with tables and
    zero-initialized data; ``code_fraction`` controls the high-entropy
    share, chosen so miniLZO lands near the paper's 24 kB compressed size.
    """
    if size_bytes <= 0:
        raise ConfigurationError(f"size must be positive, got {size_bytes}")
    if not 0.0 <= code_fraction <= 1.0:
        raise ConfigurationError(
            f"code fraction must be in [0, 1], got {code_fraction!r}")
    rng = np.random.default_rng(seed)
    code_bytes = int(size_bytes * code_fraction)
    code = rng.integers(0, 256, code_bytes, dtype=np.uint8).tobytes()
    filler = (b"\x00\x00\x00\x00\xaa\x55" * (size_bytes // 6 + 1))
    data = filler[:size_bytes - code_bytes]
    return code + data
