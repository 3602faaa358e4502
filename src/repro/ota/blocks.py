"""Block-oriented compression pipeline (paper section 3.4).

miniLZO decompression needs a buffer the size of the uncompressed data; a
579 kB bitstream will not fit in the MSP432's 64 kB SRAM.  The paper's
answer: "we first divide the original update file into blocks of 30 kB
that will fit in the MCU memory.  Then we compress each block separately
and transmit them one by one."  The node later decompresses block by
block - allocate 30 kB, load a block from flash, decompress, write back.

This module implements both directions with explicit memory accounting,
so the test suite can prove the node-side path never exceeds the SRAM
budget - the constraint that motivated the design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CompressionError, ConfigurationError
from repro.mcu.msp432 import MemoryBank
from repro.ota import minilzo

BLOCK_BYTES = 30 * 1024
"""The paper's block size: fits in MCU SRAM next to the runtime."""

BLOCK_HEADER_BYTES = 6
"""Wire header ahead of each block: index, raw size and payload size,
two big-endian bytes each."""


@dataclass(frozen=True)
class CompressedBlock:
    """One independently-compressed block.

    Attributes:
        index: block sequence number.
        raw_size: uncompressed byte count (the last block may be short).
        payload: compressed bytes.
    """

    index: int
    raw_size: int
    payload: bytes

    def header(self) -> bytes:
        """The :data:`BLOCK_HEADER_BYTES` wire header."""
        if self.raw_size > 0xFFFF or len(self.payload) > 0xFFFF:
            raise ConfigurationError("block exceeds the 16-bit size fields")
        return (self.index.to_bytes(2, "big")
                + self.raw_size.to_bytes(2, "big")
                + len(self.payload).to_bytes(2, "big"))


def split_and_compress(data: bytes,
                       block_bytes: int = BLOCK_BYTES) -> list[CompressedBlock]:
    """AP-side pipeline: segment the image and compress each block.

    Raises:
        ConfigurationError: for empty input or a non-positive block size.
    """
    if not data:
        raise ConfigurationError("cannot compress an empty image")
    if block_bytes <= 0:
        raise ConfigurationError(
            f"block size must be positive, got {block_bytes}")
    blocks = []
    for index, start in enumerate(range(0, len(data), block_bytes)):
        raw = data[start:start + block_bytes]
        blocks.append(CompressedBlock(
            index=index, raw_size=len(raw), payload=minilzo.compress(raw)))
    return blocks


def reassemble(blocks: list[CompressedBlock],
               sram: MemoryBank | None = None,
               region_name: str = "ota_decompress") -> bytes:
    """Node-side pipeline: decompress blocks in order, bounded by SRAM.

    Args:
        blocks: the received compressed blocks.
        sram: when given, a 30 kB-class working buffer is allocated in the
            bank for the duration of each block - the call fails exactly
            when the real MCU would run out of memory.
        region_name: allocation label inside ``sram``.

    Raises:
        CompressionError: for out-of-order/missing blocks or corrupt data.
    """
    if not blocks:
        raise CompressionError("no blocks to reassemble")
    output = bytearray()
    for expected_index, block in enumerate(blocks):
        if block.index != expected_index:
            raise CompressionError(
                f"block {block.index} arrived where {expected_index} was "
                "expected")
        if sram is not None:
            sram.allocate(region_name, max(block.raw_size, 1))
        try:
            output += minilzo.decompress(block.payload, block.raw_size)
        finally:
            if sram is not None:
                sram.release(region_name)
    return bytes(output)


def wire_image(blocks: list[CompressedBlock]) -> bytes:
    """The bytes an OTA session sends: each block's header, then payload."""
    return b"".join(block.header() + block.payload for block in blocks)


def parse_wire_image(wire: bytes) -> list[CompressedBlock]:
    """Parse a staged wire image (header + payload stream) into blocks.

    This is the node-side inverse of :func:`wire_image` - the hardened
    updater reads the staged bytes back from flash and re-parses them,
    so any corruption the flash introduced surfaces here or in the
    per-block decompression as a typed error instead of silently
    propagating.

    Raises:
        CompressionError: for truncated headers or payloads, or an empty
            stream.
    """
    blocks: list[CompressedBlock] = []
    cursor = 0
    while cursor < len(wire):
        if cursor + BLOCK_HEADER_BYTES > len(wire):
            raise CompressionError(
                f"truncated block header at offset {cursor}")
        index = int.from_bytes(wire[cursor:cursor + 2], "big")
        raw_size = int.from_bytes(wire[cursor + 2:cursor + 4], "big")
        payload_size = int.from_bytes(wire[cursor + 4:cursor + 6], "big")
        cursor += BLOCK_HEADER_BYTES
        if payload_size == 0 or cursor + payload_size > len(wire):
            raise CompressionError(
                f"block {index} claims {payload_size} payload bytes but "
                f"only {len(wire) - cursor} remain")
        blocks.append(CompressedBlock(
            index=index, raw_size=raw_size,
            payload=bytes(wire[cursor:cursor + payload_size])))
        cursor += payload_size
    if not blocks:
        raise CompressionError("empty wire image")
    return blocks


def total_compressed_bytes(blocks: list[CompressedBlock]) -> int:
    """Airtime-relevant byte count: the length of :func:`wire_image`."""
    return (sum(len(block.payload) for block in blocks)
            + BLOCK_HEADER_BYTES * len(blocks))


def compression_summary(data: bytes,
                        block_bytes: int = BLOCK_BYTES) -> dict[str, float]:
    """Report the numbers paper section 5.3 quotes for an image."""
    blocks = split_and_compress(data, block_bytes)
    compressed = total_compressed_bytes(blocks)
    return {
        "raw_bytes": float(len(data)),
        "compressed_bytes": float(compressed),
        "ratio": compressed / len(data),
        "blocks": float(len(blocks)),
    }
