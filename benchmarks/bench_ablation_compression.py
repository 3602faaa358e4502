"""Ablation: what miniLZO buys the OTA system (paper 3.4).

"Our system compresses data to reduce update times."  This bench runs
the same FPGA update with and without compression and reports the
airtime, wall-clock and energy differences - plus the MCU-memory
constraint that forced the 30 kB block design.
"""

import numpy as np
from _report import format_table, publish

from repro.errors import MemoryError_
from repro.fpga.bitstream import generate_bitstream
from repro.mcu.msp432 import Msp432
from repro.ota.blocks import BLOCK_BYTES, split_and_compress
from repro.ota.mac import OtaLink, simulate_transfer
from repro.ota.updater import OtaUpdater


def run_ablation(rng):
    image = generate_bitstream(0.1125, seed=42)
    link = OtaLink(downlink_rssi_dbm=-100.0)
    compressed = OtaUpdater().update(image, link, rng)
    raw_transfer = simulate_transfer(image, link, rng)
    return image, compressed, raw_transfer


def test_ablation_compression(benchmark, rng):
    image, compressed, raw = benchmark.pedantic(run_ablation, args=(rng,),
                                                rounds=1, iterations=1)
    rows = [
        ["bytes over the air", f"{compressed.compressed_bytes / 1024:.0f} kB",
         f"{len(image) / 1024:.0f} kB"],
        ["transfer time", f"{compressed.transfer.duration_s:.0f} s",
         f"{raw.duration_s:.0f} s"],
        ["node decompress", f"{compressed.decompress_time_s * 1e3:.0f} ms",
         "-"],
    ]
    publish("ablation_compression", format_table(
        "Ablation: miniLZO vs raw OTA transfer (LoRa FPGA image)",
        ["Metric", "compressed", "raw"], rows))

    # Compression cuts the update time by ~5x for the LoRa image...
    assert raw.duration_s / compressed.total_time_s > 4.0
    # ...at a decompression cost that is noise (paper: <= 450 ms).
    assert compressed.decompress_time_s < 0.01 * compressed.total_time_s

    # And the block design exists because the whole image cannot be
    # decompressed in SRAM: a single-block pipeline blows the budget.
    mcu = Msp432()
    mcu.sram.allocate("runtime", 20 * 1024)
    whole = split_and_compress(image, block_bytes=len(image))
    try:
        from repro.ota.blocks import reassemble
        reassemble(whole, sram=mcu.sram)
        raise AssertionError("whole-image decompression must not fit")
    except MemoryError_:
        pass
    # The paper's 30 kB blocks do fit.
    blocks = split_and_compress(image, block_bytes=BLOCK_BYTES)
    from repro.ota.blocks import reassemble
    assert reassemble(blocks, sram=mcu.sram) == image
