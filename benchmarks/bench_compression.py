"""Reproduce paper section 5.3: firmware compression and decompression.

miniLZO shrinks the 579 kB FPGA bitstream to ~99 kB (LoRa, 11 %
utilization) or ~40 kB (BLE, 3 %), and the ~78 kB MCU programs to
~24 kB; node-side block decompression takes at most 450 ms.
"""

import time

from _report import format_table, publish

from repro.fpga.bitstream import generate_bitstream, generate_mcu_program
from repro.mcu.msp432 import DECOMPRESS_BANDWIDTH_BPS
from repro.ota.blocks import (
    BLOCK_BYTES,
    compression_summary,
    reassemble,
    split_and_compress,
)

PAPER_KB = {"FPGA: LoRa": 99.0, "FPGA: BLE": 40.0, "MCU": 24.0}


def run_compression():
    images = {
        "FPGA: LoRa": generate_bitstream(0.1125, seed=42),
        "FPGA: BLE": generate_bitstream(0.03, seed=43),
        "MCU": generate_mcu_program(seed=44),
    }
    results = {}
    for label, image in images.items():
        summary = compression_summary(image)
        blocks = split_and_compress(image)
        start = time.perf_counter()
        recovered = reassemble(blocks)
        host_decompress_s = time.perf_counter() - start
        assert recovered == image
        mcu_decompress_s = len(image) * 8 / DECOMPRESS_BANDWIDTH_BPS
        results[label] = (summary, host_decompress_s, mcu_decompress_s)
    return results


def test_compression_pipeline(benchmark):
    results = benchmark.pedantic(run_compression, rounds=1, iterations=1)
    rows = []
    for label, (summary, host_s, mcu_s) in results.items():
        rows.append([
            label,
            f"{summary['raw_bytes'] / 1024:.0f} kB",
            f"{summary['compressed_bytes'] / 1024:.1f} kB",
            f"{PAPER_KB[label]:.0f} kB",
            f"{int(summary['blocks'])}x{BLOCK_BYTES // 1024} kB",
            f"{mcu_s * 1e3:.0f} ms",
        ])
    publish("compression", format_table(
        "Section 5.3: miniLZO Compression (measured vs paper)",
        ["Image", "Raw", "Compressed", "Paper", "Blocks",
         "MCU decompress"], rows))

    for label, (summary, _, mcu_s) in results.items():
        paper_kb = PAPER_KB[label]
        measured_kb = summary["compressed_bytes"] / 1024
        assert abs(measured_kb - paper_kb) / paper_kb < 0.20, label
        # Paper: decompression takes at most 450 ms.
        assert mcu_s <= 0.45, label
    # Compression ratio ordering tracks FPGA utilization.
    assert results["FPGA: LoRa"][0]["ratio"] > results["FPGA: BLE"][0]["ratio"]
