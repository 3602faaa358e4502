"""Research opportunity (paper section 7): machine learning on-board.

"This would allow researchers to explore trade-offs between the power
overhead of running an on-board classifier versus sending data to the
cloud."  This bench runs that exact trade-off for the DeepSense use case
the paper cites - learned carrier sense for sub-noise LoRa - across an
SNR ladder, and prices the on-board classifier against shipping raw I/Q.
"""

import numpy as np
from _report import format_table, publish

from repro.ml.carrier_sense import run_carrier_sense_study
from repro.ml.mlp import fpga_inference_cost

SNR_RANGES = [(-8.0, -2.0), (-12.0, -6.0), (-16.0, -10.0), (-22.0, -16.0)]


def run_study(rng):
    results = []
    for snr_range in SNR_RANGES:
        study = run_carrier_sense_study(
            rng, snr_range_db=snr_range, train_per_class=250,
            test_per_class=100, epochs=40)
        results.append((snr_range, study))
    return results


def test_ml_carrier_sense(benchmark, rng):
    results = benchmark.pedantic(run_study, args=(rng,), rounds=1,
                                 iterations=1)
    rows = []
    for (low, high), study in results:
        rows.append([
            f"{low:.0f}..{high:.0f} dB",
            f"{study.float_accuracy * 100:.1f}%",
            f"{study.quantized_accuracy * 100:.1f}%",
        ])
    study = results[0][1]
    rows.append(["on-board inference",
                 f"{study.fpga_cost['luts']:.0f} LUTs",
                 f"{study.fpga_cost['energy_per_inference_j'] * 1e9:.0f} nJ"])
    rows.append(["ship raw I/Q instead", "-",
                 f"{study.tx_raw_energy_j * 1e3:.0f} mJ"])
    rows.append(["energy advantage", "-",
                 f"{study.energy_advantage:.0e}x"])
    publish("ml_carrier_sense", format_table(
        "Section 7 study: learned carrier sense (busy/idle at sub-noise "
        "SNR)", ["SNR range", "float accuracy", "8-bit accuracy"], rows))

    accuracies = [study.float_accuracy for _, study in results]
    # Strong detection where energy detection is already blind (<0 dB)...
    assert accuracies[0] > 0.9
    # ...degrading monotonically-ish toward the deepest range.
    assert accuracies[0] > accuracies[-1]
    # Quantization is nearly free at every point.
    for _, study in results:
        assert study.quantized_accuracy > study.float_accuracy - 0.07
    # The classifier plus the LoRa demodulator fit the FPGA together.
    from repro.fpga.resources import LFE5U_25F_LUTS, lora_rx_design
    assert results[0][1].fpga_cost["luts"] + lora_rx_design(8).luts \
        < 0.2 * LFE5U_25F_LUTS
    # Orders of magnitude cheaper than cloud offload.
    assert results[0][1].energy_advantage > 1e4
