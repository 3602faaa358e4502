"""Tests for the FPGA substrate: resources, FIFO, bitstreams, config."""

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    FifoOverflowError,
    FifoUnderflowError,
    FpgaError,
    ResourceExhaustedError,
)
from repro.fpga.bitstream import (
    BITSTREAM_BYTES,
    bitstream_fingerprint,
    generate_bitstream,
    generate_mcu_program,
)
from repro.fpga.config import (
    FpgaConfigurator,
    programming_time_s,
    transfer_time_s,
)
from repro.fpga.fifo import SampleFifo
from repro.fpga.resources import (
    LFE5U_25F_LUTS,
    ble_tx_design,
    concurrent_rx_design,
    fft_block,
    lora_rx_design,
    lora_tx_design,
    table6,
)


class TestResourceTable6:
    def test_tx_is_976_luts_at_every_sf(self):
        for sf in range(6, 13):
            assert lora_tx_design(sf).luts == 976

    def test_rx_matches_paper_exactly(self):
        expected = {6: 2656, 7: 2670, 8: 2700, 9: 2742, 10: 2786,
                    11: 2794, 12: 2818}
        assert {sf: rx for sf, (_, rx) in table6().items()} == expected

    def test_rx_utilization_around_11_percent(self):
        report = lora_rx_design(8)
        assert report.lut_utilization == pytest.approx(0.1125, abs=0.01)

    def test_ble_is_3_percent(self):
        assert ble_tx_design().lut_utilization == pytest.approx(0.03,
                                                                abs=0.002)

    def test_concurrent_pair_is_17_percent(self):
        report = concurrent_rx_design([8, 8])
        assert report.lut_utilization == pytest.approx(0.17, abs=0.005)

    def test_concurrent_scales_with_branches(self):
        two = concurrent_rx_design([8, 8]).luts
        three = concurrent_rx_design([8, 8, 8]).luts
        assert three > two

    def test_many_branches_exhaust_device(self):
        with pytest.raises(ResourceExhaustedError):
            concurrent_rx_design([12] * 16)

    def test_fft_grows_with_oversampling(self):
        assert fft_block(8, 2).luts > fft_block(8, 1).luts

    def test_fft_rejects_bad_sf(self):
        with pytest.raises(ConfigurationError):
            fft_block(13, 1)

    def test_designs_fit_device(self):
        for sf in range(6, 13):
            lora_rx_design(sf).check_fits()
        ble_tx_design().check_fits()

    def test_modulator_supports_all_sf_at_no_extra_cost(self):
        # Paper: "Our LoRa modulator supports all LoRa configurations
        # with different SF with no additional cost."
        costs = {lora_tx_design(sf).luts for sf in range(6, 13)}
        assert len(costs) == 1


class TestSampleFifo:
    def test_write_read_roundtrip(self, rng):
        fifo = SampleFifo()
        samples = rng.normal(size=100) + 1j * rng.normal(size=100)
        fifo.write(samples)
        assert np.allclose(fifo.read(100), samples)

    def test_capacity_126kb(self):
        fifo = SampleFifo()
        assert fifo.capacity_samples == 126 * 1024 // 4

    def test_overflow_raises(self):
        fifo = SampleFifo(capacity_bytes=40)  # 10 samples
        with pytest.raises(FifoOverflowError):
            fifo.write(np.zeros(11, dtype=complex))

    def test_overflow_drop_mode_counts(self):
        fifo = SampleFifo(capacity_bytes=40)
        written = fifo.write(np.zeros(15, dtype=complex),
                             drop_on_overflow=True)
        assert written == 10
        assert fifo.overflow_count == 5

    def test_underflow_raises(self):
        fifo = SampleFifo()
        fifo.write(np.zeros(5, dtype=complex))
        with pytest.raises(FifoUnderflowError):
            fifo.read(6)

    def test_fifo_order(self):
        fifo = SampleFifo()
        fifo.write(np.array([1 + 0j, 2 + 0j]))
        fifo.write(np.array([3 + 0j]))
        assert np.allclose(fifo.read(3), [1, 2, 3])

    def test_buffer_duration_at_4mhz(self):
        fifo = SampleFifo()
        assert fifo.max_buffer_duration_s(4e6) == pytest.approx(
            32256 / 4e6)

    def test_peak_occupancy_tracking(self):
        fifo = SampleFifo()
        fifo.write(np.zeros(50, dtype=complex))
        fifo.read(30)
        fifo.write(np.zeros(10, dtype=complex))
        assert fifo.peak_occupancy == 50


class TestBitstream:
    def test_size_is_579kb(self):
        assert len(generate_bitstream(0.1)) == BITSTREAM_BYTES

    def test_deterministic_per_seed(self):
        assert generate_bitstream(0.1, seed=7) == \
            generate_bitstream(0.1, seed=7)
        assert generate_bitstream(0.1, seed=7) != \
            generate_bitstream(0.1, seed=8)

    def test_utilization_changes_content(self):
        low = generate_bitstream(0.03, seed=1)
        high = generate_bitstream(0.5, seed=1)
        # Higher utilization -> more nonzero bytes.
        assert sum(b != 0 for b in high) > sum(b != 0 for b in low)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ConfigurationError):
            generate_bitstream(1.5)

    def test_fingerprint_stable_and_sensitive(self):
        stream = generate_bitstream(0.1, seed=3)
        assert bitstream_fingerprint(stream) == bitstream_fingerprint(stream)
        tampered = stream[:-1] + bytes((stream[-1] ^ 1,))
        assert bitstream_fingerprint(tampered) != \
            bitstream_fingerprint(stream)

    def test_mcu_program_size(self):
        assert len(generate_mcu_program()) == 78 * 1024


class TestConfigurator:
    def test_programming_time_near_22ms(self):
        assert programming_time_s() == pytest.approx(22e-3, rel=0.05)

    def test_transfer_time_scales_with_size(self):
        assert transfer_time_s(2000) == pytest.approx(2 * transfer_time_s(1000))

    def test_program_lifecycle(self):
        configurator = FpgaConfigurator()
        with pytest.raises(FpgaError):
            configurator.require_configured()
        stream = generate_bitstream(0.1)
        elapsed = configurator.program(stream)
        assert elapsed == pytest.approx(programming_time_s(), rel=0.01)
        configurator.require_configured()
        assert configurator.active_fingerprint == \
            bitstream_fingerprint(stream)
        configurator.shutdown()
        with pytest.raises(FpgaError):
            configurator.require_configured()

    def test_program_rejects_empty(self):
        with pytest.raises(FpgaError):
            FpgaConfigurator().program(b"")

    def test_config_statistics(self):
        configurator = FpgaConfigurator()
        configurator.program(b"x" * 1000)
        configurator.program(b"y" * 1000)
        assert configurator.config_count == 2
        assert configurator.total_config_time_s > 0
