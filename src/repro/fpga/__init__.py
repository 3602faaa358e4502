"""FPGA substrate.

* :mod:`~repro.fpga.resources` — the LFE5U-25F budget and Table 6 designs;
* :mod:`~repro.fpga.fifo` — the sample FIFO between radio and fabric;
* :mod:`~repro.fpga.bitstream` — synthetic bitstreams and MCU programs;
* :mod:`~repro.fpga.config` — quad-SPI configuration and its timing.
"""
