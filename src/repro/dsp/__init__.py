"""Digital signal processing substrate: what the FPGA does to samples.

* :mod:`~repro.dsp.nco` — NCO chirp synthesis;
* :mod:`~repro.dsp.filters` — FIR design and block/streaming filtering;
* :mod:`~repro.dsp.fft` — FFTs and the radix-2 butterfly model;
* :mod:`~repro.dsp.pulse` — Gaussian pulse shaping;
* :mod:`~repro.dsp.fixedpoint` — quantization to converter codes;
* :mod:`~repro.dsp.measure` — power, SNR, spectra and dynamic range.
"""
