"""Performance subsystem.

:mod:`repro.perf.cache` is the keyed plan cache for the derived
substrates the Fig. 6 pipelines share (chirp tables, FFT plans, NCO
lookup tables, FIR taps); :mod:`repro.perf.timing` is the throughput
harness of the hot-path benchmarks.
"""
