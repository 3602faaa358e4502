"""On-board machine learning (paper section 7, the DeepSense use case).

:mod:`~repro.ml.mlp` holds the classifier and its quantized FPGA
version; :mod:`~repro.ml.carrier_sense` the carrier-sense study.
"""
