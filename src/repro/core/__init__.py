"""The platform core.

* :mod:`~repro.core.tinysdr` — ``TinySdr``, the one-node platform facade;
* :mod:`~repro.core.timing` — the Table 4 operation timings;
* :mod:`~repro.core.firmware` — the catalog of firmware images;
* :mod:`~repro.core.sweeps` — the RSSI sweeps behind the PHY figures.
"""
