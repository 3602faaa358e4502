"""BLE beacon PHY.

* :mod:`~repro.phy.ble.packet` — advertising packets, CRC-24 and
  whitening;
* :mod:`~repro.phy.ble.gfsk` — the GFSK modulator and demodulator;
* :mod:`~repro.phy.ble.channels` — advertising channels and hopping.
"""
