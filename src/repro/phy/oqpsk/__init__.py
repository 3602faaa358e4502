"""IEEE 802.15.4 O-QPSK PHY (the ZigBee physical layer).

* :mod:`~repro.phy.oqpsk.spreading` — symbol-to-chip spreading and
  despreading;
* :mod:`~repro.phy.oqpsk.modem` — the O-QPSK modulator and demodulator;
* :mod:`~repro.phy.oqpsk.frame` — frames, CRC-16 and the transceiver.
"""
