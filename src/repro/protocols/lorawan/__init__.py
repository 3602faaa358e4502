"""LoRaWAN 1.0 MAC.

* :mod:`~repro.protocols.lorawan.aes`, :mod:`~repro.protocols.lorawan.cmac`
  — AES-128 and CMAC;
* :mod:`~repro.protocols.lorawan.frames` — the frame codec and MIC;
* :mod:`~repro.protocols.lorawan.mac` — devices and the network server;
* :mod:`~repro.protocols.lorawan.channels` — channel plans and duty cycle;
* :mod:`~repro.protocols.lorawan.timing` — Class A receive windows;
* :mod:`~repro.protocols.lorawan.adr` — adaptive data rate.
"""
