"""Over-the-air programming (paper section 3.4).

* :mod:`~repro.ota.minilzo`, :mod:`~repro.ota.blocks` — compression and
  the block wire image;
* :mod:`~repro.ota.mac` — wire messages, the stop-and-wait transfer,
  and the ledger names and outcome labels every engine shares;
* :mod:`~repro.ota.flash`, :mod:`~repro.ota.bank` — the NOR flash and
  the dual-bank layout;
* :mod:`~repro.ota.updater`, :mod:`~repro.ota.hardened` — the classic
  and the fault-tolerant node session;
* :mod:`~repro.ota.ap` — the access point's per-node campaign;
* :mod:`~repro.ota.broadcast` — the broadcast MAC ablation;
* :mod:`repro.ota.fleet` — the vectorized fleet engine.
"""
