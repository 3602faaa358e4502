"""Channel substrate.

* :mod:`~repro.channel.awgn` — complex AWGN and noise-only captures;
* :mod:`~repro.channel.impairments` — CFO, DC offset, I/Q imbalance and
  phase noise;
* :mod:`~repro.channel.link` — the link budget and the received signal;
* :mod:`~repro.channel.pathloss` — the log-distance path-loss model.
"""
