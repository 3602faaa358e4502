"""Radio substrate.

* :mod:`~repro.radio.at86rf215` — the AT86RF215 I/Q radio and its
  Table 2/4 numbers;
* :mod:`~repro.radio.iqword`, :mod:`~repro.radio.lvds` — the I/Q word
  format and the LVDS interface;
* :mod:`~repro.radio.registers` — the radio's register map;
* :mod:`~repro.radio.frontend` — external RF front ends;
* :mod:`~repro.radio.sx1276` — the SX1276 backbone link budget.
"""
