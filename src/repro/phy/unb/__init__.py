"""Ultra-narrowband (Sigfox-class) DBPSK PHY.

:mod:`repro.phy.unb.dbpsk` holds the whole PHY.
"""
