"""Phase-based localization primitives (paper section 7).

:mod:`repro.localization.ranging` holds multicarrier ranging and
angle-of-arrival estimation.
"""
