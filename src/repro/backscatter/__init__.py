"""Backscatter reader/tag building blocks (paper section 7).

:mod:`repro.backscatter.system` holds the whole model.
"""
