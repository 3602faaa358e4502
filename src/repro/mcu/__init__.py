"""MCU substrate.

:mod:`repro.mcu.msp432` models the MSP432: memory budgets, power modes,
ledger and miniLZO decompression rate.
"""
