"""Platform catalogs: the paper's comparison tables and the BOM.

:mod:`~repro.platforms.catalog` holds Tables 1 and 2 (SDR platforms and
I/Q radio chips); :mod:`~repro.platforms.cost` the Table 5 BOM.
"""
