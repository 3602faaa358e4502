"""Campus testbed.

:mod:`~repro.testbed.deployment` places the nodes;
:mod:`~repro.testbed.mobility` and :mod:`~repro.testbed.multihop` hold
the mobile-node and multi-hop scenarios, which build on the OTA MAC.
"""
