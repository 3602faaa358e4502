"""Campus testbed: node deployments, which :mod:`repro.ota` places nodes with.

OTA programming campaigns over a deployment run on
:class:`repro.ota.AccessPoint`; the mobile-node and multi-hop scenarios,
which build on the OTA MAC, are imported from their own modules.
"""

from repro.testbed.deployment import (
    Deployment,
    NodePlacement,
    TESTBED_SIZE,
    campus_deployment,
)

__all__ = [
    "Deployment",
    "NodePlacement",
    "TESTBED_SIZE",
    "campus_deployment",
]
