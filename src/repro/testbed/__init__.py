"""Campus testbed: node deployments, mobility and multi-hop relaying.

OTA programming campaigns over a deployment run on
:class:`repro.ota.AccessPoint`.
"""

from repro.testbed.deployment import (
    Deployment,
    NodePlacement,
    TESTBED_SIZE,
    campus_deployment,
)
from repro.testbed.mobility import (
    MobilePath,
    MobileTransferResult,
    Waypoint,
    simulate_mobile_transfer,
)

__all__ = [
    "MobilePath",
    "MobileTransferResult",
    "Waypoint",
    "simulate_mobile_transfer",
    "Deployment",
    "NodePlacement",
    "TESTBED_SIZE",
    "campus_deployment",
]
