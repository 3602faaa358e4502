"""Campus testbed deployments (paper Fig. 7).

The paper deploys 20 tinySDR nodes across the UW campus and programs
them from a single LoRa AP.  The published map is anonymized, so this
module generates synthetic campus-scale deployments whose distance
distribution spans the same operating regime: most nodes within a few
hundred meters of the AP, a tail approaching the kilometer scale where
SF8/BW500 links get marginal and programming slows - the spread Fig. 14's
CDF shows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.channel.pathloss import LogDistanceModel
from repro.errors import ConfigurationError

TESTBED_SIZE = 20
"""Node count of the paper's campus deployment."""

FREQUENCY_HZ = 915e6  # units: Hz, 915 MHz ISM band
"""Carrier of the campus backbone link."""

PATHLOSS_EXPONENT = 3.4
"""Log-distance path-loss exponent of the campus channel."""

SHADOWING_SIGMA_DB = 4.0
"""Lognormal shadowing sigma of the campus channel."""

AP_TX_POWER_DBM = 14.0
NODE_TX_POWER_DBM = 14.0
AP_ANTENNA_GAIN_DBI = 6.0
"""The paper's AP uses a patch antenna."""

KEEP_OUT_M = 30.0
"""Keep-out radius around the AP: no node sits on the AP's roof."""

CAMPUS_RADIUS_M = 1050.0
"""Default deployment disk radius: the tail reaches the kilometer scale
where SF8/BW500 links get marginal."""


def check_max_radius(max_radius_m: float) -> None:
    """Refuse a deployment radius outside ``(KEEP_OUT_M, inf)``.

    The chained comparison is false for NaN, so NaN is refused too.

    Raises:
        ConfigurationError: naming ``max_radius_m`` and the value.
    """
    if not KEEP_OUT_M < max_radius_m < math.inf:
        raise ConfigurationError(
            f"max_radius_m must exceed the {KEEP_OUT_M:g} m keep-out and "
            f"be finite, got {max_radius_m!r}")


@dataclass(frozen=True)
class NodePlacement:
    """One deployed node.

    Attributes:
        node_id: testbed identifier.
        x_m: east offset from the AP.
        y_m: north offset from the AP.
    """

    node_id: int
    x_m: float
    y_m: float

    @property
    def distance_m(self) -> float:
        """Distance to the AP at the origin."""
        return float(np.hypot(self.x_m, self.y_m))


@dataclass(frozen=True)
class Deployment:
    """A testbed: node placements plus the radio environment."""

    nodes: tuple[NodePlacement, ...]
    channel: LogDistanceModel
    ap_tx_power_dbm: float = AP_TX_POWER_DBM
    node_tx_power_dbm: float = NODE_TX_POWER_DBM
    ap_antenna_gain_dbi: float = AP_ANTENNA_GAIN_DBI

    def downlink_rssi_dbm(self, node: NodePlacement,
                          rng: np.random.Generator | None = None) -> float:
        """Node-side RSSI of AP transmissions."""
        return self.channel.received_power_dbm(
            self.ap_tx_power_dbm, node.distance_m,
            tx_gain_dbi=self.ap_antenna_gain_dbi, rng=rng)

    def uplink_rssi_dbm(self, node: NodePlacement,
                        rng: np.random.Generator | None = None) -> float:
        """AP-side RSSI of node transmissions."""
        return self.channel.received_power_dbm(
            self.node_tx_power_dbm, node.distance_m,
            rx_gain_dbi=self.ap_antenna_gain_dbi, rng=rng)


def campus_deployment(num_nodes: int = TESTBED_SIZE, seed: int = 2020,
                      frequency_hz: float = FREQUENCY_HZ,
                      max_radius_m: float = CAMPUS_RADIUS_M,
                      exponent: float = PATHLOSS_EXPONENT,
                      shadowing_sigma_db: float = SHADOWING_SIGMA_DB
                      ) -> Deployment:
    """Generate a campus-scale deployment around an AP at the origin.

    Node distances follow a square-root-uniform radial draw (uniform
    density over the disk) outside the :data:`KEEP_OUT_M` keep-out.

    Raises:
        ConfigurationError: for non-positive node counts, or a radius
            that is not finite or does not exceed the keep-out.
    """
    if num_nodes <= 0:
        raise ConfigurationError(
            f"need at least one node, got {num_nodes}")
    check_max_radius(max_radius_m)
    rng = np.random.default_rng(seed)
    radii = KEEP_OUT_M + (max_radius_m - KEEP_OUT_M) \
        * np.sqrt(rng.random(num_nodes))
    angles = rng.random(num_nodes) * 2.0 * np.pi
    nodes = tuple(
        NodePlacement(node_id=i,
                      x_m=float(r * np.cos(a)),
                      y_m=float(r * np.sin(a)))
        for i, (r, a) in enumerate(zip(radii, angles)))
    channel = LogDistanceModel(
        frequency_hz=frequency_hz, exponent=exponent,
        shadowing_sigma_db=shadowing_sigma_db)
    return Deployment(nodes=nodes, channel=channel)
