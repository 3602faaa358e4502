"""Tests for the multi-hop mesh substrate."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.phy.lora import LoRaParams
from repro.testbed.deployment import campus_deployment
from repro.testbed.multihop import (
    GATEWAY_ID,
    MeshGraph,
    coverage_report,
    simulate_delivery,
)


@pytest.fixture(scope="module")
def wide_deployment():
    # Large radius so some nodes are out of direct gateway range.
    return campus_deployment(max_radius_m=5000.0, exponent=3.4,
                             shadowing_sigma_db=0.0, seed=8)


@pytest.fixture(scope="module")
def graph(wide_deployment):
    return MeshGraph(wide_deployment, params=LoRaParams(8, 125e3))


class TestGraph:
    def test_links_respect_per_ceiling(self, graph):
        assert graph.links
        assert all(link.per <= graph.max_per for link in graph.links)

    def test_close_pairs_are_linked(self, graph, wide_deployment):
        nodes = sorted(wide_deployment.nodes, key=lambda n: n.distance_m)
        nearest = nodes[0]
        assert any(l.destination == nearest.node_id
                   for l in graph.neighbors(GATEWAY_ID))

    def test_mesh_extends_coverage(self, graph):
        report = coverage_report(graph)
        assert report["mesh_coverage"] >= report["direct_coverage"]
        assert report["mesh_coverage"] > 0.5

    def test_route_to_direct_neighbor_is_one_hop(self, graph):
        direct = graph.neighbors(GATEWAY_ID)[0]
        path = graph.route(GATEWAY_ID, direct.destination)
        assert len(path) == 1
        assert path[0].destination == direct.destination

    def test_route_to_far_node_uses_relays(self, graph, wide_deployment):
        report = coverage_report(graph)
        direct_ids = {l.destination for l in graph.neighbors(GATEWAY_ID)}
        meshed_only = [n.node_id for n in wide_deployment.nodes
                       if n.node_id not in direct_ids]
        reachable = []
        for node_id in meshed_only:
            try:
                reachable.append(graph.route(GATEWAY_ID, node_id))
            except ProtocolError:
                pass
        assert reachable, "expected at least one relay-only node"
        assert all(len(path) >= 2 for path in reachable)

    def test_route_path_is_contiguous(self, graph, wide_deployment):
        node = max(wide_deployment.nodes, key=lambda n: n.distance_m)
        try:
            path = graph.route(GATEWAY_ID, node.node_id)
        except ProtocolError:
            pytest.skip("farthest node unreachable in this draw")
        assert path[0].source == GATEWAY_ID
        for a, b in zip(path, path[1:]):
            assert a.destination == b.source
        assert path[-1].destination == node.node_id

    def test_unknown_destination_rejected(self, graph):
        with pytest.raises(ConfigurationError):
            graph.route(GATEWAY_ID, 999)

    def test_bad_per_ceiling_rejected(self, wide_deployment):
        with pytest.raises(ConfigurationError):
            MeshGraph(wide_deployment, max_per=1.5)


class TestDelivery:
    def test_delivery_over_good_route(self, graph, rng):
        direct = graph.neighbors(GATEWAY_ID)[0]
        path = graph.route(GATEWAY_ID, direct.destination)
        result = simulate_delivery(graph, path, rng)
        assert result.delivered
        assert result.hops == 1
        assert result.transmissions >= 1

    def test_multihop_delivery(self, graph, wide_deployment, rng):
        direct_ids = {l.destination for l in graph.neighbors(GATEWAY_ID)}
        targets = [n.node_id for n in wide_deployment.nodes
                   if n.node_id not in direct_ids]
        delivered = 0
        attempted = 0
        for node_id in targets:
            try:
                path = graph.route(GATEWAY_ID, node_id)
            except ProtocolError:
                continue
            attempted += 1
            result = simulate_delivery(graph, path, rng)
            delivered += int(result.delivered)
        if attempted == 0:
            pytest.skip("no relay-only targets in this draw")
        assert delivered / attempted > 0.7

    def test_latency_grows_with_hops(self, graph, wide_deployment, rng):
        one_hop_target = graph.neighbors(GATEWAY_ID)[0].destination
        one_hop = simulate_delivery(
            graph, graph.route(GATEWAY_ID, one_hop_target), rng)
        multi = None
        for node in sorted(wide_deployment.nodes,
                           key=lambda n: -n.distance_m):
            try:
                path = graph.route(GATEWAY_ID, node.node_id)
            except ProtocolError:
                continue
            if len(path) >= 2:
                multi = simulate_delivery(graph, path, rng)
                break
        if multi is None or not multi.delivered:
            pytest.skip("no successful multi-hop delivery in this draw")
        assert multi.latency_s > one_hop.latency_s
