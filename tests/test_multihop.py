"""Tests for the multihop extension (topologies, layer, flooding)."""

import pytest

from repro.adversary.loss import IIDLoss
from repro.algorithms.alg2 import algorithm_2
from repro.contention.services import NoContentionManager, WakeUpService
from repro.core.algorithm import Algorithm
from repro.core.consensus import evaluate
from repro.core.environment import Environment
from repro.core.errors import ConfigurationError
from repro.core.execution import run_algorithm, run_consensus
from repro.core.process import ScriptedProcess
from repro.core.types import COLLISION, NULL
from repro.detectors.properties import AccuracyMode, Completeness
from repro.substrate.multihop import (
    MultihopLayer,
    MultihopNetwork,
    flood,
)


# ----------------------------------------------------------------------
# Topologies
# ----------------------------------------------------------------------
def test_line_topology():
    net = MultihopNetwork.line(5)
    assert net.n == 5
    assert net.diameter == 4
    assert net.neighbors(0) == {1}
    assert net.neighbors(2) == {1, 3}


def test_grid_topology():
    net = MultihopNetwork.grid(3, 3)
    assert net.n == 9
    assert net.diameter == 4


def test_clique_chain_topology():
    net = MultihopNetwork.clique_chain(3, 4)
    # Bridges shared between consecutive cliques: 3*4 - 2 nodes.
    assert net.n == 10
    # Inside a clique everyone is adjacent.
    assert net.neighbors(0) >= {1, 2, 3}


# Each canned topology's edge set and diameter, as networkx 3.6.1 built
# them (``grid`` as ``convert_node_labels_to_integers(grid_2d_graph)``).
CANNED = {
    "line(5)": (
        lambda: MultihopNetwork.line(5), 4,
        {(0, 1), (1, 2), (2, 3), (3, 4)},
    ),
    "grid(3, 2)": (
        lambda: MultihopNetwork.grid(3, 2), 3,
        {(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)},
    ),
    "grid(1, 1)": (lambda: MultihopNetwork.grid(1, 1), 0, set()),
    "clique_chain(3, 4)": (
        lambda: MultihopNetwork.clique_chain(3, 4), 3,
        {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
         (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (5, 6),
         (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9)},
    ),
    "ring(8, successors=2, fingers=True)": (
        lambda: MultihopNetwork.ring(8, successors=2, fingers=True), 2,
        {(0, 1), (0, 2), (0, 4), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5),
         (1, 7), (2, 3), (2, 4), (2, 6), (3, 4), (3, 5), (3, 7), (4, 5),
         (4, 6), (5, 6), (5, 7), (6, 7)},
    ),
}


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_topologies_keep_their_edges_and_diameter(name):
    build, diameter, edges = CANNED[name]
    net = build()
    arcs = {(a, b) for a in net.indices for b in net.neighbors(a)}
    assert arcs == edges | {(b, a) for a, b in edges}
    assert net.indices == tuple(range(net.n))
    assert net.diameter == diameter


def test_disconnected_graph_rejected():
    with pytest.raises(ConfigurationError, match="connected"):
        MultihopNetwork([(0, 1)], nodes=[2])
    with pytest.raises(ConfigurationError, match="at least one node"):
        MultihopNetwork([])


# ----------------------------------------------------------------------
# The multihop layer
# ----------------------------------------------------------------------
def test_layer_drops_non_neighbor_messages():
    net = MultihopNetwork.line(4)
    layer = MultihopLayer(net)
    # Node 3 hears only node 2.
    lost = layer.losses_for_round(1, [0, 1, 2], net.indices)
    assert lost[3] == {0, 1}
    assert lost[1] == set()


def test_layer_detector_uses_neighborhood_counts():
    net = MultihopNetwork.line(4)
    layer = MultihopLayer(net)
    layer.losses_for_round(1, [0, 3], net.indices)  # record the senders
    # Node 1 has one broadcasting neighbour (0); it received it: null.
    # Node 2 has one broadcasting neighbour (3); received count 0: ±.
    advice = layer.advise(1, 2, {0: 1, 1: 1, 2: 0, 3: 1})
    assert advice[1] is NULL
    assert advice[2] is COLLISION
    # Node 0 broadcast and received itself only — everything its
    # neighbourhood sent that it could hear: c_local counts 0 itself.
    assert advice[0] is NULL


def test_layer_inner_adversary_composes():
    net = MultihopNetwork.line(3)
    layer = MultihopLayer(net, inner=IIDLoss(1.0, seed=0))
    # Neighbour messages now die in the inner adversary too.
    assert layer.losses_for_round(1, [1], net.indices)[0] == {1}


@pytest.mark.parametrize("kernel", [False, None], ids=["scalar", "auto"])
def test_layer_rereads_the_topology_between_executions(kernel):
    """Closed neighbourhoods (and the advice path's incidence matrix)
    are cached for one execution: an edge added to the adjacency map
    between two runs shapes the second run exactly as a fresh layer
    would."""
    net = MultihopNetwork.line(4)
    algorithm = Algorithm(
        lambda i: ScriptedProcess([f"m{i}"] * 3), anonymous=False
    )

    def run(layer):
        env = Environment(
            indices=net.indices, detector=layer,
            contention=NoContentionManager(), loss=layer,
        )
        return run_algorithm(
            env, algorithm, max_rounds=3, until_all_decided=False,
            use_array_kernel=kernel,
        )

    layer = MultihopLayer(net)
    first = run(layer)
    assert first.records[0].received[0].support() == {"m0", "m1"}
    net.adjacency[0].add(3)
    net.adjacency[3].add(0)
    second = run(layer)
    assert second.records[0].received[0].support() == {"m0", "m1", "m3"}
    assert second.records == run(MultihopLayer(net)).records


def test_consensus_inside_one_clique_of_a_multihop_network():
    """A clique of the chain runs Algorithm 2 over the multihop layer
    while the rest of the network stays silent."""
    net = MultihopNetwork.clique_chain(2, 4)   # nodes 0-3 and 3-6
    clique = (0, 1, 2, 3)
    layer = MultihopLayer(
        net, completeness=Completeness.ZERO,
        accuracy=AccuracyMode.ALWAYS,
    )
    env = Environment(
        indices=clique,
        detector=layer,
        contention=WakeUpService(stabilization_round=1),
        loss=layer,
    )
    values = ["a", "b", "c"]
    result = run_consensus(
        env, algorithm_2(values),
        {0: "a", 1: "b", 2: "c", 3: "a"},
        max_rounds=40,
    )
    assert evaluate(result).solved


# ----------------------------------------------------------------------
# Flooding
# ----------------------------------------------------------------------
def test_blind_flood_on_line_tracks_diameter():
    net = MultihopNetwork.line(10)
    result = flood(net, 0, strategy="blind", channel="total")
    assert result.completed
    assert result.completed_round == net.diameter


def test_blind_flood_deadlocks_on_grid_under_total_collision():
    net = MultihopNetwork.grid(4, 4)
    result = flood(net, 0, strategy="blind", channel="total",
                   max_rounds=200)
    assert not result.completed
    # Coverage stalls strictly below n.
    assert result.covered_by_round[-1] < net.n


def test_backoff_flood_completes_under_total_collision():
    net = MultihopNetwork.grid(4, 4)
    result = flood(net, 0, strategy="backoff", channel="total",
                   max_rounds=400, seed=3)
    assert result.completed


def test_capture_channel_forgives_blind_flooding():
    net = MultihopNetwork.grid(4, 4)
    result = flood(net, 0, strategy="blind", channel="capture")
    assert result.completed
    assert result.completed_round <= 2 * net.diameter


def test_coverage_is_monotone():
    net = MultihopNetwork.grid(3, 3)
    result = flood(net, 0, strategy="backoff", channel="capture", seed=5)
    assert result.covered_by_round == sorted(result.covered_by_round)


def test_flood_validation():
    net = MultihopNetwork.line(3)
    with pytest.raises(ConfigurationError):
        flood(net, 0, strategy="bogus")
    with pytest.raises(ConfigurationError):
        flood(net, 0, channel="bogus")
    with pytest.raises(ConfigurationError):
        flood(net, 99)
