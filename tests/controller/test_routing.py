"""Unit + property tests for Dijkstra on the AS topology graph."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.bgp.attrs import AsPath
from repro.controller.graphs import (
    DEST,
    ExternalRoute,
    Peering,
    SwitchGraph,
    build_as_topology,
)
from repro.controller.routing import compute_decisions, decision_path
from repro.net.addr import Prefix

PFX = Prefix.parse("10.0.0.0/24")


def build(members, links, egresses, originations=()):
    """egresses: {member: path_len}."""
    graph = SwitchGraph()
    member_asn = {}
    for i, name in enumerate(sorted(members), start=101):
        graph.add_member(name, i)
        member_asn[name] = i
    for a, b in links:
        graph.add_intra_link(a, b, f"{a}--{b}")
    routes = []
    for member, path_len in egresses.items():
        routes.append(
            ExternalRoute(
                peering=Peering(
                    member=member,
                    member_asn=member_asn[member],
                    external=f"ext-{member}",
                    phys_link_name=f"{member}--ext",
                ),
                prefix=PFX,
                as_path=AsPath.from_iterable(range(1, path_len + 1)),
            )
        )
    topo = build_as_topology(graph, PFX, routes, originations)
    return graph, topo, compute_decisions(topo, graph.member_asn)


class TestDecisions:
    def test_direct_egress(self):
        _, _, decisions = build(["a"], [], {"a": 1})
        assert decisions["a"].kind == "egress"
        assert decisions["a"].distance == 2.0  # base 1 + path 1

    def test_forwarding_toward_egress(self):
        _, _, decisions = build(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], {"c": 1}
        )
        assert decisions["a"].kind == "forward"
        assert decisions["a"].next_member == "b"
        assert decisions["b"].next_member == "c"
        assert decisions["c"].kind == "egress"

    def test_nearest_egress_chosen(self):
        _, _, decisions = build(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], {"a": 1, "c": 1}
        )
        assert decisions["b"].kind == "forward"
        # equal distance both ways: deterministic lexicographic choice
        assert decisions["b"].next_member == "a"

    def test_shorter_external_path_beats_near_egress(self):
        _, _, decisions = build(
            ["a", "b"], [("a", "b")], {"a": 5, "b": 1}
        )
        # a's own egress costs 6; via b costs 1 + 2 = 3.
        assert decisions["a"].kind == "forward"

    def test_local_origination(self):
        _, _, decisions = build(
            ["a", "b"], [("a", "b")], {}, originations=["a"]
        )
        assert decisions["a"].kind == "local"
        assert decisions["b"].kind == "forward"

    def test_unreachable_members(self):
        _, _, decisions = build(["a", "b"], [], {"a": 1})
        assert decisions["a"].reachable
        assert decisions["b"].kind == "unreachable"

    def test_as_chain_tracks_member_asns(self):
        _, _, decisions = build(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], {"c": 1}
        )
        assert decisions["a"].as_chain == (101, 102, 103)
        assert decisions["c"].as_chain == (103,)

    def test_decision_path(self):
        _, _, decisions = build(
            ["a", "b", "c"], [("a", "b"), ("b", "c")], {"c": 1}
        )
        assert decision_path("a", decisions) == ["a", "b", "c"]


class TestDeterminism:
    def test_equal_cost_tie_breaks_lexicographically(self):
        _, _, decisions = build(
            ["m", "x", "y", "z"],
            [("m", "x"), ("m", "y"), ("x", "z"), ("y", "z")],
            {"z": 1},
        )
        assert decisions["m"].next_member == "x"

    def test_rerun_identical(self):
        results = [
            build(
                ["a", "b", "c", "d"],
                [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                {"c": 2, "d": 2},
            )[2]
            for _ in range(3)
        ]
        assert results[0] == results[1] == results[2]


# ----------------------------------------------------------------------
# property: distances match networkx shortest paths on the same graph
# ----------------------------------------------------------------------
@st.composite
def random_cluster(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    members = [f"m{i}" for i in range(n)]
    links = []
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        links.append((members[i], members[j]))  # spanning tree: connected
    extra = draw(st.integers(min_value=0, max_value=3))
    for _ in range(extra):
        a = draw(st.sampled_from(members))
        b = draw(st.sampled_from(members))
        if a != b and (a, b) not in links and (b, a) not in links:
            links.append((a, b))
    egress_members = draw(
        st.sets(st.sampled_from(members), min_size=1, max_size=n)
    )
    egresses = {
        m: draw(st.integers(min_value=1, max_value=6)) for m in egress_members
    }
    return members, links, egresses


@given(random_cluster())
@settings(max_examples=60, deadline=None)
def test_distances_match_networkx(cluster):
    members, links, egresses = cluster
    _, topo, decisions = build(members, links, egresses)
    reference = nx.DiGraph()
    reference.add_nodes_from([DEST, *topo.members])
    for v, preds in topo.pred.items():
        for u, weight in preds.items():
            reference.add_edge(u, v, weight=weight)
    expected = nx.single_source_dijkstra_path_length(
        reference.reverse(copy=True), DEST, weight="weight"
    )
    for member in members:
        if member in expected:
            assert decisions[member].reachable
            assert abs(decisions[member].distance - expected[member]) < 1e-9
        else:
            assert not decisions[member].reachable


@given(random_cluster())
@settings(max_examples=60, deadline=None)
def test_forwarding_paths_terminate_at_egress(cluster):
    members, links, egresses = cluster
    _, _, decisions = build(members, links, egresses)
    for member in members:
        if not decisions[member].reachable:
            continue
        path = decision_path(member, decisions)
        assert len(path) <= len(members)
        last = decisions[path[-1]]
        assert last.kind in ("egress", "local")


@given(random_cluster())
@settings(max_examples=60, deadline=None)
def test_distance_decreases_along_path(cluster):
    members, links, egresses = cluster
    _, _, decisions = build(members, links, egresses)
    for member in members:
        decision = decisions[member]
        if decision.kind == "forward":
            assert decisions[decision.next_member].distance < decision.distance
