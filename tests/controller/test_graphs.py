"""Unit tests for the switch graph and the AS topology graph transform."""

import pytest

from repro.bgp.attrs import AsPath, Origin
from repro.bgp.policy import Relationship
from repro.controller.graphs import (
    DEST,
    ExternalRoute,
    Peering,
    SwitchGraph,
    build_as_topology,
)
from repro.net.addr import Prefix

PFX = Prefix.parse("10.0.0.0/24")


def make_switch_graph(members=("m1", "m2", "m3"), links=(("m1", "m2"), ("m2", "m3"))):
    graph = SwitchGraph()
    for i, name in enumerate(members, start=101):
        graph.add_member(name, i)
    for a, b in links:
        graph.add_intra_link(a, b, f"{a}--{b}")
    return graph


def peering(member, external="ext", member_asn=None, rel=Relationship.FLAT):
    asn = member_asn if member_asn is not None else 100 + int(member[1:])
    return Peering(
        member=member, member_asn=asn, external=external,
        phys_link_name=f"{member}--{external}", relationship=rel,
    )


def ext_route(member, path, external="ext", rel=Relationship.FLAT):
    return ExternalRoute(
        peering=peering(member, external, rel=rel),
        prefix=PFX,
        as_path=AsPath.from_iterable(path),
    )


class TestSwitchGraph:
    def test_members_sorted(self):
        graph = make_switch_graph()
        assert graph.members() == ["m1", "m2", "m3"]

    def test_single_sub_cluster_when_connected(self):
        graph = make_switch_graph()
        assert graph.sub_clusters() == [frozenset({"m1", "m2", "m3"})]

    def test_link_failure_splits_sub_clusters(self):
        graph = make_switch_graph()
        assert graph.set_link_state("m2", "m3", False) is True
        assert graph.sub_clusters() == [
            frozenset({"m1", "m2"}), frozenset({"m3"}),
        ]

    def test_set_state_unknown_link(self):
        graph = make_switch_graph()
        assert graph.set_link_state("m1", "m3", False) is False

    def test_restore_merges(self):
        graph = make_switch_graph()
        graph.set_link_state("m2", "m3", False)
        graph.set_link_state("m2", "m3", True)
        assert len(graph.sub_clusters()) == 1

    def test_intra_link_name_respects_state(self):
        graph = make_switch_graph()
        assert graph.intra_link_name("m1", "m2") == "m1--m2"
        graph.set_link_state("m1", "m2", False)
        assert graph.intra_link_name("m1", "m2") is None

    def test_up_neighbors(self):
        graph = make_switch_graph()
        assert graph.up_neighbors("m2") == ["m1", "m3"]
        graph.set_link_state("m1", "m2", False)
        assert graph.up_neighbors("m2") == ["m3"]

    def test_intra_link_needs_members(self):
        graph = make_switch_graph()
        with pytest.raises(KeyError):
            graph.add_intra_link("m1", "ghost", "x")

    def test_sub_cluster_of(self):
        graph = make_switch_graph()
        graph.set_link_state("m2", "m3", False)
        assert graph.sub_cluster_of("m3") == frozenset({"m3"})
        with pytest.raises(KeyError):
            graph.sub_cluster_of("ghost")


class TestBuildAsTopology:
    def test_intra_edges_bidirectional(self):
        topo = build_as_topology(make_switch_graph(), PFX, [])
        assert topo.has_edge("m1", "m2")
        assert topo.has_edge("m2", "m1")

    def test_egress_edge_weight_is_base_plus_path_len(self):
        topo = build_as_topology(
            make_switch_graph(), PFX, [ext_route("m1", (7, 8))],
        )
        assert topo.weight("m1", DEST) == 3.0

    def test_best_route_per_member_selected(self):
        shorter = ext_route("m1", (7,), external="extA")
        longer = ext_route("m1", (9, 8, 7), external="extB")
        topo = build_as_topology(make_switch_graph(), PFX, [longer, shorter])
        assert topo.egress_choice["m1"] == ("egress", shorter)

    def test_loop_avoidance_excludes_same_subcluster_paths(self):
        """Path containing a fellow sub-cluster member's ASN is unusable."""
        poisoned = ext_route("m1", (7, 102, 6))  # 102 = m2's ASN
        topo = build_as_topology(make_switch_graph(), PFX, [poisoned])
        assert not topo.has_edge("m1", DEST)

    def test_other_subcluster_member_in_path_is_allowed(self):
        """Disjoint sub-clusters may reach each other via the legacy world."""
        graph = make_switch_graph()
        graph.set_link_state("m2", "m3", False)  # m3 now its own sub-cluster
        through_m3 = ext_route("m1", (7, 103, 6))  # 103 = m3's ASN
        topo = build_as_topology(graph, PFX, [through_m3])
        assert topo.has_edge("m1", DEST)

    def test_local_origination_wins_over_egress(self):
        topo = build_as_topology(
            make_switch_graph(), PFX, [ext_route("m1", (7,))],
            originating_members=["m1"],
        )
        assert topo.egress_choice["m1"] == ("local", None)
        assert topo.weight("m1", DEST) == 0.0

    def test_unknown_originating_member_raises(self):
        with pytest.raises(KeyError):
            build_as_topology(
                make_switch_graph(), PFX, [], originating_members=["ghost"]
            )

    def test_routes_for_other_prefix_ignored(self):
        other = ExternalRoute(
            peering=peering("m1"),
            prefix=Prefix.parse("10.99.0.0/24"),
            as_path=AsPath.of(7),
        )
        topo = build_as_topology(make_switch_graph(), PFX, [other])
        assert not topo.has_edge("m1", DEST)

    def test_customer_route_preferred_over_shorter_peer_route(self):
        customer = ext_route("m1", (7, 8), external="cust", rel=Relationship.CUSTOMER)
        peer = ext_route("m1", (9,), external="peer", rel=Relationship.PEER)
        topo = build_as_topology(make_switch_graph(), PFX, [customer, peer])
        assert topo.egress_choice["m1"][1].peering.external == "cust"

    def test_down_intra_link_missing_from_graph(self):
        graph = make_switch_graph()
        graph.set_link_state("m1", "m2", False)
        topo = build_as_topology(graph, PFX, [])
        assert not topo.has_edge("m1", "m2")


def topology_shape(topo):
    """Every edge with its weight, plus the egress choices."""
    edges = {
        (u, v): weight for v, preds in topo.pred.items()
        for u, weight in preds.items()
    }
    return edges, topo.egress_choice


class TestCachedSwitchView:
    """One SwitchGraph mutated in place must build exactly what a freshly
    constructed graph of the same state builds."""

    LINKS = (("m1", "m2"), ("m2", "m3"), ("m3", "m4"))
    MEMBERS = ("m1", "m2", "m3", "m4")

    def routes(self):
        # m1's route crosses m3 (ASN 103), m4's crosses m2 (ASN 102):
        # usable only while the path's member is in another sub-cluster.
        return [ext_route("m1", (7, 103, 6)), ext_route("m4", (8, 102, 6))]

    def check_against_fresh(self, graph, down=()):
        fresh = make_switch_graph(self.MEMBERS, self.LINKS)
        for a, b in down:
            fresh.set_link_state(a, b, False)
        assert graph.sub_clusters() == fresh.sub_clusters()
        assert graph.members() == fresh.members()
        for member in self.MEMBERS:
            assert graph.up_neighbors(member) == fresh.up_neighbors(member)
        built = build_as_topology(graph, PFX, self.routes())
        expected = build_as_topology(fresh, PFX, self.routes())
        assert topology_shape(built) == topology_shape(expected)
        return built

    def test_split_and_heal_match_fresh_graphs(self):
        graph = make_switch_graph(self.MEMBERS, self.LINKS)
        whole = self.check_against_fresh(graph)
        assert whole.has_edge("m2", "m3")
        assert not whole.has_edge("m1", DEST)  # 103 is in m1's cluster
        assert not whole.has_edge("m4", DEST)  # 102 is in m4's cluster

        assert graph.set_link_state("m2", "m3", False)
        split = self.check_against_fresh(graph, down=[("m2", "m3")])
        assert graph.sub_clusters() == [
            frozenset({"m1", "m2"}), frozenset({"m3", "m4"}),
        ]
        assert not split.has_edge("m2", "m3")
        assert split.weight("m1", DEST) == 4.0  # 103 now elsewhere
        assert split.weight("m4", DEST) == 4.0  # 102 now elsewhere

        assert graph.set_link_state("m2", "m3", True)
        healed = self.check_against_fresh(graph)
        assert topology_shape(healed) == topology_shape(whole)

    def test_view_reused_until_mutation(self):
        graph = make_switch_graph(self.MEMBERS, self.LINKS)
        view = graph.view()
        assert graph.view() is view
        assert graph.set_link_state("m1", "m2", True)  # no change
        assert graph.view() is view
        graph.set_link_state("m1", "m2", False)
        assert graph.view() is not view
        view = graph.view()
        graph.add_member("m5", 105)
        assert graph.view() is not view
        view = graph.view()
        graph.add_intra_link("m4", "m5", "m4--m5")
        assert graph.view() is not view
        assert graph.sub_cluster_of("m5") == frozenset({"m2", "m3", "m4", "m5"})

    def test_building_one_prefix_leaves_another_untouched(self):
        graph = make_switch_graph()
        other = Prefix.parse("10.1.0.0/24")
        first = build_as_topology(graph, PFX, [ext_route("m1", (7,))])
        before = topology_shape(first)
        before = ({**before[0]}, {**before[1]})
        second = build_as_topology(
            graph, other,
            [ExternalRoute(peering=peering("m3"), prefix=other,
                           as_path=AsPath.of(9, 8))],
            originating_members=["m2"],
        )
        assert topology_shape(first) == before
        assert first.has_edge("m1", DEST) and not first.has_edge("m3", DEST)
        assert second.has_edge("m3", DEST) and not second.has_edge("m1", DEST)
        assert second.egress_choice["m2"] == ("local", None)
