"""Unit tests for route-maps and the Gao-Rexford / transit-all templates."""

from dataclasses import FrozenInstanceError

import pytest

from repro.bgp.attrs import AsPath, PathAttributes
from repro.bgp.policy import (
    LOCAL_COMMUNITY,
    LOCAL_PREF_BY_RELATIONSHIP,
    Relationship,
    RouteMap,
    RouteMapEntry,
    add_community,
    gao_rexford_policy,
    match_as_in_path,
    match_community,
    match_prefix_in,
    prepend_path,
    relationship_community,
    set_local_pref,
    strip_learned_communities,
    transit_all_policy,
)
from repro.net.addr import Prefix

PFX = Prefix.parse("10.0.0.0/24")


class TestRelationship:
    def test_inverse_pairs(self):
        assert Relationship.CUSTOMER.inverse is Relationship.PROVIDER
        assert Relationship.PROVIDER.inverse is Relationship.CUSTOMER
        assert Relationship.PEER.inverse is Relationship.PEER
        assert Relationship.FLAT.inverse is Relationship.FLAT

    def test_local_pref_ladder(self):
        ladder = LOCAL_PREF_BY_RELATIONSHIP
        assert (
            ladder[Relationship.CUSTOMER]
            > ladder[Relationship.PEER]
            > ladder[Relationship.PROVIDER]
        )


class TestRouteMap:
    def test_implicit_deny(self):
        route_map = RouteMap([])
        assert route_map.evaluate(PFX, PathAttributes()) is None

    def test_default_permit(self):
        route_map = RouteMap([], default_permit=True)
        assert route_map.evaluate(PFX, PathAttributes()) is not None

    def test_first_match_wins(self):
        route_map = RouteMap(
            [
                RouteMapEntry(permit=True, actions=[set_local_pref(111)]),
                RouteMapEntry(permit=True, actions=[set_local_pref(222)]),
            ]
        )
        result = route_map.evaluate(PFX, PathAttributes())
        assert result.local_pref == 111

    def test_deny_entry_stops_evaluation(self):
        route_map = RouteMap(
            [
                RouteMapEntry(permit=False, matches=[match_prefix_in([PFX])]),
                RouteMapEntry(permit=True),
            ]
        )
        assert route_map.evaluate(PFX, PathAttributes()) is None
        other = Prefix.parse("192.168.0.0/24")
        assert route_map.evaluate(other, PathAttributes()) is not None

    def test_actions_apply_in_order(self):
        route_map = RouteMap(
            [
                RouteMapEntry(
                    permit=True,
                    actions=[set_local_pref(1), set_local_pref(2)],
                )
            ]
        )
        assert route_map.evaluate(PFX, PathAttributes()).local_pref == 2

    def test_all_matches_must_hold(self):
        entry = RouteMapEntry(
            permit=True,
            matches=[match_prefix_in([PFX]), match_community("x")],
        )
        route_map = RouteMap([entry])
        assert route_map.evaluate(PFX, PathAttributes()) is None
        tagged = PathAttributes(communities=("x",))
        assert route_map.evaluate(PFX, tagged) is not None


class TestMatchersAndActions:
    def test_match_prefix_in_covers_more_specific(self):
        match = match_prefix_in([Prefix.parse("10.0.0.0/8")])
        assert match(PFX, PathAttributes())
        assert not match(Prefix.parse("192.168.0.0/24"), PathAttributes())

    def test_match_as_in_path(self):
        match = match_as_in_path(7)
        assert match(PFX, PathAttributes(as_path=AsPath.of(9, 7, 1)))
        assert not match(PFX, PathAttributes(as_path=AsPath.of(9, 1)))

    def test_add_community_is_idempotent(self):
        action = add_community("tag")
        once = action(PathAttributes())
        twice = action(once)
        assert twice.communities.count("tag") == 1

    def test_strip_learned_communities(self):
        attrs = PathAttributes(
            communities=("learned:peer", LOCAL_COMMUNITY, "keepme")
        )
        stripped = strip_learned_communities()(attrs)
        assert stripped.communities == ("keepme",)

    def test_prepend_path_action(self):
        attrs = PathAttributes(as_path=AsPath.of(1))
        assert prepend_path(9, 2)(attrs).as_path.asns == (9, 9, 1)


class TestGaoRexford:
    def _import(self, relationship):
        policy = gao_rexford_policy(relationship)
        return policy.import_route(PFX, PathAttributes(as_path=AsPath.of(1)))

    @pytest.mark.parametrize(
        "relationship",
        [Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER],
    )
    def test_import_sets_relationship_local_pref(self, relationship):
        imported = self._import(relationship)
        assert imported.local_pref == LOCAL_PREF_BY_RELATIONSHIP[relationship]

    def test_import_tags_relationship(self):
        imported = self._import(Relationship.PEER)
        assert imported.has_community(relationship_community(Relationship.PEER))

    def _exports(self, learned_from, export_to):
        """Whether a route learned from X may be exported to Y."""
        attrs = PathAttributes(as_path=AsPath.of(1))
        imported = gao_rexford_policy(learned_from).import_route(PFX, attrs)
        exported = gao_rexford_policy(export_to).export_route(PFX, imported)
        return exported is not None

    def test_customer_routes_export_everywhere(self):
        for to in (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER):
            assert self._exports(Relationship.CUSTOMER, to)

    def test_peer_routes_export_only_to_customers(self):
        assert self._exports(Relationship.PEER, Relationship.CUSTOMER)
        assert not self._exports(Relationship.PEER, Relationship.PEER)
        assert not self._exports(Relationship.PEER, Relationship.PROVIDER)

    def test_provider_routes_export_only_to_customers(self):
        assert self._exports(Relationship.PROVIDER, Relationship.CUSTOMER)
        assert not self._exports(Relationship.PROVIDER, Relationship.PEER)
        assert not self._exports(Relationship.PROVIDER, Relationship.PROVIDER)

    def test_local_routes_export_everywhere(self):
        local = PathAttributes(communities=(LOCAL_COMMUNITY,))
        for to in (Relationship.CUSTOMER, Relationship.PEER, Relationship.PROVIDER):
            assert gao_rexford_policy(to).export_route(PFX, local) is not None

    def test_export_strips_internal_communities(self):
        attrs = gao_rexford_policy(Relationship.CUSTOMER).import_route(
            PFX, PathAttributes(as_path=AsPath.of(1))
        )
        exported = gao_rexford_policy(Relationship.PEER).export_route(PFX, attrs)
        assert all(not c.startswith("learned:") for c in exported.communities)


class TestTransitAll:
    def test_accepts_and_reexports_everything(self):
        policy = transit_all_policy()
        attrs = PathAttributes(as_path=AsPath.of(5))
        imported = policy.import_route(PFX, attrs)
        assert imported is not None
        assert policy.export_route(PFX, imported) is not None


class TestExportPrepend:
    def test_prepend_applied_on_permit(self):
        policy = transit_all_policy().with_export_prepend(9, 3)
        exported = policy.export_route(PFX, PathAttributes(as_path=AsPath.of(1)))
        assert exported.as_path.asns == (9, 9, 9, 1)

    def test_original_policy_unchanged(self):
        base = transit_all_policy()
        base.with_export_prepend(9, 3)
        exported = base.export_route(PFX, PathAttributes(as_path=AsPath.of(1)))
        assert exported.as_path.asns == (1,)

    def test_denied_routes_stay_denied(self):
        policy = gao_rexford_policy(Relationship.PEER).with_export_prepend(9, 1)
        peer_route = policy.import_route(PFX, PathAttributes(as_path=AsPath.of(1)))
        # peer-learned to peer: still denied after prepend wrapping
        assert policy.export_route(PFX, peer_route) is None


class TestImmutable:
    """Experiments share one policy object across sessions, so nothing
    may change a policy in place."""

    def test_containers_are_tuples(self):
        policy = gao_rexford_policy(Relationship.PEER)
        entries = policy.export_map.entries
        assert isinstance(entries, tuple)
        assert all(
            isinstance(e.matches, tuple) and isinstance(e.actions, tuple)
            for e in entries
        )

    def test_in_place_mutation_raises(self):
        policy = transit_all_policy()
        entry = policy.export_map.entries[0]
        with pytest.raises(AttributeError):
            policy.export_map.entries.append(RouteMapEntry(permit=False))
        with pytest.raises(AttributeError):
            entry.actions.append(set_local_pref(1))
        with pytest.raises(FrozenInstanceError):
            entry.permit = False
        with pytest.raises(FrozenInstanceError):
            policy.export_map.default_permit = True
        with pytest.raises(FrozenInstanceError):
            policy.import_map = policy.export_map
        assert not hasattr(policy.export_map, "append")

    def test_prepend_copy_leaves_shared_entries_alone(self):
        base = transit_all_policy()
        actions = base.export_map.entries[0].actions
        prepended = base.with_export_prepend(9, 1)
        assert base.export_map.entries[0].actions == actions
        assert len(prepended.export_map.entries[0].actions) == len(actions) + 1
        assert prepended.import_map is base.import_map
