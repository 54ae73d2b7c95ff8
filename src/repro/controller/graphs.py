"""The controller's two graphs (paper §3).

The paper's key design insight is that the controller cannot reuse BGP's
distributed loop avoidance: a centrally computed route may egress the
cluster, cross the legacy world, and *re-enter* the cluster, looping.
It therefore keeps:

- the **Switch graph** — the physical topology of cluster switches and
  their up intra-cluster links (plus external peering attachment
  points), maintained from PortStatus events; and
- a per-destination-prefix **AS topology graph** — a transformation of
  the switch graph where each usable way of reaching the prefix becomes
  a weighted edge toward a virtual destination node.  External routes
  whose AS path contains any member of the *same sub-cluster* are
  excluded (using them could re-enter this sub-cluster = loop); paths
  through members of a *different* sub-cluster are allowed, which is
  precisely what lets disjoint sub-clusters reach each other over the
  legacy Internet (design goal §2).

Best paths are computed with Dijkstra on the AS topology graph
(``repro.controller.routing``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

import networkx as nx

from ..bgp.attrs import AsPath, Origin
from ..bgp.policy import Relationship
from ..net.addr import Prefix

__all__ = [
    "Peering",
    "ExternalRoute",
    "SwitchGraph",
    "ASTopologyGraph",
    "DEST",
    "build_as_topology",
]

#: Name of the virtual destination node in the AS topology graph.
DEST = "__dest__"


@dataclass(frozen=True)
class Peering:
    """One external BGP peering of a cluster member.

    The speaker terminates the BGP session (impersonating ``member_asn``)
    over ``relay link``; data-plane traffic egresses over the physical
    link named ``phys_link_name`` on switch ``member``.
    """

    member: str
    member_asn: int
    external: str
    phys_link_name: str
    #: business relationship of the external AS from the member's point
    #: of view (CUSTOMER = external pays the member).  FLAT disables
    #: valley-free preference/export rules.
    relationship: Relationship = Relationship.FLAT

    def __str__(self) -> str:
        return f"{self.member}<->{self.external}"


@dataclass(frozen=True)
class ExternalRoute:
    """A route for one prefix learned over one peering."""

    peering: Peering
    prefix: Prefix
    as_path: AsPath
    origin: Origin = Origin.IGP
    med: int = 0
    learned_at: float = 0.0

    @property
    def path_len(self) -> int:
        """AS-path length of the external route."""
        return self.as_path.length


class SwitchGraph:
    """Live physical view of the cluster: members + intra-cluster links.

    Maintained by the controller from its initial topology knowledge and
    subsequent PortStatus events.  Sub-clusters are the connected
    components — an intra-cluster link failure splits the cluster, and
    route computation then treats each component independently.  What
    route computation reads is cached in :meth:`view` until the next
    mutation.
    """

    def __init__(self) -> None:
        #: member name -> ASN
        self.member_asn: Dict[str, int] = {}
        #: member -> {neighbour: [link name, up]}; both ends share a list
        self._links: Dict[str, Dict[str, list]] = {}
        self._view: Optional[_SwitchView] = None

    def add_member(self, name: str, asn: int) -> None:
        """Register a member switch and its ASN."""
        self.member_asn[name] = asn
        self._links.setdefault(name, {})
        self._view = None

    def members(self) -> List[str]:
        """Member switch names, sorted."""
        return list(self.view().members)

    def add_intra_link(self, a: str, b: str, link_name: str) -> None:
        """Register an intra-cluster adjacency."""
        if a not in self.member_asn or b not in self.member_asn:
            raise KeyError(f"both endpoints must be members: {a}, {b}")
        self._links[a][b] = self._links[b][a] = [link_name, True]
        self._view = None

    def set_link_state(self, a: str, b: str, up: bool) -> bool:
        """Mark an intra-cluster link up/down; True if it existed."""
        link = self._links.get(a, {}).get(b)
        if link is None:
            return False
        if link[1] != up:
            link[1] = up
            self._view = None
        return True

    def view(self) -> "_SwitchView":
        """Route-computation inputs, rebuilt only after a mutation."""
        if self._view is None:
            members = tuple(sorted(self._links))
            intra = {
                m: {n: 1.0 for n, (_, up) in sorted(self._links[m].items()) if up}
                for m in members
            }
            comps = nx.connected_components(nx.from_dict_of_lists(intra))
            comps = sorted(map(frozenset, comps), key=min)
            cluster_asns: Dict[str, FrozenSet[int]] = {}
            for comp in comps:
                asns = frozenset(self.member_asn[m] for m in comp)
                cluster_asns.update(dict.fromkeys(comp, asns))
            self._view = _SwitchView(members, tuple(comps), cluster_asns, intra)
        return self._view

    def sub_clusters(self) -> List[FrozenSet[str]]:
        """Connected components (each is one sub-cluster), deterministic order."""
        return list(self.view().sub_clusters)

    def sub_cluster_of(self, member: str) -> FrozenSet[str]:
        """The connected component containing a member."""
        for comp in self.view().sub_clusters:
            if member in comp:
                return comp
        raise KeyError(f"not a member: {member!r}")

    def intra_link_name(self, a: str, b: str) -> Optional[str]:
        """Name of the up link between two members, or None."""
        link = self._links.get(a, {}).get(b)
        return link[0] if link is not None and link[1] else None

    def up_neighbors(self, member: str) -> List[str]:
        """Members adjacent over currently-up links."""
        return list(self.view().intra[member])

    def __contains__(self, member: str) -> bool:
        return member in self.member_asn


class _SwitchView(NamedTuple):
    """Inputs of route computation derived from one switch-graph state,
    shared read-only by every AS topology graph built from it."""

    members: Tuple[str, ...]  # sorted
    sub_clusters: Tuple[FrozenSet[str], ...]  # ordered by smallest member
    cluster_asns: Dict[str, FrozenSet[int]]  # member -> its sub-cluster's ASNs
    intra: Dict[str, Dict[str, float]]  # member -> {up neighbour: 1.0}, sorted


@dataclass
class ASTopologyGraph:
    """The per-prefix transformed graph Dijkstra runs on.

    Directed graph over member names plus the virtual :data:`DEST` node,
    kept as ``pred[v] = {u: weight}`` for every edge ``u -> v``:

    - ``member -> member`` edges (weight 1) for up intra-cluster links
      within one sub-cluster, shared read-only with the switch view;
    - ``member -> DEST`` edges for usable egresses: local origination
      (weight 0) or a valid external route (weight 1 + AS-path length).

    ``egress_choice`` remembers, per member with a direct DEST edge, which
    concrete external route (or local origination) backs it, so the
    compiler and the advertisement builder can reconstruct real paths.
    """

    prefix: Prefix
    #: every member, sorted (all are nodes, reachable or not)
    members: Tuple[str, ...] = ()
    pred: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: member -> ("local", None) or ("egress", ExternalRoute)
    egress_choice: Dict[str, Tuple[str, Optional[ExternalRoute]]] = field(
        default_factory=dict
    )

    def has_edge(self, u: str, v: str) -> bool:
        """True if the edge ``u -> v`` exists."""
        return u in self.pred.get(v, ())

    def weight(self, u: str, v: str) -> float:
        """Weight of the edge ``u -> v``."""
        return self.pred[v][u]


def build_as_topology(
    switch_graph: SwitchGraph,
    prefix: Prefix,
    external_routes: Iterable[ExternalRoute],
    originating_members: Iterable[str] = (),
    *,
    egress_base_cost: float = 1.0,
) -> ASTopologyGraph:
    """Transform the switch graph into the AS topology graph for ``prefix``.

    The loop-avoidance rule: an external route learned at a peering of
    member ``m`` is usable only if its AS path contains no ASN of any
    member in ``m``'s *sub-cluster*.  (Its own ASN cannot appear — the
    speaker's per-session loop check already dropped that — but a path
    through a fellow sub-cluster member would re-enter this sub-cluster.)

    Weights: intra-cluster hop = 1; egress edge = ``egress_base_cost`` +
    external AS-path length; local origination = 0.  With the default
    base cost this makes total weight equal to the AS-level hop count of
    the resulting route, so Dijkstra picks what BGP's shortest-AS-path
    step would, minus the exploration.
    """
    view = switch_graph.view()
    to_dest: Dict[str, float] = {}
    topo = ASTopologyGraph(
        prefix=prefix, members=view.members, pred={**view.intra, DEST: to_dest}
    )

    # Local originations beat any egress (weight 0).
    for member in sorted(set(originating_members)):
        if member not in switch_graph:
            raise KeyError(f"originating node is not a member: {member!r}")
        to_dest[member] = 0.0
        topo.egress_choice[member] = ("local", None)

    # External egresses, best (lowest weight, then deterministic
    # tie-break) route per member.
    best_per_member: Dict[str, Tuple[tuple, ExternalRoute]] = {}
    for route in external_routes:
        if route.prefix != prefix:
            continue
        member = route.peering.member
        cluster_asns = view.cluster_asns.get(member)
        if cluster_asns is None:
            continue
        if not cluster_asns.isdisjoint(route.as_path.members):
            continue  # would re-enter this sub-cluster: loop risk
        key = _route_key(route)
        current = best_per_member.get(member)
        if current is None or key < current[0]:
            best_per_member[member] = (key, route)

    for member, (_, route) in best_per_member.items():
        if member in to_dest:
            continue  # origination wins
        to_dest[member] = egress_base_cost + route.path_len
        topo.egress_choice[member] = ("egress", route)

    return topo


#: valley-free route preference: customer routes first, then peers,
#: then providers (mirrors the LOCAL_PREF ladder legacy routers use).
_REL_RANK = {
    Relationship.CUSTOMER: 0,
    Relationship.PEER: 1,
    Relationship.FLAT: 1,
    Relationship.PROVIDER: 2,
}


def _route_key(route: ExternalRoute):
    """Deterministic preference among a member's external routes."""
    return (
        _REL_RANK[route.peering.relationship],
        route.path_len,
        int(route.origin),
        route.med,
        route.peering.external,
        route.as_path.asns,
    )
