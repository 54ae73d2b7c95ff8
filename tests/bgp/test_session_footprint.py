"""Per-session memory shape at scale.

A 5k-AS CAIDA hierarchy configures ~50k BGP sessions, so what one
session keeps alive decides both the storm's peak RSS and how long the
cyclic garbage collector spends walking the heap.  A session therefore
shares its relationship's immutable policy and holds raw kernel event
handles (``None`` while disarmed) instead of timer objects.  This pins
the resulting count of GC-tracked objects per configured session.
"""

import gc

from repro.bgp.router import BGPRouter
from repro.experiments.common import paper_config
from repro.framework.experiment import Experiment
from repro.topology import caida_hierarchy

#: GC-tracked objects per session on the 1000-AS build: ~10.1 with
#: shared policies and handle timers; per-session route-maps, closures
#: and Timer/PeriodicTimer objects put it at ~41.
MAX_OBJECTS_PER_SESSION = 12

HANDLES = (
    "_connect_event", "_mrai_event", "_flush_event",
    "_hold_event", "_keepalive_event",
)


def _started_storm_experiment():
    topology = caida_hierarchy(1000)
    config = paper_config(
        mrai=2.0, policy_mode="gao_rexford", trace_level="off", lean=True,
    )
    gc.collect()
    before = len(gc.get_objects())
    exp = Experiment(topology, config=config).build()
    exp.start()
    gc.collect()
    return exp, len(gc.get_objects()) - before


def _sessions(exp):
    return [
        session
        for node in exp.net.nodes.values()
        if isinstance(node, BGPRouter)
        for session in node.sessions.values()
    ]


def test_session_footprint_and_idle_handles():
    exp, tracked = _started_storm_experiment()
    sessions = _sessions(exp)
    assert len(sessions) == 2 * len(exp.topology.links)
    per_session = tracked / len(sessions)
    assert per_session <= MAX_OBJECTS_PER_SESSION, (
        f"{per_session:.1f} GC-tracked objects per session"
    )
    # Converged, keepalives off: every session is ESTABLISHED and at
    # rest, so it holds no pending timer at all.
    assert not exp.config.timers.keepalives_enabled
    for session in sessions:
        assert session.established
        assert all(getattr(session, name) is None for name in HANDLES)
