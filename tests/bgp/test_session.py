"""Unit tests for the BGP session FSM, MRAI pacing, and fallover."""

import random

import pytest

from repro.bgp.router import BGPRouter
from repro.bgp.session import BGPTimers, SessionState
from repro.net.addr import Prefix

PFX = Prefix.parse("192.168.0.0/24")


def make_pair(net, timers_a=None, timers_b=None, *, start=True):
    a = net.add_node(
        BGPRouter(net.sim, net.trace, "a", asn=1,
                  timers=timers_a or BGPTimers(mrai=10.0))
    )
    b = net.add_node(
        BGPRouter(net.sim, net.trace, "b", asn=2,
                  timers=timers_b or BGPTimers(mrai=10.0))
    )
    link = net.add_link(a, b, latency=0.01)
    sa = a.add_peer(link)
    sb = b.add_peer(link)
    if start:
        a.start()
        b.start()
        net.sim.run_until_settled()
    return a, b, link, sa, sb


class TestEstablishment:
    def test_sessions_establish(self, net):
        a, b, link, sa, sb = make_pair(net)
        assert sa.established and sb.established

    def test_peer_identity_learned_from_open(self, net):
        a, b, link, sa, sb = make_pair(net)
        assert sa.peer_asn == 2 and sa.peer_name == "b"
        assert sb.peer_asn == 1 and sb.peer_name == "a"

    def test_start_requires_link_up(self, net):
        a, b, link, sa, sb = make_pair(net, start=False)
        link.up = False
        sa.start()
        assert sa.state is SessionState.IDLE

    def test_one_sided_start_still_establishes(self, net):
        """The passive side answers the active side's OPEN."""
        a, b, link, sa, sb = make_pair(net, start=False)
        a.start()  # only a initiates
        net.sim.run_until_settled()
        assert sa.established and sb.established

    def test_initial_table_sync_on_establish(self, net):
        a, b, link, sa, sb = make_pair(net, start=False)
        a.originate(PFX)
        a.start()
        b.start()
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is not None


class TestTeardown:
    def test_stop_notifies_peer(self, net):
        a, b, link, sa, sb = make_pair(net)
        sa.stop()
        net.sim.run(until=net.sim.now + 0.1)
        assert sa.state is SessionState.IDLE
        # the peer received the NOTIFICATION, dropped the session, and is
        # already retrying (CONNECT) - but it is no longer established
        assert not sb.established

    def test_fast_fallover_on_link_down(self, net):
        a, b, link, sa, sb = make_pair(net)
        link.fail()
        assert sa.state is SessionState.IDLE
        assert sb.state is SessionState.IDLE

    def test_no_fallover_without_fast_fallover(self, net):
        timers = BGPTimers(mrai=10.0, fast_fallover=False)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        link.fail()
        assert sa.established  # failure undetected (no keepalives)

    def test_session_reestablishes_after_restore(self, net):
        a, b, link, sa, sb = make_pair(net)
        link.fail()
        link.restore()
        net.sim.run_until_settled()
        assert sa.established and sb.established

    def test_routes_flushed_on_session_down(self, net):
        a, b, link, sa, sb = make_pair(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is not None
        link.fail()
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is None

    def test_routes_relearned_after_flap(self, net):
        a, b, link, sa, sb = make_pair(net)
        a.originate(PFX)
        net.sim.run_until_settled()
        link.fail()
        link.restore()
        net.sim.run_until_settled()
        assert b.loc_rib.get(PFX) is not None

    def test_peer_unreachable_forces_down(self, net):
        a, b, link, sa, sb = make_pair(net)
        sa.peer_unreachable()
        assert sa.state is SessionState.IDLE

    def test_peer_reachable_reconnects(self, net):
        a, b, link, sa, sb = make_pair(net)
        sa.peer_unreachable()
        sb.peer_unreachable()
        sa.peer_reachable()
        sb.peer_reachable()
        net.sim.run_until_settled()
        assert sa.established


class TestMraiPacing:
    def test_first_update_is_immediate(self, net):
        a, b, link, sa, sb = make_pair(net)
        t0 = net.sim.now
        a.originate(PFX)
        net.sim.run_until_settled()
        rx = net.trace.filter(category="bgp.update.rx", node="b", since=t0)
        # Delivered within output batching + latency, far below MRAI.
        assert rx and rx[0].time - t0 < 1.0

    def test_rapid_changes_coalesce_within_mrai(self, net):
        """Two flaps inside one MRAI window reach the peer as one UPDATE."""
        a, b, link, sa, sb = make_pair(net)
        t0 = net.sim.now
        a.originate(PFX)
        net.sim.run_until_settled()
        first_count = len(net.trace.filter(category="bgp.update.rx", node="b", since=t0))
        t1 = net.sim.now
        # flap: withdraw + reannounce within the MRAI window
        a.withdraw(PFX)
        a.originate(PFX)
        net.sim.run_until_settled()
        rx = net.trace.filter(category="bgp.update.rx", node="b", since=t1)
        # The withdrawal escapes MRAI (RFC default) but announce+withdraw
        # resolve to the same attrs as before -> at most the withdrawal
        # plus one re-announce; never two separate announces.
        announces = [r for r in rx if r.data["announced"]]
        assert len(announces) <= 1

    def test_mrai_delays_second_announcement(self, net):
        timers = BGPTimers(mrai=10.0, mrai_jitter=0.0)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        t0 = net.sim.now
        a.originate(PFX)
        net.sim.run(until=t0 + 1.0)
        # a second, different announcement within the MRAI window
        a.originate(Prefix.parse("192.168.1.0/24"))
        net.sim.run_until_settled()
        rx = [
            r for r in net.trace.filter(category="bgp.update.rx", node="b", since=t0)
            if r.data["announced"]
        ]
        assert len(rx) == 2
        gap = rx[1].time - rx[0].time
        assert 9.0 <= gap <= 10.5

    def test_zero_mrai_sends_back_to_back(self, net):
        timers = BGPTimers(mrai=0.0)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        t0 = net.sim.now
        a.originate(PFX)
        net.sim.run(until=t0 + 0.5)
        a.originate(Prefix.parse("192.168.1.0/24"))
        net.sim.run_until_settled()
        rx = [
            r for r in net.trace.filter(category="bgp.update.rx", node="b", since=t0)
            if r.data["announced"]
        ]
        assert len(rx) == 2
        assert rx[1].time - rx[0].time < 1.0

    def test_withdrawal_escapes_mrai_by_default(self, net):
        timers = BGPTimers(mrai=30.0, mrai_jitter=0.0)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        a.originate(PFX)
        net.sim.run_until_settled()
        t0 = net.sim.now
        # start an MRAI round with a second announcement...
        a.originate(Prefix.parse("192.168.1.0/24"))
        net.sim.run(until=t0 + 1.0)
        # ...then withdraw inside the window: must not wait 30s.
        a.withdraw(PFX)
        net.sim.run(until=t0 + 5.0)
        withdrawals = [
            r for r in net.trace.filter(category="bgp.update.rx", node="b", since=t0)
            if r.data["withdrawn"]
        ]
        assert withdrawals and withdrawals[0].time - t0 < 2.0

    def test_withdrawal_rate_limited_waits_for_mrai(self, net):
        timers = BGPTimers(
            mrai=30.0, mrai_jitter=0.0, withdrawal_rate_limited=True
        )
        a, b, link, sa, sb = make_pair(net, timers, timers)
        a.originate(PFX)
        net.sim.run_until_settled()
        t0 = net.sim.now
        a.originate(Prefix.parse("192.168.1.0/24"))  # opens an MRAI round
        net.sim.run(until=t0 + 1.0)
        a.withdraw(PFX)
        net.sim.run_until_settled()
        withdrawals = [
            r for r in net.trace.filter(category="bgp.update.rx", node="b", since=t0)
            if r.data["withdrawn"]
        ]
        assert withdrawals and withdrawals[0].time - t0 >= 29.0

    def test_mrai_jitter_within_rfc_bounds(self, net):
        timers = BGPTimers(mrai=10.0, mrai_jitter=0.25)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        period = sa._mrai_period()
        assert 7.5 <= period <= 10.0

    def test_empty_flush_still_draws_mrai_jitter(self, net):
        """A flush whose dirty prefixes all diff to None sends nothing
        and arms no MRAI timer, but still takes one draw from the shared
        ``bgp.mrai`` stream.  Every later jitter depends on that draw,
        so skipping such flushes would change pinned outcomes."""
        timers = BGPTimers(mrai=10.0, mrai_jitter=0.25)
        a, b, link, sa, sb = make_pair(net, timers, timers)
        a.originate(PFX)
        net.sim.run_until_settled()
        assert sa._mrai_event is None
        rng = net.sim.rng("bgp.mrai")
        expected = random.Random()
        expected.setstate(rng.getstate())
        expected.uniform(7.5, 10.0)
        sent = sa.updates_sent
        sa._note_dirty(PFX)  # already sent with these attributes
        sa._flush()
        assert sa.updates_sent == sent
        assert sa._mrai_event is None
        assert rng.getstate() == expected.getstate()


class TestKeepalives:
    def test_keepalives_maintain_session(self, net):
        timers = BGPTimers(
            mrai=1.0, keepalives_enabled=True,
            keepalive_interval=5.0, hold_time=15.0,
        )
        a, b, link, sa, sb = make_pair(net, timers, timers)
        net.sim.run(until=net.sim.now + 60.0)
        assert sa.established and sb.established

    def test_hold_timer_detects_silent_failure(self, net):
        timers = BGPTimers(
            mrai=1.0, keepalives_enabled=True,
            keepalive_interval=5.0, hold_time=15.0, fast_fallover=False,
        )
        a, b, link, sa, sb = make_pair(net, timers, timers)
        link.up = False  # silent failure: no notifications
        net.sim.run(until=net.sim.now + 30.0)
        assert not sa.established
        downs = net.trace.filter(category="bgp.session.down")
        assert any(r.data.get("reason") == "hold_timer" for r in downs)


def _timer_program(net, timers, *, silent):
    """Run a pair with keepalives on; return the ``(time, label)`` of
    every keepalive/hold event armed and fired, in kernel order."""
    a, b, link, sa, sb = make_pair(net, timers, timers, start=False)
    sim = net.sim
    armed, fired = [], []
    kinds = (":keepalive", ":hold")
    schedule = sim.schedule

    def recording_schedule(delay, callback, **kwargs):
        event = schedule(delay, callback, **kwargs)
        if event.label.endswith(kinds):
            armed.append((event.time, event.label))
        return event

    def on_dispatch(event, wall):
        if event.label.endswith(kinds):
            fired.append((event.time, event.label))

    sim.schedule = recording_schedule
    sim.set_dispatch_hook(on_dispatch)
    a.start()
    b.start()
    sim.run_until_settled()
    if silent:
        link.up = False  # no notification: only the hold timer can tell
        sim.run(until=sim.now + 30.0)
    else:
        sim.run(until=sim.now + 60.0)
    return sa, sb, armed, fired


class TestKeepalivePins:
    """Exact keepalive/hold timing, jitter on.  No paper workload turns
    keepalives on, so these pins are what guard the hold and keepalive
    timers' arming order, RNG draws (``bgp.keepalive``: each period is
    drawn before that tick's send) and background flags."""

    def test_keepalive_schedule_pinned(self, net):
        timers = BGPTimers(
            mrai=1.0, keepalives_enabled=True,
            keepalive_interval=5.0, hold_time=15.0,
        )
        sa, sb, armed, fired = _timer_program(net, timers, silent=False)
        assert sa.established and sb.established
        assert fired == KEEPALIVE_FIRED
        assert armed == KEEPALIVE_ARMED

    def test_silent_failure_hold_expiry_pinned(self, net):
        timers = BGPTimers(
            mrai=1.0, keepalives_enabled=True,
            keepalive_interval=5.0, hold_time=15.0, fast_fallover=False,
        )
        sa, sb, armed, fired = _timer_program(net, timers, silent=True)
        assert sa.state is SessionState.IDLE and sb.state is SessionState.IDLE
        assert fired == SILENT_FIRED
        assert armed == SILENT_ARMED

    def test_keepalives_enabled_after_add_peer(self, net):
        """Hold/keepalive exist only once armed, so turning keepalives
        on after the sessions are configured still takes effect."""
        timers = BGPTimers(mrai=1.0, keepalive_interval=5.0, hold_time=15.0)
        a, b, link, sa, sb = make_pair(net, timers, timers, start=False)
        timers.keepalives_enabled = True
        fired = []
        net.sim.set_dispatch_hook(lambda event, wall: fired.append(event.label))
        a.start()
        b.start()
        net.sim.run(until=20.0)
        assert sa.established
        assert sa._keepalive_event is not None and sa._hold_event is not None
        assert fired.count("a:keepalive") >= 3


# Recorded with seed 42 (the ``net`` fixture); t = 0.13 is the instant
# both sessions reach ESTABLISHED.
KEEPALIVE_FIRED = [
    (4.524919542637984, "a:keepalive"),
    (5.005796359713762, "b:keepalive"),
    (8.88196335105711, "a:keepalive"),
    (9.80331801771526, "b:keepalive"),
    (13.513793128754838, "a:keepalive"),
    (13.798276750655988, "b:keepalive"),
    (17.708700911785073, "a:keepalive"),
    (17.965702568707357, "b:keepalive"),
    (21.859947952104093, "a:keepalive"),
    (22.4590066126824, "b:keepalive"),
    (25.793967419081845, "a:keepalive"),
    (26.61266912602702, "b:keepalive"),
    (30.335939312777754, "a:keepalive"),
    (30.613098824770404, "b:keepalive"),
    (34.774020549437104, "a:keepalive"),
    (35.445017781623356, "b:keepalive"),
    (39.278819350572746, "a:keepalive"),
    (39.70537859353447, "b:keepalive"),
    (43.857112932300254, "b:keepalive"),
    (43.963177367183306, "a:keepalive"),
    (48.10989970595618, "b:keepalive"),
    (48.35182501962408, "a:keepalive"),
    (52.35085566263095, "a:keepalive"),
    (52.808607042895794, "b:keepalive"),
    (56.41891434755428, "a:keepalive"),
    (56.959590715082996, "b:keepalive"),
]

KEEPALIVE_ARMED = [
    (4.524919542637984, "a:keepalive"),
    (15.12, "a:hold"),
    (5.005796359713762, "b:keepalive"),
    (15.12, "b:hold"),
    (8.88196335105711, "a:keepalive"),
    (19.534919542637983, "b:hold"),
    (9.80331801771526, "b:keepalive"),
    (20.01579635971376, "a:hold"),
    (13.513793128754838, "a:keepalive"),
    (23.891963351057107, "b:hold"),
    (13.798276750655988, "b:keepalive"),
    (24.81331801771526, "a:hold"),
    (17.708700911785073, "a:keepalive"),
    (28.52379312875484, "b:hold"),
    (17.965702568707357, "b:keepalive"),
    (28.80827675065599, "a:hold"),
    (21.859947952104093, "a:keepalive"),
    (32.71870091178508, "b:hold"),
    (22.4590066126824, "b:keepalive"),
    (32.97570256870736, "a:hold"),
    (25.793967419081845, "a:keepalive"),
    (36.8699479521041, "b:hold"),
    (26.61266912602702, "b:keepalive"),
    (37.469006612682406, "a:hold"),
    (30.335939312777754, "a:keepalive"),
    (40.80396741908184, "b:hold"),
    (30.613098824770404, "b:keepalive"),
    (41.62266912602702, "a:hold"),
    (34.774020549437104, "a:keepalive"),
    (45.34593931277776, "b:hold"),
    (35.445017781623356, "b:keepalive"),
    (45.62309882477041, "a:hold"),
    (39.278819350572746, "a:keepalive"),
    (49.7840205494371, "b:hold"),
    (39.70537859353447, "b:keepalive"),
    (50.455017781623354, "a:hold"),
    (43.963177367183306, "a:keepalive"),
    (54.288819350572744, "b:hold"),
    (43.857112932300254, "b:keepalive"),
    (54.71537859353447, "a:hold"),
    (48.10989970595618, "b:keepalive"),
    (58.86711293230025, "a:hold"),
    (48.35182501962408, "a:keepalive"),
    (58.973177367183304, "b:hold"),
    (52.808607042895794, "b:keepalive"),
    (63.11989970595618, "a:hold"),
    (52.35085566263095, "a:keepalive"),
    (63.36182501962408, "b:hold"),
    (56.41891434755428, "a:keepalive"),
    (67.36085566263094, "b:hold"),
    (56.959590715082996, "b:keepalive"),
    (67.81860704289579, "a:hold"),
    (60.74640872241604, "a:keepalive"),
    (71.42891434755427, "b:hold"),
    (60.94486260259069, "b:keepalive"),
    (71.969590715083, "a:hold"),
]

SILENT_FIRED = [
    (4.524919542637984, "a:keepalive"),
    (5.005796359713762, "b:keepalive"),
    (8.88196335105711, "a:keepalive"),
    (9.80331801771526, "b:keepalive"),
    (13.513793128754838, "a:keepalive"),
    (13.798276750655988, "b:keepalive"),
    (15.12, "a:hold"),
    (15.12, "b:hold"),
]

SILENT_ARMED = [
    (4.524919542637984, "a:keepalive"),
    (15.12, "a:hold"),
    (5.005796359713762, "b:keepalive"),
    (15.12, "b:hold"),
    (8.88196335105711, "a:keepalive"),
    (9.80331801771526, "b:keepalive"),
    (13.513793128754838, "a:keepalive"),
    (13.798276750655988, "b:keepalive"),
    (17.708700911785073, "a:keepalive"),
    (17.965702568707357, "b:keepalive"),
]
