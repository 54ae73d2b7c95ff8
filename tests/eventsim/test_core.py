"""Unit tests for the discrete-event kernel."""

import pytest

from repro.eventsim import SimulationError, Simulator
from repro.eventsim.core import Event


@pytest.fixture
def sim():
    return Simulator(seed=42)


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self, sim):
        order = []
        for tag in ("x", "y", "z"):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["x", "y", "z"]

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(5.5, lambda: None)
        sim.run()
        assert sim.now == 5.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self, sim):
        """A NaN delay would pop first and set the clock to NaN, breaking
        monotonic virtual time (``NaN < 0`` is false, so it needs its
        own check)."""
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.run() == 1.0

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_event_can_schedule_more_events(self, sim):
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(1.0, lambda: chain(2))
        sim.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        ran = []
        event = sim.schedule(1.0, lambda: ran.append(1))
        sim.cancel(event)
        sim.run()
        assert ran == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.pending_foreground() == 0

    def test_cancel_updates_foreground_count(self, sim):
        event = sim.schedule(1.0, lambda: None)
        assert sim.pending_foreground() == 1
        sim.cancel(event)
        assert sim.pending_foreground() == 0

    def test_cancel_after_run_is_a_noop(self, sim):
        """Regression: cancelling an event that already ran used to
        decrement the foreground count a second time, so
        run_until_settled returned while foreground work was queued."""
        ran = []
        first = sim.schedule(1.0, lambda: ran.append(1))
        sim.schedule(2.0, lambda: ran.append(2))
        assert sim.step()
        assert sim.pending_foreground() == 1
        sim.cancel(first)
        sim.cancel(first)
        assert sim.pending_foreground() == 1
        assert sim.run_until_settled() == 2.0
        assert ran == [1, 2]

    def test_cancel_from_own_callback_is_a_noop(self, sim):
        box = []
        box.append(sim.schedule(1.0, lambda: sim.cancel(box[0])))
        sim.schedule(2.0, lambda: None)
        assert sim.run_until_settled() == 2.0
        assert sim.events_processed == 2


class TestRunUntil:
    def test_run_until_stops_clock_at_bound(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=3.0)
        assert sim.now == 3.0
        assert sim.pending_foreground() == 1

    def test_run_until_executes_due_events(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(1))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]

    def test_empty_queue_advances_to_until(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_guards_livelock(self, sim):
        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestRunUntilSettled:
    def test_settles_when_only_background_remains(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(100.0, lambda: None, background=True)
        settled_at = sim.run_until_settled()
        assert settled_at == 1.0

    def test_background_before_settle_point_still_runs(self, sim):
        order = []
        sim.schedule(2.0, lambda: order.append("fg"))
        sim.schedule(1.0, lambda: order.append("bg"), background=True)
        sim.run_until_settled()
        assert order == ["bg", "fg"]

    def test_new_foreground_from_callback_extends_run(self, sim):
        seen = []
        sim.schedule(
            1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now))
        )
        sim.run_until_settled()
        assert seen == [2.0]

    def test_horizon_violation_raises(self, sim):
        sim.schedule(1000.0, lambda: None, label="too-late")
        with pytest.raises(SimulationError, match="too-late"):
            sim.run_until_settled(horizon=10.0)

    def test_settled_with_empty_queue(self, sim):
        assert sim.run_until_settled() == 0.0


class TestTieBreak:
    """Regression pin: duplicate timestamps pop in scheduling order.

    The heap orders events by ``(time, seq)``; this is the determinism
    contract every digest fixture rests on, so the exact pop order for a
    burst of same-time events is pinned here.
    """

    def test_duplicate_timestamps_pop_in_seq_order(self, sim):
        order = []
        # interleave two timestamps, scheduled out of time order
        for tag in range(8):
            sim.schedule(2.0 if tag % 2 else 1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_events_are_handles_not_keys(self):
        """The heap's ``(time, seq)`` tuple is the only ordering; events
        compare by identity and define no order of their own."""
        a = Event(1.0, 5, lambda: None)
        b = Event(1.0, 5, a.callback)
        assert a != b and a == a
        with pytest.raises(TypeError):
            a < b  # noqa: B015

    def test_heap_orders_without_event_comparison(self, monkeypatch):
        """Heap entries are ``(time, seq, event)`` with a unique seq, so
        the heap scheduler never compares two events."""

        def refuse(self, other):
            raise AssertionError("heap compared two Events")

        monkeypatch.setattr(Event, "__lt__", refuse)
        sim = Simulator(seed=1)
        order = []
        for tag in range(8):
            sim.schedule(2.0 if tag % 2 else 1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_zero_delay_self_schedules_run_fifo(self, sim):
        order = []

        def chain(tag, depth):
            order.append(tag)
            if depth:
                sim.schedule(0.0, lambda: chain(tag, depth - 1))

        sim.schedule(0.0, lambda: chain("a", 2))
        sim.schedule(0.0, lambda: chain("b", 2))
        sim.run()
        # each round of the same-instant cascade alternates in seq order
        assert order == ["a", "b", "a", "b", "a", "b"]


class TestRng:
    def test_streams_are_deterministic_across_instances(self):
        a = Simulator(seed=7).rng("x").random()
        b = Simulator(seed=7).rng("x").random()
        assert a == b

    def test_streams_are_independent(self):
        sim = Simulator(seed=7)
        first = sim.rng("x").random()
        sim2 = Simulator(seed=7)
        sim2.rng("y").random()  # consuming another stream...
        assert sim2.rng("x").random() == first  # ...does not perturb x

    def test_different_seeds_differ(self):
        assert Simulator(seed=1).rng("x").random() != Simulator(seed=2).rng("x").random()

    def test_same_stream_is_cached(self, sim):
        assert sim.rng("x") is sim.rng("x")
