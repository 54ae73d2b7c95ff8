"""Trials run with automatic cyclic collection paused.

A trial's object graph lives for the whole trial and dies as a whole,
so :func:`~repro.runner.jobs.run_trial_full` pauses the collector for
its lifetime and restores it afterwards; overlapping trials in service
threads share one pause.
"""

import functools
import gc
import sys
import threading
import weakref
from dataclasses import dataclass

import pytest

from repro.eventsim import Simulator
from repro.experiments.common import WithdrawalScenario
from repro.runner.jobs import paused_gc, run_trial_full

from .scenarios import RaisingScenario
from .test_jobs import make_spec

#: seconds any wait in this module may block before the test fails.
TIMEOUT = 30.0

#: ``gc.isenabled()`` as seen from inside trials, in call order.
SEEN = []

#: per-trial rendezvous for the overlapping-threads test.
GATES = {}


@dataclass
class ProbeScenario(WithdrawalScenario):
    """A withdrawal that records the collector state in set-up and in
    the measured event."""

    name: str = "gc-probe"

    def prepare(self, exp) -> None:
        SEEN.append(("prepare", gc.isenabled()))
        super().prepare(exp)

    def event(self, exp) -> None:
        SEEN.append(("event", gc.isenabled()))
        super().event(exp)


@dataclass
class GatedScenario(WithdrawalScenario):
    """A withdrawal whose event signals ``entered`` and then blocks
    until ``release`` is set (both from ``GATES[gate]``)."""

    name: str = "gc-gated"
    gate: str = ""

    def event(self, exp) -> None:
        entered, release = GATES[self.gate]
        entered.set()
        assert release.wait(TIMEOUT), "trial was never released"
        super().event(exp)


@pytest.fixture(autouse=True)
def collector_on():
    """Each test starts with the collector on and leaves it on."""
    assert gc.isenabled()
    SEEN.clear()
    GATES.clear()
    yield
    gc.enable()


def test_gc_is_off_inside_a_trial():
    run_trial_full(make_spec(scenario_factory=ProbeScenario))
    assert SEEN == [("prepare", False), ("event", False)]


def test_gc_is_back_on_after_a_trial_returns():
    measurement, _, _ = run_trial_full(make_spec())
    assert measurement.updates_tx > 0
    assert gc.isenabled()


def test_gc_is_back_on_after_a_trial_raises():
    with pytest.raises(ValueError, match="exploded on purpose"):
        run_trial_full(make_spec(scenario_factory=RaisingScenario))
    assert gc.isenabled()


def test_gc_disabled_before_a_trial_stays_disabled():
    gc.disable()
    run_trial_full(make_spec(scenario_factory=ProbeScenario))
    assert SEEN[-1] == ("event", False)
    assert not gc.isenabled()


def test_overlapping_trials_share_one_pause():
    errors = []

    def trial(gate):
        try:
            run_trial_full(make_spec(
                scenario_factory=functools.partial(GatedScenario, gate=gate)
            ))
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    threads = {}
    try:
        for gate in ("first", "second"):
            GATES[gate] = (threading.Event(), threading.Event())
            threads[gate] = threading.Thread(target=trial, args=(gate,))
            threads[gate].start()
            assert GATES[gate][0].wait(TIMEOUT), f"{gate} trial never started"
            assert not gc.isenabled()

        GATES["first"][1].set()
        threads["first"].join(TIMEOUT)
        assert not threads["first"].is_alive()
        assert not gc.isenabled(), "the earlier trial ended the later pause"

        GATES["second"][1].set()
        threads["second"].join(TIMEOUT)
        assert not threads["second"].is_alive()
        assert errors == []
        assert gc.isenabled()
    finally:
        # A failed check must not leave a trial blocked for later tests.
        for gate, thread in threads.items():
            GATES[gate][1].set()
            thread.join(TIMEOUT)


def test_concurrent_pauses_keep_count():
    """More threads than cores entering and leaving the pause with a
    tiny switch interval: a lost update on the depth count would either
    re-enable the collector under a thread still inside, or leave it
    off after every thread has left."""
    rounds = 2000
    violations = []
    start = threading.Barrier(8)

    def worker():
        start.wait(TIMEOUT)
        for _ in range(rounds):
            with paused_gc():
                if gc.isenabled():
                    violations.append(threading.get_ident())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert violations == []
    assert gc.isenabled()


def test_first_collection_after_a_trial_frees_it(monkeypatch):
    """The trial's graph never reached an older generation, so the
    first young collection after the pause frees all of it."""
    trial = []
    original = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        trial.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", tracking_init)
    gc.collect()
    generations = []

    def on_gc(phase, info):
        if phase == "stop":
            generations.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        run_trial_full(make_spec())
        # Allocating any tracked object triggers the collection that
        # the pause deferred.
        ballast = [[] for _ in range(1000)]
    finally:
        gc.callbacks.remove(on_gc)
    del ballast
    assert trial, "the trial built no Simulator"
    assert generations[:1] == [0]
    assert all(ref() is None for ref in trial)
