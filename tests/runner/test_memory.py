"""execute_spec frees earlier trials' object graphs, off the job's clock."""

import gc
import time
import weakref

import pytest

from repro.eventsim import Simulator
from repro.experiments.common import WithdrawalScenario
from repro.runner import execute_spec
from repro.runner.jobs import ResourceAccounting

from .scenarios import RaisingScenario
from .test_jobs import make_spec

#: host seconds the instrumented collect sleeps before collecting.
PAUSE = 0.5

SCENARIOS = pytest.mark.parametrize(
    "scenario", [WithdrawalScenario, RaisingScenario], ids=["ok", "failed"]
)


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every Simulator built while the test runs."""
    created = []
    original = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        created.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", tracking_init)
    return created


@SCENARIOS
def test_next_job_frees_previous_trial(simulators, scenario):
    first = execute_spec(make_spec(scenario_factory=scenario))
    assert first.ok == (scenario is WithdrawalScenario)
    trial = list(simulators)
    assert trial, "the trial built no Simulator"
    assert execute_spec(make_spec(seed=8)).ok
    survivors = [
        obj for obj in gc.get_objects()
        if isinstance(obj, Simulator) and any(ref() is obj for ref in trial)
    ]
    assert survivors == []
    assert all(ref() is None for ref in trial)


@SCENARIOS
def test_collect_is_outside_wall_time_and_gc_totals(monkeypatch, scenario):
    real_collect = gc.collect
    attached = []

    def slow_collect(*args):
        # Which ResourceAccounting callbacks would see this collection?
        attached.append([
            cb for cb in gc.callbacks
            if isinstance(getattr(cb, "__self__", None), ResourceAccounting)
        ])
        time.sleep(PAUSE)
        return real_collect(*args)

    monkeypatch.setattr(gc, "collect", slow_collect)
    started = time.perf_counter()
    record = execute_spec(make_spec(scenario_factory=scenario))
    elapsed = time.perf_counter() - started
    assert attached == [[]], "exactly one collect, with no accounting attached"
    assert record.wall_time <= elapsed - PAUSE
    assert record.resources["gc_pause_s"] < PAUSE
