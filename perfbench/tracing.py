"""Phase clock and per-layer tracer, installed from outside the program.

Everything here patches *class attributes* of the simulator's public
surface for the lifetime of one forked benchmark child; nothing under
``src/`` knows it is being measured.

Two modes share one :class:`Tracer`:

- ``layers=False`` (the untraced run) wraps only the phase boundaries of
  a trial: ``run_trial_full`` (the trial), ``Scenario.topology``,
  ``Experiment.build``, ``Experiment.start``, ``Scenario.prepare`` and
  ``Scenario.finish`` -- six calls per trial, which is what ``setup_s``
  and ``event_s`` are made of.  No layer wrapper, no dispatch hook.
- ``layers=True`` (the traced run) adds class-level wrappers around the
  layers' entry points and installs ``Simulator.set_dispatch_hook`` on
  every simulator, so each kernel event's callback time is attributed
  to its kind (taken from the event label).

Timing model: every wrapped call and every phase is a frame on one
stack.  A frame's *self time* is its duration minus the time covered by
its children (nested wrapped calls, and for the event loop, the event
callbacks).  An event callback's self time is its wall time minus the
wrapped calls made inside it.  Phase-level spans (workload -> trial ->
phase) keep parent links; finer calls only feed aggregated
accumulators, so memory stays flat however many events run.
"""

from __future__ import annotations

import functools
import gc
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: event kinds, from the last ``:``-separated token of the event label
#: (``fault:...`` labels are all ``fault``); anything else is ``other``.
KINDS = (
    "deliver", "proc", "flush", "mrai", "connect", "hold", "keepalive",
    "recompute", "fault", "other",
)
_KIND_SET = frozenset(KINDS)

#: label prefix of the cluster BGP speaker's processing events, whose
#: time belongs to the controller layer rather than to BGP routers.
SPEAKER_PREFIX = "speaker:"


def event_kind(label: str) -> str:
    """The kind of a kernel event, read from its label."""
    if label.startswith("fault:"):
        return "fault"
    kind = label.rpartition(":")[2]
    return kind if kind in _KIND_SET else "other"


class Tracer:
    """Phase spans plus (optionally) per-layer self-time accumulators."""

    def __init__(self, *, layers: bool) -> None:
        self.layers = layers
        #: frame = [child_seconds, child_seconds_at_last_event]
        self._stack: List[list] = [[0.0, 0.0]]
        #: wrapped call name -> [calls, total_s, self_s]
        self.calls: Dict[str, list] = {}
        #: phase spans: (span_id, parent_id, name, start_s, end_s)
        self.spans: List[tuple] = []
        #: open spans: (span_id, parent_id, name, start, frame)
        self._open: List[tuple] = []
        #: per-trial phase durations and end-of-trial counts.
        self.trials: List[Dict[str, Any]] = []
        self._trial: Optional[Dict[str, Any]] = None
        self.kind_count = dict.fromkeys(KINDS, 0)
        self.kind_self = dict.fromkeys(KINDS, 0.0)
        self.speaker_proc_s = 0.0
        self.hook_s = 0.0
        self.useful_flushes = 0
        self._tx_mark = 0
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: Optional[float] = None
        self._origin = perf_counter()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # phase spans
    # ------------------------------------------------------------------
    def open_span(self, name: str) -> None:
        """Open a phase-level span (a frame on the timing stack too)."""
        frame = [0.0, 0.0]
        parent = self._open[-1][0] if self._open else None
        span_id = len(self.spans) + len(self._open)
        self._open.append((span_id, parent, name, perf_counter(), frame))
        self._stack.append(frame)

    def close_span(self) -> float:
        """Close the innermost open span; returns its duration."""
        span_id, parent, name, start, frame = self._open.pop()
        end = perf_counter()
        elapsed = end - start
        # Unwind frames an exception left open inside this span.
        while self._stack[-1] is not frame:
            self._stack.pop()
        self._stack.pop()
        self._stack[-1][0] += elapsed
        self.spans.append(
            (span_id, parent, name, start - self._origin, end - self._origin)
        )
        return elapsed

    def _open_names(self) -> List[str]:
        return [entry[2] for entry in self._open]

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        """Patch the phase boundaries, and the layers when tracing."""
        from repro.experiments.common import Scenario
        from repro.framework.experiment import Experiment
        from repro.runner import jobs

        self._patch(jobs, "run_trial_full", self._trial_wrapper)
        self._patch(Experiment, "build", self._phase_wrapper("build"))
        self._patch(Experiment, "start", self._phase_wrapper("start"))
        for cls in _subclasses(Scenario):
            for attr, make in (
                ("topology", self._phase_wrapper("topology")),
                ("prepare", self._prepare_wrapper),
                ("finish", self._finish_wrapper),
            ):
                if attr in cls.__dict__:
                    self._patch(cls, attr, make)
        if self.layers:
            self._install_layers()
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _install_layers(self) -> None:
        from repro.bgp.router import BGPRouter
        from repro.eventsim.bus import InstrumentationBus
        from repro.eventsim.core import Simulator
        from repro.faults.engine import FaultInjector
        from repro.faults.invariants import InvariantChecker
        from repro.net.link import Link

        for owner, attr, name in (
            (Simulator, "run", "eventsim.loop"),
            (Simulator, "run_until_settled", "eventsim.loop"),
            (Simulator, "schedule", "eventsim.schedule"),
            (Simulator, "cancel", "eventsim.cancel"),
            (Link, "transmit", "net.transmit"),
            (BGPRouter, "enqueue_update", "bgp.enqueue_update"),
            (InstrumentationBus, "record", "bus.record"),
            (InstrumentationBus, "record_lazy", "bus.record"),
            (InstrumentationBus, "publish", "bus.record"),
            (FaultInjector, "inject", "faults.inject"),
            (InvariantChecker, "check", "faults.invariant"),
        ):
            self.calls.setdefault(name, [0, 0.0, 0.0])
            self._patch(owner, attr, functools.partial(self._timed, name))
        hook = self._dispatch_hook

        def traced_init(original):
            @functools.wraps(original)
            def __init__(sim, *args, **kwargs):
                original(sim, *args, **kwargs)
                sim.set_dispatch_hook(hook)
            return __init__

        self._patch(Simulator, "__init__", traced_init)
        gc.callbacks.append(self._on_gc)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        entry = self.calls[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]

        return wrapper

    def _dispatch_hook(self, event, wall: float) -> None:
        entered = perf_counter()
        top = self._stack[-1]
        own = wall - (top[0] - top[1])
        label = event.label
        kind = event_kind(label)
        self.kind_count[kind] += 1
        if kind == "proc" and label.startswith(SPEAKER_PREFIX):
            self.speaker_proc_s += own
        else:
            self.kind_self[kind] += own
        transmits = self.calls["net.transmit"][0]
        if kind == "flush" and transmits > self._tx_mark:
            self.useful_flushes += 1
        self._tx_mark = transmits
        spent = perf_counter() - entered
        self.hook_s += spent
        # The callback and this hook are children of the loop frame, so
        # the loop's self time is the kernel's own work only.
        top[0] += own + spent
        top[1] = top[0]

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif phase == "stop" and self._gc_started is not None:
            self.gc_pause_s += perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def _trial_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run_trial_full(spec, *args, **kwargs):
            label = spec.label or spec.display()
            self._trial = trial = {
                "key": label if "seed=" in label
                else f"{label} seed={spec.seed}",
                "topology_s": 0.0, "build_s": 0.0, "start_s": 0.0,
                "prepare_s": 0.0, "setup_s": 0.0, "event_s": 0.0,
                "measurement": None, "error": None,
            }
            self.open_span("trial")
            try:
                result = fn(spec, *args, **kwargs)
                trial["measurement"] = result[0]
                return result
            except Exception as exc:
                trial["error"] = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                while self._open[-1][2] != "trial":
                    self.close_span()
                trial["trial_s"] = self.close_span()
                exp = trial.pop("experiment", None)
                if exp is not None and self.layers:
                    trial.update(_experiment_counts(exp))
                self.trials.append(trial)
                self._trial = None

        return run_trial_full

    def _phase_wrapper(self, name: str) -> Callable:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(obj, *args, **kwargs):
                trial = self._trial
                if trial is None or name in self._open_names():
                    return fn(obj, *args, **kwargs)
                if name == "topology":
                    trial["t_setup"] = perf_counter()
                elif name == "build":
                    trial["experiment"] = obj
                self.open_span(name)
                try:
                    return fn(obj, *args, **kwargs)
                finally:
                    trial[f"{name}_s"] += self.close_span()

            return wrapper

        return make

    def _prepare_wrapper(self, fn: Callable) -> Callable:
        timed = self._phase_wrapper("prepare")(fn)

        @functools.wraps(fn)
        def prepare(scenario, exp):
            trial = self._trial
            if trial is None or "event" in self._open_names():
                return fn(scenario, exp)
            timed(scenario, exp)
            now = perf_counter()
            trial["setup_s"] = now - trial.get("t_setup", now)
            if self.layers:
                from repro.bgp.attrs import intern_stats

                # Pools are sampled at the converged pre-event state: a
                # withdrawal releases the weakly pooled routes again.
                trial["intern"] = intern_stats()
            trial["t_ready"] = now
            self.open_span("event")

        return prepare

    def _finish_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def finish(scenario, exp):
            trial = self._trial
            if trial is None or "event" not in self._open_names():
                return fn(scenario, exp)
            try:
                return fn(scenario, exp)
            finally:
                while self._open[-1][2] != "event":
                    self.close_span()
                self.close_span()
                trial["event_s"] = perf_counter() - trial["t_ready"]
                trial["windows"] = _fault_windows(scenario)

        return finish


def _subclasses(cls) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _experiment_counts(exp) -> Dict[str, int]:
    """Deterministic counts read from a finished experiment's state."""
    from repro.bgp.router import BGPRouter

    controller = exp.controller
    return {
        "updates_processed": sum(
            node.updates_processed for node in exp.net.nodes.values()
            if isinstance(node, BGPRouter)
        ),
        "bus_records": exp.net.bus.records_published,
        "drops": sum(link.drop_count for link in exp.net.links),
        "recomputes": controller.recomputations if controller else 0,
        "flow_mods": controller.flow_mods_sent if controller else 0,
    }


def _fault_windows(scenario) -> Optional[list]:
    """Per-fault measurement windows of a fault-suite scenario, if any."""
    result = getattr(scenario, "result", None)
    reports = getattr(result, "reports", None)
    if reports is None:
        return None
    windows = []
    for report in reports:
        m = report.measurement
        windows.append([
            report.index, report.kind, report.t_fired, report.skipped,
            None if m is None else m.convergence_time,
            None if m is None else m.state_convergence_time,
            None if m is None else m.updates_tx,
        ])
    return windows
