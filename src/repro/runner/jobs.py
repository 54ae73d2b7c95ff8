"""Declarative job descriptions for experiment sweeps.

A sweep is an embarrassingly parallel grid of independent trials; a
:class:`RunSpec` is the picklable, hashable description of exactly one
of them — scenario type, topology recipe, SDN membership, timer config
and seed.  Because the spec is *data* (no live objects, no closures) it
can cross process boundaries to a worker pool and it has a stable
content digest that keys the on-disk result cache.

The worker entry point is :func:`execute_spec`: it rebuilds the trial
from the spec, runs it, and returns a :class:`RunRecord` carrying the
measurement plus wall-clock/worker metadata.  Soft failures (a scenario
raising) are caught and returned as failed records so the pool can
apply its retry policy uniformly.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import os
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..framework.convergence import ConvergenceMeasurement

__all__ = [
    "SpecError",
    "ResourceAccounting",
    "RunSpec",
    "RunRecord",
    "callable_token",
    "execute_spec",
    "paused_gc",
    "profile_table",
    "run_trial",
    "run_trial_instrumented",
    "run_trial_full",
]


class SpecError(ValueError):
    """A :class:`RunSpec` that cannot be executed or digested."""


def callable_token(fn: Callable) -> str:
    """A stable, process-independent identity for a factory callable.

    Only *importable* callables qualify — module-level functions and
    classes (referenced as ``module:qualname``) and ``functools.partial``
    wrappers over them.  Lambdas and local closures are rejected: they
    neither pickle across processes nor admit a stable digest.
    """
    if isinstance(fn, functools.partial):
        inner = callable_token(fn.func)
        kwargs = sorted(fn.keywords.items()) if fn.keywords else []
        return f"partial({inner}, args={fn.args!r}, kwargs={kwargs!r})"
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise SpecError(f"factory {fn!r} has no importable identity")
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise SpecError(
            f"factory {module}:{qualname} is a lambda/local function; "
            "sweep factories must be module-level callables so they can "
            "be pickled to workers and digested for the result cache"
        )
    return f"{module}:{qualname}"


@dataclass(frozen=True)
class RunSpec:
    """One trial of a sweep, as pure data.

    ``sdn_count`` picks members via the standard highest-ASNs-first
    rule (:func:`~repro.experiments.common.sdn_set_for`); an explicit
    ``sdn_members`` tuple overrides it for placement-style experiments.
    ``faults`` is a fault schedule in canonical tuple form
    (:meth:`~repro.faults.FaultSchedule.canonical`) — already sorted and
    order-free, so the digest is stable no matter how the schedule was
    expressed.  ``label`` is cosmetic (progress lines) and excluded
    from the digest.
    """

    scenario_factory: Callable
    topology_factory: Callable
    n: int
    sdn_count: int
    seed: int
    mrai: float = 30.0
    recompute_delay: float = 0.5
    policy_mode: str = "flat"
    sdn_members: Optional[Tuple[int, ...]] = None
    horizon: Optional[float] = None
    trace_level: str = "full"
    metrics: bool = False
    #: collect causal provenance spans and attach them to the record.
    spans: bool = False
    #: derive per-AS convergence anatomy (critical-path delay
    #: attribution) from the spans and attach it to the record.
    #: Requires ``spans``; deliberately absent from :meth:`describe`
    #: because anatomy is a pure function of the span payload — an
    #: anatomy-on trial is cache-equivalent to its anatomy-off twin,
    #: and a hit on an anatomy-less entry re-derives it losslessly.
    anatomy: bool = False
    #: wrap the trial in cProfile and attach the hottest functions.
    profile: bool = False
    faults: Optional[Tuple] = None
    #: lean build: no baseline full-mesh originations, no collector.
    #: The only tractable shape at thousands of ASes.
    lean: bool = False
    #: sampling wall-clock profiler rate (Hz); 0 disables.  Like
    #: ``profile``, sampling never touches virtual-time results.
    sample_hz: float = 0.0
    label: str = field(default="", compare=False)

    def describe(self) -> Dict[str, Any]:
        """The digest payload: every result-determining field, as
        process-independent primitives (factories become tokens)."""
        out: Dict[str, Any] = {
            "scenario": callable_token(self.scenario_factory),
            "topology": callable_token(self.topology_factory),
            "n": self.n,
            "sdn_count": self.sdn_count,
            "seed": self.seed,
            "mrai": self.mrai,
            "recompute_delay": self.recompute_delay,
            "policy_mode": self.policy_mode,
            "sdn_members": (
                sorted(self.sdn_members)
                if self.sdn_members is not None else None
            ),
            "horizon": self.horizon,
            "trace_level": self.trace_level,
            "metrics": self.metrics,
        }
        if self.faults is not None:
            # Only present when set, so fault-free specs keep the digests
            # (and cache entries) they had before faults existed.
            out["faults"] = self.faults
        if self.spans:
            # Same back-compat rule: span collection is passive (results
            # are bit-identical), but the record payload differs, so
            # span-collecting trials get their own cache entries while
            # span-free specs keep their pre-existing digests.
            out["spans"] = True
        # ``anatomy`` is intentionally NOT part of the payload: it adds
        # nothing to the record that the spans do not already determine,
        # so anatomy-on and anatomy-off specs share digests (and cache
        # entries) — the on/off differential test pins this.
        if self.profile:
            # Profiling never changes virtual-time results either, but a
            # profiled record carries extra payload — own cache entries,
            # unprofiled digests untouched.
            out["profile"] = True
        if self.lean:
            # Lean builds change what is originated, hence the results.
            out["lean"] = True
        if self.sample_hz:
            # Stack sampling is passive like profile/spans, but sampled
            # records carry collapsed stacks — own cache entries, while
            # unsampled specs keep their legacy digests.
            out["sample_hz"] = self.sample_hz
        return out

    def digest(self) -> str:
        """Stable content digest — the cache key of this trial."""
        payload = json.dumps(self.describe(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def display(self) -> str:
        """Short human-readable tag for progress lines."""
        if self.label:
            return self.label
        return (
            f"{callable_token(self.scenario_factory).rsplit(':', 1)[-1]}"
            f"(n={self.n}, sdn={self.sdn_count}, seed={self.seed})"
        )


@dataclass
class RunRecord:
    """Outcome of executing one :class:`RunSpec` (success or failure)."""

    digest: str
    ok: bool
    measurement: Optional[ConvergenceMeasurement] = None
    #: per-run metrics snapshot (``spec.metrics=True``), JSON-ready.
    metrics: Optional[Dict[str, Any]] = None
    #: per-run provenance spans (``spec.spans=True``), JSON-ready dicts.
    spans: Optional[list] = None
    #: hottest functions by cumulative time (``spec.profile=True``),
    #: JSON-ready rows — see :func:`profile_table`.
    profile: Optional[list] = None
    error: Optional[str] = None
    #: wall-clock seconds the trial took inside its worker.
    wall_time: float = 0.0
    #: ``pid-<n>`` of the worker process, or ``serial`` for in-process.
    worker: str = ""
    #: total execution attempts this record reflects (>= 2 after retry).
    attempts: int = 1
    #: True when the record came from the result cache, not execution.
    cached: bool = False
    #: True when the job was cancelled by request (``ok`` is False and
    #: the record is never cached).
    cancelled: bool = False
    #: per-job resource accounting (CPU user/sys seconds, peak RSS,
    #: GC pauses, events/s) — digest-neutral record payload, never part
    #: of the measurement.  See :class:`ResourceAccounting`.
    resources: Optional[Dict[str, Any]] = None
    #: flamegraph collapsed stacks (``spec.sample_hz > 0``):
    #: ``{"frame;frame;frame": samples}``.
    sample_stacks: Optional[Dict[str, int]] = None
    #: per-AS convergence anatomy (``spec.anatomy=True``), the compact
    #: JSON payload of :meth:`repro.obs.anatomy.ConvergenceAnatomy.to_dict`
    #: — derived from ``spans``, never from wall clocks.
    anatomy: Optional[Dict[str, Any]] = None

    def measurement_dict(self) -> Dict[str, Any]:
        """JSON-ready measurement fields (for the cache)."""
        if self.measurement is None:
            return {}
        return {
            f.name: getattr(self.measurement, f.name)
            for f in fields(ConvergenceMeasurement)
        }

    @staticmethod
    def measurement_from_dict(data: Dict[str, Any]) -> ConvergenceMeasurement:
        known = {f.name for f in fields(ConvergenceMeasurement)}
        return ConvergenceMeasurement(
            **{k: v for k, v in data.items() if k in known}
        )


_gc_pause_lock = threading.Lock()
_gc_pause_depth = 0
_gc_was_enabled = False


@contextlib.contextmanager
def paused_gc() -> Iterator[None]:
    """Pause automatic cyclic garbage collection for one trial.

    A trial builds its object graph once, keeps all of it alive until
    the end and then drops it as a whole, so generational passes during
    the trial re-walk live objects and free almost nothing: about a
    third of a 5k-AS storm's wall time.  Pauses nest and may overlap
    across threads (the service runs trials in a thread pool): the
    first to enter records ``gc.isenabled()`` and disables the
    collector, and the last to leave restores the recorded state, so a
    caller that had already disabled it keeps it disabled.  Nothing is
    collected here; once a trial's frames are gone, the next young
    collection frees its graph in one pass.
    """
    global _gc_pause_depth, _gc_was_enabled
    with _gc_pause_lock:
        if _gc_pause_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_pause_depth += 1
    try:
        yield
    finally:
        with _gc_pause_lock:
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_was_enabled:
                gc.enable()


def run_trial(spec: RunSpec) -> ConvergenceMeasurement:
    """Rebuild the trial a spec describes and run it to completion.

    This is the exact serial recipe of ``run_fraction_sweep``: fresh
    scenario, scenario-shaped topology, standard member selection,
    paper config seeded from the spec.
    """
    measurement, _ = run_trial_instrumented(spec)
    return measurement


def run_trial_instrumented(
    spec: RunSpec,
) -> Tuple[ConvergenceMeasurement, Optional[Dict[str, Any]]]:
    """Like :func:`run_trial`, also returning the metrics snapshot.

    The snapshot is ``None`` unless the spec asked for metrics
    (``spec.metrics=True``).
    """
    measurement, metrics, _ = run_trial_full(spec)
    return measurement, metrics


def run_trial_full(
    spec: RunSpec,
    *,
    info: Optional[Dict[str, Any]] = None,
) -> Tuple[ConvergenceMeasurement, Optional[Dict[str, Any]], Optional[list]]:
    """One trial returning ``(measurement, metrics, spans)``.

    ``metrics`` is None unless ``spec.metrics``; ``spans`` (JSON-ready
    provenance span dicts) is None unless ``spec.spans``.  ``info``,
    when given, is filled with execution facts that are not part of the
    result (``events_processed``) for resource accounting.

    The whole trial, set-up included, runs under :func:`paused_gc`.
    The body lives in :func:`_run_trial`, so when the pause ends
    the trial's locals are already gone and only the returned results
    survive the next young collection.
    """
    with paused_gc():
        return _run_trial(spec, info)


def _run_trial(
    spec: RunSpec, info: Optional[Dict[str, Any]]
) -> Tuple[ConvergenceMeasurement, Optional[Dict[str, Any]], Optional[list]]:
    # Imported here, not at module top: repro.experiments.common imports
    # the runner package, so the dependency must stay one-directional at
    # import time.
    from ..experiments.common import (
        paper_config,
        run_scenario_full,
        sdn_set_for,
    )

    scenario = spec.scenario_factory()
    if spec.faults is not None:
        scenario.faults = spec.faults
    topology = scenario.topology(spec.n, spec.topology_factory)
    if spec.sdn_members is not None:
        members = frozenset(spec.sdn_members)
    else:
        members = sdn_set_for(topology, spec.sdn_count, scenario.reserved_legacy)
    config = paper_config(
        seed=spec.seed,
        mrai=spec.mrai,
        recompute_delay=spec.recompute_delay,
        policy_mode=spec.policy_mode,
        trace_level=spec.trace_level,
        metrics=spec.metrics,
        spans=spec.spans,
        lean=spec.lean,
    )
    return run_scenario_full(
        scenario, topology, members, config, horizon=spec.horizon, info=info,
    )


#: profile rows kept per run (top cumulative-time functions).
PROFILE_TOP = 25


def profile_table(stats, *, top: int = PROFILE_TOP) -> list:
    """The hottest functions of a ``pstats.Stats``, as JSON-ready rows.

    Each row is ``{"func": "module:lineno(name)", "ncalls": int,
    "tottime": float, "cumtime": float}``, sorted by cumulative time.
    Rows from different workers merge by summing (see
    :func:`repro.obs.registry.aggregate_profiles`).
    """
    rows = []
    for (filename, lineno, name), (_, ncalls, tottime, cumtime, _) in (
        stats.stats.items()
    ):
        short = os.path.basename(filename) if filename else "~"
        rows.append(
            {
                "func": f"{short}:{lineno}({name})",
                "ncalls": int(ncalls),
                "tottime": round(float(tottime), 6),
                "cumtime": round(float(cumtime), 6),
            }
        )
    rows.sort(key=lambda r: (-r["cumtime"], r["func"]))
    return rows[:top]


class ResourceAccounting:
    """Per-trial resource meter: CPU time, peak RSS, GC pauses.

    Wraps ``resource.getrusage(RUSAGE_SELF)`` deltas plus paired
    ``gc.callbacks`` timing.  ``max_rss_kb`` is the process-wide
    high-water mark at trial end (kilobytes) — ``getrusage`` offers no
    per-interval reading, so back-to-back trials in one worker report
    the running maximum.  Degrades to partial accounting on platforms
    without the ``resource`` module.
    """

    def __init__(self) -> None:
        try:
            import resource

            self._resource = resource
            self._r0 = resource.getrusage(resource.RUSAGE_SELF)
        except ImportError:  # pragma: no cover - non-POSIX
            self._resource = None
            self._r0 = None
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started: Optional[float] = None
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif phase == "stop" and self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def finish(
        self,
        *,
        wall_time: float,
        events_processed: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Detach and return the JSON-ready resources dict."""
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:  # pragma: no cover - double finish
            pass
        out: Dict[str, Any] = {
            "gc_collections": self.gc_collections,
            "gc_pause_s": round(self.gc_pause_s, 6),
        }
        if self._resource is not None and self._r0 is not None:
            r1 = self._resource.getrusage(self._resource.RUSAGE_SELF)
            max_rss = r1.ru_maxrss
            if sys.platform == "darwin":  # bytes there, KiB on Linux
                max_rss //= 1024
            out.update(
                cpu_user_s=round(r1.ru_utime - self._r0.ru_utime, 6),
                cpu_sys_s=round(r1.ru_stime - self._r0.ru_stime, 6),
                max_rss_kb=int(max_rss),
            )
        if events_processed is not None:
            out["events_processed"] = int(events_processed)
            if wall_time > 0:
                out["events_per_s"] = round(events_processed / wall_time, 1)
        return out


def execute_spec(spec: RunSpec, cid: str = "") -> RunRecord:
    """Pool worker entry point: run one spec, never raise.

    Scenario exceptions come back as ``ok=False`` records (with the
    traceback) so the caller's retry policy sees soft and hard failures
    the same way; only interpreter death (crash/kill/timeout) surfaces
    through the pool machinery itself.  ``spec.profile`` wraps the
    trial in ``cProfile`` and attaches the hottest functions to the
    record; ``spec.sample_hz`` runs the sampling profiler alongside
    (virtual-time results are unaffected by either — the telemetry
    differential test pins that).  Every record carries digest-neutral
    resource accounting; ``cid`` is the caller's correlation id, echoed
    into this worker's structured log lines.

    The trial itself runs with automatic collection paused (see
    :func:`run_trial_full`), so the record's GC totals no longer grow
    with the trial's heap: they normally count one young collection,
    the one that frees the trial's graph as the pause ends.  A
    trial's object graph is cyclic (nodes, links and the simulator
    point at each other), so a graph that outlives its trial (a failed
    trial's traceback, a caller still holding the experiment) waits for
    a collection that reaches its generation.  Each job therefore
    starts with one full ``gc.collect()``, before its clock and
    resource accounting start, as a backstop that frees any earlier
    trial in this process, so dead trials never pile up in a long-lived
    worker.  It is not in :func:`run_trial_full`, so callers that drive
    trials directly (the scale storm) do not pay for it.
    """
    gc.collect()
    from ..obs.logging import get_logger

    digest = spec.digest()
    log = get_logger("worker", cid=cid or None, digest=digest[:12])
    log.info("trial_started", label=spec.display(), pid=os.getpid())
    started = time.perf_counter()
    worker = f"pid-{os.getpid()}"
    profile = None
    accounting = ResourceAccounting()
    sampler = None
    if spec.sample_hz:
        from ..obs.sampler import StackSampler

        sampler = StackSampler(spec.sample_hz).start()
    info: Dict[str, Any] = {}
    try:
        if spec.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            try:
                measurement, metrics, spans = profiler.runcall(
                    run_trial_full, spec, info=info
                )
            finally:
                profiler.disable()
            profile = profile_table(pstats.Stats(profiler))
        else:
            measurement, metrics, spans = run_trial_full(spec, info=info)
    except Exception:
        wall_time = time.perf_counter() - started
        if sampler is not None:
            sampler.stop()
        resources = accounting.finish(
            wall_time=wall_time,
            events_processed=info.get("events_processed"),
        )
        log.error("trial_failed", wall_time=round(wall_time, 3))
        return RunRecord(
            digest=digest,
            ok=False,
            error=traceback.format_exc(limit=20),
            wall_time=wall_time,
            worker=worker,
            resources=resources,
            sample_stacks=dict(sampler.counts) if sampler else None,
        )
    wall_time = time.perf_counter() - started
    if sampler is not None:
        sampler.stop()
    resources = accounting.finish(
        wall_time=wall_time,
        events_processed=info.get("events_processed"),
    )
    log.info(
        "trial_finished",
        wall_time=round(wall_time, 3),
        cpu_user_s=resources.get("cpu_user_s"),
        max_rss_kb=resources.get("max_rss_kb"),
        samples=sampler.samples if sampler else None,
    )
    record = RunRecord(
        digest=digest,
        ok=True,
        measurement=measurement,
        metrics=metrics,
        spans=spans,
        profile=profile,
        wall_time=wall_time,
        worker=worker,
        resources=resources,
        sample_stacks=dict(sampler.counts) if sampler else None,
    )
    if spec.anatomy:
        # Derived after the trial from the span payload alone, so it can
        # never perturb virtual-time results (and needs ``spec.spans``).
        from ..obs.anatomy import ensure_record_anatomy

        ensure_record_anatomy(record)
    return record
