"""The benchmark's three workloads and the checks on their outputs.

Each workload turns the benchmark seed into experiment inputs and runs
them through the program's public entry points, inside one forked child
with a :class:`~tracing.Tracer` already installed.  It returns the
per-pass facts the parent aggregates: host times, per-trial simulated
outcomes, and the seed-independent properties that must hold.
"""

from __future__ import annotations

import resource
from dataclasses import fields
from time import perf_counter
from typing import Any, Callable, Dict, List

from repro.experiments import scenarios_sweep, withdrawal_sweep
from repro.experiments.scale import scale_spec
from repro.framework.convergence import ConvergenceMeasurement
from repro.runner import jobs

#: the seed whose per-trial outcomes are pinned in ``pins.json``.
DEFAULT_SEED = 0

#: Fig. 2 size: all nine DEFAULT_SDN_COUNTS x this many seeds.
FIG2_RUNS = 2
#: fault suites: every canned suite x (0, 0.5, 1.0) SDN x this many.
FAULT_RUNS = 1
#: storm size (ASes on the synthetic CAIDA hierarchy).
STORM_ASES = 5000


def _seed_base(seed: int) -> int:
    # 100 is the sweeps' own default seed base; consecutive benchmark
    # seeds step past every run index, so their trials never coincide.
    return 100 + 10 * seed


def fig2_clique16(seed: int) -> Dict[str, Any]:
    """The paper's headline experiment: withdrawal vs SDN fraction."""
    result = withdrawal_sweep(
        runs=FIG2_RUNS, seed_base=_seed_base(seed), mrai=30.0,
        recompute_delay=0.5, trace_level="full", workers=1,
    )
    problems = []
    fit = result.fit()
    if not fit.r_squared >= 0.99:
        problems.append(f"fig2 linear fit R^2 {fit.r_squared:.4f} < 0.99")
    reduction = result.reduction_at_full()
    if not reduction >= 0.95:
        problems.append(f"fig2 reduction at 15/16 {reduction:.4f} < 0.95")
    return _sweep_facts([result], problems)


def faults_clique16(seed: int) -> Dict[str, Any]:
    """Every canned fault suite at 0, 0.5 and 1.0 SDN, strict checker."""
    results = scenarios_sweep(
        runs=FAULT_RUNS, seed_base=_seed_base(seed), fault_seed=seed,
        mrai=5.0, trace_level="full", workers=1,
    )
    # Strict FaultSuiteScenarios raise on any invariant violation, so a
    # violation surfaces as a failed run, counted in ``failed``.
    return _sweep_facts(list(results.values()), [])


def storm_caida5k(seed: int) -> Dict[str, Any]:
    """One withdrawal storm on 5000 ASes, straight through the trial
    entry point (no runner)."""
    measurement, _, _ = jobs.run_trial_full(scale_spec(STORM_ASES, seed))
    problems = []
    if not measurement.updates_tx > 0:
        problems.append("storm sent no UPDATEs")
    return {"attempted": 1, "run_failures": 0, "problems": problems,
            "record_walls": None}


def _sweep_facts(results: List[Any], problems: List[str]) -> Dict[str, Any]:
    runs = [run for r in results for p in r.points for run in p.runs]
    failures = [f for r in results for p in r.points for f in p.failures]
    for failure in failures:
        problems.append(
            f"run sdn={failure.sdn_count} seed={failure.seed} failed: "
            f"{failure.error.strip().splitlines()[-1]}"
        )
    return {
        "attempted": len(runs) + len(failures),
        "run_failures": len(failures),
        "problems": problems,
        "record_walls": [run.wall_time for run in runs],
    }


WORKLOADS: Dict[str, Callable[[int], Dict[str, Any]]] = {
    "fig2-clique16": fig2_clique16,
    "storm-caida5k": storm_caida5k,
    "faults-clique16": faults_clique16,
}


def run_workload(name: str, seed: int, tracer) -> Dict[str, Any]:
    """One pass of a workload under ``tracer``; the child's whole job."""
    tracer.open_span("workload")
    started = perf_counter()
    facts = WORKLOADS[name](seed)
    wall = perf_counter() - started
    tracer.close_span()
    facts["wall_s"] = wall
    facts["trials"] = tracer.trials
    # Linux reports ru_maxrss in KiB; the child's own high-water mark.
    facts["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return facts


def outcome(measurement: ConvergenceMeasurement) -> Dict[str, Any]:
    """A trial's simulated outcome: every measurement field but the
    free-form ``extra`` dict, with the two durations spelled out."""
    out = {
        f.name: getattr(measurement, f.name)
        for f in fields(ConvergenceMeasurement)
        if f.name != "extra"
    }
    out["convergence_time"] = measurement.convergence_time
    out["state_convergence_time"] = measurement.state_convergence_time
    return out
