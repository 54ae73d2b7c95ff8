"""Instrumentation-bus micro-benchmark: records/sec per capture policy.

Not a paper artifact — this benchmarks the repro harness itself.  The
bus is on the hot path of every simulated message, so its overhead per
record bounds how large an emulation the framework can drive.  We push
a fixed record stream through two families of configurations:

Eager publishing (``bus.record`` — the historical path):

- ``no subscribers``   — counts only (the floor every run pays),
- ``metrics only``     — the registry's per-category counters,
- ``filtered trace``   — TraceLog retaining only route-affecting records,
- ``full trace``       — TraceLog retaining everything (the old default),
- ``spans``            — a SpanTracker building the causal provenance
  DAG (one span per route-affecting record).

Lazy publishing (``bus.record_lazy`` — the trace-record change this
benchmark was extended for):

- ``lazy off``         — emitters hand the bus a payload thunk that
  never runs (no takers): the trace_level="off" sweep shape,
- ``lazy route``       — thunks run only for retained route-affecting
  records,
- ``lazy sampled``     — stride-10 subscriber; thunks run for one in
  ten occurrences,
- ``lazy full``        — every thunk runs (a subscriber retains all).

Methodology: each configuration is timed with the cyclic garbage
collector frozen and its thresholds raised (the pyperf discipline —
see ``isolated_gc``).  Retained-record configurations otherwise spend
more time in GC scans triggered by *earlier* configurations' surviving
piles than in the bus itself, which would make the ordering of the
table change the numbers.

The archived baseline records throughput and the retained-record count
of each configuration, so both a dispatch-speed regression and a
bounded-memory regression (a "filtered" config that silently retains
everything) show up in the diff.

Sampling profiler (``repro.obs.sampler``, the ``--sample-hz`` knob):

- ``sampler off``      — the no-subscriber floor loop, re-timed,
- ``sampler on``       — the same loop with a signal-mode StackSampler
  interrupting it at the default rate.

Both are best-of-``SAMPLER_REPEATS`` so the pair measures the sampler,
not scheduler jitter; the report states their ratio (a timing-derived
reading, never a raw sample count — sample totals are machine-dependent
and would trip the exact-match integer gate in
``compare_baselines.py``).

Convergence anatomy (``repro.obs.anatomy``, the ``--anatomy`` knob):

- ``anatomy off``      — one real traced withdrawal trial (spans on),
- ``anatomy on``       — the same trial plus critical-path delay
  attribution derived from its spans.

The pair times :func:`repro.runner.jobs.execute_spec` end to end, so
the reported ratio is the whole-trial cost of turning attribution on —
the derivation is pure post-processing of the span pile and must never
touch the simulation itself (the test asserts the two records share
one spec digest and measurement).

Knobs: ``REPRO_BENCH_TRACE_RECORDS`` (stream length, default 200_000);
``REPRO_BENCH_TRACE_REGISTRY`` (when set, also run one real
withdrawal trial and append its deterministic measurement to that
telemetry registry, putting its results under the
``repro runs regressions`` gate);
``REPRO_BENCH_SAMPLER_GATE`` (when set, maximum sampler overhead as a
percent — CI sets 5 — and the bench fails if sampler-on throughput
falls further below sampler-off than that).
"""

import gc
import os
import time
from contextlib import contextmanager

from conftest import publish

from repro.eventsim import (
    ROUTE_AFFECTING,
    InstrumentationBus,
    MetricsRegistry,
    Simulator,
    TraceLog,
)
from repro.obs import SpanTracker
from repro.obs.sampler import DEFAULT_HZ, StackSampler

#: mix mirroring a real withdrawal run: mostly updates, some decisions.
STREAM_MIX = (
    "bgp.update.tx",
    "bgp.update.rx",
    "bgp.update.tx",
    "bgp.update.rx",
    "bgp.decision",
    "fib.change",
    "bgp.keepalive",          # not route-affecting
    "controller.route_event",  # not route-affecting
)

#: the committed full-trace rate on the reference machine *before* the
#: lazy-record/calendar-kernel work (eager records, frozen-dataclass
#: TraceRecord, per-record dispatch scan).  The report states the
#: lazy-full speedup against this so the headline claim — retained
#: full-trace capture at >= 2x the old throughput — is pinned to a
#: number with provenance rather than recomputed against a moving
#: baseline.
PRE_OPTIMIZATION_FULL_TRACE_RATE = 490_802

#: sampling stride of the ``lazy sampled`` configuration.
SAMPLE_STRIDE = 10

EAGER_CONFIGS = (
    "no subscribers", "metrics only", "filtered trace", "full trace",
    "spans",
)
LAZY_CONFIGS = ("lazy off", "lazy route", "lazy sampled", "lazy full")
SAMPLER_CONFIGS = ("sampler off", "sampler on")
ANATOMY_CONFIGS = ("anatomy off", "anatomy on")

#: best-of repeats for the sampler pair — their ratio is the report's
#: overhead claim, so both sides take the least-noisy of several runs.
SAMPLER_REPEATS = 3

#: best-of repeats for the anatomy pair, same reasoning.
ANATOMY_REPEATS = 3

SAMPLER_GATE_ENV = "REPRO_BENCH_SAMPLER_GATE"


def stream_length():
    return int(os.environ.get("REPRO_BENCH_TRACE_RECORDS", 200_000))


@contextmanager
def isolated_gc():
    """Time-critical section with the cyclic GC quiesced.

    Collect whatever is already garbage, freeze the survivors out of
    the young generations, and raise the thresholds so allocation
    bursts inside the measured loop do not trigger collections whose
    cost scales with how much *previous* configurations retained.
    """
    gc.collect()
    gc.freeze()
    thresholds = gc.get_threshold()
    gc.set_threshold(50_000, 10, 10)
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        gc.unfreeze()
        gc.collect()


def build(config):
    """One (bus, retained-records-callable) pair per configuration."""
    sim = Simulator(seed=0)
    bus = InstrumentationBus(sim)
    if config in ("no subscribers", "lazy off") or config in SAMPLER_CONFIGS:
        return bus, lambda: 0
    if config == "metrics only":
        registry = MetricsRegistry()
        registry.observe_bus(bus)
        return bus, lambda: 0
    if config in ("filtered trace", "lazy route"):
        trace = TraceLog(bus, categories=tuple(sorted(ROUTE_AFFECTING)))
        return bus, lambda: len(trace.records)
    if config == "lazy sampled":
        trace = TraceLog(bus, sample=SAMPLE_STRIDE)
        return bus, lambda: len(trace.records)
    if config in ("full trace", "lazy full"):
        trace = TraceLog(bus)
        return bus, lambda: len(trace.records)
    if config == "spans":
        obs = SpanTracker(sim)
        bus.obs = obs
        return bus, lambda: len(obs.spans)
    raise ValueError(config)


def run_once(config, n):
    bus, retained = build(config)
    categories = [STREAM_MIX[i % len(STREAM_MIX)] for i in range(n)]
    lazy = config.startswith("lazy")
    sampler = StackSampler(hz=DEFAULT_HZ) if config == "sampler on" else None
    with isolated_gc():
        if sampler is not None:
            sampler.start()
        try:
            started = time.perf_counter()
            if lazy:
                record_lazy = bus.record_lazy
                for category in categories:
                    record_lazy(category, "as1", lambda: {"peer": "as2"})
            else:
                record = bus.record
                for category in categories:
                    record(category, "as1", peer="as2")
            elapsed = time.perf_counter() - started
        finally:
            if sampler is not None:
                sampler.stop()
    return {
        "config": config,
        "elapsed": elapsed,
        "rate": n / elapsed if elapsed > 0 else float("inf"),
        "retained": retained(),
        "counted": bus.records_published,
    }


def run_config(config, n):
    repeats = SAMPLER_REPEATS if config in SAMPLER_CONFIGS else 1
    rows = [run_once(config, n) for _ in range(repeats)]
    return min(rows, key=lambda row: row["elapsed"])


def run_all():
    n = stream_length()
    return [
        run_config(config, n)
        for config in EAGER_CONFIGS + LAZY_CONFIGS + SAMPLER_CONFIGS
    ]


def anatomy_spec(config):
    from repro.experiments import WithdrawalScenario
    from repro.runner.jobs import RunSpec
    from repro.topology import clique

    return RunSpec(
        scenario_factory=WithdrawalScenario,
        topology_factory=clique,
        n=8,
        sdn_count=0,
        seed=0,
        spans=True,
        anatomy=(config == "anatomy on"),
        label=f"bench-trace-overhead {config}",
    )


def run_anatomy_pair():
    """Whole-trial cost of deriving the convergence anatomy."""
    from repro.runner.jobs import execute_spec

    rows = []
    for config in ANATOMY_CONFIGS:
        best = None
        for _ in range(ANATOMY_REPEATS):
            spec = anatomy_spec(config)
            with isolated_gc():
                started = time.perf_counter()
                record = execute_spec(spec)
                elapsed = time.perf_counter() - started
            if best is None or elapsed < best["elapsed"]:
                best = {
                    "config": config,
                    "elapsed": elapsed,
                    "record": record,
                }
        rows.append(best)
    return rows


def record_registry_row():
    """Optional: pin one trial's results under the regression gate.

    When ``REPRO_BENCH_TRACE_REGISTRY`` names a registry database, run
    one real withdrawal trial and append its (fully deterministic)
    measurement.  Successive CI passes then record the same spec
    digest, and ``repro runs regressions`` flags any drift in the
    kernel's virtual-time results.
    """
    path = os.environ.get("REPRO_BENCH_TRACE_REGISTRY")
    if not path:
        return None
    from repro.experiments import WithdrawalScenario
    from repro.obs.registry import RunRegistry
    from repro.runner.jobs import RunRecord, RunSpec, run_trial
    from repro.topology import clique

    spec = RunSpec(
        scenario_factory=WithdrawalScenario,
        topology_factory=clique,
        n=8,
        sdn_count=0,
        seed=0,
        trace_level="off",
        label="bench-trace-overhead withdrawal",
    )
    started = time.perf_counter()
    measurement = run_trial(spec)
    wall = time.perf_counter() - started
    registry = RunRegistry(path)
    registry.record(
        spec,
        RunRecord(
            digest=spec.digest(),
            ok=True,
            measurement=measurement,
            wall_time=wall,
            worker="bench-trace",
        ),
    )
    return spec


def report(rows, anatomy_rows=None):
    n = rows[0]["counted"]
    lines = [
        f"Instrumentation bus overhead — {n} records "
        f"({len(STREAM_MIX)}-category mix, 6/8 route-affecting)",
        "",
        f"{'config':>16} {'records/sec':>14} {'retained':>10} {'counted':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['config']:>16} {row['rate']:>13,.0f} "
            f"{row['retained']:>10} {row['counted']:>10}"
        )
    by_config = {row["config"]: row for row in rows}
    full = by_config["full trace"]
    floor = by_config["no subscribers"]
    lazy_off = by_config["lazy off"]
    lazy_full = by_config["lazy full"]
    lines += [
        "",
        f"capture cost: full trace runs at "
        f"{full['rate'] / floor['rate']:.0%} of the no-subscriber floor;",
        f"lazy publishing with nothing attached reaches "
        f"{lazy_off['rate'] / floor['rate']:.0%} of that floor.",
        f"lazy full capture: {lazy_full['rate']:,.0f} records/sec = "
        f"{lazy_full['rate'] / PRE_OPTIMIZATION_FULL_TRACE_RATE:.2f}x the "
        f"pre-optimization full-trace rate",
        f"({PRE_OPTIMIZATION_FULL_TRACE_RATE:,} records/sec on the "
        "reference machine).",
        f"sampling profiler: with a {DEFAULT_HZ:.0f} Hz signal-mode "
        "sampler attached, the floor loop",
        f"sustains {sampler_ratio(rows):.2f}x its unsampled rate "
        f"(best of {SAMPLER_REPEATS} per side).",
        "counts stay complete in every configuration (the 'counted'",
        "column), so measurement never depends on what was retained.",
    ]
    if anatomy_rows:
        on = next(r for r in anatomy_rows if r["config"] == "anatomy on")
        off = next(r for r in anatomy_rows if r["config"] == "anatomy off")
        record = on["record"]
        lines += [
            f"convergence anatomy: a traced trial with "
            f"{len(record.spans)} spans and "
            f"{len(record.anatomy['nodes'])} per-AS waterfalls takes "
            f"{on['elapsed'] / off['elapsed']:.2f}x its attribution-off "
            f"wall time (best of {ANATOMY_REPEATS} per side);",
            "attribution is pure span post-processing and leaves the "
            "spec digest unchanged.",
        ]
    return "\n".join(lines)


def sampler_ratio(rows):
    """Sampler-on throughput as a fraction of sampler-off."""
    by_config = {row["config"]: row for row in rows}
    return (
        by_config["sampler on"]["rate"] / by_config["sampler off"]["rate"]
    )


def test_trace_overhead(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    anatomy_rows = run_anatomy_pair()
    publish("trace_overhead", report(rows, anatomy_rows))
    record_registry_row()
    # anatomy is invisible to results: same digest, same measurement,
    # and only the "on" record carries the attribution payload
    by_anatomy = {row["config"]: row["record"] for row in anatomy_rows}
    record_on = by_anatomy["anatomy on"]
    record_off = by_anatomy["anatomy off"]
    assert record_on.digest == record_off.digest
    assert record_on.measurement_dict() == record_off.measurement_dict()
    assert record_on.anatomy is not None and record_off.anatomy is None
    from repro.obs.anatomy import check_anatomy

    assert check_anatomy(
        record_on.anatomy,
        t_converged=record_on.measurement.t_converged,
    ) == []
    by_config = {row["config"]: row for row in rows}
    n = stream_length()
    # every configuration counts every record — record_lazy included
    assert all(row["counted"] == n for row in rows), rows
    # bounded memory: only the trace configs retain records, and the
    # filter retains exactly the route-affecting share of the mix
    assert by_config["no subscribers"]["retained"] == 0
    assert by_config["metrics only"]["retained"] == 0
    assert by_config["lazy off"]["retained"] == 0
    route_share = sum(
        1 for c in STREAM_MIX if c in ROUTE_AFFECTING
    ) / len(STREAM_MIX)
    assert by_config["filtered trace"]["retained"] == int(n * route_share)
    assert by_config["lazy route"]["retained"] == int(n * route_share)
    assert by_config["full trace"]["retained"] == n
    assert by_config["lazy full"]["retained"] == n
    # stride-S sampling retains exactly every Sth occurrence
    assert by_config["lazy sampled"]["retained"] == -(-n // SAMPLE_STRIDE)
    # the span tracker materializes exactly one span per route-affecting
    # record — the invariant the provenance DAG's accounting rests on
    assert by_config["spans"]["retained"] == int(n * route_share)
    # the point of laziness: with nothing attached the thunks never run,
    # so the lazy-off path must beat retained full-trace capture.
    assert by_config["lazy off"]["rate"] > by_config["full trace"]["rate"]
    # the sampler rows retain nothing and count everything: the
    # profiler observes the loop, it never participates in it
    for config in SAMPLER_CONFIGS:
        assert by_config[config]["retained"] == 0
        assert by_config[config]["counted"] == n
    # opt-in overhead gate (CI sets 5): sampler-on throughput may not
    # fall further below sampler-off than the given percentage
    gate = os.environ.get(SAMPLER_GATE_ENV)
    if gate:
        limit = float(gate) / 100.0
        overhead = max(0.0, 1.0 - sampler_ratio(rows))
        assert overhead <= limit, (
            f"sampling profiler overhead {overhead:.1%} exceeds the "
            f"{limit:.0%} gate ({SAMPLER_GATE_ENV}={gate})"
        )
