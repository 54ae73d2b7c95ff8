"""The repository's benchmark: three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig2-clique16 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced

Each workload pass runs in a freshly forked child of a process that has
already imported the whole program, so ``peak_rss_mib`` is the pass's
own high-water mark and no interning pool or GC state leaks from one
pass into the next.  The load is a closed loop with one client: the next
pass starts when the previous one has finished, and passes repeat until
``--seconds`` of host time have been measured.  Timings are medians over
the passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass as a reference, then traced passes (at least two, so the
deterministic counts can be compared), and reports the per-layer
metrics.  Simulated outcomes are checked on every pass: against
``pins.json`` at the default seed, and against seed-independent
properties at any seed.  The last line of standard output is one JSON
object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

from tracing import KINDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
OUT = HERE / "out"

WORKLOAD_NAMES = ("fig2-clique16", "storm-caida5k", "faults-clique16")

#: end-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "event_s": "s",
    "peak_rss_mib": "MiB",
}

#: per-layer metrics (traced run): name -> (unit, in the JSON record).
#: The few timings that are structurally zero on some workload (no
#: controller on the storm, no faults outside faults-clique16, no runner
#: on the storm) are printed in the table but kept out of the JSON
#: record, where a value must be a live measurement on every workload;
#: their deterministic counts stay in the record.
PER_LAYER = {
    "eventsim.events": ("count", True),
    **{f"eventsim.events.{kind}": ("count", True) for kind in KINDS},
    "eventsim.self_s": ("s", True),
    "eventsim.ns_per_event": ("ns", True),
    "eventsim.scheduled": ("count", True),
    "eventsim.cancelled_ratio": ("ratio", True),
    "net.transmits": ("count", True),
    "net.transmit_s": ("s", True),
    "net.deliver_s": ("s", True),
    "net.drops": ("count", True),
    "bgp.updates_rx": ("count", True),
    "bgp.updates_processed": ("count", True),
    "bgp.proc_s": ("s", True),
    "bgp.us_per_update": ("us", True),
    "bgp.flushes": ("count", True),
    "bgp.flush_s": ("s", True),
    "bgp.flush_useful_ratio": ("ratio", True),
    "bgp.mrai_s": ("s", True),
    "bgp.connect_s": ("s", True),
    "bgp.intern.as_paths": ("count", True),
    "bgp.intern.attrs": ("count", True),
    "controller.recomputes": ("count", True),
    "controller.recompute_s": ("s", False),
    "controller.ms_per_recompute": ("ms", False),
    "controller.speaker_proc_s": ("s", False),
    "controller.flow_mods": ("count", True),
    "bus.records": ("count", True),
    "bus.record_s": ("s", True),
    "bus.us_per_record": ("us", True),
    "setup.topology_s": ("s", True),
    "setup.build_s": ("s", True),
    "setup.start_s": ("s", True),
    "setup.prepare_s": ("s", True),
    "gc.collections": ("count", True),
    "gc.pause_s": ("s", True),
    "faults.inject_s": ("s", False),
    "faults.invariant_checks": ("count", True),
    "faults.invariant_s": ("s", False),
    "runner.trials": ("count", True),
    "runner.overhead_s": ("s", False),
    "runner.trial_s.p50": ("s", False),
    "trace.overhead_ratio": ("ratio", True),
}

#: counts that must repeat exactly across passes of one seed.
EXACT_COUNTS = [f"eventsim.events.{kind}" for kind in KINDS] + [
    "eventsim.events", "eventsim.scheduled", "net.transmits", "net.drops",
    "bgp.updates_rx", "bgp.updates_processed", "bgp.flushes",
    "bgp.flushes_useful", "controller.recomputes", "controller.flow_mods",
    "bus.records", "faults.invariant_checks", "runner.trials",
]


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


# ----------------------------------------------------------------------
# the forked child
# ----------------------------------------------------------------------
def _child(name: str, seed: int, traced: bool, conn) -> None:
    try:
        from workloads import run_workload

        tracer = Tracer(layers=traced).install()
        try:
            facts = run_workload(name, seed, tracer)
        finally:
            tracer.uninstall()
        conn.send(("ok", _summarize(facts, tracer)))
    except Exception:
        conn.send(("error", traceback.format_exc(limit=20)))
    finally:
        conn.close()


def run_pass(name: str, seed: int, traced: bool) -> Dict[str, Any]:
    """One workload pass in a fresh forked child."""
    gc.collect()
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(name, seed, traced, sender))
    proc.start()
    sender.close()
    try:
        status, payload = receiver.recv()
    except EOFError:
        status, payload = "died", None
    finally:
        receiver.close()
        proc.join()
    if status == "died":
        raise BenchError(f"{name} pass died with exit code {proc.exitcode}")
    if status != "ok":
        raise BenchError(f"{name} pass failed:\n{payload}")
    return payload


def _summarize(facts: Dict[str, Any], tracer) -> Dict[str, Any]:
    """Reduce a finished pass to what the parent needs (runs in child)."""
    from workloads import outcome

    trials = facts["trials"]
    outcomes = {}
    for trial in trials:
        if trial["measurement"] is not None:
            entry = outcome(trial["measurement"])
            if trial.get("windows") is not None:
                entry["fault_windows"] = trial["windows"]
            outcomes[trial["key"]] = entry
    summary = {
        "wall_s": facts["wall_s"],
        "setup_s": sum(t["setup_s"] for t in trials),
        "event_s": sum(t["event_s"] for t in trials),
        "peak_rss_mib": facts["peak_rss_mib"],
        "attempted": facts["attempted"],
        "run_failures": facts["run_failures"],
        "problems": facts["problems"],
        "outcomes": outcomes,
    }
    if tracer.layers:
        summary["layers"] = _layer_metrics(facts, tracer)
        summary["trace"] = {
            "spans": [
                dict(zip(("id", "parent", "name", "start_s", "end_s"), s))
                for s in sorted(tracer.spans)
            ],
            "trials": [
                {key: t.get(key) for key in (
                    "key", "trial_s", "setup_s", "event_s", "error",
                )}
                for t in trials
            ],
            "calls": {
                name: dict(zip(("calls", "total_s", "self_s"), entry))
                for name, entry in sorted(tracer.calls.items())
            },
            "event_kinds": {
                kind: {"events": tracer.kind_count[kind],
                       "self_s": tracer.kind_self[kind]}
                for kind in tracer.kind_count
            },
            "hook_s": tracer.hook_s,
        }
    return summary


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _layer_metrics(facts: Dict[str, Any], tracer) -> Dict[str, float]:
    calls = tracer.calls
    kinds = tracer.kind_count
    own = tracer.kind_self
    trials = facts["trials"]

    def total(key: str) -> float:
        return sum(t.get(key, 0) for t in trials)

    events = sum(kinds.values())
    kernel_s = sum(
        calls[name][2]
        for name in ("eventsim.loop", "eventsim.schedule", "eventsim.cancel")
    )
    scheduled = calls["eventsim.schedule"][0]
    processed = total("updates_processed")
    recomputes = total("recomputes")
    records = total("bus_records")
    walls = facts["record_walls"]
    out = {
        "eventsim.events": events,
        **{f"eventsim.events.{k}": n for k, n in kinds.items()},
        "eventsim.self_s": kernel_s,
        "eventsim.ns_per_event": _ratio(kernel_s, events, 1e9),
        "eventsim.scheduled": scheduled,
        "eventsim.cancelled_ratio": _ratio(calls["eventsim.cancel"][0], scheduled),
        "net.transmits": calls["net.transmit"][0],
        "net.transmit_s": calls["net.transmit"][2],
        "net.deliver_s": own["deliver"],
        "net.drops": total("drops"),
        "bgp.updates_rx": calls["bgp.enqueue_update"][0],
        "bgp.updates_processed": processed,
        "bgp.proc_s": own["proc"],
        "bgp.us_per_update": _ratio(own["proc"], processed, 1e6),
        "bgp.flushes": kinds["flush"],
        "bgp.flushes_useful": tracer.useful_flushes,
        "bgp.flush_s": own["flush"],
        "bgp.flush_useful_ratio": _ratio(tracer.useful_flushes, kinds["flush"]),
        "bgp.mrai_s": own["mrai"],
        "bgp.connect_s": own["connect"],
        "bgp.intern.as_paths": max(
            (t["intern"]["as_paths"] for t in trials if "intern" in t), default=0
        ),
        "bgp.intern.attrs": max(
            (t["intern"]["path_attributes"] for t in trials if "intern" in t),
            default=0,
        ),
        "controller.recomputes": recomputes,
        "controller.recompute_s": own["recompute"],
        "controller.ms_per_recompute": _ratio(own["recompute"], recomputes, 1e3),
        "controller.speaker_proc_s": tracer.speaker_proc_s,
        "controller.flow_mods": total("flow_mods"),
        "bus.records": records,
        "bus.record_s": calls["bus.record"][2],
        "bus.us_per_record": _ratio(calls["bus.record"][2], records, 1e6),
        "setup.topology_s": total("topology_s"),
        "setup.build_s": total("build_s"),
        "setup.start_s": total("start_s"),
        "setup.prepare_s": total("prepare_s"),
        "gc.collections": tracer.gc_collections,
        "gc.pause_s": tracer.gc_pause_s,
        "faults.inject_s": calls["faults.inject"][2] + own["fault"],
        "faults.invariant_checks": calls["faults.invariant"][0],
        "faults.invariant_s": calls["faults.invariant"][1],
        "runner.trials": len(walls) if walls is not None else 0,
        "runner.overhead_s": (
            facts["wall_s"] - sum(walls) if walls is not None else 0.0
        ),
        "runner.trial_s.p50": statistics.median(walls) if walls else 0.0,
    }
    return out


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def _digest(outcomes: Dict[str, Any]) -> str:
    text = json.dumps(outcomes, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pin_mismatches(outcomes: Dict[str, Any], pinned: Dict[str, Any]) -> List[str]:
    """Trial keys whose outcome is missing, unexpected or different."""
    keys = set(outcomes) | set(pinned)
    return sorted(k for k in keys if outcomes.get(k) != pinned.get(k))


def check_passes(
    name: str, seed: int, passes: List[Dict[str, Any]], pins
) -> Dict[str, Any]:
    """Failed-trial count and problems over every pass of one run."""
    from workloads import DEFAULT_SEED

    problems: List[str] = []
    attempted = failed = 0
    pinned = None
    if seed == DEFAULT_SEED:
        pinned = (pins or {}).get(name)
        if pinned is None:
            problems.append(f"{PINS.name} has no pinned outcomes for {name}")
    for index, summary in enumerate(passes):
        attempted += summary["attempted"]
        problems.extend(summary["problems"])
        if pinned is None:
            failed += summary["run_failures"]
            continue
        bad = _pin_mismatches(summary["outcomes"], pinned)
        failed += max(len(bad), summary["run_failures"])
        for key in bad[:5]:
            problems.append(f"pass {index}: outcome of {key!r} differs from pins.json")
    digests = {_digest(s["outcomes"]) for s in passes}
    if len(digests) > 1:
        problems.append("simulated outcomes differ between passes of one seed")
    traced = [s["layers"] for s in passes if "layers" in s]
    for key in EXACT_COUNTS:
        values = {layers[key] for layers in traced}
        if len(values) > 1:
            problems.append(f"count {key} differs between passes: {sorted(values)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": min(digests),
    }


# ----------------------------------------------------------------------
# driving one workload
# ----------------------------------------------------------------------
def measure(name: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """Closed loop: passes back to back until ``seconds`` have elapsed.

    At least two passes, so every run sets up more than once and a
    traced run can compare its deterministic counts.
    """
    reference = run_pass(name, seed, False) if traced else None
    passes: List[Dict[str, Any]] = []
    started = perf_counter()
    while len(passes) < 2 or perf_counter() - started < seconds:
        passes.append(run_pass(name, seed, traced))
    return {"reference": reference, "passes": passes}


def _median(passes: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def report(
    name: str, seed: int, traced: bool, run: Dict[str, Any], pins
) -> Dict[str, Any]:
    """Print the human-readable block; return JSON-ready results."""
    passes = run["passes"]
    everything = passes + ([run["reference"]] if run["reference"] else [])
    check = check_passes(name, seed, everything, pins)
    trials = passes[0]["attempted"]
    print(f"== {name}  seed={seed}  {'traced' if traced else 'untraced'}  "
          f"{len(passes)} pass(es) x {trials} trials, closed loop, 1 client")
    metrics: Dict[str, Dict[str, Any]] = {}
    if not traced:
        for metric, unit in END_TO_END.items():
            value = _median(passes, metric)
            metrics[metric] = {"value": value, "unit": unit}
            runs = ", ".join(f"{p[metric]:.4f}" for p in passes)
            print(f"  {metric:<14} {value:>12.4f} {unit:<5} median of [{runs}]")
        wall = metrics["wall_s"]["value"]
        print(f"  {'throughput':<14} {trials / wall:>12.4f} trials/s at "
              f"{trials} trials per pass")
    else:
        layers = {
            key: statistics.median(p["layers"][key] for p in passes)
            for key in passes[0]["layers"]
        }
        layers["trace.overhead_ratio"] = (
            _median(passes, "wall_s") / run["reference"]["wall_s"]
        )
        for metric, (unit, in_json) in PER_LAYER.items():
            value = layers[metric]
            if in_json:
                metrics[metric] = {"value": value, "unit": unit}
            shown = f"{value:,.0f}" if unit == "count" else f"{value:.6f}"
            print(f"  {metric:<28} {shown:>16} {unit}")
        _write_trace(name, seed, run)
    error_rate = check["failed"] / check["attempted"] if check["attempted"] else 1.0
    print(f"  {'error_rate':<14} {error_rate:>12.4f} ratio "
          f"{check['failed']} of {check['attempted']} trials failed")
    print(f"  outcome digest sha256:{check['digest']}")
    for problem in check["problems"]:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": check["failed"] == 0 and not check["problems"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }


def _write_trace(name: str, seed: int, run: Dict[str, Any]) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}.trace.json"
    payload = {
        "workload": name,
        "seed": seed,
        "untraced_wall_s": run["reference"]["wall_s"],
        "passes": [
            {"wall_s": p["wall_s"], "layers": p["layers"], **p["trace"]}
            for p in run["passes"]
        ],
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"  trace written to {path.relative_to(ROOT)}")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _import_program() -> None:
    """Import the program from this checkout's ``src``, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, not {src}")
    # Import every module a pass touches before the first fork, so no
    # child pays a lazy import inside its timed region.
    import repro.experiments  # noqa: F401
    import repro.experiments.scale  # noqa: F401
    import repro.faults  # noqa: F401
    import workloads  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the pinned seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of passes to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json from one pass per workload "
                             "at the default seed, then exit")
    args = parser.parse_args(argv)
    try:
        _import_program()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.pin:
        pins = {name: run_pass(name, DEFAULT_SEED, False)["outcomes"]
                for name in WORKLOAD_NAMES}
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"wrote {PINS.relative_to(ROOT)}")
        return 0
    pins = json.loads(PINS.read_text()) if PINS.is_file() else None
    results = {}
    try:
        for name in names:
            run = measure(name, seed, args.seconds, bool(args.trace))
            results[name] = report(name, seed, bool(args.trace), run, pins)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": value
            for name, result in results.items()
            for metric, value in result["metrics"].items()
        }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
