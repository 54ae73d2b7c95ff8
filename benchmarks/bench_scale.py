"""Scaling curve: withdrawal storms on Internet-sized CAIDA hierarchies.

The paper evaluates on 16-AS cliques; the way every router stores
routes (interned path attributes, a prefix index over the Adj-RIBs-In,
one best-path run per touched prefix — see ``docs/scaling.md``) lets
the same emulator run orders of magnitude larger.  This benchmark draws the evidence using
the forked-trial machinery in :mod:`repro.experiments.scale`: one
withdrawal-storm trial per topology size, each in a child process so
that ``ru_maxrss`` — a process-lifetime high-water mark — measures
that trial alone.

Per size it reports peak RSS, kernel events per wall-second during the
measured storm, build/storm wall time, and the intern-pool sizes, and
appends one row per trial to the cross-run telemetry registry so
``repro runs regressions`` can gate scaling regressions in CI.

Environment knobs (on top of the shared ones in ``conftest.py``):

- ``REPRO_BENCH_SCALE_SIZES``    — comma-separated AS counts
  (default ``1000,2000,5000``).
- ``REPRO_BENCH_SCALE_REGISTRY`` — registry SQLite path (default
  ``benchmarks/results/scale-registry.sqlite``).
"""

import os

from conftest import RESULTS_DIR, publish

from repro.experiments.scale import (
    check_rss_sublinear,
    record_trial,
    run_scale_trial,
    scale_spec,
)
from repro.framework.convergence import ConvergenceMeasurement
from repro.obs.registry import RunRegistry


def scale_sizes():
    raw = os.environ.get("REPRO_BENCH_SCALE_SIZES", "1000,2000,5000")
    sizes = [int(part) for part in raw.split(",") if part.strip()]
    if not sizes:
        raise ValueError("REPRO_BENCH_SCALE_SIZES named no sizes")
    return sizes


def registry_path():
    return os.environ.get(
        "REPRO_BENCH_SCALE_REGISTRY",
        str(RESULTS_DIR / "scale-registry.sqlite"),
    )


def format_report(rows):
    header = (
        f"{'n':>6} {'links':>7} {'peak MiB':>9} {'events/s':>9} "
        f"{'storm s':>8} {'build s':>8} {'conv t':>8} {'paths':>7}"
    )
    lines = [
        "Withdrawal-storm scaling curve (CAIDA hierarchy, lean)",
        header,
        "-" * len(header),
    ]
    for row in rows:
        lines.append(
            f"{row['n']:>6} {row['links']:>7} {row['peak_rss_mib']:>9.1f} "
            f"{row['events_per_s']:>9} {row['storm_wall_s']:>8.2f} "
            f"{row['build_wall_s']:>8.2f} "
            f"{row['measurement'].convergence_time:>8.2f} "
            f"{row['intern_pools']['as_paths']:>7}"
        )
    return "\n".join(lines)


def test_withdrawal_storm_scaling_curve(benchmark):
    sizes = scale_sizes()
    registry = RunRegistry(registry_path())
    rows = []

    def run():
        for n in sizes:
            spec = scale_spec(n)
            result = run_scale_trial(spec)
            record_trial(registry, spec, result)
            rows.append(result)
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    publish("scale_curve", format_report(rows))

    assert [row["n"] for row in rows] == sizes
    for row in rows:
        measurement = row["measurement"]
        assert isinstance(measurement, ConvergenceMeasurement)
        # The storm really ran: the withdrawal must trigger activity.
        assert measurement.convergence_time > 0
        assert row["storm_events"] > 0
        assert row["peak_rss_mib"] > 0
        # Interning is live in the child (the routers constructed
        # shared attribute objects).
        assert row["intern_pools"]["as_paths"] > 0
    check_rss_sublinear(rows)
    # Registry rows landed (one per size, queryable by digest).
    recorded = {
        row[0]
        for row in registry._conn.execute("SELECT spec_digest FROM runs")
    }
    for n in sizes:
        assert scale_spec(n).digest() in recorded


if __name__ == "__main__":  # pragma: no cover - manual curve runs
    all_rows = []
    for size in scale_sizes():
        one_spec = scale_spec(size)
        trial = run_scale_trial(one_spec)
        record_trial(RunRegistry(registry_path()), one_spec, trial)
        all_rows.append(trial)
        print(format_report(all_rows))
