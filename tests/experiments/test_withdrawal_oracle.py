"""Pinned oracle: the Fig. 2 withdrawal experiment, compared exactly.

``fixtures/withdrawal_oracles.json`` holds what the simulator produced
for these cases when it still had two event kernels (heap and calendar
queue) and two BGP decision paths (full scan and prefix-indexed), all
of which agreed bit for bit.  The single remaining path must reproduce
every value with exact equality (``==`` on floats): every
:class:`ConvergenceMeasurement` field, the full trace digest, the bus's
per-category counts, the number of kernel events processed, and the
measurement/metrics payloads the run registry persists for one
executed spec.

Regenerate the fixture only for an intended change in simulator
semantics::

    PYTHONPATH=src:. python -m tests.experiments.test_withdrawal_oracle
"""

import hashlib
import json
import pathlib
from dataclasses import fields

import pytest

from repro.experiments.common import WithdrawalScenario, paper_config, sdn_set_for
from repro.framework.convergence import ConvergenceMeasurement, measure_event
from repro.framework.experiment import Experiment
from repro.obs.registry import RunRegistry
from repro.runner.jobs import RunSpec, execute_spec
from repro.topology.builders import clique

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "withdrawal_oracles.json"
SDN_COUNTS = (0, 3, 6)


def _trace_digest(exp):
    """Same recipe as ``FaultInjector.trace_digest``: every retained
    trace record, exact float reprs."""
    hasher = hashlib.sha256()
    for record in exp.net.trace:
        hasher.update(
            f"{record.time!r}|{record.category}|{record.node}\n".encode()
        )
    return hasher.hexdigest()


def _run_withdrawal(*, n, sdn_count, seed, mrai):
    """One Fig. 2-style withdrawal run, keeping the live experiment so
    the trace, the bus counters and the routers stay inspectable."""
    scenario = WithdrawalScenario()
    topology = scenario.topology(n, clique)
    members = sdn_set_for(topology, sdn_count, scenario.reserved_legacy)
    config = paper_config(seed=seed, mrai=mrai)
    exp = Experiment(
        topology, sdn_members=members, config=config, name=scenario.name
    ).build()
    scenario.configure(exp)
    exp.start()
    scenario.prepare(exp)
    measurement = measure_event(exp, lambda: scenario.event(exp))
    scenario.finish(exp)
    return exp, measurement


def observe_withdrawal(sdn_count):
    """Everything the oracle pins for one withdrawal case."""
    exp, measurement = _run_withdrawal(
        n=8, sdn_count=sdn_count, seed=42, mrai=2.0
    )
    return {
        "sdn_count": sdn_count,
        "measurement": {
            f.name: getattr(measurement, f.name)
            for f in fields(ConvergenceMeasurement)
        },
        "trace_digest": _trace_digest(exp),
        "bus_counts": dict(sorted(exp.net.bus.counts.items())),
        "events_processed": exp.net.sim.events_processed,
    }


def _spec(seed=5):
    return RunSpec(
        scenario_factory=WithdrawalScenario,
        topology_factory=clique,
        n=6,
        sdn_count=2,
        seed=seed,
        mrai=2.0,
        trace_level="off",
        metrics=True,
    )


def observe_registry_row(directory):
    """Execute :func:`_spec` the way a sweep would, record it, and return
    the measurement/metrics JSON the registry persisted."""
    registry = RunRegistry(pathlib.Path(directory) / "reg.sqlite")
    spec = _spec()
    record = execute_spec(spec)
    assert record.ok, record.error
    registry.record(spec, record)
    row = registry._conn.execute(
        "SELECT measurement, metrics FROM runs WHERE spec_digest=?",
        (spec.digest(),),
    ).fetchone()
    return {"measurement": row["measurement"], "metrics": row["metrics"]}


def _oracles():
    return json.loads(FIXTURE.read_text())


def _pinned_withdrawal(sdn_count):
    (pinned,) = [
        case for case in _oracles()["withdrawal"]
        if case["sdn_count"] == sdn_count
    ]
    return pinned


@pytest.mark.parametrize("sdn_count", SDN_COUNTS)
def test_withdrawal_measurement_and_trace_match_oracle(sdn_count):
    pinned = _pinned_withdrawal(sdn_count)
    observed = observe_withdrawal(sdn_count)
    for name, value in pinned["measurement"].items():
        assert observed["measurement"][name] == value, name
    assert observed["measurement"].keys() == pinned["measurement"].keys()
    assert observed["trace_digest"] == pinned["trace_digest"]


@pytest.mark.parametrize("sdn_count", SDN_COUNTS)
def test_withdrawal_kernel_counters_match_oracle(sdn_count):
    # the bus saw the exact same stream, category by category, and the
    # kernel processed the same number of events to get there
    pinned = _pinned_withdrawal(sdn_count)
    observed = observe_withdrawal(sdn_count)
    assert observed["bus_counts"] == pinned["bus_counts"]
    assert observed["events_processed"] == pinned["events_processed"]


#: gauge the pinned payload carries but the simulator no longer exports:
#: it counted same-instant link deliveries merged by batched delivery, a
#: mode no run ever enabled, so its pinned value is 0.
RETIRED_GAUGE = "link.coalesced_total"


def _without_retired_gauge(metrics):
    payload = json.loads(metrics)
    payload["gauges"].pop(RETIRED_GAUGE, None)
    return payload


def test_registry_measurement_matches_pinned_oracle(tmp_path):
    pinned = _oracles()["registry"]
    observed = observe_registry_row(tmp_path)
    assert observed["measurement"] == pinned["measurement"]


def test_registry_metrics_match_pinned_oracle(tmp_path):
    pinned = _oracles()["registry"]
    observed = observe_registry_row(tmp_path)
    assert json.loads(pinned["metrics"])["gauges"][RETIRED_GAUGE] == 0
    assert _without_retired_gauge(observed["metrics"]) == (
        _without_retired_gauge(pinned["metrics"])
    )


def test_converged_routers_agree_with_full_scan_oracle():
    # The oracle inside the router: after a converged run, a full scan
    # over every known prefix must agree with every Loc-RIB the
    # prefix-indexed decision process produced.
    exp, _ = _run_withdrawal(n=8, sdn_count=3, seed=7, mrai=2.0)
    for asn in exp.legacy_asns():
        assert exp.node(asn).verify_decisions() == [], f"AS{asn}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        oracles = {
            "withdrawal": [observe_withdrawal(k) for k in SDN_COUNTS],
            "registry": observe_registry_row(scratch),
        }
    FIXTURE.write_text(json.dumps(oracles, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
