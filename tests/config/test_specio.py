"""JSON spec ingestion: precise validation, digest parity, round trips."""

import json

import pytest

from repro.config import (
    SpecIngestError,
    grid_from_json,
    runspec_from_json,
    scenario_names,
    spec_payload,
    specs_from_json,
    topology_names,
)
from repro.experiments.common import (
    FailoverScenario,
    WithdrawalScenario,
    run_fraction_sweep,
)
from repro.faults import get_canned
from repro.runner import RunSpec
from repro.topology.builders import clique, ring

BASE = {"scenario": "withdrawal", "n": 8, "sdn_count": 4, "seed": 7}


def errors_of(payload) -> list:
    with pytest.raises(SpecIngestError) as excinfo:
        runspec_from_json(payload)
    return excinfo.value.errors


class TestRunspecFromJson:
    def test_minimal_payload(self):
        spec = runspec_from_json(BASE)
        assert spec.scenario_factory is WithdrawalScenario
        assert spec.topology_factory is clique
        assert (spec.n, spec.sdn_count, spec.seed) == (8, 4, 7)
        assert spec.mrai == 30.0  # dataclass defaults apply

    def test_digest_matches_native_spec(self):
        spec = runspec_from_json({**BASE, "mrai": 1.0})
        native = RunSpec(
            scenario_factory=WithdrawalScenario,
            topology_factory=clique,
            n=8, sdn_count=4, seed=7, mrai=1.0,
        )
        assert spec.digest() == native.digest()

    def test_json_string_accepted(self):
        assert runspec_from_json(json.dumps(BASE)).digest() == (
            runspec_from_json(BASE).digest()
        )

    def test_every_scenario_and_topology_name_resolves(self):
        for scenario in scenario_names():
            for topology in topology_names():
                spec = runspec_from_json(
                    {**BASE, "scenario": scenario, "topology": topology}
                )
                assert spec.digest()

    def test_alternate_scenario_changes_digest(self):
        a = runspec_from_json(BASE)
        b = runspec_from_json({**BASE, "scenario": "failover"})
        assert b.scenario_factory is FailoverScenario
        assert a.digest() != b.digest()

    def test_faults_via_canonical_form(self):
        # JSON round-trips turn the canonical tuples into lists; the
        # ingest path must still canonicalize to the identical tuples.
        schedule = get_canned("gateway-outage").schedule()
        as_json = json.loads(json.dumps(schedule.canonical()))
        spec = runspec_from_json({**BASE, "faults": as_json})
        assert spec.faults == schedule.canonical()

    def test_unknown_field_named_precisely(self):
        errors = errors_of({**BASE, "bogus": 1})
        assert len(errors) == 1
        assert "unknown field 'bogus'" in errors[0]
        assert "scenario" in errors[0]  # lists the known fields

    def test_all_problems_reported_at_once(self):
        errors = errors_of(
            {"scenario": "nope", "n": 1, "metrics": "yes", "junk": 0}
        )
        joined = "\n".join(errors)
        assert len(errors) == 4
        assert "unknown field 'junk'" in joined
        assert "field 'scenario'" in joined
        assert "field 'n'" in joined
        assert "field 'metrics'" in joined

    def test_missing_required_fields(self):
        errors = errors_of({})
        assert any("'scenario' is required" in e for e in errors)
        assert any("'n' is required" in e for e in errors)

    def test_type_confusions_rejected(self):
        assert any(
            "expected an integer" in e for e in errors_of({**BASE, "n": 8.5})
        )
        assert any(
            "expected an integer" in e for e in errors_of({**BASE, "n": True})
        )
        assert any(
            "expected a number" in e
            for e in errors_of({**BASE, "mrai": "slow"})
        )
        assert any(
            "expected a list of integers" in e
            for e in errors_of({**BASE, "sdn_members": "5,6"})
        )

    def test_semantic_checks(self):
        assert any(
            "sdn_count" in e for e in errors_of({**BASE, "sdn_count": 9})
        )
        assert any(
            "sdn_members" in e
            for e in errors_of({**BASE, "sdn_members": [7, 99]})
        )
        assert any(
            "trace_level" in e
            for e in errors_of({**BASE, "trace_level": "loud"})
        )

    def test_malformed_faults_reported_not_raised(self):
        errors = errors_of({**BASE, "faults": {"events": [{"kind": "??"}]}})
        assert any("faults" in e for e in errors)

    def test_non_object_payload(self):
        with pytest.raises(SpecIngestError):
            runspec_from_json([1, 2, 3])
        with pytest.raises(SpecIngestError):
            runspec_from_json("{not json")


class TestGridFromJson:
    def test_matches_run_fraction_sweep_digests(self):
        grid = grid_from_json(
            {
                "scenario": "withdrawal", "n": 6,
                "sdn_counts": [0, 3], "runs": 2, "mrai": 1.0,
            }
        )
        result = run_fraction_sweep(
            WithdrawalScenario, n=6, sdn_counts=[0, 3], runs=2, mrai=1.0
        )
        executed = [run.seed for point in result.points for run in point.runs]
        assert [spec.seed for spec in grid] == executed
        assert [spec.label for spec in grid] == [
            f"withdrawal sdn={c} seed={100 + 1000 * c + i}"
            for c in (0, 3) for i in range(2)
        ]

    def test_default_sdn_counts_cover_zero_to_max(self):
        grid = grid_from_json({"scenario": "withdrawal", "n": 4, "runs": 1})
        assert [spec.sdn_count for spec in grid] == [0, 1, 2, 3]

    def test_expansion_limit(self):
        with pytest.raises(SpecIngestError) as excinfo:
            grid_from_json(
                {"scenario": "withdrawal", "n": 8, "runs": 10_000}
            )
        assert "limit" in str(excinfo.value)

    def test_grid_validation_errors(self):
        with pytest.raises(SpecIngestError) as excinfo:
            grid_from_json(
                {"scenario": "withdrawal", "n": 4, "sdn_counts": [0, 9]}
            )
        assert "sdn_counts" in str(excinfo.value)


class TestSpecsFromJson:
    def test_bare_spec_and_wrapped_spec(self):
        assert len(specs_from_json(BASE)) == 1
        assert len(specs_from_json({"spec": BASE})) == 1

    def test_grid_wrapper(self):
        specs = specs_from_json(
            {"grid": {"scenario": "withdrawal", "n": 4, "runs": 2}}
        )
        assert len(specs) == 8

    def test_both_shapes_rejected(self):
        with pytest.raises(SpecIngestError):
            specs_from_json({"spec": BASE, "grid": {}})

    def test_stray_siblings_rejected(self):
        with pytest.raises(SpecIngestError):
            specs_from_json({"spec": BASE, "extra": 1})


class TestSpecPayload:
    def test_round_trip_preserves_digest(self):
        original = runspec_from_json(
            {
                **BASE,
                "topology": "ring",
                "mrai": 2.0,
                "spans": True,
                "label": "round trip",
            }
        )
        clone = runspec_from_json(spec_payload(original))
        assert clone.digest() == original.digest()
        assert clone.label == original.label

    def test_unregistered_factory_rejected(self):
        from tests.runner.scenarios import RaisingScenario

        spec = RunSpec(
            scenario_factory=RaisingScenario,
            topology_factory=ring,
            n=4, sdn_count=0, seed=1,
        )
        with pytest.raises(SpecIngestError) as excinfo:
            spec_payload(spec)
        assert "no registered name" in str(excinfo.value)


class TestScaleKnobs:
    """``lean`` rides specs and survives round trips, without disturbing
    any legacy digest (docs/scaling.md)."""

    def test_scale_fields_parse(self):
        spec = runspec_from_json({**BASE, "lean": True})
        assert spec.lean

    def test_false_knobs_keep_legacy_digest(self):
        # Explicit False must digest identically to absent — old cache
        # entries and registry rows stay addressable.
        legacy = runspec_from_json(BASE)
        explicit = runspec_from_json({**BASE, "lean": False})
        assert explicit.digest() == legacy.digest()

    def test_each_knob_changes_the_digest(self):
        base = runspec_from_json(BASE).digest()
        assert runspec_from_json({**BASE, "lean": True}).digest() != base

    def test_payload_round_trip(self):
        original = runspec_from_json({**BASE, "lean": True})
        payload = spec_payload(original)
        assert payload["lean"] is True
        assert "sample_hz" not in payload  # unset knobs stay out
        clone = runspec_from_json(payload)
        assert clone.digest() == original.digest()

    def test_knobs_must_be_booleans(self):
        assert any("lean" in e for e in errors_of({**BASE, "lean": "yes"}))

    @pytest.mark.parametrize(
        "knob, value",
        [("compact", True), ("batch_delivery", True), ("scheduler", "heap")],
    )
    def test_retired_knobs_are_unknown_fields(self, knob, value):
        # The simulator has one decision path, one delivery mode and one
        # event kernel; payloads naming the old selectors fail loudly.
        assert any(
            e.startswith(f"unknown field {knob!r}")
            for e in errors_of({**BASE, knob: value})
        )
        with pytest.raises(SpecIngestError, match=f"unknown field {knob!r}"):
            grid_from_json(
                {"scenario": "withdrawal", "n": 8, "runs": 1, knob: value}
            )

    def test_caida_topology_registered(self):
        from repro.topology import caida_hierarchy

        assert "caida" in topology_names()
        spec = runspec_from_json({**BASE, "topology": "caida"})
        assert spec.topology_factory is caida_hierarchy

    def test_grid_accepts_scale_knobs(self):
        specs = grid_from_json(
            {
                "scenario": "withdrawal",
                "n": 8,
                "sdn_counts": [0, 2],
                "runs": 1,
                "lean": True,
            }
        )
        assert specs and all(s.lean for s in specs)


#: every float-valued field of each payload shape.
SPEC_NUMBER_FIELDS = ("mrai", "recompute_delay", "horizon", "sample_hz")
GRID_NUMBER_FIELDS = ("mrai", "recompute_delay", "horizon", "sample_hz")
GRID_BASE = {"scenario": "withdrawal", "n": 4, "sdn_counts": [0, 2]}
#: non-finite JSON number tokens ``json.loads`` accepts, with how the
#: error shows them: the three non-standard literals, and an integer
#: too large for a float.
NON_FINITE = {
    "NaN": "float nan",
    "Infinity": "float inf",
    "-Infinity": "float -inf",
    "1" + "0" * 400: "int 1" + "0" * 36 + "...",
}


def _with_field(payload, field, token):
    """``payload`` as JSON text with one more field holding a raw token."""
    return json.dumps(payload)[:-1] + f', "{field}": {token}}}'


class TestNonFiniteNumbers:
    """``json.loads`` parses NaN and ±Infinity, and ``NaN < minimum`` is
    false, so a range check alone would let them through to a run that
    reports ``convergence_time = nan`` and gets cached."""

    @pytest.mark.parametrize("token", NON_FINITE, ids=lambda t: t[:9])
    @pytest.mark.parametrize("field", SPEC_NUMBER_FIELDS)
    def test_spec_field_rejected(self, field, token):
        assert errors_of(_with_field(BASE, field, token)) == [
            f"field {field!r}: must be a finite number, got {NON_FINITE[token]}"
        ]

    @pytest.mark.parametrize("token", NON_FINITE, ids=lambda t: t[:9])
    @pytest.mark.parametrize("field", GRID_NUMBER_FIELDS)
    def test_grid_field_rejected(self, field, token):
        with pytest.raises(SpecIngestError) as excinfo:
            grid_from_json(_with_field(GRID_BASE, field, token))
        assert excinfo.value.errors == [
            f"field {field!r}: must be a finite number, got {NON_FINITE[token]}"
        ]

    @pytest.mark.parametrize("token", NON_FINITE, ids=lambda t: t[:9])
    def test_fault_time_rejected(self, token):
        faults = (
            '{"events": [{"kind": "link_down", "a": 1, "b": 2,'
            f' "at": {token}}}]}}'
        )
        (error,) = errors_of(_with_field(BASE, "faults", faults))
        assert error.startswith("field 'faults': expected a finite number")

    def test_finite_values_still_accepted(self):
        spec = runspec_from_json(
            {**BASE, "mrai": 2.5, "recompute_delay": 0, "horizon": 1e6}
        )
        assert (spec.mrai, spec.recompute_delay, spec.horizon) == (
            2.5, 0.0, 1e6
        )
