"""JSON ingestion of sweep trials: RunSpec and sweep-grid payloads.

The service API (``docs/service.md``), CLI clients and spec files all
speak the same JSON dialect; this module is the single hardened gateway
that turns untrusted payloads into
:class:`~repro.runner.jobs.RunSpec` objects.  Scenario and topology
factories are referenced *by name* against a closed registry — a
payload can never name an arbitrary import path — and every unknown,
malformed or mistyped field is collected and reported precisely in one
:class:`SpecIngestError` instead of surfacing as a deep exception from
the dataclass layer, so an HTTP front end can turn any bad payload
into one clean 400.

Two payload shapes are understood:

- a **spec**: one trial (``runspec_from_json``), mirroring every
  digest-relevant :class:`RunSpec` field;
- a **grid**: a Fig. 2-style fraction sweep (``grid_from_json``) that
  expands to the exact spec list
  :func:`~repro.experiments.common.run_fraction_sweep` would build —
  same seed formula, same labels, same digests.

:func:`specs_from_json` accepts either (``{"spec": {...}}``,
``{"grid": {...}}``, or a bare spec object) and always returns a list.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SpecIngestError",
    "scenario_names",
    "topology_names",
    "runspec_from_json",
    "grid_from_json",
    "specs_from_json",
    "spec_payload",
]

#: hard ceiling on how many trials one grid payload may expand to.
MAX_GRID_SPECS = 4096

_TRACE_LEVELS = ("full", "route", "off")


class SpecIngestError(ValueError):
    """A spec/grid payload that failed validation.

    ``errors`` lists every problem found (field name first), so callers
    can report the full shape of what is wrong in one round trip.
    """

    def __init__(self, errors) -> None:
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


def _ba(n: int):
    """Barabasi-Albert topology (m=2, fixed attachment seed) by name."""
    from ..topology import barabasi_albert

    return barabasi_albert(n, 2, seed=0)


# Registries are built lazily: repro.experiments imports repro.framework
# which imports repro.config, so eager imports here would be circular.
def _scenario_registry() -> Dict[str, Callable]:
    from ..experiments import (
        AnnouncementScenario,
        FailoverScenario,
        WithdrawalScenario,
    )

    return {
        "withdrawal": WithdrawalScenario,
        "failover": FailoverScenario,
        "announcement": AnnouncementScenario,
    }


def _topology_registry() -> Dict[str, Callable]:
    from ..topology import caida_hierarchy, clique, line, ring, star

    return {
        "clique": clique,
        "line": line,
        "ring": ring,
        "star": star,
        "ba": _ba,
        "caida": caida_hierarchy,
    }


def scenario_names() -> List[str]:
    """The scenario names a payload may reference."""
    return sorted(_scenario_registry())


def topology_names() -> List[str]:
    """The topology names a payload may reference."""
    return sorted(_topology_registry())


def _show(value: Any) -> str:
    """Short, type-first description of a bad value for error messages."""
    text = repr(value)
    if len(text) > 40:
        text = text[:37] + "..."
    return f"{type(value).__name__} {text}"


class _Fields:
    """Typed field extraction over one payload dict, collecting errors.

    Every getter returns the (validated) value or the default, *never*
    raises — problems accumulate in ``errors`` so a payload with three
    mistakes produces three messages, not one arbitrary first failure.
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data
        self.errors: List[str] = []

    def error(self, message: str) -> None:
        self.errors.append(message)

    def reject_unknown(self, known) -> None:
        for name in sorted(set(self.data) - set(known)):
            self.error(
                f"unknown field {name!r} (known fields: "
                f"{', '.join(sorted(known))})"
            )

    def _missing(self, name: str, default, required: bool):
        if required:
            self.error(f"field {name!r} is required")
        return default

    def int_(
        self,
        name: str,
        default: Optional[int] = None,
        *,
        required: bool = False,
        minimum: Optional[int] = None,
    ) -> Optional[int]:
        if name not in self.data:
            return self._missing(name, default, required)
        value = self.data[name]
        if isinstance(value, bool) or not isinstance(value, int):
            self.error(f"field {name!r}: expected an integer, got {_show(value)}")
            return default
        if minimum is not None and value < minimum:
            self.error(f"field {name!r}: must be >= {minimum}, got {value}")
            return default
        return value

    def number(
        self,
        name: str,
        default: Optional[float] = None,
        *,
        required: bool = False,
        minimum: Optional[float] = None,
        allow_none: bool = False,
    ) -> Optional[float]:
        if name not in self.data:
            return self._missing(name, default, required)
        value = self.data[name]
        if value is None and allow_none:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.error(f"field {name!r}: expected a number, got {_show(value)}")
            return default
        # ``json.loads`` accepts NaN and ±Infinity, and ``NaN < minimum``
        # is false, so non-finite values need their own check.
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if not math.isfinite(number):
            self.error(
                f"field {name!r}: must be a finite number, got {_show(value)}"
            )
            return default
        if minimum is not None and value < minimum:
            self.error(f"field {name!r}: must be >= {minimum}, got {value}")
            return default
        return number

    def str_(
        self,
        name: str,
        default: Optional[str] = None,
        *,
        required: bool = False,
        choices=None,
    ) -> Optional[str]:
        if name not in self.data:
            return self._missing(name, default, required)
        value = self.data[name]
        if not isinstance(value, str):
            self.error(f"field {name!r}: expected a string, got {_show(value)}")
            return default
        if choices is not None and value not in choices:
            self.error(
                f"field {name!r}: unknown value {value!r} "
                f"(choose from {', '.join(sorted(choices))})"
            )
            return default
        return value

    def bool_(self, name: str, default: bool = False) -> bool:
        if name not in self.data:
            return default
        value = self.data[name]
        if not isinstance(value, bool):
            self.error(
                f"field {name!r}: expected true or false, got {_show(value)}"
            )
            return default
        return value

    def int_list(
        self,
        name: str,
        default=None,
        *,
        item_minimum: Optional[int] = None,
    ):
        if name not in self.data:
            return default
        value = self.data[name]
        if value is None:
            return default
        if not isinstance(value, (list, tuple)):
            self.error(
                f"field {name!r}: expected a list of integers, "
                f"got {_show(value)}"
            )
            return default
        out: List[int] = []
        for i, item in enumerate(value):
            if isinstance(item, bool) or not isinstance(item, int):
                self.error(
                    f"field {name!r}[{i}]: expected an integer, "
                    f"got {_show(item)}"
                )
                return default
            if item_minimum is not None and item < item_minimum:
                self.error(
                    f"field {name!r}[{i}]: must be >= {item_minimum}, "
                    f"got {item}"
                )
                return default
            out.append(item)
        return out

    def faults(self, name: str = "faults"):
        """A fault schedule: a ``FaultSchedule`` spec object or its
        canonical list form; returns the canonical tuple or None."""
        if name not in self.data or self.data[name] is None:
            return None
        value = self.data[name]
        from ..faults.schedule import FaultSchedule, FaultSpecError

        try:
            if isinstance(value, dict):
                return FaultSchedule.from_spec(value).canonical()
            if isinstance(value, (list, tuple)):
                return FaultSchedule.from_canonical(value).canonical()
        except FaultSpecError as exc:
            self.error(f"field {name!r}: {exc}")
            return None
        self.error(
            f"field {name!r}: expected a fault-schedule object or its "
            f"canonical list form, got {_show(value)}"
        )
        return None

    def raise_if_failed(self) -> None:
        if self.errors:
            raise SpecIngestError(self.errors)


def _ensure_dict(payload, what: str) -> Dict[str, Any]:
    if isinstance(payload, str):
        import json

        try:
            payload = json.loads(payload)
        except ValueError as exc:
            raise SpecIngestError([f"{what} is not valid JSON: {exc}"]) from None
    if not isinstance(payload, dict):
        raise SpecIngestError(
            [f"{what} must be a JSON object, got {_show(payload)}"]
        )
    return payload


_SPEC_FIELDS = (
    "scenario", "topology", "n", "sdn_count", "seed", "mrai",
    "recompute_delay", "policy_mode", "sdn_members", "horizon",
    "trace_level", "metrics", "spans", "profile", "sample_hz",
    "faults", "lean", "label",
)


def runspec_from_json(payload) -> "RunSpec":  # noqa: F821 (local import)
    """Parse one trial payload (dict or JSON string) into a RunSpec.

    Raises :class:`SpecIngestError` listing *every* problem: unknown
    fields, type mismatches, out-of-range values, unregistered scenario
    or topology names, and malformed nested fault schedules.
    """
    data = _ensure_dict(payload, "spec")
    f = _Fields(data)
    f.reject_unknown(_SPEC_FIELDS)
    scenarios = _scenario_registry()
    topologies = _topology_registry()
    scenario = f.str_("scenario", required=True, choices=scenarios)
    topology = f.str_("topology", "clique", choices=topologies)
    n = f.int_("n", required=True, minimum=2)
    sdn_count = f.int_("sdn_count", 0, minimum=0)
    seed = f.int_("seed", 0)
    mrai = f.number("mrai", 30.0, minimum=0.0)
    recompute_delay = f.number("recompute_delay", 0.5, minimum=0.0)
    policy_mode = f.str_("policy_mode", "flat")
    sdn_members = f.int_list("sdn_members", None, item_minimum=0)
    horizon = f.number("horizon", None, minimum=0.0, allow_none=True)
    trace_level = f.str_("trace_level", "full", choices=_TRACE_LEVELS)
    metrics = f.bool_("metrics")
    spans = f.bool_("spans")
    profile = f.bool_("profile")
    sample_hz = f.number("sample_hz", 0.0, minimum=0.0)
    faults = f.faults()
    lean = f.bool_("lean")
    label = f.str_("label", "")
    if n is not None and sdn_count is not None and sdn_count > n:
        f.error(
            f"field 'sdn_count': cannot convert {sdn_count} of {n} ASes"
        )
    if n is not None and sdn_members:
        outside = [m for m in sdn_members if m > n]
        if outside:
            f.error(
                f"field 'sdn_members': ASes {outside} outside 1..{n}"
            )
    f.raise_if_failed()

    from ..runner.jobs import RunSpec

    return RunSpec(
        scenario_factory=scenarios[scenario],
        topology_factory=topologies[topology],
        n=n,
        sdn_count=sdn_count,
        seed=seed,
        mrai=mrai,
        recompute_delay=recompute_delay,
        policy_mode=policy_mode,
        sdn_members=tuple(sdn_members) if sdn_members is not None else None,
        horizon=horizon,
        trace_level=trace_level,
        metrics=metrics,
        spans=spans,
        profile=profile,
        sample_hz=sample_hz,
        faults=faults,
        lean=lean,
        label=label,
    )


_GRID_FIELDS = (
    "scenario", "topology", "n", "sdn_counts", "runs", "seed_base",
    "mrai", "recompute_delay", "policy_mode", "trace_level",
    "metrics", "spans", "profile", "sample_hz", "faults", "horizon",
    "lean",
)


def grid_from_json(payload, *, max_specs: int = MAX_GRID_SPECS) -> List:
    """Expand a sweep-grid payload to the RunSpec list the Fig. 2
    harness would build: seeds follow ``seed_base + 1000*sdn_count +
    run_index`` and labels match, so grid submissions share digests
    (and cache entries) with :func:`run_fraction_sweep` trials."""
    data = _ensure_dict(payload, "grid")
    f = _Fields(data)
    f.reject_unknown(_GRID_FIELDS)
    scenarios = _scenario_registry()
    topologies = _topology_registry()
    scenario = f.str_("scenario", required=True, choices=scenarios)
    topology = f.str_("topology", "clique", choices=topologies)
    n = f.int_("n", required=True, minimum=2)
    sdn_counts = f.int_list("sdn_counts", None, item_minimum=0)
    runs = f.int_("runs", 1, minimum=1)
    seed_base = f.int_("seed_base", 100)
    mrai = f.number("mrai", 30.0, minimum=0.0)
    recompute_delay = f.number("recompute_delay", 0.5, minimum=0.0)
    policy_mode = f.str_("policy_mode", "flat")
    trace_level = f.str_("trace_level", "full", choices=_TRACE_LEVELS)
    metrics = f.bool_("metrics")
    spans = f.bool_("spans")
    profile = f.bool_("profile")
    sample_hz = f.number("sample_hz", 0.0, minimum=0.0)
    horizon = f.number("horizon", None, minimum=0.0, allow_none=True)
    faults = f.faults()
    lean = f.bool_("lean")
    if n is not None and sdn_counts:
        too_big = [c for c in sdn_counts if c > n]
        if too_big:
            f.error(
                f"field 'sdn_counts': counts {too_big} exceed n={n}"
            )
    f.raise_if_failed()

    from ..runner.jobs import RunSpec

    probe = scenarios[scenario]()
    if sdn_counts is None:
        max_sdn = n - len(probe.reserved_legacy)
        sdn_counts = list(range(0, max_sdn + 1))
    total = len(sdn_counts) * runs
    if total > max_specs:
        raise SpecIngestError(
            [
                f"grid expands to {total} trials "
                f"({len(sdn_counts)} sdn_counts x {runs} runs); "
                f"the limit is {max_specs}"
            ]
        )
    specs: List[RunSpec] = []
    for sdn_count in sdn_counts:
        for run_index in range(runs):
            seed = seed_base + 1000 * sdn_count + run_index
            specs.append(
                RunSpec(
                    scenario_factory=scenarios[scenario],
                    topology_factory=topologies[topology],
                    n=n,
                    sdn_count=sdn_count,
                    seed=seed,
                    mrai=mrai,
                    recompute_delay=recompute_delay,
                    policy_mode=policy_mode,
                    horizon=horizon,
                    trace_level=trace_level,
                    metrics=metrics,
                    spans=spans,
                    profile=profile,
                    sample_hz=sample_hz,
                    faults=faults,
                    lean=lean,
                    label=f"{probe.name} sdn={sdn_count} seed={seed}",
                )
            )
    return specs


def specs_from_json(payload) -> List:
    """Parse either payload shape into a spec list.

    ``{"spec": {...}}`` and a bare spec object yield one spec;
    ``{"grid": {...}}`` yields the expanded grid.  Supplying both (or
    neither, for wrapper-shaped payloads) is an error.
    """
    data = _ensure_dict(payload, "payload")
    if "spec" in data and "grid" in data:
        raise SpecIngestError(
            ["payload must contain either 'spec' or 'grid', not both"]
        )
    if "grid" in data:
        extra = sorted(set(data) - {"grid"})
        if extra:
            raise SpecIngestError(
                [f"unexpected fields next to 'grid': {', '.join(extra)}"]
            )
        return grid_from_json(data["grid"])
    if "spec" in data:
        extra = sorted(set(data) - {"spec"})
        if extra:
            raise SpecIngestError(
                [f"unexpected fields next to 'spec': {', '.join(extra)}"]
            )
        return [runspec_from_json(data["spec"])]
    return [runspec_from_json(data)]


def _jsonify(value):
    """Canonical tuples -> JSON-ready lists, recursively."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def spec_payload(spec) -> Dict[str, Any]:
    """The JSON payload form of a RunSpec (inverse of
    :func:`runspec_from_json` for registry-named factories).

    Raises :class:`SpecIngestError` when the spec uses factories that
    have no registered name (such specs cannot travel over the API).
    """
    from ..runner.jobs import callable_token

    scenario_tokens = {
        callable_token(factory): name
        for name, factory in _scenario_registry().items()
    }
    topology_tokens = {
        callable_token(factory): name
        for name, factory in _topology_registry().items()
    }
    scenario_token = callable_token(spec.scenario_factory)
    topology_token = callable_token(spec.topology_factory)
    errors = []
    if scenario_token not in scenario_tokens:
        errors.append(f"scenario factory {scenario_token} has no registered name")
    if topology_token not in topology_tokens:
        errors.append(f"topology factory {topology_token} has no registered name")
    if errors:
        raise SpecIngestError(errors)
    out: Dict[str, Any] = {
        "scenario": scenario_tokens[scenario_token],
        "topology": topology_tokens[topology_token],
        "n": spec.n,
        "sdn_count": spec.sdn_count,
        "seed": spec.seed,
        "mrai": spec.mrai,
        "recompute_delay": spec.recompute_delay,
        "policy_mode": spec.policy_mode,
        "trace_level": spec.trace_level,
        "metrics": spec.metrics,
        "spans": spec.spans,
        "profile": spec.profile,
    }
    if spec.sdn_members is not None:
        out["sdn_members"] = list(spec.sdn_members)
    if spec.horizon is not None:
        out["horizon"] = spec.horizon
    if spec.faults is not None:
        out["faults"] = _jsonify(spec.faults)
    # Like the digest, these appear only when set so pre-existing
    # payloads (and their consumers) see no new keys.
    if spec.lean:
        out["lean"] = True
    if spec.sample_hz:
        out["sample_hz"] = spec.sample_hz
    if spec.label:
        out["label"] = spec.label
    return out
