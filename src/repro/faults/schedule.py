"""Declarative fault schedules: what breaks, when, for how long.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`
records, each a ``(kind, at, params)`` triple.  Three representations
round-trip losslessly:

- the **programmatic builder** (``FaultSchedule().link_down(1, 2,
  at=1.0).router_crash(3, at=5.0)``) for hand-written experiments,
- the **JSON/dict spec** (:meth:`FaultSchedule.to_spec` /
  :meth:`FaultSchedule.from_spec`) for files and CLIs,
- the **canonical tuple** (:meth:`FaultSchedule.canonical` /
  :meth:`FaultSchedule.from_canonical`) — hashable and
  insertion-order-free, the form embedded in a
  :class:`~repro.runner.RunSpec` so cache digests stay stable across
  processes and dict orderings.

Validation happens at build/parse time against a per-kind parameter
table, so a bad schedule fails before any simulation work starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["FaultEvent", "FaultSchedule", "FaultSpecError", "FAULT_KINDS"]

#: canonical-form version tag (bump on incompatible changes so stale
#: cache entries miss instead of misparse).
_CANONICAL_TAG = "faults-v1"


class FaultSpecError(ValueError):
    """A fault schedule that does not validate."""


def _num(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FaultSpecError(f"expected a number, got {value!r}")
    try:
        num = float(value)
    except OverflowError:  # an integer beyond float range
        num = math.inf
    if not math.isfinite(num):
        raise FaultSpecError(f"expected a finite number, got {value!r}")
    return num


def _asn(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise FaultSpecError(f"expected a positive ASN, got {value!r}")
    return value


def _count(value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FaultSpecError(f"expected a count >= 1, got {value!r}")
    return value


def _nonneg(value: Any) -> float:
    num = _num(value)
    if num < 0:
        raise FaultSpecError(f"expected a non-negative number, got {value!r}")
    return num


def _loss(value: Any) -> float:
    num = _num(value)
    if not 0.0 <= num < 1.0:
        raise FaultSpecError(f"loss must be in [0, 1): {value!r}")
    return num


def _prefix(value: Any) -> str:
    if not isinstance(value, str) or "/" not in value:
        raise FaultSpecError(f"expected a 'a.b.c.d/len' prefix, got {value!r}")
    return value


def _flap_first(value: Any) -> str:
    if value not in ("withdraw", "announce"):
        raise FaultSpecError(
            f"first must be 'withdraw' or 'announce', got {value!r}"
        )
    return value


#: kind -> {param: (caster, required)}.  ``at`` is implicit on every kind.
FAULT_KINDS: Dict[str, Dict[str, tuple]] = {
    "link_down": {"a": (_asn, True), "b": (_asn, True)},
    "link_up": {"a": (_asn, True), "b": (_asn, True)},
    "link_flap": {
        "a": (_asn, True),
        "b": (_asn, True),
        "count": (_count, False),
        "interval": (_nonneg, False),
        "jitter": (_nonneg, False),
    },
    "link_degrade": {
        "a": (_asn, True),
        "b": (_asn, True),
        "duration": (_nonneg, True),
        "latency": (_nonneg, False),
        "loss": (_loss, False),
    },
    "session_reset": {"asn": (_asn, True), "peer": (_asn, True)},
    "router_crash": {"asn": (_asn, True), "down_for": (_nonneg, False)},
    "controller_fail": {"outage": (_nonneg, False)},
    "controller_partition": {"duration": (_nonneg, False)},
    "announce": {"asn": (_asn, True), "prefix": (_prefix, False)},
    "withdraw": {"asn": (_asn, True), "prefix": (_prefix, False)},
    "prefix_flap": {
        "asn": (_asn, True),
        "count": (_count, False),
        "interval": (_nonneg, False),
        "prefix": (_prefix, False),
        "first": (_flap_first, False),
    },
}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: ``kind`` at offset ``at`` with ``params``.

    ``params`` is a tuple of ``(key, value)`` pairs sorted by key — the
    hashable, order-free form.  Use :meth:`param` / :meth:`as_dict` for
    convenient access.
    """

    kind: str
    at: float
    params: Tuple[Tuple[str, Any], ...] = ()

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "at": self.at}
        out.update(dict(self.params))
        return out

    def describe(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"t+{self.at:g} {self.kind}({args})"


def _validate(kind: str, at: Any, params: Dict[str, Any]) -> FaultEvent:
    if kind not in FAULT_KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r}; choose from {sorted(FAULT_KINDS)}"
        )
    table = FAULT_KINDS[kind]
    unknown = set(params) - set(table)
    if unknown:
        raise FaultSpecError(f"{kind}: unknown parameters {sorted(unknown)}")
    cleaned: Dict[str, Any] = {}
    for name, (caster, required) in table.items():
        if name in params and params[name] is not None:
            cleaned[name] = caster(params[name])
        elif required:
            raise FaultSpecError(f"{kind}: missing required parameter {name!r}")
    if kind == "link_degrade" and not (
        "latency" in cleaned or "loss" in cleaned
    ):
        raise FaultSpecError("link_degrade needs latency and/or loss")
    return FaultEvent(
        kind=kind, at=_nonneg(at), params=tuple(sorted(cleaned.items()))
    )


class FaultSchedule:
    """An ordered, validated collection of fault events plus a jitter seed.

    ``fault_seed`` names the random sub-stream used for flap jitter; it
    is independent of the experiment's base seed, so the same network
    run can be subjected to differently-jittered instances of one
    schedule (the CLI's ``--fault-seed``).
    """

    def __init__(
        self,
        events: Optional[List[FaultEvent]] = None,
        *,
        fault_seed: int = 0,
    ) -> None:
        self.events: List[FaultEvent] = list(events or [])
        self.fault_seed = int(fault_seed)

    # ------------------------------------------------------------------
    # programmatic builders (all chainable)
    # ------------------------------------------------------------------
    def add(self, kind: str, *, at: float, **params) -> "FaultSchedule":
        """Append one validated fault event."""
        self.events.append(_validate(kind, at, params))
        return self

    def link_down(self, a: int, b: int, *, at: float) -> "FaultSchedule":
        return self.add("link_down", at=at, a=a, b=b)

    def link_up(self, a: int, b: int, *, at: float) -> "FaultSchedule":
        return self.add("link_up", at=at, a=a, b=b)

    def link_flap(
        self,
        a: int,
        b: int,
        *,
        at: float,
        count: int = 3,
        interval: float = 1.0,
        jitter: float = 0.0,
    ) -> "FaultSchedule":
        return self.add(
            "link_flap", at=at, a=a, b=b,
            count=count, interval=interval, jitter=jitter,
        )

    def link_degrade(
        self,
        a: int,
        b: int,
        *,
        at: float,
        duration: float,
        latency: Optional[float] = None,
        loss: Optional[float] = None,
    ) -> "FaultSchedule":
        return self.add(
            "link_degrade", at=at, a=a, b=b,
            duration=duration, latency=latency, loss=loss,
        )

    def session_reset(
        self, asn: int, peer: int, *, at: float
    ) -> "FaultSchedule":
        return self.add("session_reset", at=at, asn=asn, peer=peer)

    def router_crash(
        self, asn: int, *, at: float, down_for: float = 5.0
    ) -> "FaultSchedule":
        return self.add("router_crash", at=at, asn=asn, down_for=down_for)

    def controller_fail(
        self, *, at: float, outage: float = 5.0
    ) -> "FaultSchedule":
        return self.add("controller_fail", at=at, outage=outage)

    def controller_partition(
        self, *, at: float, duration: float = 5.0
    ) -> "FaultSchedule":
        return self.add("controller_partition", at=at, duration=duration)

    def announce(
        self, asn: int, *, at: float, prefix: Optional[str] = None
    ) -> "FaultSchedule":
        return self.add("announce", at=at, asn=asn, prefix=prefix)

    def withdraw(
        self, asn: int, *, at: float, prefix: Optional[str] = None
    ) -> "FaultSchedule":
        return self.add("withdraw", at=at, asn=asn, prefix=prefix)

    def prefix_flap(
        self,
        asn: int,
        *,
        at: float,
        count: int = 2,
        interval: float = 1.0,
        prefix: Optional[str] = None,
        first: str = "withdraw",
    ) -> "FaultSchedule":
        return self.add(
            "prefix_flap", at=at, asn=asn,
            count=count, interval=interval, prefix=prefix, first=first,
        )

    # ------------------------------------------------------------------
    # spec (JSON/dict) form
    # ------------------------------------------------------------------
    def to_spec(self) -> Dict[str, Any]:
        """Plain-dict form, suitable for JSON files and CLI payloads."""
        return {
            "fault_seed": self.fault_seed,
            "events": [event.as_dict() for event in self.events],
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_spec(), sort_keys=True, **kwargs)

    @classmethod
    def from_spec(cls, spec) -> "FaultSchedule":
        """Parse a dict (or JSON string) spec, validating every event."""
        if isinstance(spec, str):
            spec = json.loads(spec)
        if not isinstance(spec, dict):
            raise FaultSpecError(f"spec must be a dict, got {type(spec).__name__}")
        unknown = set(spec) - {"fault_seed", "events"}
        if unknown:
            raise FaultSpecError(f"unknown spec keys {sorted(unknown)}")
        events = []
        for raw in spec.get("events", []):
            if not isinstance(raw, dict) or "kind" not in raw:
                raise FaultSpecError(f"event must be a dict with 'kind': {raw!r}")
            params = {k: v for k, v in raw.items() if k not in ("kind", "at")}
            events.append(_validate(raw["kind"], raw.get("at", 0.0), params))
        return cls(events, fault_seed=spec.get("fault_seed", 0))

    # ------------------------------------------------------------------
    # canonical (hashable, RunSpec-embeddable) form
    # ------------------------------------------------------------------
    def canonical(self) -> tuple:
        """A hashable nested tuple that is independent of how the
        schedule was expressed (builder vs dict, any key order)."""
        return (
            _CANONICAL_TAG,
            self.fault_seed,
            tuple((e.kind, e.at, e.params) for e in self.events),
        )

    @classmethod
    def from_canonical(cls, data) -> "FaultSchedule":
        """Rebuild from :meth:`canonical` output (lists accepted, so the
        form survives a JSON round-trip)."""
        try:
            tag, fault_seed, raw_events = data
        except (TypeError, ValueError):
            raise FaultSpecError(f"not a canonical schedule: {data!r}") from None
        if tag != _CANONICAL_TAG:
            raise FaultSpecError(f"unsupported canonical tag {tag!r}")
        events = []
        for kind, at, params in raw_events:
            events.append(_validate(kind, at, {k: v for k, v in params}))
        return cls(events, fault_seed=fault_seed)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return (
            f"<FaultSchedule events={len(self.events)} "
            f"fault_seed={self.fault_seed}>"
        )
