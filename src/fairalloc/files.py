"""File formats and seeded instance generation.

Instances and allocations are JSON documents; traces are JSON lines, one
event per line. Rationals are persisted as integers or "p/q" strings so
round trips are exact -- no floating point ever reaches a file.
Items and agents are 0-indexed everywhere.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .algorithms import (
    AgentGroups,
    CycleRotated,
    GroupsAssigned,
    InvariantChecked,
    MatchingDone,
    Pick,
    SourcePick,
    Trace,
    TraceEvent,
)
from .envy import EnvyRanks
from .errors import InvalidAllocation, InvalidInstance
from .model import INF, Allocation, ExtendedRational, FairnessNotion, Instance, is_infinite


def format_rational(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(raw: int | str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise InvalidInstance(f"expected an integer or 'p/q' string, got {raw!r}")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInstance(f"bad rational {raw!r}: {exc}") from exc


def format_extended(value: ExtendedRational) -> int | str:
    if is_infinite(value):
        return "inf"
    return format_rational(value)


def parse_extended(raw: int | str) -> ExtendedRational:
    if raw == "inf":
        return INF
    return parse_rational(raw)


# --- Instance files ----------------------------------------------------------


def _rows_block(rows: list[list], indent: str) -> str:
    """Render a list of rows with each row on its own line."""
    inner = ",\n".join(indent + "  " + json.dumps(row) for row in rows)
    return "[\n" + inner + "\n" + indent + "]"


def instance_to_json(instance: Instance, generator: "GenSpec | None" = None) -> str:
    rows = [[format_rational(v) for v in row] for row in instance.valuations]
    lines = [
        "{",
        f'  "n": {instance.agent_count},',
        f'  "m": {instance.item_count},',
        f'  "valuations": {_rows_block(rows, "  ")}'
        + ("," if generator is not None else ""),
    ]
    if generator is not None:
        header = {
            "agents": generator.agents,
            "items": generator.items,
            "low": generator.low,
            "high": generator.high,
            "zero_probability": format_rational(generator.zero_probability),
            "seed": generator.seed,
        }
        lines.append(f'  "generator": {json.dumps(header)}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "valuations" not in doc:
        raise InvalidInstance("instance file needs a 'valuations' field")
    rows = doc["valuations"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidInstance("'valuations' must be a list of rows")
    instance = Instance(
        tuple(tuple(parse_rational(v) for v in row) for row in rows)
    )
    n, m = doc.get("n"), doc.get("m")
    if n is not None and n != instance.agent_count:
        raise InvalidInstance(f"declared n={n} but found {instance.agent_count} rows")
    if m is not None and m != instance.item_count:
        raise InvalidInstance(f"declared m={m} but rows have {instance.item_count} entries")
    return instance


# --- Allocation files --------------------------------------------------------


def allocation_to_json(allocation: Allocation) -> str:
    bundles = [sorted(b) for b in allocation.bundles]
    remaining = json.dumps(sorted(allocation.remaining))
    return (
        "{\n"
        f'  "bundles": {_rows_block(bundles, "  ")},\n'
        f'  "remaining": {remaining}\n'
        "}\n"
    )


def allocation_from_json(text: str, instance: Instance) -> Allocation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidAllocation(f"allocation file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise InvalidAllocation("allocation file needs a 'bundles' field")
    bundles = doc["bundles"]
    if not isinstance(bundles, list):
        raise InvalidAllocation("'bundles' must be a list of item-index lists")
    allocation = Allocation.of(
        (_item_indices(bundle, "a bundle") for bundle in bundles), instance.item_count
    )
    if allocation.agent_count != instance.agent_count:
        raise InvalidAllocation(
            f"{allocation.agent_count} bundles for {instance.agent_count} agents"
        )
    declared = doc.get("remaining")
    if declared is not None:
        if sorted(_item_indices(declared, "'remaining'")) != sorted(allocation.remaining):
            raise InvalidAllocation("'remaining' disagrees with the bundles")
    return allocation


def _item_indices(raw: object, what: str) -> list[int]:
    """A JSON list of distinct integer item indices, or InvalidAllocation."""
    if not isinstance(raw, list) or not all(type(item) is int for item in raw):
        raise InvalidAllocation(f"{what} must be a list of integer item indices: {raw!r}")
    if len(set(raw)) != len(raw):
        raise InvalidAllocation(f"{what} repeats an item: {raw!r}")
    return raw


# --- Trace files -------------------------------------------------------------


def _event_to_dict(event: TraceEvent) -> dict:
    if isinstance(event, MatchingDone):
        return {
            "event": "matching",
            "items": event.allocation.item_count,
            "bundles": [sorted(b) for b in event.allocation.bundles],
            "ranks": [format_extended(r) for r in event.ranks.ranks],
        }
    if isinstance(event, GroupsAssigned):
        return {
            "event": "groups",
            "mode": event.groups.mode.value,
            "g1": sorted(event.groups.g1),
            "g2": sorted(event.groups.g2),
            "g3": sorted(event.groups.g3),
        }
    if isinstance(event, Pick):
        return {"event": "pick", "agent": event.agent, "item": event.item, "pass": event.label}
    if isinstance(event, CycleRotated):
        return {"event": "rotate", "cycle": list(event.cycle)}
    if isinstance(event, SourcePick):
        return {"event": "source-pick", "agent": event.agent, "item": event.item}
    if isinstance(event, InvariantChecked):
        return {"event": "invariant", "name": event.name, "passed": event.passed}
    raise TypeError(f"unknown trace event {event!r}")


def _event_from_dict(doc: dict) -> TraceEvent:
    kind = doc.get("event")
    if kind == "matching":
        allocation = Allocation.of(doc["bundles"], doc["items"])
        ranks = EnvyRanks(tuple(parse_extended(r) for r in doc["ranks"]))
        return MatchingDone(allocation, ranks)
    if kind == "groups":
        return GroupsAssigned(
            AgentGroups(
                FairnessNotion(doc["mode"]),
                frozenset(doc["g1"]),
                frozenset(doc["g2"]),
                frozenset(doc.get("g3", [])),
            )
        )
    if kind == "pick":
        return Pick(doc["agent"], doc["item"], doc["pass"])
    if kind == "rotate":
        return CycleRotated(tuple(doc["cycle"]))
    if kind == "source-pick":
        return SourcePick(doc["agent"], doc["item"])
    if kind == "invariant":
        return InvariantChecked(doc["name"], doc["passed"])
    raise ValueError(f"unknown trace event kind {kind!r}")


def trace_to_lines(trace: Trace) -> str:
    return "".join(json.dumps(_event_to_dict(e)) + "\n" for e in trace)


def trace_from_lines(text: str) -> Trace:
    return [
        _event_from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# --- Seeded generation -------------------------------------------------------


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one deterministic random instance."""

    agents: int
    items: int
    low: int
    high: int
    zero_probability: Fraction
    seed: int

    def __post_init__(self) -> None:
        if self.agents < 1 or self.items < 1:
            raise ValueError("need at least one agent and one item")
        if not 0 <= self.low <= self.high:
            raise ValueError("need 0 <= low <= high")
        if not 0 <= self.zero_probability <= 1:
            raise ValueError("zero_probability must lie in [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def generate_instance(spec: GenSpec) -> Instance:
    """Deterministic instance for a spec: each value is 0 with the configured
    probability (decided exactly on the rational), else uniform in [low, high]."""
    rng = random.Random(spec.seed)
    p = spec.zero_probability
    rows = []
    for _ in range(spec.agents):
        row = []
        for _ in range(spec.items):
            zero = rng.randrange(p.denominator) < p.numerator
            row.append(Fraction(0) if zero else Fraction(rng.randint(spec.low, spec.high)))
        rows.append(tuple(row))
    return Instance(tuple(rows))


def random_instances(
    count: int,
    agents: tuple[int, int],
    items: tuple[int, int],
    low: int,
    high: int,
    zero_probabilities: tuple[Fraction, ...],
    seed: int,
) -> Iterator[tuple[GenSpec, Instance]]:
    """Stream of seeded instances; the item count never drops below the agent
    count, so every instance is solver-ready."""
    master = random.Random(seed)
    for _ in range(count):
        n = master.randint(agents[0], agents[1])
        m_low = max(n, items[0])
        if m_low > items[1]:
            raise ValueError(f"item range {items} cannot fit {n} agents")
        m = master.randint(m_low, items[1])
        zp = zero_probabilities[master.randrange(len(zero_probabilities))]
        spec = GenSpec(n, m, low, high, zp, master.getrandbits(64))
        yield spec, generate_instance(spec)
