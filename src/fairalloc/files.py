"""File formats and seeded instance generation.

Instances and allocations are JSON documents; traces are JSON lines, one
event per line. Rationals are persisted as integers or "p/q" strings so
round trips are exact -- no floating point ever reaches a file.
Items and agents are 0-indexed everywhere.

An instance row of JSON integers only is kept as it is, with scale 1 (see
`model.Instance`); any other row is parsed value by value into `Fraction`s
and stored as ints over the LCM of their denominators. Seeded generation
draws integers, so its rows have scale 1. It calls
`random.Random.getrandbits` directly with CPython's own rule for a draw
below n (`_randbelow_with_getrandbits`: k = n.bit_length() bits, drawn
again while the result is >= n), which is what `randrange(n)` runs and
`randint(a, b)` runs as `a + randrange(b - a + 1)`; every seed therefore
gives the instance those calls give. An instance row of scale 1 and the
four per-step trace events are written as formatted lines, the same bytes
as `json.dumps` gives.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator

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
from .model import (
    INF,
    Allocation,
    ExtendedRational,
    FairnessNotion,
    Instance,
    _rows_and_scales,
    is_infinite,
)


def format_rational(value: Fraction | int) -> int | str:
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


def _rows_block(rows: list[str], indent: str) -> str:
    """Render a list of rows, each already JSON, with each row on its own line."""
    inner = ",\n".join(indent + "  " + row for row in rows)
    return "[\n" + inner + "\n" + indent + "]"


def _int_list(values: Iterable[int]) -> str:
    """`json.dumps` of a list of ints, without its per-call overhead."""
    return f"[{', '.join(map(str, values))}]"


def instance_to_json(instance: Instance, generator: "GenSpec | None" = None) -> str:
    rows = [
        _int_list(row) if s == 1 else json.dumps([format_rational(Fraction(x, s)) for x in row])
        for row, s in zip(instance.rows, instance.scales)
    ]
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
    instance = Instance(*_rows_and_scales(rows, parse_rational))
    n, m = doc.get("n"), doc.get("m")
    for field, declared in (("n", n), ("m", m)):
        if declared is not None and type(declared) is not int:
            raise InvalidInstance(f"declared {field} must be an integer, got {declared!r}")
    if n is not None and n != instance.agent_count:
        raise InvalidInstance(f"declared n={n} but found {instance.agent_count} rows")
    if m is not None and m != instance.item_count:
        raise InvalidInstance(f"declared m={m} but rows have {instance.item_count} entries")
    return instance


# --- Allocation files --------------------------------------------------------


def allocation_to_json(allocation: Allocation) -> str:
    bundles = [_int_list(sorted(b)) for b in allocation.bundles]
    remaining = _int_list(sorted(allocation.remaining))
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


def _typed(doc: dict, name: str, kind: type) -> Any:
    """An event's field, of type `kind` exactly, so that true is not an int."""
    value = doc[name]
    if type(value) is not kind:
        raise ValueError(f"field {name!r} must be {kind.__name__}, got {value!r}")
    return value


def _ints(raw: object, name: str) -> tuple[int, ...]:
    """An event's list of agents, every entry an int that is not a bool."""
    values = tuple(raw)
    if not all(type(v) is int for v in values):
        raise ValueError(f"field {name!r} must list integers, got {raw!r}")
    return values


def _event_from_dict(doc: dict) -> TraceEvent:
    kind = doc.get("event")
    if kind == "matching":
        bundles = [_item_indices(b, "a 'bundles' entry") for b in doc["bundles"]]
        allocation = Allocation.of(bundles, _typed(doc, "items", int))
        ranks = EnvyRanks(tuple(parse_extended(r) for r in doc["ranks"]))
        return MatchingDone(allocation, ranks)
    if kind == "groups":
        return GroupsAssigned(
            AgentGroups(
                FairnessNotion(_typed(doc, "mode", str)),
                frozenset(_ints(doc["g1"], "g1")),
                frozenset(_ints(doc["g2"], "g2")),
                frozenset(_ints(doc.get("g3", []), "g3")),
            )
        )
    if kind == "pick":
        return Pick(_typed(doc, "agent", int), _typed(doc, "item", int), _typed(doc, "pass", str))
    if kind == "rotate":
        return CycleRotated(_ints(doc["cycle"], "cycle"))
    if kind == "source-pick":
        return SourcePick(_typed(doc, "agent", int), _typed(doc, "item", int))
    if kind == "invariant":
        return InvariantChecked(_typed(doc, "name", str), _typed(doc, "passed", bool))
    raise ValueError(f"unknown trace event kind {kind!r}")


# `json.dumps`'s own escape for a string under its default `ensure_ascii`
_json_string = json.encoder.encode_basestring_ascii


def trace_to_lines(trace: Trace) -> str:
    """One JSON line per event, `json.dumps(_event_to_dict(e))`. The four
    per-step kinds are formatted directly, with `json.dumps`'s separators,
    key order and string escape; the once-per-solve kinds go through
    `_event_to_dict`."""
    lines = []
    for e in trace:
        kind = type(e)
        if kind is Pick:
            lines.append(
                f'{{"event": "pick", "agent": {e.agent}, "item": {e.item}, '
                f'"pass": {_json_string(e.label)}}}\n'
            )
        elif kind is SourcePick:
            lines.append(f'{{"event": "source-pick", "agent": {e.agent}, "item": {e.item}}}\n')
        elif kind is CycleRotated:
            lines.append(f'{{"event": "rotate", "cycle": {_int_list(e.cycle)}}}\n')
        elif kind is InvariantChecked:
            passed = "true" if e.passed else "false"
            lines.append(
                f'{{"event": "invariant", "name": {_json_string(e.name)}, "passed": {passed}}}\n'
            )
        else:
            lines.append(json.dumps(_event_to_dict(e)) + "\n")
    return "".join(lines)


def trace_from_lines(text: str) -> Trace:
    """The events of a trace file, one JSON object per nonblank line.

    A line that is not an event raises ValueError naming its 1-based
    number: text that is not JSON, a JSON value that is not an object, an
    unknown event kind, a missing field, a field of the wrong JSON type (true
    is not an int), or a field that does not convert (a number where a list
    belongs, a bad rational, an item out of range).
    """
    trace = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError(f"expected a JSON object, got {line.strip()}")
            trace.append(_event_from_dict(doc))
        except KeyError as missing:
            raise ValueError(f"trace line {number}: missing field {missing}") from missing
        except (TypeError, ValueError, InvalidAllocation, InvalidInstance) as error:
            raise ValueError(f"trace line {number}: {error}") from error
    return trace


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
    probability (decided exactly on the rational), else uniform in [low, high].

    Per value, a draw r below the probability's denominator decides: r below
    its numerator gives 0; otherwise a draw r below high - low + 1 gives
    low + r. A draw below n takes n.bit_length() bits from `getrandbits` and
    draws again while the result is >= n, as `randrange(n)` does in CPython,
    so the values are those of `randrange(denominator) < numerator` and
    `randint(low, high)`, for every n >= 1 and every width.

    Every row has scale 1 (see `model.Instance`)."""
    getrandbits = random.Random(spec.seed).getrandbits
    numerator = spec.zero_probability.numerator
    denominator = spec.zero_probability.denominator
    low, width = spec.low, spec.high - spec.low + 1
    zero_bits, value_bits = denominator.bit_length(), width.bit_length()
    rows = []
    for _ in range(spec.agents):
        row = []
        for _ in range(spec.items):
            r = getrandbits(zero_bits)
            while r >= denominator:
                r = getrandbits(zero_bits)
            if r < numerator:
                row.append(0)
                continue
            r = getrandbits(value_bits)
            while r >= width:
                r = getrandbits(value_bits)
            row.append(low + r)
        rows.append(tuple(row))
    return Instance(tuple(rows), (1,) * spec.agents)


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
