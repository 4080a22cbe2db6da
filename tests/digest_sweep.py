"""Print one digest per solve over a fixed sweep, to diff two checkouts.

Run by hand from the root of a checkout (pytest does not collect it, since
its name does not start with `test_`):

    PYTHONPATH=src python tests/digest_sweep.py > digests.txt

then run the same command in the other checkout and `diff` the two files.
An empty diff means both solve every instance of the sweep to the same
bundles through the same picks, rotations and source picks.

Each line is `family seed mode check digest`. The digest is a SHA-256
prefix of the JSON of the sorted bundles plus the pick, rotate and
source-pick events; a solve that raises prints the exception's type
instead. The families are `GenSpec(n, 3n, 0, 100, 1/10, s)` for
n = 10, 20, 40, 80 and 160 (seeds 0-3), 1,000 instances of the
acceptance batch's distribution drawn from stream seed 7, and two rational
families with m = 3n and seeds 0-3: p/q values (q <= 12, a tenth of them 0,
the rule of the benchmark's verify-rational workload) at n = 10 and 40, and
(x*10^40 + r)/7 values (x in 1-3, r in 0-50, 15% zeros) at n = 5 and 10.
The second family stays small: when the values are near-ties, the exact
repair loop takes seconds per matching from n = 14 on.

Three jitter families, at n = 2-8 with m drawn from n-3n and seeds 0-7,
make the repair loop move, which the families above hardly do: integer
rows of 10^17 + r (r in 0-3), whose logs the warm start cannot rank; the
same rows with 30% of their values set to 0; and the same values over
denominators drawn from 1-3.

The "types" family makes completion rotate, which none of the families
above does: k prototype rows with values in 1-100 (k = 2 for even seeds,
3 for odd ones), and agent i's row is 3 * prototype[i mod k] + r with r in
0-2, at n = 20, 30 and 40, m = 5n and 10n, seeds 0-31. Its 384 solves
with checks off make 726 bundle rotations.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from fairalloc.algorithms import CycleRotated, Pick, SourcePick, solve_efr, solve_efx
from fairalloc.files import GenSpec, generate_instance, random_instances
from fairalloc.model import Instance

SIZES = (10, 20, 40, 80, 160)
SEEDS = range(4)
SOLVERS = (("efr", solve_efr), ("efx", solve_efx))
RATIONAL_SIZES = {"pq": (10, 40), "big-sevenths": (5, 10)}
JITTER_SIZES = range(2, 9)
JITTER_SEEDS = range(8)
TYPES_SIZES = (20, 30, 40)
TYPES_ITEMS_PER_AGENT = (5, 10)
TYPES_SEEDS = range(32)


def rational_value(family: str, rng: random.Random) -> Fraction:
    if family == "pq":
        if rng.randrange(10) == 0:
            return Fraction(0)
        q = rng.randint(1, 12)
        return Fraction(rng.randint(0, 100 * q), q)
    if rng.random() < 0.15:
        return Fraction(0)
    return Fraction(rng.randint(1, 3) * 10**40 + rng.randint(0, 50), 7)


def jitter_families(n: int, s: int):
    """(family, rows) for the three jitter families of one (n, seed)."""
    rng = random.Random(f"jitter/{n}/{s}")
    m = rng.randint(n, 3 * n)
    rows = [[10**17 + rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
    yield "jitter", rows
    zeros = random.Random(f"jitter-zeros/{n}/{s}")
    yield "jitter-zeros", [[0 if zeros.random() < 0.3 else v for v in row] for row in rows]
    qs = random.Random(f"jitter-pq/{n}/{s}")
    yield "jitter-pq", [[Fraction(v, qs.randint(1, 3)) for v in row] for row in rows]


def types_rows(n: int, m: int, s: int) -> list[list[int]]:
    """Rows of the "types" family: agents of one type share a prototype row
    up to a small integer noise."""
    rng = random.Random(f"types/{n}/{m}/{s}")
    k = 2 + s % 2
    prototypes = [[rng.randint(1, 100) for _ in range(m)] for _ in range(k)]
    return [[3 * v + rng.randint(0, 2) for v in prototypes[i % k]] for i in range(n)]


def solve_digest(allocation, trace) -> str:
    events = []
    for event in trace:
        if isinstance(event, Pick):
            events.append(["pick", event.agent, event.item, event.label])
        elif isinstance(event, CycleRotated):
            events.append(["rotate", list(event.cycle)])
        elif isinstance(event, SourcePick):
            events.append(["source-pick", event.agent, event.item])
    payload = {"bundles": [sorted(b) for b in allocation.bundles], "events": events}
    raw = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def families():
    for n in SIZES:
        for s in SEEDS:
            yield f"gen-{n}", s, generate_instance(GenSpec(n, 3 * n, 0, 100, Fraction(1, 10), s))
    batch = random_instances(1000, (2, 6), (2, 12), 0, 100, (Fraction(0), Fraction(1, 10)), 7)
    for k, (_, instance) in enumerate(batch):
        yield "acceptance", k, instance
    for family, sizes in RATIONAL_SIZES.items():
        for n in sizes:
            for s in SEEDS:
                rng = random.Random(f"{family}/{n}/{s}")
                rows = [[rational_value(family, rng) for _ in range(3 * n)] for _ in range(n)]
                yield f"{family}-{n}", s, Instance.from_rows(rows)
    for n in JITTER_SIZES:
        for s in JITTER_SEEDS:
            for family, rows in jitter_families(n, s):
                yield f"{family}-{n}", s, Instance.from_rows(rows)
    for n in TYPES_SIZES:
        for per_agent in TYPES_ITEMS_PER_AGENT:
            for s in TYPES_SEEDS:
                rows = types_rows(n, per_agent * n, s)
                yield f"types-{n}x{per_agent * n}", s, Instance.from_rows(rows)


def main() -> None:
    for family, seed, instance in families():
        for mode, solver in SOLVERS:
            for check in (False, True):
                try:
                    digest = solve_digest(*solver(instance, check=check))
                except Exception as error:  # a raised error is part of the outcome
                    digest = type(error).__name__
                print(family, seed, mode, "on" if check else "off", digest, flush=True)


if __name__ == "__main__":
    main()
