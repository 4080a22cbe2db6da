"""The four benchmark workloads: inputs, one operation, and its output check.

Each workload draws its inputs from a fixed pool. Pool entry `i` is always
the same instance, and `golden/<workload>.json` holds, per entry, a digest of
the input and the outputs the seed commit produced for it. `--seed` picks
which entries one run uses and in which order, so every run can check its
outputs against the record whatever its seed.

Import this module only after `checkout.require_source()`.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, ContextManager, TextIO

from fairalloc import algorithms, files, model
from fairalloc.model import FairnessNotion, Threshold

from checkout import OUT_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

MODES = {
    "efr": (FairnessNotion.EFR, Threshold.SQRT3_MINUS_ONE),
    "efx": (FairnessNotion.EFX, Threshold.GOLDEN_RATIO_MINUS_ONE),
}
NOTIONS = (FairnessNotion.EF, FairnessNotion.EF1, FairnessNotion.EFX, FairnessNotion.EFR)

Span = Callable[[str], ContextManager[None]]


@dataclass(frozen=True)
class Job:
    """One operation's input: a pool entry, plus the solver mode if it solves."""

    index: int
    mode: str | None
    instance: model.Instance | None  # None where the operation parses `text`
    text: str | None = None  # instance JSON
    allocation_text: str | None = None


@dataclass(frozen=True)
class Checked:
    """Outcome of checking one output: its digest, an error, its trace events."""

    digest: str
    error: str | None
    events: Counter


def digest(payload) -> str:
    """Short hex digest of a JSON-serialisable value."""
    raw = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()[:16]


def input_digest(job: Job) -> str:
    """Digest of a job's input, independent of fairalloc's file format."""
    if job.instance is None:
        return digest([job.text, job.allocation_text])
    return digest([[str(v) for v in row] for row in job.instance.valuations])


def solve_digest(allocation: model.Allocation, trace: algorithms.Trace) -> str:
    """Digest of the bundles plus the pick, rotate and source-pick events.

    Other event kinds are left out, so a trace that gains new kinds of event
    still matches the record.
    """
    events = []
    for event in trace:
        if isinstance(event, algorithms.Pick):
            events.append(["pick", event.agent, event.item, event.label])
        elif isinstance(event, algorithms.CycleRotated):
            events.append(["rotate", list(event.cycle)])
        elif isinstance(event, algorithms.SourcePick):
            events.append(["source-pick", event.agent, event.item])
    return digest({"bundles": [sorted(b) for b in allocation.bundles], "events": events})


def event_counts(trace: algorithms.Trace) -> Counter:
    return Counter(type(event).__name__ for event in trace)


def format_factor(factor) -> str:
    return "inf" if factor == math.inf else str(factor)


def check_solve(
    instance: model.Instance,
    mode: str,
    allocation: model.Allocation,
    trace: algorithms.Trace,
    expected: str,
) -> Checked:
    """Completeness, exact threshold, trace replay and the recorded digest."""
    found = solve_digest(allocation, trace)
    notion, threshold = MODES[mode]
    error = None
    if not allocation.is_complete:
        error = "allocation is not complete"
    elif not model.meets_threshold(model.fairness_factor(instance, allocation, notion), threshold):
        error = f"{notion.value} factor misses {threshold.value}"
    elif algorithms.replay_trace(trace) != allocation:
        error = "trace does not replay to the allocation"
    elif found != expected:
        error = f"output digest {found} differs from the recorded {expected}"
    return Checked(found, error, event_counts(trace))


class Workload:
    """A pool of inputs, the operation run on one, and the check of its output."""

    name: str
    pool_size: int
    run_size: int  # distinct pool entries one run cycles through

    def entry(self, index: int) -> Job:
        raise NotImplementedError

    def entry_jobs(self, index: int) -> list[Job]:
        """Every job the golden record holds outputs for, for one pool entry."""
        return [self.entry(index)]

    def jobs(self, seed: int) -> list[Job]:
        """The run's operations in order, drawn from the pool by the seed."""
        picked = random.Random(seed).sample(range(self.pool_size), self.run_size)
        return [self.entry(index) for index in picked]

    def run(self, job: Job, span: Span):
        raise NotImplementedError

    def record(self, job: Job, output) -> list:
        """Golden values for one output, after the entry's input digest."""
        raise NotImplementedError

    def check(self, job: Job, output, golden: list) -> Checked:
        raise NotImplementedError

    def load_golden(self) -> list[list]:
        doc = json.loads((GOLDEN_DIR / f"{self.name}.json").read_text())
        if doc["workload"] != self.name or len(doc["entries"]) != self.pool_size:
            raise ValueError(f"golden file does not describe the {self.name} pool")
        return doc["entries"]


class SmallBatch(Workload):
    """Acceptance-batch instances through parse, solve (checks on) and write."""

    name = "small-batch"
    pool_size = 2000
    run_size = 1000
    POOL_SEED = 7

    def __init__(self) -> None:
        self._pool: list[model.Instance] | None = None
        self._written: dict[str, TextIO] = {}

    def _instances(self) -> list[model.Instance]:
        if self._pool is None:
            stream = files.random_instances(
                count=self.pool_size,
                agents=(2, 6),
                items=(2, 12),
                low=0,
                high=100,
                zero_probabilities=(Fraction(0), Fraction(1, 10)),
                seed=self.POOL_SEED,
            )
            self._pool = [instance for _, instance in stream]
        return self._pool

    def entry(self, index: int, mode: str = "efr") -> Job:
        instance = self._instances()[index]
        return Job(index, mode, instance, files.instance_to_json(instance))

    def entry_jobs(self, index: int) -> list[Job]:
        return [self.entry(index, "efr"), self.entry(index, "efx")]

    def jobs(self, seed: int) -> list[Job]:
        """Each picked instance twice, EFR and EFX alternating along the run."""
        picked = random.Random(seed).sample(range(self.pool_size), self.run_size)
        first = [self.entry(i, "efr" if k % 2 == 0 else "efx") for k, i in enumerate(picked)]
        second = [self.entry(i, "efx" if k % 2 == 0 else "efr") for k, i in enumerate(picked)]
        return first + second

    def run(self, job: Job, span: Span):
        with span("files.parse"):
            instance = files.instance_from_json(job.text)
        solver = getattr(algorithms, f"solve_{job.mode}")
        allocation, trace = solver(instance)
        with span("files.write"):
            allocation_text = files.allocation_to_json(allocation)
            trace_text = files.trace_to_lines(trace)
            self._write("allocation.json", allocation_text)
            self._write("trace.jsonl", trace_text)
        return allocation_text, trace_text

    def _write(self, name: str, text: str) -> None:
        """Overwrite one output file in place, handing the text to the OS.

        Each file is opened once per process. Creating or truncating it on
        every operation would free and reallocate its disk blocks each
        time, and on a disk mounted with online discard that costs a
        varying round trip to the storage, which is not fairalloc's work.
        """
        out = self._written.get(name)
        if out is None:
            out = self._written[name] = open(OUT_DIR / name, "w", encoding="utf-8")
        out.seek(0)
        out.write(text)
        out.truncate()
        out.flush()

    def _parsed(self, job: Job, output):
        allocation_text, trace_text = output
        allocation = files.allocation_from_json(allocation_text, job.instance)
        return allocation, files.trace_from_lines(trace_text)

    def record(self, job: Job, output) -> list:
        return [solve_digest(*self._parsed(job, output))]

    def check(self, job: Job, output, golden: list) -> Checked:
        expected = golden[1] if job.mode == "efr" else golden[2]
        allocation, trace = self._parsed(job, output)
        return check_solve(job.instance, job.mode, allocation, trace, expected)


class LargeSolve(Workload):
    """One seeded GenSpec(n, 3n, 0, 100, 1/10, i) instance per pool entry."""

    def __init__(self, name: str, mode: str, agents: int, check: bool, pool: int, run: int):
        self.name, self.mode, self.agents, self.check_on = name, mode, agents, check
        self.pool_size, self.run_size = pool, run

    def entry(self, index: int) -> Job:
        spec = files.GenSpec(self.agents, 3 * self.agents, 0, 100, Fraction(1, 10), index)
        return Job(index, self.mode, files.generate_instance(spec))

    def run(self, job: Job, span: Span):
        solver = getattr(algorithms, f"solve_{job.mode}")
        return solver(job.instance, check=self.check_on)

    def record(self, job: Job, output) -> list:
        return [solve_digest(*output)]

    def check(self, job: Job, output, golden: list) -> Checked:
        allocation, trace = output
        return check_solve(job.instance, job.mode, allocation, trace, golden[1])


class VerifyRational(Workload):
    """Exact EF, EF1, EFX and EFR factors of random complete allocations.

    Instances have 40 agents and 120 items valued p/q with q <= 12 (a tenth of
    them 0); every agent holds at least one item.
    """

    name = "verify-rational"
    pool_size = 256
    run_size = 64
    AGENTS, ITEMS = 40, 120

    def entry(self, index: int) -> Job:
        rng = random.Random(f"{self.name}/{index}")
        rows = []
        for _ in range(self.AGENTS):
            row: list[int | str] = []
            for _ in range(self.ITEMS):
                if rng.randrange(10) == 0:
                    row.append(0)
                else:
                    q = rng.randint(1, 12)
                    p = rng.randint(0, 100 * q)
                    row.append(p if q == 1 else f"{p}/{q}")
            rows.append(row)
        items = list(range(self.ITEMS))
        rng.shuffle(items)
        bundles: list[list[int]] = [[item] for item in items[: self.AGENTS]]
        for item in items[self.AGENTS:]:
            bundles[rng.randrange(self.AGENTS)].append(item)
        text = json.dumps({"n": self.AGENTS, "m": self.ITEMS, "valuations": rows})
        allocation_text = json.dumps({"bundles": [sorted(b) for b in bundles], "remaining": []})
        return Job(index, None, None, text, allocation_text)

    def run(self, job: Job, span: Span):
        with span("files.parse"):
            instance = files.instance_from_json(job.text)
            allocation = files.allocation_from_json(job.allocation_text, instance)
        return tuple(
            model.fairness_factor(instance, allocation, notion).factor for notion in NOTIONS
        )

    def record(self, job: Job, output) -> list:
        return [format_factor(f) for f in output]

    def check(self, job: Job, output, golden: list) -> Checked:
        factors = self.record(job, output)
        error = None
        if factors != golden[1:]:
            error = f"factors {factors} differ from the recorded {golden[1:]}"
        return Checked(digest(factors), error, Counter())


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        SmallBatch(),
        LargeSolve("efx-large", "efx", 40, check=False, pool=64, run=32),
        LargeSolve("efr-large", "efr", 100, check=True, pool=48, run=12),
        VerifyRational(),
    )
}

