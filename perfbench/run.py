"""fairalloc benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 perfbench/run.py --workload efx-large --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and measures the package under its `src/`.
One process, one thread: each operation starts when the previous one ends.
Inputs come from `--seed` and are built before timing starts; every output
is checked against the outputs recorded in `perfbench/golden/`.

`--trace 0` reports the end-to-end metrics. `--trace 1` runs each operation
twice, untraced and traced, and reports the per-layer metrics.
`--workload all` runs every workload in turn. The last line of standard
output is one JSON object; the lines before it are the same figures for
people, plus a record of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import checkout

SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
STRETCH_S = 1.0  # operation time that closes one stretch of a run
SLOW_PERCENTILE = 99  # which stretch, from the fastest, sets ops_per_s and p50_ms


def calibrate() -> float:
    """Median milliseconds of a fixed pure-Python loop; tracks host speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def run_record(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": checkout.git_revision(),
    }


class Run:
    """The operations of one measured sequence over a list of jobs, in turn.

    Operation `k` runs job `k % len(jobs)`. A job's first output is kept and
    every later output of the same job is compared with it as it arrives,
    outside the operation's timing, then dropped; so the memory a run holds
    is bounded by its jobs, not by how many operations it finishes. Two runs
    over the same jobs may share `first`, so that each is compared with the
    other's outputs too.
    """

    def __init__(self, workload, jobs, first: dict | None = None) -> None:
        self.workload, self.jobs = workload, jobs
        self.first = {} if first is None else first  # job position -> first output
        self.latencies = array("d")
        self.errors: dict[int, str] = {}  # operation -> what failed

    def step(self, span) -> None:
        k = len(self.latencies)
        position = k % len(self.jobs)
        began = time.perf_counter()
        try:
            output, error = self.workload.run(self.jobs[position], span), None
        except Exception:  # any raised error is a failed operation
            output, error = None, traceback.format_exc(limit=3)
        ended = time.perf_counter()
        self.latencies.append(ended - began)
        if error is not None:
            self.errors[k] = error
        elif position not in self.first:
            self.first[position] = output
        elif output != self.first[position]:
            self.errors[k] = "output differs from an earlier run of the same input"


def wall_clock(seconds: float) -> Iterator[None]:
    """Yields until `seconds` have passed; the turns of a timed run."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        yield


def measure(workload, jobs, turns: Iterable) -> Run:
    """Closed loop: one operation per turn, each after the previous one ends."""
    run = Run(workload, jobs)
    for _ in turns:
        run.step(contextlib.nullcontext)
    return run


def measure_paired(workload, jobs, turns: Iterable, tracer) -> tuple[Run, Run]:
    """Each turn runs one job untraced and traced back to back.

    Which of the two goes first alternates. Pairing keeps host-speed drift
    out of the traced/untraced ratio.
    """
    plain = Run(workload, jobs)
    traced_run = Run(workload, jobs, plain.first)
    for k, _ in enumerate(turns):
        for traced_turn in (False, True) if k % 2 == 0 else (True, False):
            if traced_turn:
                tracer.op = k
                with tracer.installed():
                    traced_run.step(tracer.span)
            else:
                plain.step(contextlib.nullcontext)
    return plain, traced_run


@dataclass
class Verdict:
    """A run's outputs, checked: what failed, trace events and one digest."""

    failed: list[str]
    events: Counter
    digest: str


def check_run(run: Run, golden, checked: dict) -> Verdict:
    """Check each job's first output against the record, once per job.

    `checked` maps a job position to its Checked; runs that share first
    outputs share it too. A later output was already compared with the
    first, so it takes the first's verdict.
    """
    from workloads import Checked, input_digest

    failed, events, digest = [], Counter(), hashlib.sha256()
    for k in range(len(run.latencies)):
        position = k % len(run.jobs)
        if k in run.errors:
            failed.append(run.errors[k])
            digest.update(b"-\n")
            continue
        if position not in checked:
            job = run.jobs[position]
            entry = golden[job.index]
            if input_digest(job) != entry[0]:
                message = f"input of pool entry {job.index} differs from the recorded input"
                checked[position] = Checked("", message, Counter())
            else:
                try:
                    checked[position] = run.workload.check(job, run.first[position], entry)
                except Exception:  # a crashing check is a failed output
                    checked[position] = Checked("", traceback.format_exc(limit=3), Counter())
        verdict = checked[position]
        if verdict.error:
            failed.append(verdict.error)
        events.update(verdict.events)
        digest.update(verdict.digest.encode() + b"\n")
    return Verdict(failed, events, digest.hexdigest()[:16])


def setup_seconds(args: argparse.Namespace) -> list[float]:
    """Fresh-interpreter import + input build + one operation, timed outside."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = subprocess.run(command, cwd=checkout.ROOT, stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{probe.stderr}")
    return times


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(percentile, seconds) at the highest percentile with >= 10 samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, ordered[math.ceil(p * n / 100) - 1]  # nearest rank
    return None


def stretches(latencies) -> list[list[float]]:
    """The run's operations cut, in order, into stretches of STRETCH_S seconds.

    A stretch closes at the first operation that brings its operation time
    to STRETCH_S; an operation longer than that is a stretch of its own. A
    last, shorter stretch is dropped unless it is the only one.
    """
    found, current, total = [], [], 0.0
    for seconds in latencies:
        current.append(seconds)
        total += seconds
        if total >= STRETCH_S:
            found.append(current)
            current, total = [], 0.0
    return found or [current]


def percentile(values, p: int) -> float:
    """The `p`-th percentile of `values`, interpolated between the two nearest."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def sustained_speed(latencies) -> tuple[float, float]:
    """(operations per second, median latency in seconds) of the run's slow stretches.

    Host speed on a shared machine switches, for seconds to minutes at a
    time, between a slow state and spells up to twice as fast. How much of
    a run the fast spells take differs from run to run, so a mean over the
    run moves with it. The slow state recurs in nearly every run. Both
    figures are therefore read at the SLOW_PERCENTILE-th
    percentile of the stretches, counted from the fastest, which at 99 is
    close to the slowest stretch: the throughput the program sustains, and
    the median latency it keeps, while the host is at its slowest.
    """
    found = stretches(latencies)
    rates = [len(s) / sum(s) for s in found]
    medians = [statistics.median(s) for s in found]
    return percentile(rates, 100 - SLOW_PERCENTILE), percentile(medians, SLOW_PERCENTILE)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, jobs, golden) -> tuple[dict, int, list[str], list[str]]:
    """The untraced run's metrics, operation count, failures and report lines."""
    setup = setup_seconds(args)
    workload.run(jobs[0], contextlib.nullcontext)  # warm-up, untimed
    run = measure(workload, jobs, wall_clock(args.seconds))
    failed = check_run(run, golden, {}).failed
    n = len(run.latencies)
    ops_per_s, p50 = sustained_speed(run.latencies)
    metrics = {
        "ops_per_s": metric(ops_per_s, "1/s"),
        "p50_ms": metric(p50 * 1000, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [f"  {name:<14} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    found = tail(run.latencies)
    if found is None:
        lines.append(f"  {'tail_ms':<14} not defined: {n} operations, fewer than ten beyond p90")
    else:
        p, seconds = found
        lines.append(f"  {'tail_ms':<14} {seconds * 1000:.6g} ms (p{p:g}, {n} operations)")
    lines.append(f"  {'fail_rate':<14} {len(failed) / n:.6g} ({len(failed)}/{n})")
    rates = [len(s) / sum(s) for s in stretches(run.latencies)]
    lines.append(f"  {'stretches':<14} {len(rates)}, ops/s in run order: "
                 + " ".join(f"{r:.4g}" for r in rates))
    lines.append(f"  {'setup_s runs':<14} " + " ".join(f"{s:.4f}" for s in setup))
    return metrics, n, failed, lines


def layer_metrics(tracer, events: Counter, ops: int) -> dict:
    """Per-operation layer figures from the traced pass and its trace events."""
    inclusive, own = tracer.totals()
    calls, hits = tracer.calls, tracer.hits

    def per_op_ms(totals, name):
        return None if name in tracer.absent else totals[name] * 1000 / ops

    def per_op(count, name):
        return None if name in tracer.absent else count / ops

    cycle_calls = calls["envy.find_envy_cycle"]
    table = {
        "matching.nsw_matching.ms": (per_op_ms(inclusive, "matching.nsw_matching"), "ms/op"),
        "matching.nsw_matching.self_ms": (per_op_ms(own, "matching.nsw_matching"), "ms/op"),
        "matching.warm_start_ms": (per_op_ms(inclusive, "matching.warm_start"), "ms/op"),
        "matching.certificate_ms": (per_op_ms(inclusive, "matching.certificate"), "ms/op"),
        "matching.repair_moves": (
            per_op(calls["matching.lexicographic_objective"] / 2, "matching.lexicographic_objective"),
            "count/op",
        ),
        "envy.find_envy_cycle.ms": (per_op_ms(inclusive, "envy.find_envy_cycle"), "ms/op"),
        "envy.find_envy_cycle.calls": (per_op(cycle_calls, "envy.find_envy_cycle"), "count/op"),
        "envy.cycle_hit_ratio": (
            None if "envy.find_envy_cycle" in tracer.absent
            else hits["envy.find_envy_cycle"] / cycle_calls if cycle_calls else 0.0,
            "ratio",
        ),
        "envy.strict_envy_edges.ms": (per_op_ms(inclusive, "envy.strict_envy_edges"), "ms/op"),
        "envy.order_ms": (per_op_ms(inclusive, "envy.order"), "ms/op"),
        "algorithms.refine_step2.ms": (per_op_ms(inclusive, "algorithms.refine_step2"), "ms/op"),
        "algorithms.envy_cycle_elimination.ms": (
            per_op_ms(inclusive, "algorithms.envy_cycle_elimination"), "ms/op"),
        "algorithms.envy_cycle_elimination.self_ms": (
            per_op_ms(own, "algorithms.envy_cycle_elimination"), "ms/op"),
        "algorithms.solve.ms": (per_op_ms(inclusive, "algorithms.solve"), "ms/op"),
        "algorithms.solve.self_ms": (per_op_ms(own, "algorithms.solve"), "ms/op"),
        "algorithms.refine_picks": (events["Pick"] / ops, "count/op"),
        "algorithms.rotations": (events["CycleRotated"] / ops, "count/op"),
        "algorithms.source_picks": (events["SourcePick"] / ops, "count/op"),
        "algorithms.invariant_checks": (events["InvariantChecked"] / ops, "count/op"),
        "model.fairness_factor.ms": (per_op_ms(inclusive, "model.fairness_factor"), "ms/op"),
        "model.fairness_factor.calls": (
            per_op(calls["model.fairness_factor"], "model.fairness_factor"), "count/op"),
        "model.bundle_value.calls": (per_op(calls["model.bundle_value"], "model.bundle_value"), "count/op"),
        "files.parse_ms": (per_op_ms(inclusive, "files.parse"), "ms/op"),
        "files.write_ms": (per_op_ms(inclusive, "files.write"), "ms/op"),
    }
    return {name: metric(value, unit) for name, (value, unit) in table.items()}


@dataclass
class LayerRun:
    """A paired run's layer metrics, failures and both output digests."""

    metrics: dict
    attempted: int
    failed: list[str]
    plain_digest: str
    traced_digest: str
    tracer: object


def layer_run(workload, jobs, golden, turns: Iterable) -> LayerRun:
    """Paired untraced and traced operations, one pair per turn, checked."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced_run = measure_paired(workload, jobs, turns, tracer)
    checked: dict = {}
    plain_verdict = check_run(plain, golden, checked)
    traced_verdict = check_run(traced_run, golden, checked)
    failed = plain_verdict.failed + traced_verdict.failed
    if plain_verdict.digest != traced_verdict.digest:
        failed.append(f"traced output digest {traced_verdict.digest} "
                      f"differs from untraced {plain_verdict.digest}")
    ops = len(traced_run.latencies)
    metrics = layer_metrics(tracer, traced_verdict.events, ops)
    overhead = sum(traced_run.latencies) / sum(plain.latencies)
    metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    return LayerRun(metrics, len(plain.latencies) + ops, failed,
                    plain_verdict.digest, traced_verdict.digest, tracer)


def traced(args, workload, jobs, golden) -> tuple[dict, int, list[str], list[str]]:
    """Paired untraced and traced runs of the same jobs; the layer metrics."""
    workload.run(jobs[0], contextlib.nullcontext)  # warm-up, untimed
    result = layer_run(workload, jobs, golden, wall_clock(args.seconds))
    spans_path = checkout.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result.tracer.write(spans_path)
    lines = [
        f"  {name:<42} " + ("absent" if m["value"] is None else f"{m['value']:.6g} {m['unit']}")
        for name, m in result.metrics.items()
    ]
    lines.append(f"  {result.attempted // 2} operations each untraced and traced; output digest "
                 f"untraced {result.plain_digest} traced {result.traced_digest}")
    if result.tracer.unwrapped:
        lines.append("  names not found: " + ", ".join(result.tracer.unwrapped))
    lines.append(f"  spans written to {spans_path.relative_to(checkout.ROOT)}")
    return result.metrics, result.attempted, result.failed, lines


def setup_probe(args: argparse.Namespace) -> int:
    """What a user pays before the first result: import, inputs, one operation."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.run(workload.jobs(args.seed)[0], contextlib.nullcontext)
    return 0


def run_one(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    golden = workload.load_golden()
    record = run_record(args)
    calib_before = calibrate()
    jobs = workload.jobs(args.seed)
    measure_run = traced if args.trace else end_to_end
    metrics, attempted, failed, lines = measure_run(args, workload, jobs, golden)
    calib_after = calibrate()
    record["host.calib_ms"] = {"before": calib_before, "after": calib_after}
    if args.trace:
        metrics["host.calib_ms"] = metric(statistics.median([calib_before, calib_after]), "ms")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines:
        print(line)
    print(f"  host.calib_ms  before {calib_before:.3f} after {calib_after:.3f}")
    for message in failed[:5]:
        print("  FAILED: " + message.strip().replace("\n", "\n    "))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": min(len(failed), attempted),
        "metrics": metrics,
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process; one combined result."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, cwd=checkout.ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(child.stdout, end="")
            status = child.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    if status == 0:
        print(json.dumps(combined))
    return status


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["small-batch", "efx-large", "efr-large", "verify-rational", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        checkout.require_source()
    except checkout.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    checkout.OUT_DIR.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
