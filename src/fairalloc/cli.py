"""Command-line interface.

Exit codes are uniform across subcommands: 0 for success (and for met
thresholds), 1 when a guarantee or threshold check fails, 2 for usage and
input errors. Every --input/--output/--allocation path also accepts "-"
for standard input/output.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algorithms import MODES, solve_efr, solve_efx
from .envy import build_envy_ratio_graph
from .errors import FairAllocError, InternalGuaranteeViolated
from .files import (
    GenSpec,
    allocation_from_json,
    allocation_to_json,
    generate_instance,
    instance_from_json,
    instance_to_json,
    random_instances,
    trace_to_lines,
)
from .model import (
    FairnessNotion,
    Threshold,
    fairness_factor,
    factor_at_least,
    is_infinite,
    meets_threshold,
)
from .oracle import (
    DEFAULT_LIMITS,
    OracleLimits,
    oracle_best_factor,
    oracle_envy_rank,
    oracle_improving_cycle,
    oracle_nsw_matching,
)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _format_factor(factor) -> str:
    if is_infinite(factor):
        return "unbounded"
    return f"{factor} (~{float(factor):.6f})"


def _parse_threshold(raw: str) -> Threshold | Fraction:
    try:
        return Threshold(raw)
    except ValueError:
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise FairAllocError(f"bad threshold {raw!r}: {exc}") from exc


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = instance_from_json(_read(args.input))
    solver = solve_efr if args.algorithm == "efr" else solve_efx
    allocation, trace = solver(instance, check=args.check == "on")
    _write(args.output, allocation_to_json(allocation))
    if args.trace is not None:
        _write(args.trace, trace_to_lines(trace))
    notion = FairnessNotion(args.algorithm)
    report = fairness_factor(instance, allocation, notion)
    print(f"{notion.value} factor: {_format_factor(report.factor)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = instance_from_json(_read(args.input))
    allocation = allocation_from_json(_read(args.allocation), instance)
    notion = FairnessNotion(args.notion)
    report = fairness_factor(instance, allocation, notion)
    threshold = _parse_threshold(args.threshold)
    print(f"{notion.value} factor: {_format_factor(report.factor)}")
    if report.witness is not None:
        print(f"witness: envier {report.witness[0]}, envied {report.witness[1]}")
    met = meets_threshold(report, threshold)
    print(f"threshold {args.threshold}: {'met' if met else 'not met'}")
    return 0 if met else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = GenSpec(
            agents=args.agents,
            items=args.items,
            low=args.low,
            high=args.high,
            zero_probability=Fraction(args.zero_probability),
            seed=args.seed,
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise FairAllocError(str(exc)) from exc
    if args.solver_bound and spec.items < spec.agents:
        raise FairAllocError(
            f"solver-bound generation needs items >= agents, got {spec.items} < {spec.agents}"
        )
    instance = generate_instance(spec)
    _write(args.output, instance_to_json(instance, generator=spec))
    return 0


def _parse_range(raw: str) -> tuple[int, int]:
    try:
        lo, hi = raw.split(":")
        result = int(lo), int(hi)
    except ValueError as exc:
        raise FairAllocError(f"bad range {raw!r}, expected LO:HI") from exc
    if result[0] < 1 or result[0] > result[1]:
        raise FairAllocError(f"bad range {raw!r}")
    return result


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise FairAllocError("count must be non-negative")
    notion = FairnessNotion(args.algorithm)
    solver = solve_efr if args.algorithm == "efr" else solve_efx
    threshold = MODES[notion].threshold
    instances = random_instances(
        count=args.count,
        agents=_parse_range(args.agents_range),
        items=_parse_range(args.items_range),
        low=args.low,
        high=args.high,
        zero_probabilities=(Fraction(0), Fraction(1, 10)),
        seed=args.seed,
    )
    factors = []
    unbounded = 0
    violations = 0
    for index, (_, instance) in enumerate(instances):
        try:
            allocation, _ = solver(instance, check=args.check == "on")
        except InternalGuaranteeViolated:
            violations += 1
            continue
        report = fairness_factor(instance, allocation, notion)
        if is_infinite(report.factor):
            unbounded += 1
        else:
            if not factor_at_least(report.factor, threshold):
                violations += 1
            factors.append(report.factor)
    print(f"instances: {args.count}")
    print(f"unbounded: {unbounded}")
    print(f"violations: {violations}")
    if factors:
        print(f"min factor: {_format_factor(min(factors))}")
        print(f"mean factor: ~{float(sum(factors) / len(factors)):.6f}")
        print(f"max factor: {_format_factor(max(factors))}")
    return 1 if violations else 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    limits = OracleLimits(
        max_agents=args.max_agents,
        max_items=args.max_items,
        max_allocations=args.max_allocations,
    )
    instance = instance_from_json(_read(args.input))

    if args.check in ("improving-cycle", "envy-rank"):
        if args.allocation is None:
            raise FairAllocError(f"--check {args.check} needs --allocation")
        allocation = allocation_from_json(_read(args.allocation), instance)
        graph = build_envy_ratio_graph(instance, allocation)
        if args.check == "improving-cycle":
            found = oracle_improving_cycle(graph, limits)
            if found is None:
                print("no improving cycle")
            else:
                cycle, prod = found
                arrows = " -> ".join(str(a) for a in cycle + (cycle[0],))
                print(f"cycle: {arrows}")
                print(f"product: {_format_factor(prod)}")
        else:
            for agent in range(instance.agent_count):
                rank = oracle_envy_rank(graph, agent, limits)
                print(f"agent {agent}: {_format_factor(rank)}")
        return 0

    if args.check == "nsw-matching":
        (count, prod), assignment = oracle_nsw_matching(instance, limits)
        print(f"positive agents: {count}")
        print(f"product: {_format_factor(prod)}")
        print(f"assignment: {list(assignment)}")
        return 0

    notion = FairnessNotion.EFR if args.check == "best-efr" else FairnessNotion.EFX
    factor, witness = oracle_best_factor(instance, notion, limits)
    print(f"best {notion.value} factor: {_format_factor(factor)}")
    print(f"bundles: {[sorted(b) for b in witness.bundles]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairalloc",
        description="Fair division of indivisible goods with exact guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run an allocation algorithm on an instance file")
    p.add_argument("--algorithm", choices=["efr", "efx"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--trace", default=None, help="write the run trace (JSON lines)")
    p.add_argument("--check", choices=["on", "off"], default="on",
                   help="mid-run invariant checks (default on)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="compute an allocation's exact fairness factor")
    p.add_argument("--input", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--notion", choices=[n.value for n in FairnessNotion], required=True)
    p.add_argument("--threshold", default="1",
                   help='decimal, p/q, "sqrt3-1", or "phi-1" (default 1)')
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--items", type=int, required=True)
    p.add_argument("--low", type=int, default=0)
    p.add_argument("--high", type=int, default=100)
    p.add_argument("--zero-probability", default="0")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--solver-bound", action="store_true",
                   help="reject specs with fewer items than agents")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="run an algorithm over seeded random instances")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--agents-range", default="2:6")
    p.add_argument("--items-range", default="2:12")
    p.add_argument("--low", type=int, default=0)
    p.add_argument("--high", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algorithm", choices=["efr", "efx"], required=True)
    p.add_argument("--check", choices=["on", "off"], default="on")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="brute-force reference checks (desk scale)")
    p.add_argument("--input", required=True)
    p.add_argument("--check", required=True, choices=[
        "nsw-matching", "best-efr", "best-efx", "improving-cycle", "envy-rank",
    ])
    p.add_argument("--allocation", default=None)
    p.add_argument("--max-agents", type=int, default=DEFAULT_LIMITS.max_agents)
    p.add_argument("--max-items", type=int, default=DEFAULT_LIMITS.max_items)
    p.add_argument("--max-allocations", type=int, default=DEFAULT_LIMITS.max_allocations)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalGuaranteeViolated as exc:
        print(f"error: InternalGuaranteeViolated: {exc}", file=sys.stderr)
        return 1
    except FairAllocError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
