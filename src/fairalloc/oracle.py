"""Brute-force reference implementations for desk-scale instances.

Everything here enumerates exhaustively and independently: these functions
share only the data types with the main pipeline, never its algorithms, so
they can serve as ground truth in equivalence tests. They refuse inputs
beyond their configured limits instead of silently taking forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .envy import Cycle, EnvyRatioGraph
from .errors import LimitExceeded
from .model import (
    INF,
    Allocation,
    ExtendedRational,
    FairnessNotion,
    Instance,
    is_infinite,
)


@dataclass(frozen=True)
class OracleLimits:
    max_agents: int = 7
    max_items: int = 8
    max_allocations: int = 2_000_000


DEFAULT_LIMITS = OracleLimits()

Objective = tuple[int, Fraction]  # (count of positive own values, their product)


def _check_graph_limits(graph: EnvyRatioGraph, limits: OracleLimits) -> None:
    if graph.agent_count > limits.max_agents:
        raise LimitExceeded(
            f"{graph.agent_count} agents exceed the oracle limit of {limits.max_agents}"
        )


def _check_instance_limits(instance: Instance, limits: OracleLimits) -> None:
    if instance.agent_count > limits.max_agents:
        raise LimitExceeded(
            f"{instance.agent_count} agents exceed the oracle limit of {limits.max_agents}"
        )
    if instance.item_count > limits.max_items:
        raise LimitExceeded(
            f"{instance.item_count} items exceed the oracle limit of {limits.max_items}"
        )


def _path_product(weights: list[ExtendedRational]) -> ExtendedRational:
    if any(w == 0 for w in weights):
        return Fraction(0)
    if any(is_infinite(w) for w in weights):
        return INF
    result = Fraction(1)
    for w in weights:
        result *= w
    return result


def oracle_nsw_matching(
    instance: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[Objective, tuple[int, ...]]:
    """Best one-item-per-agent assignment by exhaustive enumeration.

    The objective is lexicographic: first the number of agents with a
    positive own value, then the product over those positive values (1 for
    the empty set). Returns the objective and the lexicographically
    smallest assignment tuple attaining it.
    """
    _check_instance_limits(instance, limits)
    n, m = instance.agent_count, instance.item_count
    if m < n:
        raise ValueError("no injective assignment exists with fewer items than agents")
    best: Objective | None = None
    witness: tuple[int, ...] | None = None
    for assignment in itertools.permutations(range(m), n):
        count = 0
        prod = Fraction(1)
        for agent, item in enumerate(assignment):
            v = instance.value(agent, item)
            if v > 0:
                count += 1
                prod *= v
        objective = (count, prod)
        if best is None or objective > best:
            best = objective
            witness = assignment
    assert best is not None and witness is not None
    return best, witness


def _simple_cycles(n: int) -> "itertools.chain[tuple[int, ...]]":
    """All directed simple cycles on n labelled vertices, each exactly once.

    A cycle is emitted rooted at its smallest vertex, so enumerating
    (root, permutation of larger vertices) covers each once.
    """

    def generate() -> "itertools.chain":
        for root in range(n):
            rest = [v for v in range(root + 1, n)]
            for size in range(1, len(rest) + 1):
                for tail in itertools.permutations(rest, size):
                    yield (root,) + tail

    return generate()


def oracle_improving_cycle(
    graph: EnvyRatioGraph, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[Cycle, ExtendedRational] | None:
    """Maximum-product simple cycle if its product exceeds 1, else None."""
    _check_graph_limits(graph, limits)
    best_cycle: Cycle | None = None
    best_product: ExtendedRational = Fraction(0)
    for cycle in _simple_cycles(graph.agent_count):
        weights = [
            graph.weight(cycle[t], cycle[(t + 1) % len(cycle)])
            for t in range(len(cycle))
        ]
        prod = _path_product(weights)
        if prod > best_product:
            best_product = prod
            best_cycle = cycle
    if best_cycle is None or not best_product > 1:
        return None
    return best_cycle, best_product


def oracle_envy_rank(
    graph: EnvyRatioGraph, agent: int, limits: OracleLimits = DEFAULT_LIMITS
) -> ExtendedRational:
    """Max product over all simple paths ending at the agent, at least 1.

    Exhaustive path enumeration; well-defined on any graph, including ones
    that still admit improving cycles. An agent outside range(n) raises
    ValueError.
    """
    _check_graph_limits(graph, limits)
    n = graph.agent_count
    if not 0 <= agent < n:
        raise ValueError(f"agent {agent} is outside range({n})")
    best: ExtendedRational = Fraction(1)
    others = [v for v in range(n) if v != agent]
    for size in range(1, n):
        for prefix in itertools.permutations(others, size):
            path = prefix + (agent,)
            weights = [graph.weight(path[t], path[t + 1]) for t in range(size)]
            prod = _path_product(weights)
            if prod > best:
                best = prod
    return best


def oracle_removal_expectation(
    instance: Instance, observer: int, bundle: frozenset[int] | set[int]
) -> Fraction:
    """Average bundle value over all explicit single-item removals."""
    items = sorted(bundle)
    if not items:
        raise ValueError("removal expectation over an empty bundle is undefined")
    total = Fraction(0)
    for removed in items:
        total += sum(
            (instance.value(observer, b) for b in items if b != removed), Fraction(0)
        )
    return total / len(items)


def _notion_factor(
    instance: Instance, allocation: Allocation, notion: FairnessNotion
) -> ExtendedRational:
    """First-principles factor: every removal is enumerated explicitly."""
    n = instance.agent_count
    own = [
        sum((instance.value(i, b) for b in allocation.bundles[i]), Fraction(0))
        for i in range(n)
    ]
    best: ExtendedRational | None = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rival = sorted(allocation.bundles[j])
            if not rival:
                continue
            post_removal = [
                sum((instance.value(i, b) for b in rival if b != removed), Fraction(0))
                for removed in rival
            ]
            if notion is FairnessNotion.EF:
                denom = sum((instance.value(i, b) for b in rival), Fraction(0))
            elif notion is FairnessNotion.EF1:
                denom = min(post_removal)
            elif notion is FairnessNotion.EFX:
                denom = max(post_removal)
            else:
                denom = sum(post_removal, Fraction(0)) / len(post_removal)
            if denom == 0:
                continue
            ratio = own[i] / denom
            if best is None or ratio < best:
                best = ratio
    return INF if best is None else best


def oracle_best_factor(
    instance: Instance, notion: FairnessNotion, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[ExtendedRational, Allocation]:
    """Best achievable factor over every complete allocation, with a witness.

    The witness is the first maximizing allocation in enumeration order
    (items assigned agent by agent, lexicographically).
    """
    n, m = instance.agent_count, instance.item_count
    if n**m > limits.max_allocations:
        raise LimitExceeded(
            f"{n}^{m} complete allocations exceed the oracle limit of "
            f"{limits.max_allocations}"
        )
    best: ExtendedRational | None = None
    witness: Allocation | None = None
    for owners in itertools.product(range(n), repeat=m):
        bundles: list[set[int]] = [set() for _ in range(n)]
        for item, owner in enumerate(owners):
            bundles[owner].add(item)
        allocation = Allocation.of(bundles, m)
        factor = _notion_factor(instance, allocation, notion)
        if best is None or factor > best:
            best = factor
            witness = allocation
    assert best is not None and witness is not None
    return best, witness
