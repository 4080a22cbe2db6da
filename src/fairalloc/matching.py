"""One item per agent, chosen to maximize the product of utilities.

The matching runs in two phases. A floating-point warm start solves
maximum-weight bipartite matching on log values (zero values get a sentinel
weight low enough that assignments are ranked first by how many agents end
up with a positive value). An exact repair loop then fixes anything the
floats got wrong. Every iteration is one certify-or-move step: a single
max-product relaxation of the envy-ratio graph either certifies the two
properties every later step relies on,

  * the envy-ratio graph admits no improving cycle, and
  * rank_i * v_i(b) <= v_i(own bundle) for every agent i and remaining b,

and returns the envy ranks, or it yields the repair move: a rotation of the
matched items along the improving cycle it found, or, for the smallest
(agent, pool item) breaking the second clause, a path move along the
agent's maximum-product path that pulls the item in. `verify_nsw_certificate`
is the same step run once on a given matching.

Each repair move strictly increases the lexicographic objective (number of
agents with positive value, then the product of those values), so the loop
terminates. The final allocation maximizes that objective whenever the
floats ranked candidate matchings correctly; the exact certificate holds
unconditionally, which is all the downstream guarantees consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linear_sum_assignment

from .envy import (
    EnvyRanks,
    _predecessor_path,
    _relax_max_product,
    build_envy_ratio_graph,
    product,
    rotate_bundles,
)
from .errors import ImprovingCycleExists, InstanceTooSmall, InvalidAllocation
from .model import Allocation, Instance, bundle_value, check_allocation

Objective = tuple[int, Fraction]


@dataclass(frozen=True)
class NswMatchingResult:
    allocation: Allocation
    ranks: EnvyRanks


def lexicographic_objective(instance: Instance, allocation: Allocation) -> Objective:
    """(number of agents with positive own value, product of those values)."""
    count = 0
    prod = Fraction(1)
    for agent, bundle in enumerate(allocation.bundles):
        value = bundle_value(instance, agent, bundle)
        if value > 0:
            count += 1
            prod *= value
    return count, prod


def _warm_start(instance: Instance) -> Allocation:
    """Float log-weight matching; zero values carry a count-dominating sentinel."""
    n, m = instance.agent_count, instance.item_count
    logs = [
        [math.log(v.numerator) - math.log(v.denominator) if v > 0 else None for v in row]
        for row in instance.valuations
    ]
    finite = [x for row in logs for x in row if x is not None]
    if finite:
        lo, hi = min(finite), max(finite)
        sentinel = lo - (n * (hi - lo) + 1.0)
    else:
        sentinel = -1.0
    weights = np.array(
        [[x if x is not None else sentinel for x in row] for row in logs], dtype=float
    )
    rows, cols = linear_sum_assignment(weights, maximize=True)
    bundles: list[frozenset[int]] = [frozenset()] * n
    for agent, item in zip(rows, cols):
        bundles[agent] = frozenset({int(item)})
    return Allocation(tuple(bundles), m)


def _apply_path_move(
    allocation: Allocation, path: list[int], item: int
) -> Allocation:
    """Shift bundles backwards along the path; its endpoint takes the item.

    Every agent on the path receives its successor's bundle, the endpoint
    receives {item} from the pool, and the first agent's old item returns
    to the pool. A single-vertex path is a plain swap against the pool.
    """
    new = list(allocation.bundles)
    for t in range(len(path) - 1):
        new[path[t]] = allocation.bundles[path[t + 1]]
    new[path[-1]] = frozenset({item})
    return Allocation(tuple(new), allocation.item_count)


def _find_pool_violation(
    instance: Instance, allocation: Allocation, ranks: EnvyRanks
) -> tuple[int, int] | None:
    """Smallest (agent, remaining item) with rank * value > own value, both
    read from the agent's row of `Instance.scaled_rows`.

    An agent's items are scanned only when its best pool value breaks the
    bound: rank * value grows with value, so otherwise none of them does.
    """
    pool = sorted(allocation.remaining)
    for agent, row in enumerate(instance.scaled_rows):
        own = sum(row[g] for g in allocation.bundles[agent])
        best = max((row[item] for item in pool), default=0)
        if product([ranks[agent], best]) <= own:
            continue
        for item in pool:
            if row[item] > 0 and product([ranks[agent], row[item]]) > own:
                return agent, item
    return None


def _certify_or_move(
    instance: Instance, allocation: Allocation
) -> EnvyRanks | Allocation:
    """The certified envy ranks, or the repair loop's next allocation."""
    graph = build_envy_ratio_graph(instance, allocation)
    try:
        ranks, preds = _relax_max_product(graph)
    except ImprovingCycleExists as found:
        return rotate_bundles(allocation, found.cycle)
    violation = _find_pool_violation(instance, allocation, ranks)
    if violation is None:
        return ranks
    agent, item = violation
    return _apply_path_move(allocation, _predecessor_path(preds, agent), item)


def nsw_matching(instance: Instance) -> NswMatchingResult:
    """Certified one-item-per-agent allocation (see module docstring)."""
    if instance.item_count < instance.agent_count:
        raise InstanceTooSmall(
            f"need at least {instance.agent_count} items, got {instance.item_count}"
        )
    allocation = _warm_start(instance)
    while True:
        step = _certify_or_move(instance, allocation)
        if isinstance(step, EnvyRanks):
            return NswMatchingResult(allocation, step)
        before = lexicographic_objective(instance, allocation)
        after = lexicographic_objective(instance, step)
        assert after > before, "a repair move must improve the objective"
        allocation = step


def verify_nsw_certificate(instance: Instance, allocation: Allocation) -> bool:
    """Exactly re-check both certificate clauses on a one-item matching."""
    check_allocation(instance, allocation)
    if any(len(bundle) != 1 for bundle in allocation.bundles):
        raise InvalidAllocation("certificate verification needs one item per agent")
    return isinstance(_certify_or_move(instance, allocation), EnvyRanks)
