"""Envy-ratio graphs: improving cycles, envy ranks, and cycle rotation.

The envy-ratio graph of an allocation is the complete weighted digraph with
w[i][j] = v_i(bundle_j) / v_i(bundle_i). Agents with zero own-bundle value
get w = inf toward bundles they value positively and w = 0 otherwise, which
keeps every downstream comparison total. Diagonal entries are not defined.
Bundle values are summed on `Instance.scaled_rows`, exact integers with one
positive factor per agent: every question asked here (a ratio, strict envy)
compares values of one agent with each other, so the factor cancels.

`product` multiplies weights exactly: a 0 weight absorbs everything (a path
or cycle through it can never beat the empty path), and inf dominates any
positive product. The one max-product relaxation behind improving cycles,
envy ranks and rank-attaining paths carries each positive weight as a pair
(k, x) meaning inf**k * x, so a finite w is (0, w) and inf is (1, 1). Along
a path the k parts add and the x parts multiply, and pairs compare
lexicographically. A cycle through an infinite edge is then improving like
any other, and a rank with k > 0 reads back as INF.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import CyclicEnvyGraph, ImprovingCycleExists, InvalidAllocation
from .model import (
    INF,
    Allocation,
    ExtendedRational,
    Instance,
    bundle_value,  # noqa: F401 -- perfbench/spans.py counts this binding
    check_allocation,
    is_infinite,
)

Cycle = tuple[int, ...]
OrderValue = tuple[int, Fraction]  # (k, x) stands for inf**k * x


@dataclass(frozen=True)
class EnvyRatioGraph:
    """Pairwise envy ratios for one (instance, allocation) pair."""

    agent_count: int
    weights: Mapping[tuple[int, int], ExtendedRational]

    def weight(self, i: int, j: int) -> ExtendedRational:
        return self.weights[(i, j)]

    def pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs of distinct agents, lexicographically."""
        n = self.agent_count
        return [(i, j) for i in range(n) for j in range(n) if i != j]


@dataclass(frozen=True)
class EnvyRanks:
    """Per-agent maximum path product; at least 1 via the empty path."""

    ranks: tuple[ExtendedRational, ...]

    def __getitem__(self, agent: int) -> ExtendedRational:
        return self.ranks[agent]

    def __len__(self) -> int:
        return len(self.ranks)


def product(weights: Iterable[ExtendedRational]) -> ExtendedRational:
    """Exact product of extended weights: 0 absorbs, then inf dominates."""
    ws = list(weights)
    if any(w == 0 for w in ws):
        return Fraction(0)
    if any(is_infinite(w) for w in ws):
        return INF
    result = Fraction(1)
    for w in ws:
        result *= w
    return result


def cycle_weights(graph: EnvyRatioGraph, cycle: Cycle) -> list[ExtendedRational]:
    return [
        graph.weight(cycle[t], cycle[(t + 1) % len(cycle)]) for t in range(len(cycle))
    ]


def _canonical(cycle: list[int]) -> Cycle:
    """Rotate a cycle so the smallest agent index comes first."""
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


def _value_matrix(instance: Instance, allocation: Allocation) -> list[list[int]]:
    """values[i][j] = v_i(bundle_j) on agent i's scaled row, exactly."""
    check_allocation(instance, allocation)
    return [
        [sum(row[g] for g in bundle) for bundle in allocation.bundles]
        for row in instance.scaled_rows
    ]


def build_envy_ratio_graph(instance: Instance, allocation: Allocation) -> EnvyRatioGraph:
    n = instance.agent_count
    values = _value_matrix(instance, allocation)
    weights: dict[tuple[int, int], ExtendedRational] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            own, other = values[i][i], values[i][j]
            if own == 0:
                weights[(i, j)] = INF if other > 0 else Fraction(0)
            else:
                weights[(i, j)] = Fraction(other, own)
    return EnvyRatioGraph(n, weights)


def _order_value(weight: ExtendedRational) -> OrderValue:
    """A positive weight as (k, x): a finite w is (0, w) and inf is (1, 1)."""
    return (1, Fraction(1)) if is_infinite(weight) else (0, weight)


def _relax_max_product(graph: EnvyRatioGraph) -> tuple[EnvyRanks, list[int | None]]:
    """Envy ranks plus the predecessor links of rank-attaining paths.

    Max-product Bellman-Ford over (k, x) pairs from the all-ones baseline,
    on the positive edges in `pairs()` order (a weight-0 edge can never beat
    the empty path): at most agent_count - 1 rounds, stopping after a round
    without change, then one probing round. An edge that still improves in
    the probe closes an improving cycle in the predecessor links, which is
    raised as ImprovingCycleExists. Otherwise the values are exactly the
    simple-path maxima (any walk reduces to a simple path of at least the
    same product once no cycle beats 1).
    """
    n = graph.agent_count
    edges = [
        (i, j, _order_value(w))
        for (i, j) in graph.pairs()
        if (w := graph.weight(i, j)) > 0
    ]
    values: list[OrderValue] = [(0, Fraction(1))] * n
    preds: list[int | None] = [None] * n
    for round_ in range(n):  # the last round is the probe
        changed = False
        for i, j, (k, x) in edges:
            candidate = (values[i][0] + k, values[i][1] * x)
            if candidate > values[j]:
                preds[j] = i
                if round_ == n - 1:
                    cycle = _cycle_from_predecessors(preds, j, n)
                    assert product(cycle_weights(graph, cycle)) > 1
                    raise ImprovingCycleExists(cycle)
                values[j] = candidate
                changed = True
        if not changed:
            break
    return EnvyRanks(tuple(INF if k else x for k, x in values)), preds


def _cycle_from_predecessors(preds: list[int | None], start: int, n: int) -> Cycle:
    """Walk predecessor links n steps to land on a cycle, then extract it."""
    vertex = start
    for _ in range(n):
        nxt = preds[vertex]
        assert nxt is not None, "predecessor chain broke during cycle recovery"
        vertex = nxt
    chain = [vertex]
    cursor = preds[vertex]
    while cursor != vertex:
        assert cursor is not None
        chain.append(cursor)
        cursor = preds[cursor]
    chain.reverse()  # predecessor links point against edge direction
    return _canonical(chain)


def _predecessor_path(preds: list[int | None], agent: int) -> list[int]:
    """The path the predecessor links lead along, ending at the agent."""
    path = [agent]
    while (cursor := preds[path[-1]]) is not None:
        path.append(cursor)
    return path[::-1]


def find_improving_cycle(graph: EnvyRatioGraph) -> Cycle | None:
    """Some directed cycle whose exact weight product exceeds 1, if any."""
    try:
        _relax_max_product(graph)
    except ImprovingCycleExists as found:
        return found.cycle
    return None


def envy_ranks(graph: EnvyRatioGraph) -> EnvyRanks:
    """Envy rank of every agent: max product over simple paths ending there.

    Raises ImprovingCycleExists, naming a cycle, on a graph that has one.
    """
    return _relax_max_product(graph)[0]


def max_product_path(graph: EnvyRatioGraph, agent: int) -> list[int]:
    """A simple path attaining the agent's envy rank, ending at the agent.

    Returns [agent] alone when the empty path is maximal. Raises
    ImprovingCycleExists on graphs where ranks are undefined.
    """
    return _predecessor_path(_relax_max_product(graph)[1], agent)


def topological_order(
    agent_count: int, edges: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """Order agents so every envy edge (i, j) puts i before j.

    Kahn's construction with a min-heap of ready agents, so the smallest
    available index is always emitted first.
    """
    edge_set = set(edges)
    successors: dict[int, list[int]] = {i: [] for i in range(agent_count)}
    in_degree = [0] * agent_count
    for i, j in sorted(edge_set):
        successors[i].append(j)
        in_degree[j] += 1
    ready = [i for i in range(agent_count) if in_degree[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        agent = heapq.heappop(ready)
        order.append(agent)
        for nxt in successors[agent]:
            in_degree[nxt] -= 1
            if in_degree[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != agent_count:
        raise CyclicEnvyGraph("strict envy graph contains a cycle")
    return tuple(order)


def strict_envy_edges(instance: Instance, allocation: Allocation) -> set[tuple[int, int]]:
    """Pairs (i, j) where i strictly prefers j's bundle to its own."""
    n = instance.agent_count
    values = _value_matrix(instance, allocation)
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and values[i][j] > values[i][i]
    }


def find_envy_cycle(instance: Instance, allocation: Allocation) -> Cycle | None:
    """Some directed cycle of strict envy, or None if the envy graph is acyclic.

    Sums the allocation's bundles on the integer rows of
    `Instance.scaled_rows` and searches that matrix with `envy_cycle_in`.
    """
    return envy_cycle_in(_value_matrix(instance, allocation))


def envy_cycle_in(values: Sequence[Sequence[Fraction | int]]) -> Cycle | None:
    """The strict-envy cycle search on a value matrix values[i][j] = v_i(B_j).

    Agent i envies j when values[i][j] > values[i][i]. A row is only ever
    compared within itself, so each row may be scaled by its own positive
    factor. Depth-first search starting from the smallest agent index,
    visiting neighbours in ascending order. The search keeps its own stack,
    so the length of an envy chain is not bounded by the recursion limit.
    """
    n = len(values)
    successors = [
        [j for j, value in enumerate(row) if j != i and value > row[i]]
        for i, row in enumerate(values)
    ]

    color = [0] * n  # 0 new, 1 open, 2 done
    for start in range(n):
        if color[start]:
            continue
        color[start] = 1
        path = [start]  # the open vertices, in visit order
        pending = [iter(successors[start])]  # each one's unvisited neighbours
        while path:
            for nxt in pending[-1]:
                if color[nxt] == 1:
                    return _canonical(path[path.index(nxt):])
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    pending.append(iter(successors[nxt]))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return None


def rotate_bundles(allocation: Allocation, cycle: Cycle) -> Allocation:
    """Each agent on the cycle receives the bundle of its successor."""
    if len(cycle) < 2:
        raise InvalidAllocation("a rotation cycle needs at least two agents")
    if len(set(cycle)) != len(cycle):
        raise InvalidAllocation("rotation cycle repeats an agent")
    for agent in cycle:
        if not 0 <= agent < allocation.agent_count:
            raise InvalidAllocation(f"agent {agent} out of range")
    new = list(allocation.bundles)
    for t, agent in enumerate(cycle):
        new[agent] = allocation.bundles[cycle[(t + 1) % len(cycle)]]
    return Allocation(tuple(new), allocation.item_count)
