"""Envy-ratio graphs: improving cycles, envy ranks, and cycle rotation.

The envy-ratio graph of an allocation is the complete weighted digraph with
w[i][j] = v_i(bundle_j) / v_i(bundle_i). Agents with zero own-bundle value
get w = inf toward bundles they value positively and w = 0 otherwise, which
keeps every downstream comparison total. Diagonal entries are not defined.

Weight products are computed exactly: a 0 weight absorbs everything (a path
or cycle through it can never beat the empty path), and inf dominates any
positive product.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import CyclicEnvyGraph, ImprovingCycleExists, InvalidAllocation
from .model import (
    INF,
    Allocation,
    ExtendedRational,
    Instance,
    bundle_value,
    check_allocation,
    is_infinite,
)

Cycle = tuple[int, ...]


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


def build_envy_ratio_graph(instance: Instance, allocation: Allocation) -> EnvyRatioGraph:
    check_allocation(instance, allocation)
    n = instance.agent_count
    values = [
        [bundle_value(instance, i, allocation.bundles[j]) for j in range(n)]
        for i in range(n)
    ]
    weights: dict[tuple[int, int], ExtendedRational] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            own, other = values[i][i], values[i][j]
            if own == 0:
                weights[(i, j)] = INF if other > 0 else Fraction(0)
            else:
                weights[(i, j)] = other / own
    return EnvyRatioGraph(n, weights)


def envy_edges(graph: EnvyRatioGraph) -> frozenset[tuple[int, int]]:
    """Ordered pairs with ratio strictly above 1 (inf counts)."""
    return frozenset((i, j) for (i, j) in graph.pairs() if graph.weight(i, j) > 1)


def _relax_max_product(
    graph: EnvyRatioGraph, include_infinite: bool
) -> tuple[list[ExtendedRational], list[int | None], int | None]:
    """Max-product relaxation from the all-ones baseline.

    Runs agent_count - 1 rounds over the positive-weight edges (weight-0
    edges can never improve on the empty path), then one extra probing
    round. Returns (values, predecessors, probe) where probe is a vertex
    that still improved on the extra round, i.e. evidence of a cycle with
    product above 1, or None once values are stable.
    """
    n = graph.agent_count
    edges = [
        (i, j, w)
        for (i, j) in graph.pairs()
        if (w := graph.weight(i, j)) > 0 and (include_infinite or not is_infinite(w))
    ]
    values: list[ExtendedRational] = [Fraction(1)] * n
    preds: list[int | None] = [None] * n
    for _ in range(max(n - 1, 0)):
        changed = False
        for i, j, w in edges:
            candidate = product([values[i], w])
            if candidate > values[j]:
                values[j] = candidate
                preds[j] = i
                changed = True
        if not changed:
            return values, preds, None
    for i, j, w in edges:
        if product([values[i], w]) > values[j]:
            preds[j] = i
            return values, preds, j
    return values, preds, None


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


def _infinite_edge_cycle(graph: EnvyRatioGraph) -> Cycle | None:
    """A cycle through an infinite-ratio edge with all other edges positive.

    Such cycles qualify as improving but are invisible to a saturating
    relaxation (an already-infinite value cannot strictly improve), so they
    are found by plain reachability instead.
    """
    n = graph.agent_count
    positive_out: dict[int, list[int]] = {i: [] for i in range(n)}
    for i, j in graph.pairs():
        if graph.weight(i, j) > 0:
            positive_out[i].append(j)
    for i, j in graph.pairs():
        if not is_infinite(graph.weight(i, j)):
            continue
        path = _shortest_positive_path(positive_out, j, i)
        if path is not None:
            cycle = _canonical([i] + path[:-1])  # path ends at i, closing the cycle
            assert product(cycle_weights(graph, cycle)) > 1
            return cycle
    return None


def find_improving_cycle(graph: EnvyRatioGraph) -> Cycle | None:
    """Some directed cycle whose exact weight product exceeds 1, if any.

    Infinite-edge cycles are handled first by reachability; with those
    ruled out, any improving cycle has finite positive weights and the
    usual relaxation argument applies: a value still improving after
    agent_count - 1 rounds pins a cycle in the predecessor links.
    """
    found = _infinite_edge_cycle(graph)
    if found is not None:
        return found
    values, preds, probe = _relax_max_product(graph, include_infinite=False)
    del values
    if probe is None:
        return None
    cycle = _cycle_from_predecessors(preds, probe, graph.agent_count)
    assert product(cycle_weights(graph, cycle)) > 1
    return cycle


def _shortest_positive_path(
    adjacency: dict[int, list[int]], source: int, target: int
) -> list[int] | None:
    """BFS path source..target over positive edges; None if unreachable."""
    pred: dict[int, int] = {}
    queue = deque([source])
    seen = {source}
    while queue:
        vertex = queue.popleft()
        if vertex == target:
            path = [vertex]
            while path[-1] != source:
                path.append(pred[path[-1]])
            return path[::-1]
        for nxt in sorted(adjacency[vertex]):
            if nxt not in seen:
                seen.add(nxt)
                pred[nxt] = vertex
                queue.append(nxt)
    return None


def envy_ranks(graph: EnvyRatioGraph) -> EnvyRanks:
    """Envy rank of every agent: max product over simple paths ending there.

    Requires a graph without improving cycles; with none, the relaxation
    stabilizes on exactly the simple-path maxima (any walk reduces to a
    simple path of at least the same product once no cycle beats 1).
    """
    ranks, _ = _ranks_with_predecessors(graph)
    return ranks


def _ranks_with_predecessors(
    graph: EnvyRatioGraph,
) -> tuple[EnvyRanks, list[int | None]]:
    if _infinite_edge_cycle(graph) is not None:
        raise ImprovingCycleExists(
            "envy ranks are undefined: the graph has a cycle through an "
            "infinite-ratio edge"
        )
    values, preds, probe = _relax_max_product(graph, include_infinite=True)
    if probe is not None:
        raise ImprovingCycleExists(
            "envy ranks are undefined: relaxation still improving, the graph "
            "admits an improving cycle"
        )
    return EnvyRanks(tuple(values)), preds


def max_product_path(graph: EnvyRatioGraph, agent: int) -> list[int]:
    """A simple path attaining the agent's envy rank, ending at the agent.

    Returns [agent] alone when the empty path is maximal. Raises
    ImprovingCycleExists on graphs where ranks are undefined.
    """
    _, preds = _ranks_with_predecessors(graph)
    path = [agent]
    cursor = preds[agent]
    while cursor is not None:
        path.append(cursor)
        cursor = preds[cursor]
    return path[::-1]


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
    check_allocation(instance, allocation)
    n = instance.agent_count
    values = [
        [bundle_value(instance, i, allocation.bundles[j]) for j in range(n)]
        for i in range(n)
    ]
    return {
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and values[i][j] > values[i][i]
    }


def find_envy_cycle(instance: Instance, allocation: Allocation) -> Cycle | None:
    """Some directed cycle of strict envy, or None if the envy graph is acyclic.

    Depth-first search starting from the smallest agent index, visiting
    neighbours in ascending order. The search keeps its own stack, so the
    length of an envy chain is not bounded by the recursion limit.
    """
    n = instance.agent_count
    successors: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(strict_envy_edges(instance, allocation)):
        successors[i].append(j)

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
