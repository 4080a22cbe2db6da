"""Envy-ratio graphs: improving cycles, envy ranks, and cycle rotation.

The envy-ratio graph of an allocation is the complete weighted digraph with
w[i][j] = v_i(bundle_j) / v_i(bundle_i). Agents with zero own-bundle value
get w = inf toward bundles they value positively and w = 0 otherwise, which
keeps every downstream comparison total. Diagonal entries are not defined.
Bundle values are summed on `Instance.rows`, exact integers with one
positive scale per agent: every question asked here (a ratio, strict envy)
compares values of one agent with each other, so the scale cancels.

The one max-product relaxation behind improving cycles, envy ranks and
rank-attaining paths reads the integer value matrix values[i][j] = v_i(B_j)
directly: the matching passes the matrix of its current matching, the public
graph queries the matrix an `EnvyRatioGraph` holds. A positive weight is
inf**k * a/b with k = 0, a = other, b = own for a finite other/own, and
k = 1, a = b = 1 for inf; each agent's value is a triple (k, num, den) of
the same form. Along a path the k parts add and the fractions multiply;
values compare on k first, then by cross-multiplying the fractions. A cycle
through an infinite edge is then improving like any other, and a rank with
k > 0 reads back as INF. A weight-0 edge can never beat the empty path, so
it is never listed, and an agent still at the all-ones baseline lists only
its edges of weight > 1, the only ones that can raise a rank from there: a
pass costs the strict-envy edges plus the out-edges of the agents whose
rank ends above 1, not all n(n-1) ratios. `_value_matrix` is the one place
a matrix is summed from bundles, for the public queries and for completion;
the matching reads its one-item matrices off the matched items' entries.

The strict-envy graph is one Python int per agent: bit j of masks[i] is set
iff values[i][j] > values[i][i] (`_envy_masks`). The solvers' order step
reads the matching's edges through `strict_envy_edges`; completion builds
masks from the matrix it sums and keeps them up to date. There is one
strict-envy cycle search, `_envy_cycle_in_masks`, a depth-first search.
Completion searches again after a pick only when `_on_cycle` finds the
picking agent on a cycle: the graph was acyclic before the pick, and a pick
only adds edges into the picking agent and only removes edges out of it, so
every cycle it closes passes through that agent.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import CyclicEnvyGraph, ImprovingCycleExists, InvalidAllocation
from .model import (
    INF,
    Allocation,
    ExtendedRational,
    Instance,
    check_allocation,
)

Cycle = tuple[int, ...]


@dataclass(frozen=True)
class EnvyRatioGraph:
    """Pairwise envy ratios for one (instance, allocation) pair, read from
    its value matrix values[i][j] = v_i(B_j) on `Instance.rows`."""

    values: tuple[tuple[int, ...], ...]

    @property
    def agent_count(self) -> int:
        return len(self.values)

    def weight(self, i: int, j: int) -> ExtendedRational:
        """v_i(B_j) / v_i(B_i); 0 if v_i(B_j) = 0, else INF if v_i(B_i) = 0."""
        row = self.values[i]
        own, other = row[i], row[j]
        if not other:
            return Fraction(0)
        return Fraction(other, own) if own else INF

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


def _canonical(cycle: list[int]) -> Cycle:
    """Rotate a cycle so the smallest agent index comes first."""
    start = cycle.index(min(cycle))
    return tuple(cycle[start:] + cycle[:start])


def _value_matrix(
    rows: Sequence[Sequence[int]], bundles: Sequence[Iterable[int]]
) -> list[list[int]]:
    """values[i][j] = v_i(bundle_j) on agent i's row, exactly; the callers
    check the allocation.

    One walk over each row: the allocated items are listed once as (item,
    owner) pairs, and each adds its entry of the row to its owner's column.
    Pool items are never read.
    """
    n = len(bundles)
    owned = [(item, j) for j, bundle in enumerate(bundles) for item in bundle]
    values = []
    for row in rows:
        sums = [0] * n
        for item, j in owned:
            sums[j] += row[item]
        values.append(sums)
    return values


def _checked_values(instance: Instance, allocation: Allocation) -> list[list[int]]:
    """`_value_matrix` of a checked allocation on `Instance.rows`."""
    check_allocation(instance, allocation)
    return _value_matrix(instance.rows, allocation.bundles)


def build_envy_ratio_graph(instance: Instance, allocation: Allocation) -> EnvyRatioGraph:
    return EnvyRatioGraph(tuple(map(tuple, _checked_values(instance, allocation))))


def _out_edges(row: Sequence[int], agent: int, floor: int) -> list[tuple[int, int]]:
    """The agent's envy-ratio edges toward the bundles it values above
    `floor` (at least 0), as (j, a) in j order, from its row of a value
    matrix: the weight is a/own, or inf with a = 1 when own is 0."""
    if max(row) <= floor:
        return []
    own = row[agent]
    return [
        (j, other if own else 1)
        for j, other in enumerate(row)
        if other > floor and j != agent
    ]


def _relax_max_product(values: Sequence[Sequence[int]]) -> tuple[EnvyRanks, list[int | None]]:
    """Envy ranks plus the predecessor links of rank-attaining paths, on the
    envy-ratio graph of the n x n value matrix values[i][j] = v_i(B_j).

    Max-product Bellman-Ford over integer (k, num, den) values from the
    all-ones baseline: at most n - 1 rounds, each over the agents in index
    order and each agent's edges in j order, stopping after a round without
    change, then one probing round. A candidate num_i*a / (den_i*b) beats
    num_j/den_j when num_i*a*den_j > num_j*den_i*b (equal k parts), and a
    gcd reduces a value only when it is updated. An edge that still
    improves in the probe closes an improving cycle in the predecessor
    links, which is raised as ImprovingCycleExists. Otherwise the values are
    exactly the simple-path maxima (any walk reduces to a simple path of at
    least the same product once no cycle beats 1).

    Each agent's edge lists are built once, when a round first needs them.
    An agent still at the baseline (no predecessor yet) scans only its
    edges of weight > 1, those to bundles it values above its own: from
    p_i = 1 an edge of weight w <= 1 offers p_i * w <= 1 <= p_j, which
    improves nothing, and p_i cannot change while i's edges are scanned
    (there are no self-edges). So every value, predecessor, change flag and
    probe outcome is that of the scan over all positive edges. An agent
    that has left the baseline scans all its positive edges. The work is
    therefore the strict-envy edges plus at most n - 1 edges per agent of
    rank above 1.
    """
    n = len(values)
    ks, nums, dens = [0] * n, [1] * n, [1] * n
    preds: list[int | None] = [None] * n
    strong: list[list[tuple[int, int]] | None] = [None] * n  # weight > 1 only
    full: list[list[tuple[int, int]] | None] = [None] * n  # every positive weight
    for round_ in range(n):  # the last round is the probe
        changed = False
        for i, row in enumerate(values):
            if preds[i] is None:
                edges = strong[i]
                if edges is None:
                    edges = strong[i] = _out_edges(row, i, row[i])
            else:
                edges = full[i]
                if edges is None:
                    edges = full[i] = _out_edges(row, i, 0)
            if not edges:
                continue
            own = row[i]
            kc = ks[i] + (0 if own else 1)
            num_i, den_i = nums[i], dens[i] * (own or 1)
            for j, a in edges:
                if kc > ks[j] or (kc == ks[j] and num_i * a * dens[j] > nums[j] * den_i):
                    preds[j] = i
                    if round_ == n - 1:
                        cycle = _cycle_from_predecessors(preds, j, n)
                        assert _is_improving(cycle, values)
                        raise ImprovingCycleExists(cycle)
                    num = num_i * a
                    g = math.gcd(num, den_i)
                    ks[j], nums[j], dens[j] = kc, num // g, den_i // g
                    changed = True
        if not changed:
            break
    ranks = tuple(
        INF if k else Fraction(num, den) for k, num, den in zip(ks, nums, dens)
    )
    return EnvyRanks(ranks), preds


def _is_improving(cycle: Cycle, values: Sequence[Sequence[int]]) -> bool:
    """Whether the cycle's exact weight product, read from the value matrix,
    exceeds 1."""
    k_sum, num, den = 0, 1, 1
    for t, i in enumerate(cycle):
        own, other = values[i][i], values[i][cycle[(t + 1) % len(cycle)]]
        if not other:
            return False
        if own:
            num, den = num * other, den * own
        else:
            k_sum += 1
    return k_sum > 0 or num > den


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
        _relax_max_product(graph.values)
    except ImprovingCycleExists as found:
        return found.cycle
    return None


def envy_ranks(graph: EnvyRatioGraph) -> EnvyRanks:
    """Envy rank of every agent: max product over simple paths ending there.

    Raises ImprovingCycleExists, naming a cycle, on a graph that has one.
    """
    return _relax_max_product(graph.values)[0]


def max_product_path(graph: EnvyRatioGraph, agent: int) -> list[int]:
    """A simple path attaining the agent's envy rank, ending at the agent.

    Returns [agent] alone when the empty path is maximal. Raises
    ValueError for an agent outside range(n), and ImprovingCycleExists on
    graphs where ranks are undefined.
    """
    if not 0 <= agent < graph.agent_count:
        raise ValueError(f"agent {agent} is outside range({graph.agent_count})")
    preds = _relax_max_product(graph.values)[1]
    return _predecessor_path(preds, agent)


def topological_order(
    agent_count: int, edges: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """Order agents so every envy edge (i, j) puts i before j.

    Kahn's construction with a min-heap of ready agents, so the smallest
    available index is always emitted first. An edge naming an agent outside
    range(agent_count) raises ValueError.
    """
    edge_set = set(edges)
    successors: dict[int, list[int]] = {i: [] for i in range(agent_count)}
    in_degree = [0] * agent_count
    for i, j in sorted(edge_set):
        if not (0 <= i < agent_count and 0 <= j < agent_count):
            raise ValueError(f"edge {(i, j)} names an agent outside range({agent_count})")
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
    """Pairs (i, j) where i strictly prefers j's bundle to its own, read off
    the envy masks of the allocation's value matrix (`_checked_values`)."""
    return set(_mask_edges(_envy_masks(_checked_values(instance, allocation))))


def find_envy_cycle(instance: Instance, allocation: Allocation) -> Cycle | None:
    """Some directed cycle of strict envy, or None if the envy graph is acyclic.

    Sums the allocation's bundles on `Instance.rows` (`_checked_values`),
    turns the matrix into one envy mask per agent (`_envy_masks`) and
    searches those with `_envy_cycle_in_masks`.
    """
    return _envy_cycle_in_masks(_envy_masks(_checked_values(instance, allocation)))


def _envy_masks(values: Sequence[Sequence[Fraction | int]]) -> list[int]:
    """One `_envy_mask` per row of a value matrix."""
    return [_envy_mask(row, i) for i, row in enumerate(values)]


def _envy_mask(row: Sequence[Fraction | int], agent: int) -> int:
    """Bit j set iff the agent strictly prefers bundle j to its own."""
    own = row[agent]
    mask = 0
    for j, value in enumerate(row):
        if value > own:
            mask |= 1 << j
    return mask


def _mask_edges(masks: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The strict-envy pairs (i, j) of envy masks, in ascending order."""
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            yield i, low.bit_length() - 1
            mask ^= low


def _envy_cycle_in_masks(masks: Sequence[int]) -> Cycle | None:
    """The strict-envy cycle search on envy masks (bit j of masks[i] set iff
    agent i envies agent j); the first cycle found, or None.

    Depth-first search starting from the smallest agent index, visiting
    neighbours in ascending order: an open agent's next neighbour is the
    lowest set bit of its unvisited neighbours that is not yet done. The
    search keeps its own stack, so the length of an envy chain is not
    bounded by the recursion limit.
    """
    done = 0
    for start in range(len(masks)):
        if done >> start & 1:
            continue
        path = [start]  # the open agents, in visit order
        open_ = 1 << start
        pending = [masks[start]]  # each open agent's neighbours not yet visited
        while path:
            candidates = pending[-1] & ~done
            if not candidates:
                finished = 1 << path.pop()
                done |= finished
                open_ ^= finished
                pending.pop()
                continue
            low = candidates & -candidates
            nxt = low.bit_length() - 1
            if open_ & low:
                return _canonical(path[path.index(nxt):])
            pending[-1] = candidates ^ low
            path.append(nxt)
            open_ |= low
            pending.append(masks[nxt])
    return None


def _on_cycle(masks: Sequence[int], agent: int) -> bool:
    """Whether the agent reaches itself along the envy masks, by a bitset
    closure: each round adds the masks of the agents reached last round."""
    reach = frontier = masks[agent]
    while frontier and not reach >> agent & 1:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~reach
        reach |= frontier
    return bool(reach >> agent & 1)


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
