import inspect
import random
import sys
from fractions import Fraction

import pytest

from fairalloc import (
    INF,
    Allocation,
    CyclicEnvyGraph,
    ImprovingCycleExists,
    Instance,
    InvalidAllocation,
    build_envy_ratio_graph,
    bundle_value,
    envy_ranks,
    find_envy_cycle,
    find_improving_cycle,
    max_product_path,
    rotate_bundles,
    strict_envy_edges,
    topological_order,
)
from fairalloc.envy import cycle_weights, envy_cycle_in, product
from fairalloc.oracle import oracle_envy_rank, oracle_improving_cycle


def random_matching_graph(rng: random.Random):
    """A random instance plus a random one-item-per-agent allocation."""
    n = rng.randint(2, 5)
    m = rng.randint(n, 7)
    zero_chance = rng.choice((0.0, 0.25))
    instance = Instance.from_rows(
        [
            [0 if rng.random() < zero_chance else rng.randint(0, 40) for _ in range(m)]
            for _ in range(n)
        ]
    )
    items = list(range(m))
    rng.shuffle(items)
    allocation = Allocation.of([[items[i]] for i in range(n)], m)
    return instance, allocation


class TestGraphConstruction:
    def test_4x4_weights(self, four_by_four, identity_allocation):
        graph = build_envy_ratio_graph(four_by_four, identity_allocation)
        assert graph.weight(2, 1) == Fraction(3, 2)
        assert graph.weight(1, 0) == 2
        assert graph.weight(1, 2) == 0

    def test_equal_valuations_equal_bundles_weight_one(self):
        instance = Instance.from_rows([[2, 2], [2, 2]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [1]], 2))
        assert graph.weight(0, 1) == 1
        assert graph.weight(1, 0) == 1

    def test_zero_own_value_conventions(self):
        instance = Instance.from_rows([[0, 5, 0], [1, 1, 0]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [2]], 3))
        assert graph.weight(0, 1) == 0  # values neither bundle
        instance2 = Instance.from_rows([[0, 5], [1, 1]])
        graph2 = build_envy_ratio_graph(instance2, Allocation.of([[0], [1]], 2))
        assert graph2.weight(0, 1) == INF


class TestEnvyEdges:
    def test_4x4_identity(self, four_by_four, identity_allocation):
        assert strict_envy_edges(four_by_four, identity_allocation) == {(1, 0), (2, 1)}

    def test_no_strict_envy(self):
        instance = Instance.from_rows([[1, 1], [1, 1]])
        assert strict_envy_edges(instance, Allocation.of([[0], [1]], 2)) == set()

    def test_2x5_nsw_allocation(self, two_by_five):
        allocation = Allocation.of([[0, 1, 2], [3, 4]], 5)
        assert strict_envy_edges(two_by_five, allocation) == {(1, 0)}

    def test_zero_own_value_envies_a_positive_rival_only(self):
        instance = Instance.from_rows([[0, 5, 0], [1, 1, 0], [0, 0, 0]])
        allocation = Allocation.of([[0], [1], [2]], 3)
        assert strict_envy_edges(instance, allocation) == {(0, 1)}

    def test_edges_are_the_ratios_above_one(self):
        rng = random.Random(8)
        for _ in range(100):
            instance, allocation = random_matching_graph(rng)
            graph = build_envy_ratio_graph(instance, allocation)
            expected = {pair for pair in graph.pairs() if graph.weight(*pair) > 1}
            assert strict_envy_edges(instance, allocation) == expected


class TestImprovingCycles:
    def test_4x4_identity_has_improving_cycle(self, four_by_four, identity_allocation):
        graph = build_envy_ratio_graph(four_by_four, identity_allocation)
        cycle = find_improving_cycle(graph)
        assert cycle == (0, 2, 1)
        assert product(cycle_weights(graph, cycle)) == Fraction(3, 2)

    def test_single_agent_has_none(self):
        graph = build_envy_ratio_graph(
            Instance.from_rows([[3, 1]]), Allocation.of([[0]], 2)
        )
        assert find_improving_cycle(graph) is None

    def test_rotated_4x4_has_none(self, four_by_four, rotated_allocation):
        graph = build_envy_ratio_graph(four_by_four, rotated_allocation)
        assert find_improving_cycle(graph) is None
        assert oracle_improving_cycle(graph) is None

    def test_infinite_edge_cycle_is_found(self):
        # agent 0 owns nothing it values but values agent 1's item, and
        # agent 1 values agent 0's item: rotating helps both.
        instance = Instance.from_rows([[0, 7], [5, 3]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [1]], 2))
        cycle = find_improving_cycle(graph)
        assert cycle == (0, 1)
        assert product(cycle_weights(graph, cycle)) == INF

    def test_existence_agrees_with_oracle(self):
        rng = random.Random(90125)
        found = 0
        for _ in range(150):
            instance, allocation = random_matching_graph(rng)
            graph = build_envy_ratio_graph(instance, allocation)
            mine = find_improving_cycle(graph)
            if mine is not None:
                found += 1
                assert len(set(mine)) == len(mine)
                assert product(cycle_weights(graph, mine)) > 1
            oracle = oracle_improving_cycle(graph)
            assert (mine is None) == (oracle is None)
            if oracle is None:
                envy_ranks(graph)
            else:
                with pytest.raises(ImprovingCycleExists):
                    envy_ranks(graph)
        assert found > 10  # the sample genuinely exercises both outcomes


class TestEnvyRanks:
    def test_no_strong_edges_means_all_ones(self):
        instance = Instance.from_rows([[4, 1, 1], [1, 4, 1]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [1]], 3))
        assert envy_ranks(graph).ranks == (Fraction(1), Fraction(1))

    def test_rotated_4x4_ranks(self, four_by_four, rotated_allocation):
        graph = build_envy_ratio_graph(four_by_four, rotated_allocation)
        ranks = envy_ranks(graph)
        assert ranks.ranks == (Fraction(1), Fraction(2), Fraction(1), Fraction(1))
        assert oracle_envy_rank(graph, 1) == 2

    def test_requires_no_improving_cycle(self, four_by_four, identity_allocation):
        graph = build_envy_ratio_graph(four_by_four, identity_allocation)
        with pytest.raises(ImprovingCycleExists, match=r"\(0, 2, 1\)") as raised:
            envy_ranks(graph)
        assert raised.value.cycle == (0, 2, 1)
        # the enumeration oracle still answers: rank 3 via the path 2 -> 1 -> 0
        assert oracle_envy_rank(graph, 0) == 3

    def test_rejects_infinite_edge_cycles_too(self):
        # the cycle's weight inf * 5/3 is the pair (1, 5/3), above (0, 1)
        instance = Instance.from_rows([[0, 7], [5, 3]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [1]], 2))
        with pytest.raises(ImprovingCycleExists):
            envy_ranks(graph)

    def test_rejects_finite_cycles_among_infinite_ranks(self):
        # Agent 2 values its own item at 0, so it reaches both other agents
        # through an infinite edge and their ranks are infinite; the finite
        # cycle 0 -> 1 -> 0 of product 4 must still be seen.
        instance = Instance.from_rows([[1, 2, 0], [2, 1, 0], [1, 1, 0]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [1], [2]], 3))
        assert find_improving_cycle(graph) == (0, 1)
        assert product(cycle_weights(graph, (0, 1))) == 4
        assert oracle_improving_cycle(graph) is not None
        with pytest.raises(ImprovingCycleExists, match=r"\(0, 1\)"):
            envy_ranks(graph)
        with pytest.raises(ImprovingCycleExists):
            max_product_path(graph, 0)

    def test_matches_oracle_on_cycle_free_graphs(self):
        rng = random.Random(555)
        checked = 0
        for _ in range(200):
            instance, allocation = random_matching_graph(rng)
            graph = build_envy_ratio_graph(instance, allocation)
            if find_improving_cycle(graph) is not None:
                continue
            checked += 1
            ranks = envy_ranks(graph)
            for agent in range(instance.agent_count):
                assert ranks[agent] == oracle_envy_rank(graph, agent)
                assert ranks[agent] >= 1
        assert checked > 30

    def test_rank_bounds_observation(self):
        """w[i][j] <= r_j and r_i * w[i][j] <= r_j on cycle-free graphs."""
        rng = random.Random(777)
        checked = 0
        for _ in range(150):
            instance, allocation = random_matching_graph(rng)
            graph = build_envy_ratio_graph(instance, allocation)
            if find_improving_cycle(graph) is not None:
                continue
            checked += 1
            ranks = envy_ranks(graph)
            for i, j in graph.pairs():
                w = graph.weight(i, j)
                assert w <= ranks[j]
                assert product([ranks[i], w]) <= ranks[j]
                # two-cycle corollary: opposite ratios cannot multiply past 1
                assert product([w, graph.weight(j, i)]) <= 1
        assert checked > 30

    def test_rank_is_one_exactly_without_strong_paths(self):
        rng = random.Random(313)
        for _ in range(60):
            instance, allocation = random_matching_graph(rng)
            graph = build_envy_ratio_graph(instance, allocation)
            if find_improving_cycle(graph) is not None:
                continue
            ranks = envy_ranks(graph)
            for agent in range(instance.agent_count):
                assert (ranks[agent] == 1) == (oracle_envy_rank(graph, agent) == 1)

    def test_max_product_path_attains_rank(self):
        rng = random.Random(808)
        for _ in range(80):
            instance, allocation = random_matching_graph(rng)
            graph = build_envy_ratio_graph(instance, allocation)
            if find_improving_cycle(graph) is not None:
                continue
            ranks = envy_ranks(graph)
            for agent in range(instance.agent_count):
                path = max_product_path(graph, agent)
                assert path[-1] == agent
                assert len(set(path)) == len(path)
                weights = [
                    graph.weight(path[t], path[t + 1]) for t in range(len(path) - 1)
                ]
                assert product(weights) == ranks[agent] or (
                    not weights and ranks[agent] == 1
                )


class TestTopologicalOrder:
    def test_4x4_identity_edges(self):
        assert topological_order(4, {(1, 0), (2, 1)}) == (2, 1, 0, 3)

    def test_empty_edges_is_index_order(self):
        assert topological_order(4, set()) == (0, 1, 2, 3)

    def test_single_constraint(self):
        assert topological_order(2, {(0, 1)}) == (0, 1)

    def test_cycle_rejected(self):
        with pytest.raises(CyclicEnvyGraph):
            topological_order(2, {(0, 1), (1, 0)})


class TestEnvyCycles:
    def test_mutual_envy(self):
        instance = Instance.from_rows([[1, 5], [5, 1]])
        assert find_envy_cycle(instance, Allocation.of([[0], [1]], 2)) == (0, 1)

    def test_envy_free_allocation(self):
        instance = Instance.from_rows([[5, 1], [1, 5]])
        assert find_envy_cycle(instance, Allocation.of([[0], [1]], 2)) is None

    def test_4x4_identity_is_acyclic(self, four_by_four, identity_allocation):
        assert find_envy_cycle(four_by_four, identity_allocation) is None

    def test_search_order_decides_between_cycles(self):
        # Identity allocation with strict envy 0->1, 0->2, 1->2, 2->0, 2->3,
        # 3->1: searching from agent 0 in ascending order closes (0, 1, 2)
        # before it could reach (1, 2, 3).
        instance = Instance.from_rows(
            [[10, 20, 20, 1], [1, 10, 20, 1], [20, 1, 10, 20], [1, 20, 1, 10]]
        )
        allocation = Allocation.of([[0], [1], [2], [3]], 4)
        assert find_envy_cycle(instance, allocation) == (0, 1, 2)

    def test_long_envy_chain_needs_no_deep_recursion(self):
        # Agent i envies only agent i+1; the last agent envies agent 0. The
        # lowered limit leaves 100 frames, half the chain, which keeps the
        # instance small enough to build quickly.
        n = 200
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i], rows[i][(i + 1) % n] = 1, 2
        instance = Instance.from_rows(rows)
        allocation = Allocation.of([[i] for i in range(n)], n)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            assert find_envy_cycle(instance, allocation) == tuple(range(n))
        finally:
            sys.setrecursionlimit(limit)

    def test_matrix_search_over_a_2000_agent_chain(self):
        # The chain is longer than the default recursion limit allows a
        # recursive search to walk; only the back edge closes a cycle.
        n = 2000
        assert sys.getrecursionlimit() < n
        values = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            values[i][i], values[i][i + 1] = 1, 2
        assert envy_cycle_in(values) is None
        values[n - 1][n - 1], values[n - 1][0] = 1, 2
        assert envy_cycle_in(values) == tuple(range(n))


class TestRotation:
    def test_three_cycle_rotation(self, identity_allocation, rotated_allocation):
        assert rotate_bundles(identity_allocation, (0, 2, 1)) == rotated_allocation

    def test_two_cycle_is_involution(self):
        alloc = Allocation.of([[0, 2], [1]], 3)
        assert rotate_bundles(rotate_bundles(alloc, (0, 1)), (0, 1)) == alloc

    def test_preserves_bundle_multiset(self, identity_allocation):
        rotated = rotate_bundles(identity_allocation, (0, 3, 1))
        assert sorted(map(sorted, identity_allocation.bundles)) == sorted(
            map(sorted, rotated.bundles)
        )

    def test_rejects_bad_cycles(self, identity_allocation):
        with pytest.raises(InvalidAllocation):
            rotate_bundles(identity_allocation, (0,))
        with pytest.raises(InvalidAllocation):
            rotate_bundles(identity_allocation, (0, 0))
        with pytest.raises(InvalidAllocation):
            rotate_bundles(identity_allocation, (0, 9))

    def test_strict_envy_rotation_improves_everyone_on_it(self):
        """Rotating a strict-envy cycle strictly raises each cycled agent's own
        value and strictly shrinks the strict-envy edge set."""
        rng = random.Random(2024)
        rotations = 0
        while rotations < 25:
            n = rng.randint(2, 5)
            m = rng.randint(n, 8)
            instance = Instance.from_rows(
                [[rng.randint(0, 30) for _ in range(m)] for _ in range(n)]
            )
            bundles = [[] for _ in range(n)]
            for item in range(m):
                bundles[rng.randrange(n)].append(item)
            allocation = Allocation.of(bundles, m)
            cycle = find_envy_cycle(instance, allocation)
            if cycle is None:
                continue
            rotations += 1
            before_edges = strict_envy_edges(instance, allocation)
            rotated = rotate_bundles(allocation, cycle)
            after_edges = strict_envy_edges(instance, rotated)
            assert len(after_edges) < len(before_edges)
            for agent in cycle:
                assert bundle_value(instance, agent, rotated.bundles[agent]) > (
                    bundle_value(instance, agent, allocation.bundles[agent])
                )
