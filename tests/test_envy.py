import inspect
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    nsw_matching,
    rotate_bundles,
    strict_envy_edges,
    topological_order,
)
from fairalloc import envy
from fairalloc.envy import (
    _cycle_from_predecessors,
    _envy_cycle_in_masks,
    _envy_masks,
    _relax_max_product,
    _value_matrix,
)
from fairalloc.files import GenSpec, generate_instance
from fairalloc.oracle import oracle_envy_rank, oracle_improving_cycle

from envy_reference import cycle_weights, product, reference_envy_cycle


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

    def test_weights_are_bundle_value_ratios(self):
        """weight(i, j) is v_i(B_j) / v_i(B_i) in `Fraction`s, INF when only
        the own bundle is worthless and 0 when the other is, on partial
        multi-item allocations; scaling each row by its own positive
        rational changes no weight. The matrix holds each bundle's sum on
        the agent's scaled row, pool items left out."""
        rng = random.Random(4242)
        seen = {"finite": 0, "infinite": 0, "zero": 0}
        for _ in range(150):
            n, m = rng.randint(2, 5), rng.randint(2, 9)
            rows = [
                [
                    Fraction(0) if rng.random() < 0.3
                    else rng.choice((
                        Fraction(rng.randint(1, 30), rng.randint(1, 9)),
                        Fraction(10**40 + rng.randint(0, 3), 7),
                    ))
                    for _ in range(m)
                ]
                for _ in range(n)
            ]
            owners = [rng.randrange(-1, n) for _ in range(m)]
            allocation = Allocation.of(
                [[g for g in range(m) if owners[g] == i] for i in range(n)], m
            )
            instance = Instance.from_rows(rows)
            factors = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in rows]
            scaled = Instance.from_rows(
                [[v * f for v in row] for row, f in zip(rows, factors)]
            )
            graph = build_envy_ratio_graph(instance, allocation)
            scaled_graph = build_envy_ratio_graph(scaled, allocation)
            assert graph.agent_count == scaled_graph.agent_count == n
            assert graph.values == tuple(
                tuple(sum(row[g] for g in bundle) for bundle in allocation.bundles)
                for row in instance.rows
            )
            for i, j in graph.pairs():
                own = bundle_value(instance, i, allocation.bundles[i])
                other = bundle_value(instance, i, allocation.bundles[j])
                expected = Fraction(0) if not other else other / own if own else INF
                assert graph.weight(i, j) == expected
                assert scaled_graph.weight(i, j) == expected
                seen["zero" if not other else "finite" if own else "infinite"] += 1
        assert min(seen.values()) >= 100, seen


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

    @pytest.mark.parametrize("agent", [-1, 3])
    def test_max_product_path_refuses_an_agent_outside_the_graph(self, agent):
        """On an acyclic 3-agent graph, -1 is not read as the last agent and
        3 raises no bare IndexError: both are refused as agents."""
        instance = Instance.from_rows([[4, 1, 1], [1, 4, 1], [1, 1, 4]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [1], [2]], 3))
        assert find_improving_cycle(graph) is None
        with pytest.raises(ValueError, match=rf"agent {agent} is outside range\(3\)"):
            max_product_path(graph, agent)

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


def reference_relaxation(graph):
    """The relaxation over (k, Fraction) pairs that the integer kernel
    replaced, kept as a reference: the ranks with their predecessor links,
    or ("cycle", the raised cycle)."""
    n = graph.agent_count
    edges = [
        (i, j, (1, Fraction(1)) if w == INF else (0, w))
        for (i, j) in graph.pairs()
        if (w := graph.weight(i, j)) > 0
    ]
    values = [(0, Fraction(1))] * n
    preds = [None] * n
    for round_ in range(n):
        changed = False
        for i, j, (k, x) in edges:
            candidate = (values[i][0] + k, values[i][1] * x)
            if candidate > values[j]:
                preds[j] = i
                if round_ == n - 1:
                    return "cycle", _cycle_from_predecessors(preds, j, n)
                values[j] = candidate
                changed = True
        if not changed:
            break
    return tuple(INF if k else x for k, x in values), preds


def kernel_outcome(values):
    try:
        ranks, preds = _relax_max_product(values)
    except ImprovingCycleExists as found:
        return "cycle", found.cycle
    return ranks.ranks, preds


def small_relaxation_instance(rng):
    """2-7 agents, values p/q or (10^40+r)/7 mixed within a row, with
    zeros (hence infinite edges) at one of three rates."""
    n = rng.randint(2, 7)
    m = rng.randint(n, n + 3)
    zero_chance = rng.choice((0.0, 0.3, 0.7))
    return Instance.from_rows(
        [
            [
                Fraction(0) if rng.random() < zero_chance
                else rng.choice(
                    (
                        Fraction(rng.randint(1, 30), rng.randint(1, 9)),
                        Fraction(10**40 + rng.randint(0, 3), 7),
                    )
                )
                for _ in range(m)
            ]
            for _ in range(n)
        ]
    )


def wide_relaxation_instance(rng):
    """8-16 agents, each row all integers or (one in four) all 41-digit
    (x*10^40+r)/7, with zeros, so ranks above 1 spread over several agents
    and agents leave the baseline partway through a round. The factor x
    keeps most big values apart in float logs: rows of near-ties alone take
    the matching's exact repair loop seconds per instance."""
    n = rng.randint(8, 16)
    m = rng.randint(n, n + 8)
    rows = []
    for _ in range(n):
        big = rng.random() < 0.25
        rows.append(
            [
                0 if rng.random() < 0.15
                else Fraction(rng.randint(1, 60) * 10**40 + rng.randint(0, 9), 7) if big
                else rng.randint(1, 60)
                for _ in range(m)
            ]
        )
    return Instance.from_rows(rows)


class TestIntegerRelaxation:
    def test_both_front_ends_match_the_fraction_reference(self):
        """Ranks, predecessor links and raised cycles on one-item allocations
        (a random one and the certified matching per instance), from the
        matrix the matching sums and from the one a graph holds, with zeros,
        hence infinite edges, and huge rationals."""
        rng = random.Random(2718)
        seen = {
            "cycle": 0, "ranks": 0, "infinite edge": 0, "infinite rank": 0,
            "n >= 8, 3+ ranks above 1": 0,
        }
        for case in range(440):
            instance = (
                small_relaxation_instance(rng) if case < 400
                else wide_relaxation_instance(rng)
            )
            n, m = instance.agent_count, instance.item_count
            random_matching = Allocation.of([[g] for g in rng.sample(range(m), n)], m)
            for allocation in (random_matching, nsw_matching(instance).allocation):
                graph = build_envy_ratio_graph(instance, allocation)
                expected = reference_relaxation(graph)
                values = _value_matrix(instance.rows, allocation.bundles)
                assert kernel_outcome(values) == expected
                assert kernel_outcome(graph.values) == expected
                found_cycle = expected[0] == "cycle"
                seen["cycle" if found_cycle else "ranks"] += 1
                seen["infinite edge"] += any(
                    graph.weight(i, j) == INF for i, j in graph.pairs()
                )
                seen["infinite rank"] += not found_cycle and INF in expected[0]
                seen["n >= 8, 3+ ranks above 1"] += (
                    n >= 8 and not found_cycle
                    and sum(rank != 1 for rank in expected[0]) >= 3
                )
        assert min(seen.values()) >= 30, seen

    def test_lists_only_the_edges_that_can_raise_a_rank(self, monkeypatch):
        """On the certified matchings of 40 agents and 120 items, the pass
        lists at most the strict-envy edges plus n - 1 edges per agent whose
        rank ends above 1, far fewer than the n(n-1) positive ratios."""
        listed = []
        out_edges = envy._out_edges

        def counting(row, agent, floor):
            edges = out_edges(row, agent, floor)
            listed.append(len(edges))
            return edges

        monkeypatch.setattr(envy, "_out_edges", counting)
        for seed in range(1, 9):
            instance = generate_instance(GenSpec(40, 120, 0, 100, Fraction(1, 10), seed))
            allocation = nsw_matching(instance).allocation
            values = _value_matrix(instance.rows, allocation.bundles)
            listed.clear()
            ranks = _relax_max_product(values)[0]
            bound = len(strict_envy_edges(instance, allocation)) + 39 * sum(
                rank != 1 for rank in ranks.ranks
            )
            positive = sum(v > 0 for row in values for v in row) - sum(
                values[i][i] > 0 for i in range(40)
            )
            assert 0 < sum(listed) <= bound < positive // 2, (listed, bound, positive)


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

    def test_out_of_range_agents_rejected(self):
        """An edge naming an agent outside range(agent_count) is rejected by
        name. A negative index must not alias an agent: -3 would be agent 0
        of three, and {(1, 0), (0, -3)} would look cyclic."""
        cases = [
            ({(0, 5)}, (0, 5)),
            ({(-1, 0)}, (-1, 0)),
            ({(1, -3)}, (1, -3)),
            ({(1, 0), (0, -3)}, (0, -3)),
        ]
        for edges, named in cases:
            with pytest.raises(ValueError, match=re.escape(f"edge {named} ")):
                topological_order(3, edges)
        assert topological_order(3, {(2, 0), (0, 1)}) == (2, 0, 1)


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

    def test_public_search_over_an_1100_agent_chain(self):
        # Past the default recursion limit through the public API alone:
        # `Instance.from_rows` builds the chain, `find_envy_cycle` searches
        # it. Agent i envies only agent i+1; without the last agent's envy of
        # agent 0 the graph is acyclic.
        n = 1100
        assert sys.getrecursionlimit() < n
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i], rows[i][(i + 1) % n] = 1, 2
        allocation = Allocation.of([[i] for i in range(n)], n)
        assert find_envy_cycle(Instance.from_rows(rows), allocation) == tuple(range(n))
        rows[n - 1][0] = 0
        assert find_envy_cycle(Instance.from_rows(rows), allocation) is None

    def test_matrix_search_over_a_2000_agent_chain(self):
        # The chain is longer than the default recursion limit allows a
        # recursive search to walk; only the back edge closes a cycle.
        n = 2000
        assert sys.getrecursionlimit() < n
        values = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            values[i][i], values[i][i + 1] = 1, 2
        assert _envy_cycle_in_masks(_envy_masks(values)) is None
        values[n - 1][n - 1], values[n - 1][0] = 1, 2
        assert _envy_cycle_in_masks(_envy_masks(values)) == tuple(range(n))


@st.composite
def value_matrices(draw):
    """Square value matrices of small ints or p/q Fractions, so ties are
    common, with some all-zero rows."""
    n = draw(st.integers(1, 8))
    entries = draw(
        st.sampled_from(
            (st.integers(0, 3), st.builds(Fraction, st.integers(0, 6), st.integers(1, 3)))
        )
    )
    row = st.one_of(st.just([0] * n), st.lists(entries, min_size=n, max_size=n))
    return draw(st.lists(row, min_size=n, max_size=n))


class TestCycleSearchAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(value_matrices())
    def test_same_cycle_as_the_list_search(self, values):
        assert _envy_cycle_in_masks(_envy_masks(values)) == reference_envy_cycle(values)

    def test_same_cycle_on_seeded_matrices(self):
        rng = random.Random(3)
        found = {True: 0, False: 0}
        for _ in range(1500):
            n = rng.randint(2, 14)
            values = [
                [0] * n if rng.random() < 0.1 else [rng.randint(0, 4) for _ in range(n)]
                for _ in range(n)
            ]
            expected = reference_envy_cycle(values)
            assert _envy_cycle_in_masks(_envy_masks(values)) == expected
            found[expected is not None] += 1
        assert min(found.values()) > 300  # both cycles and acyclic graphs


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
