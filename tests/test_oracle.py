from fractions import Fraction

import pytest

from fairalloc import (
    INF,
    Allocation,
    FairnessNotion,
    Instance,
    LimitExceeded,
    build_envy_ratio_graph,
)
from fairalloc.oracle import (
    OracleLimits,
    oracle_best_factor,
    oracle_envy_rank,
    oracle_improving_cycle,
    oracle_nsw_matching,
    oracle_removal_expectation,
)


class TestOracleNswMatching:
    def test_4x4(self, four_by_four):
        objective, witness = oracle_nsw_matching(four_by_four)
        assert objective == (4, Fraction(432))
        assert witness == (2, 0, 1, 3)

    def test_single_agent(self):
        objective, witness = oracle_nsw_matching(Instance.from_rows([[5, 9]]))
        assert objective == (1, Fraction(9))
        assert witness == (1,)

    def test_all_zero_uses_empty_product(self):
        objective, witness = oracle_nsw_matching(Instance.from_rows([[0, 0], [0, 0]]))
        assert objective == (0, Fraction(1))
        assert witness == (0, 1)

    def test_limits(self):
        wide = Instance.from_rows([[1] * 9])
        with pytest.raises(LimitExceeded):
            oracle_nsw_matching(wide)
        tall = Instance.from_rows([[1] * 8] * 8)
        with pytest.raises(LimitExceeded):
            oracle_nsw_matching(tall)


class TestOracleImprovingCycle:
    def test_4x4_identity(self, four_by_four, identity_allocation):
        graph = build_envy_ratio_graph(four_by_four, identity_allocation)
        assert oracle_improving_cycle(graph) == ((0, 2, 1), Fraction(3, 2))

    def test_single_agent(self):
        graph = build_envy_ratio_graph(
            Instance.from_rows([[2, 1]]), Allocation.of([[0]], 2)
        )
        assert oracle_improving_cycle(graph) is None

    def test_rotated_4x4(self, four_by_four, rotated_allocation):
        graph = build_envy_ratio_graph(four_by_four, rotated_allocation)
        assert oracle_improving_cycle(graph) is None

    def test_limit(self, four_by_four, identity_allocation):
        graph = build_envy_ratio_graph(four_by_four, identity_allocation)
        with pytest.raises(LimitExceeded):
            oracle_improving_cycle(graph, OracleLimits(max_agents=3))


class TestOracleEnvyRank:
    def test_4x4_identity_agent_0(self, four_by_four, identity_allocation):
        graph = build_envy_ratio_graph(four_by_four, identity_allocation)
        assert oracle_envy_rank(graph, 0) == 3

    def test_edgeless_graph(self):
        instance = Instance.from_rows([[9, 1], [1, 9]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [1]], 2))
        assert oracle_envy_rank(graph, 0) == 1
        assert oracle_envy_rank(graph, 1) == 1

    def test_rotated_4x4_agent_1(self, four_by_four, rotated_allocation):
        graph = build_envy_ratio_graph(four_by_four, rotated_allocation)
        assert oracle_envy_rank(graph, 1) == 2

    @pytest.mark.parametrize("agent", [-1, 3])
    def test_an_agent_outside_the_graph_raises(self, agent):
        instance = Instance.from_rows([[4, 1, 1], [1, 4, 1], [1, 1, 4]])
        graph = build_envy_ratio_graph(instance, Allocation.of([[0], [1], [2]], 3))
        with pytest.raises(ValueError, match=rf"agent {agent} is outside range\(3\)"):
            oracle_envy_rank(graph, agent)


class TestOracleBestFactor:
    def test_single_agent_everything(self):
        instance = Instance.from_rows([[2, 3]])
        factor, witness = oracle_best_factor(instance, FairnessNotion.EFR)
        assert factor == INF
        assert witness.bundles == (frozenset({0, 1}),)

    def test_identical_two_agent_ef(self):
        instance = Instance.from_rows([[1, 1], [1, 1]])
        factor, witness = oracle_best_factor(instance, FairnessNotion.EF)
        assert factor == 1
        assert all(len(b) == 1 for b in witness.bundles)

    def test_allocation_count_limit(self):
        instance = Instance.from_rows([[1] * 6] * 2)
        with pytest.raises(LimitExceeded):
            oracle_best_factor(instance, FairnessNotion.EF, OracleLimits(max_allocations=63))


class TestOracleRemovalExpectation:
    def test_three_item_bundle(self, two_by_five):
        assert oracle_removal_expectation(two_by_five, 1, {0, 1, 2}) == Fraction(22, 3)

    def test_singleton(self, two_by_five):
        assert oracle_removal_expectation(two_by_five, 0, {4}) == 0

    def test_two_items(self):
        assert oracle_removal_expectation(Instance.from_rows([[4, 2]]), 0, {0, 1}) == 3

    def test_empty_bundle_rejected(self, two_by_five):
        with pytest.raises(ValueError):
            oracle_removal_expectation(two_by_five, 0, set())
