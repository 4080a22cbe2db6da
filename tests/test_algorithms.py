import hashlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairalloc import (
    GOLDEN_RATIO_MINUS_ONE,
    INF,
    SQRT3_MINUS_ONE,
    Allocation,
    FairnessNotion,
    InfiniteRank,
    Instance,
    InstanceTooSmall,
    InternalGuaranteeViolated,
    InvalidAllocation,
    InvariantChecked,
    MatchingDone,
    Pick,
    bundle_value,
    envy_cycle_elimination,
    fairness_factor,
    meets_threshold,
    nsw_matching,
    partition_groups,
    refine_step2,
    replay_trace,
    rotate_bundles,
    solve_efr,
    solve_efx,
    verify_nsw_certificate,
)
from fairalloc.algorithms import (
    MODES,
    AgentGroups,
    CycleRotated,
    GroupsAssigned,
    SourcePick,
    _check_refined,
)
from fairalloc.cli import main
from fairalloc.envy import (
    EnvyRanks,
    strict_envy_edges,
    topological_order,
)
from fairalloc.files import (
    GenSpec,
    allocation_to_json,
    generate_instance,
    instance_from_json,
    instance_to_json,
    random_instances,
    trace_from_lines,
    trace_to_lines,
)
from fairalloc.matching import lexicographic_objective
from fairalloc.model import compare_scaled
from fairalloc.oracle import oracle_nsw_matching

from envy_reference import reference_envy_cycle

EFR = FairnessNotion.EFR
EFX = FairnessNotion.EFX


def ranks_of(*values) -> EnvyRanks:
    return EnvyRanks(tuple(Fraction(v) if v != INF else INF for v in values))


class TestPartitionGroups:
    def test_all_rank_one_goes_bottom(self):
        groups = partition_groups(ranks_of(1, 1, 1), EFR)
        assert groups.g3 == {0, 1, 2} and not groups.g1 and not groups.g2

    def test_rank_two_boundary_is_bottom(self):
        groups = partition_groups(ranks_of(2), EFR)
        assert groups.g3 == {0}
        assert partition_groups(ranks_of(2), EFX).g1 == {0}  # 2 > phi

    def test_rank_just_above_two_is_middle(self):
        groups = partition_groups(ranks_of(Fraction(21, 10)), EFR)
        assert groups.g2 == {0}

    def test_fourteen_fifths_is_top(self):
        # (14/5 - 1)^2 = 81/25 > 3, so 14/5 > sqrt(3) + 1
        groups = partition_groups(ranks_of(Fraction(14, 5), Fraction(27, 10)), EFR)
        assert groups.g1 == {0}
        assert groups.g2 == {1}  # (27/10 - 1)^2 = 289/100 < 3

    def test_efx_split_around_golden_ratio(self):
        groups = partition_groups(ranks_of(Fraction(8, 5), Fraction(9, 5)), EFX)
        assert groups.g2 == {0}  # (2*8/5 - 1)^2 = 121/25 < 5
        assert groups.g1 == {1}  # (2*9/5 - 1)^2 = 169/25 > 5
        assert groups.g3 == frozenset()

    def test_infinite_rank_is_rejected(self):
        with pytest.raises(InfiniteRank):
            partition_groups(ranks_of(1, INF), EFR)

    def test_partition_is_a_partition(self):
        for _, instance in random_instances(40, (2, 6), (2, 10), 0, 50, (Fraction(0),), seed=5):
            result = nsw_matching(instance)
            for mode in (EFR, EFX):
                groups = partition_groups(result.ranks, mode)
                union = groups.g1 | groups.g2 | groups.g3
                assert union == frozenset(range(instance.agent_count))
                assert len(groups.g1) + len(groups.g2) + len(groups.g3) == len(union)

    def test_rejects_other_notions(self):
        with pytest.raises(ValueError):
            partition_groups(ranks_of(1), FairnessNotion.EF1)


class TestRefineStep2:
    def test_all_top_group_changes_nothing(self, two_by_five):
        matching = Allocation.of([[0], [1]], 5)
        groups = AgentGroups(EFR, g1=frozenset({0, 1}), g2=frozenset())
        assert refine_step2(two_by_five, matching, groups, (0, 1)) == matching

    def test_empty_pool_changes_nothing(self):
        instance = Instance.from_rows([[3, 1], [1, 3]])
        matching = Allocation.of([[0], [1]], 2)
        groups = AgentGroups(EFR, frozenset(), frozenset(), frozenset({0, 1}))
        assert refine_step2(instance, matching, groups, (0, 1)) == matching

    def test_interleaved_passes_golden_trace(self):
        """First agent's two picks are its 1st and 3rd pool choices when the
        second agent snatches its 2nd choice between the two passes."""
        instance = Instance.from_rows(
            [[20, 1, 9, 7, 5, 3], [1, 20, 1, 8, 1, 1]]
        )
        result = nsw_matching(instance)
        assert result.allocation == Allocation.of([[0], [1]], 6)
        groups = partition_groups(result.ranks, EFR)
        assert groups.g3 == {0, 1}
        trace = []
        refined = refine_step2(instance, result.allocation, groups, (0, 1), trace)
        picks = [(e.agent, e.item, e.label) for e in trace if isinstance(e, Pick)]
        assert picks == [
            (0, 2, "g3-pass-1"),
            (1, 3, "g3-pass-1"),
            (0, 4, "g3-pass-2"),
            (1, 5, "g3-pass-2"),
        ]
        assert refined == Allocation.of([[0, 2, 4], [1, 3, 5]], 6)

    def test_value_ties_break_to_smallest_item(self):
        instance = Instance.from_rows([[5, 2, 2, 2]])
        result = nsw_matching(instance)
        groups = partition_groups(result.ranks, EFX)
        trace = []
        refine_step2(instance, result.allocation, groups, (0,), trace)
        picks = [e.item for e in trace if isinstance(e, Pick)]
        assert picks == [1]

    @pytest.mark.parametrize(
        "g2, order",
        [({1}, (1, 1)), ({1}, (0,)), ({1}, (0, 1, 2)), ({1}, (0, 5)), ({1, 5}, (0, 1))],
        ids=["an agent twice", "an agent left out", "a third agent", "order entry 5",
             "group member 5"],
    )
    def test_a_malformed_state_raises(self, g2, order):
        """The pick order is a permutation of the agents and every group
        member is an agent."""
        instance = Instance.from_rows([[1, 2, 3, 4], [4, 3, 2, 1]])
        groups = AgentGroups(EFX, g1=frozenset(), g2=frozenset(g2))
        with pytest.raises(ValueError):
            refine_step2(instance, Allocation.of([[0], [1]], 4), groups, order)


class TestEnvyCycleElimination:
    def test_empty_pool_returns_input(self, two_by_five):
        alloc = Allocation.of([[0, 1, 2], [3, 4]], 5)
        assert envy_cycle_elimination(two_by_five, alloc) == alloc

    def test_mutual_envy_swap_then_pick(self):
        instance = Instance.from_rows([[1, 5, 2], [5, 1, 2]])
        final = envy_cycle_elimination(instance, Allocation.of([[0], [1]], 3))
        # bundles swap, making both agents unenvied; agent 0 picks the leftover
        assert final == Allocation.of([[1, 2], [0]], 3)

    def test_mode_checks_each_rotation_and_pick(self):
        """With `mode` set, each rotation and each pick is followed by one
        `completion-factor` check; the allocation is the same as without."""
        instance = Instance.from_rows([[1, 5, 2], [5, 1, 2]])
        start = Allocation.of([[0], [1]], 3)
        plain, checked = [], []
        final = envy_cycle_elimination(instance, start, plain)
        assert envy_cycle_elimination(instance, start, checked, mode=EFX) == final
        assert [type(e) for e in plain] == [CycleRotated, SourcePick]
        check = InvariantChecked("completion-factor", True)
        assert checked == [plain[0], check, plain[1], check]

    @pytest.mark.parametrize("bundles", [[[0], [1]], [[0, 2], [1]]], ids=["pool", "no pool"])
    def test_a_mode_outside_the_table_raises(self, bundles):
        instance = Instance.from_rows([[1, 5, 2], [5, 1, 2]])
        with pytest.raises(ValueError):
            envy_cycle_elimination(instance, Allocation.of(bundles, 3), mode=FairnessNotion.EF)

    def test_completes_any_partial_allocation(self):
        for _, instance in random_instances(40, (2, 5), (2, 9), 0, 40, (Fraction(0),), seed=77):
            n, m = instance.agent_count, instance.item_count
            final = envy_cycle_elimination(instance, Allocation.empty(n, m))
            assert final.is_complete


class TestPublicStepsRefuseBadAllocations:
    """`refine_step2` and `envy_cycle_elimination` check the allocation they
    are given against the instance before they read it."""

    @pytest.mark.parametrize(
        "bundles, item_count", [([[0]], 3), ([[0], [1], [2]], 3), ([[0], [1]], 5)],
        ids=["one bundle", "three bundles", "five items"],
    )
    def test_a_bad_allocation_raises(self, bundles, item_count):
        instance = Instance.from_rows([[1, 2, 3], [3, 4, 5]])
        allocation = Allocation.of(bundles, item_count)
        groups = AgentGroups(EFX, g1=frozenset(), g2=frozenset({0, 1}))
        with pytest.raises(InvalidAllocation):
            refine_step2(instance, allocation, groups, (0, 1))
        with pytest.raises(InvalidAllocation):
            envy_cycle_elimination(instance, allocation)


def fraction_values(instance, allocation):
    """values[i][j] = v_i(B_j) in Fractions, from `bundle_value`."""
    return [
        [bundle_value(instance, i, bundle) for bundle in allocation.bundles]
        for i in range(instance.agent_count)
    ]


def best_remaining_item(instance, allocation, agent):
    """The agent's most valuable remaining item, smallest index on ties."""
    best, best_value = None, None
    for item in sorted(allocation.remaining):
        value = instance.value(agent, item)
        if best_value is None or value > best_value:
            best, best_value = item, value
    return best


def reference_completion(instance, allocation):
    """Envy-cycle elimination that rebuilds the exact Fraction value matrix
    from `Instance.valuations` at every step, not from the integer rows the
    solver reads, and searches it for cycles with the list-based reference
    search."""
    trace = []
    while allocation.remaining:
        while (
            cycle := reference_envy_cycle(fraction_values(instance, allocation))
        ) is not None:
            allocation = rotate_bundles(allocation, cycle)
            trace.append(CycleRotated(cycle))
        values = fraction_values(instance, allocation)
        envied = {
            j for i, row in enumerate(values) for j, value in enumerate(row) if value > row[i]
        }
        source = min(set(range(instance.agent_count)) - envied)
        item = best_remaining_item(instance, allocation, source)
        allocation = allocation.with_item(source, item)
        trace.append(SourcePick(source, item))
    return allocation, trace


pq_values = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(1, 60), st.integers(1, 12))
)
factors = st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000))


@st.composite
def completion_starts(draw):
    """A p/q instance with zeros, plus a one-item-per-agent start."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(n, 12))
    rows = [[draw(pq_values) for _ in range(m)] for _ in range(n)]
    items = draw(st.permutations(range(m)))[:n]
    return Instance.from_rows(rows), Allocation.of([[item] for item in items], m)


def completed(instance, start):
    trace = []
    return envy_cycle_elimination(instance, start, trace), trace


class TestCompletionAgainstReference:
    def test_matches_the_reference_completion(self):
        rng = random.Random(11)
        rotations = after_pick = 0
        for _ in range(80):
            n = rng.randint(3, 12)
            m = rng.randint(n, 3 * n)
            instance = Instance.from_rows(
                [
                    [
                        0 if rng.random() < 0.15
                        else Fraction(rng.randint(1, 60), rng.randint(1, 12))
                        for _ in range(m)
                    ]
                    for _ in range(n)
                ]
            )
            start = Allocation.of([[item] for item in rng.sample(range(m), n)], m)
            expected = reference_completion(instance, start)
            assert completed(instance, start) == expected
            trace = expected[1]
            rotations += sum(isinstance(e, CycleRotated) for e in trace)
            after_pick += sum(
                isinstance(e, CycleRotated) and isinstance(before, SourcePick)
                for before, e in zip(trace, trace[1:])
            )
        assert rotations > 100
        # a pick that closes a cycle: the search gated on the source ran
        assert after_pick > 20

    def test_matches_the_reference_from_partial_starts_with_cycles(self):
        """Several items per agent and a pool left over, on starts whose
        envy graph already holds a cycle."""
        rng = random.Random(12)
        starts = 0
        while starts < 60:
            n = rng.randint(2, 9)
            m = rng.randint(2 * n, 4 * n)
            instance = Instance.from_rows(
                [
                    [
                        0 if rng.random() < 0.2
                        else Fraction(rng.randint(1, 40), rng.randint(1, 6))
                        for _ in range(m)
                    ]
                    for _ in range(n)
                ]
            )
            owners = [rng.randrange(n + 2) for _ in range(m)]  # n, n + 1: the pool
            start = Allocation.of(
                [[g for g in range(m) if owners[g] == agent] for agent in range(n)], m
            )
            if not start.remaining or reference_envy_cycle(
                fraction_values(instance, start)
            ) is None:
                continue
            starts += 1
            expected = reference_completion(instance, start)
            assert isinstance(expected[1][0], CycleRotated)
            assert completed(instance, start) == expected

    @settings(max_examples=60, deadline=None)
    @given(completion_starts(), factors)
    def test_scaling_all_valuations_changes_nothing(self, case, c):
        instance, start = case
        scaled = Instance.from_rows([[v * c for v in row] for row in instance.valuations])
        assert completed(scaled, start) == completed(instance, start)

    @settings(max_examples=60, deadline=None)
    @given(completion_starts(), st.lists(factors, min_size=6, max_size=6))
    def test_scaling_each_agent_changes_nothing(self, case, cs):
        instance, start = case
        scaled = Instance.from_rows(
            [[v * c for v in row] for row, c in zip(instance.valuations, cs)]
        )
        assert completed(scaled, start) == completed(instance, start)


class TestCompletionWork:
    def test_one_cycle_search_and_one_mask_per_pick_without_rotations(self, monkeypatch):
        """Only completion picks through `_take`, which updates the
        strict-envy masks in O(n) per pick, and the full cycle search runs
        again only when a pick can have closed a cycle: with no rotation in
        the trace that is the one search at the start. An EFR solve with
        m = 4n makes 2n refinement picks and n source picks, so a count of
        `_take` calls tells the two steps apart."""
        import fairalloc.algorithms as algorithms
        import fairalloc.envy as envy

        counts = {"search": 0, "mask": 0, "take": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        search = counted("search", envy._envy_cycle_in_masks)
        mask = counted("mask", envy._envy_mask)
        for module in (envy, algorithms):
            monkeypatch.setattr(module, "_envy_cycle_in_masks", search)
            monkeypatch.setattr(module, "_envy_mask", mask)
        monkeypatch.setattr(algorithms, "_take", counted("take", algorithms._take))
        instance = generate_instance(GenSpec(40, 160, 0, 100, Fraction(1, 10), 1))
        _, trace = solve_efr(instance, check=False)
        refine_picks = sum(isinstance(e, Pick) for e in trace)
        source_picks = sum(isinstance(e, SourcePick) for e in trace)
        assert refine_picks > 0 and source_picks > 0
        assert refine_picks != instance.agent_count
        assert not any(isinstance(e, CycleRotated) for e in trace)
        # n masks for the order step, n when completion starts, then one per pick
        masks = 2 * instance.agent_count + source_picks
        assert counts == {"search": 1, "mask": masks, "take": source_picks}

    def test_one_matrix_per_certify_step_one_for_the_order_and_one_for_completion(
        self, monkeypatch
    ):
        """The matching reads its one-item matrix off the stored rows once
        per certify-or-move step. The order step sums the certified
        matching's matrix once (`strict_envy_edges`). Refinement sums no
        bundle; completion sums its matrix once, from the refined bundles,
        when its pool is not empty. With 6 agents and 12 items refinement
        empties the pool."""
        import fairalloc.algorithms as algorithms
        import fairalloc.envy as envy
        import fairalloc.matching as matching

        counts = {}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        complete = algorithms.envy_cycle_elimination

        def recorded(instance, allocation, *rest, **kwargs):
            counts["sum before completion"] = counts["sum"]
            counts["pool"] = bool(allocation.remaining)
            return complete(instance, allocation, *rest, **kwargs)

        build = counted("matrix", matching._matching_matrix)
        monkeypatch.setattr(matching, "_matching_matrix", build)
        monkeypatch.setattr(
            matching, "_certify_or_move", counted("step", matching._certify_or_move)
        )
        summed = counted("sum", envy._value_matrix)
        for module in (envy, algorithms):
            monkeypatch.setattr(module, "_value_matrix", summed)
        monkeypatch.setattr(algorithms, "envy_cycle_elimination", recorded)
        pools = []
        for n, m in ((40, 120), (6, 12)):
            instance = generate_instance(GenSpec(n, m, 0, 100, Fraction(1, 10), 3))
            for solver in (solve_efr, solve_efx):
                counts.update({"matrix": 0, "step": 0, "sum": 0})
                _, trace = solver(instance, check=False)
                assert any(isinstance(e, Pick) for e in trace)
                assert counts["step"] >= 1
                pools.append(counts["pool"])
                assert counts == {
                    "matrix": counts["step"], "step": counts["step"],
                    "sum": 1 + counts["pool"], "sum before completion": 1,
                    "pool": counts["pool"],
                }
        assert True in pools and False in pools

    def test_the_checks_scale_each_value_once_per_instance(self, monkeypatch):
        """Each value is scaled once, when the instance is built. A checks-on
        solve then runs the exact checker n + 2 times and the caller's
        `fairness_factor` once more; all of them read the stored ints, so
        they make no `as_integer_ratio` call, on a rational instance (here
        every value over 7) as on an integer one."""
        integers = generate_instance(GenSpec(40, 120, 0, 100, Fraction(1, 10), 1))
        sevenths = Instance.from_rows([[v / 7 for v in row] for row in integers.valuations])
        calls = 0
        as_integer_ratio = Fraction.as_integer_ratio

        def counted(value):
            nonlocal calls
            calls += 1
            return as_integer_ratio(value)

        monkeypatch.setattr(Fraction, "as_integer_ratio", counted)
        scaled = {}
        for name, instance in (("sevenths", sevenths), ("integers", integers)):
            calls = 0
            allocation, trace = solve_efx(instance, check=True)
            fairness_factor(instance, allocation, EFX)
            assert sum(isinstance(e, InvariantChecked) for e in trace) > instance.agent_count
            scaled[name] = calls
        assert sevenths.scales == (7,) * sevenths.agent_count
        assert scaled == {"sevenths": 0, "integers": 0}

    @pytest.mark.parametrize("agents", [6, 3])
    def test_a_file_to_file_solve_builds_no_fraction_per_value(self, monkeypatch, agents):
        """One small-batch-shaped operation on an integer file of 12 items --
        parse, checks-on `solve_efr` and `solve_efx`, then both output files
        -- builds no `Fraction` per value: only the envy ranks (n per certify
        step: the matching's and the certificate check's) and one factor per
        exact check. The `Fraction` table is never built. With 6 agents
        refinement empties the pool; with 3 the refinement pool bounds and
        completion's checks run too."""
        spec = GenSpec(agents, 12, 0, 100, Fraction(1, 10), 3)
        text = instance_to_json(generate_instance(spec))
        built = 0
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        instance = instance_from_json(text)
        allowed = 0
        for solver in (solve_efr, solve_efx):
            allocation, trace = solver(instance)
            allocation_to_json(allocation)
            trace_to_lines(trace)
            factors = sum(
                isinstance(e, InvariantChecked) and e.name == "completion-factor" for e in trace
            )
            allowed += 2 * instance.agent_count + factors + 1
        monkeypatch.undo()
        assert built <= allowed < instance.agent_count * instance.item_count
        assert "valuations" not in vars(instance)

    def test_the_checker_sums_no_bundle_and_yields_one_ratio_per_envier(
        self, monkeypatch
    ):
        """`fairness_factor` and `_check_refined` read every own value off
        the kernel's rows, so neither calls `bundle_value`, and the kernel
        yields each envier's worst rival only: at most one tuple per envier,
        in envier order, where one per pair would be n(n-1)."""
        import fairalloc.algorithms as algorithms
        import fairalloc.model as model

        calls, yielded = [], []
        kernel, summed = model._worst_rivals, model.bundle_value

        def counted(*args):
            calls.append(args)
            return summed(*args)

        def recorded(instance, allocation, notion):
            rows = list(kernel(instance, allocation, notion))
            yielded.append((instance.agent_count, [row[0] for row in rows]))
            return iter(rows)

        for module in (model, algorithms):
            monkeypatch.setattr(module, "bundle_value", counted, raising=False)
            monkeypatch.setattr(module, "_worst_rivals", recorded)
        instance = generate_instance(GenSpec(40, 120, 0, 100, Fraction(1, 10), 1))
        allocation, _ = solve_efx(instance, check=False)
        calls.clear()
        yielded.clear()
        for notion in FairnessNotion:
            fairness_factor(instance, allocation, notion)
        for clean, _, partial, groups in random_refinement_states(random.Random(606), 50):
            refined_check_outcome(clean, partial, groups)
            for notion in FairnessNotion:
                fairness_factor(clean, partial, notion)
        assert calls == []
        assert len(yielded) == 4 + 100 * 5
        assert max(len(rows) for _, rows in yielded) == 40
        for agents, rows in yielded:
            assert rows == sorted(set(rows)) and set(rows) <= set(range(agents))

    def test_the_pick_steps_build_no_allocation(self, monkeypatch):
        """Refinement and completion carry the bundles as lists, so no pick
        calls `Allocation.with_item`. An `Allocation` is built only where
        one is read: the warm start, each repair move, refinement's result,
        one per running check with checks on, then the result."""
        built = 0
        post_init = Allocation.__post_init__

        def counted(self):
            nonlocal built
            built += 1
            post_init(self)

        def refused(self, agent, item):
            raise AssertionError("a pick built an Allocation with `with_item`")

        monkeypatch.setattr(Allocation, "__post_init__", counted)
        monkeypatch.setattr(Allocation, "with_item", refused)
        instance = generate_instance(GenSpec(40, 120, 0, 100, Fraction(1, 10), 1))
        for solver in (solve_efr, solve_efx):
            for check in (False, True):
                built = 0
                allocation, trace = solver(instance, check=check)
                assert allocation.is_complete
                assert any(isinstance(e, Pick) for e in trace)
                checks = sum(isinstance(e, InvariantChecked) for e in trace)
                assert (checks > 0) == check
                assert built <= checks + 3
        assert any(isinstance(e, SourcePick) for e in trace)  # the checks-on EFX run

    def test_completion_starts_from_the_refined_allocations_matrix(self, monkeypatch):
        """`_solve` runs the public steps: completion starts from the
        refined allocation, and refinement from the matching, in the order
        read from the matching's strict-envy edges, on random p/q instances
        with zeros, ties and a pool left over. Completion sums its matrix
        from the refined bundles itself."""
        import fairalloc.algorithms as algorithms

        starts, orders = [], []
        refine, complete = algorithms.refine_step2, algorithms.envy_cycle_elimination

        def recorded_refine(instance, allocation, groups, order, *rest):
            orders.append((instance, allocation, order))
            return refine(instance, allocation, groups, order, *rest)

        def recorded(instance, allocation, *rest, **kwargs):
            starts.append(allocation)
            return complete(instance, allocation, *rest, **kwargs)

        monkeypatch.setattr(algorithms, "refine_step2", recorded_refine)
        monkeypatch.setattr(algorithms, "envy_cycle_elimination", recorded)
        rng = random.Random(1019)
        for trial in range(100):
            n = rng.randint(2, 10)
            m = rng.randint(2 * n, 5 * n)
            top, den = (2, 1) if trial % 3 == 0 else (60, 9)
            instance = Instance.from_rows(
                [
                    [
                        0 if rng.random() < 0.2
                        else Fraction(rng.randint(1, top), rng.randint(1, den))
                        for _ in range(m)
                    ]
                    for _ in range(n)
                ]
            )
            for solver in (solve_efr, solve_efx):
                _, trace = solver(instance, check=trial % 2 == 0)
                steps = [e for e in trace if not isinstance(e, (CycleRotated, SourcePick))]
                assert starts[-1] == replay_trace(steps)  # the refined allocation
        assert len(starts) == len(orders) == 200
        assert sum(bool(allocation.remaining) for allocation in starts) > 100
        with_edges = 0
        for instance, matched, order in orders:
            edges = strict_envy_edges(instance, matched)
            assert order == topological_order(instance.agent_count, edges)
            with_edges += bool(edges)
        assert with_edges > 0


def run_bytes(run):
    allocation, trace = run
    return allocation_to_json(allocation) + trace_to_lines(trace)


class TestScalingThroughThePipeline:
    @settings(max_examples=60, deadline=None)
    @given(
        completion_starts(),
        st.one_of(factors.map(lambda c: [c] * 6), st.lists(factors, min_size=6, max_size=6)),
    )
    def test_scaling_each_agent_changes_nothing(self, case, cs):
        """Row i times c_i (one c for all rows included) leaves every ratio
        and every within-row comparison as it was. The matching objective
        compares agents, so per-row factors can reorder it: both runs start
        from the unscaled run's matching."""
        instance, _ = case
        scaled = Instance.from_rows(
            [[v * c for v in row] for row, c in zip(instance.valuations, cs)]
        )
        for solver in (solve_efr, solve_efx):
            expected = solver(instance)
            with pytest.MonkeyPatch.context() as patch:
                start = [item for (item,) in expected[1][0].allocation.bundles]
                patch.setattr("fairalloc.matching._warm_start", lambda _: start)
                assert run_bytes(solver(scaled)) == run_bytes(expected)


class TestSolvers:
    def test_single_agent_gets_everything(self):
        instance = Instance.from_rows([[3, 0, 7]])
        allocation, _ = solve_efr(instance)
        assert allocation.bundles == (frozenset({0, 1, 2}),)
        assert fairness_factor(instance, allocation, EFR).factor == INF

    def test_identical_valuations_one_item_each(self):
        instance = Instance.from_rows([[4, 2, 1]] * 3)
        allocation, _ = solve_efr(instance)
        assert all(len(b) == 1 for b in allocation.bundles)
        assert fairness_factor(instance, allocation, EFR).factor == INF

    def test_too_few_items(self):
        with pytest.raises(InstanceTooSmall):
            solve_efr(Instance.from_rows([[1], [1]]))
        with pytest.raises(InstanceTooSmall):
            solve_efx(Instance.from_rows([[1], [1]]))

    def test_2x5_end_to_end(self, two_by_five):
        allocation, _ = solve_efr(two_by_five)
        report = fairness_factor(two_by_five, allocation, EFR)
        assert allocation.is_complete
        assert report.factor == Fraction(3, 2)

    def test_zero_heavy_instances_with_infinite_ranks(self):
        # Both agents value only item 0: whoever holds it is envied by an
        # agent with zero own value, so its envy rank is infinite. The
        # solvers must still deliver the guarantee (singleton bundles here).
        instance = Instance.from_rows([[5, 0], [7, 0]])
        result = nsw_matching(instance)
        with pytest.raises(InfiniteRank):
            partition_groups(result.ranks, EFR)
        for solver, threshold, notion in (
            (solve_efr, SQRT3_MINUS_ONE, EFR),
            (solve_efx, GOLDEN_RATIO_MINUS_ONE, EFX),
        ):
            allocation, trace = solver(instance)
            assert allocation.is_complete
            assert meets_threshold(
                fairness_factor(instance, allocation, notion), threshold
            )
            groups = next(
                e.groups for e in trace if isinstance(e, GroupsAssigned)
            )
            assert groups.g1  # the infinite-rank agent sits in the top group

    def test_infinite_rank_agent_keeps_singleton_with_leftover_pool(self):
        instance = Instance.from_rows([[0, 5, 0, 0], [0, 5, 0, 0], [1, 2, 3, 4]])
        allocation, _ = solve_efr(instance)
        assert allocation.is_complete
        assert meets_threshold(
            fairness_factor(instance, allocation, EFR), SQRT3_MINUS_ONE
        )

    def test_guarantees_on_random_instances(self):
        for _, instance in random_instances(
            150, (2, 6), (2, 12), 0, 100, (Fraction(0), Fraction(1, 10)), seed=90
        ):
            efr_alloc, efr_trace = solve_efr(instance)
            assert efr_alloc.is_complete
            assert meets_threshold(
                fairness_factor(instance, efr_alloc, EFR), SQRT3_MINUS_ONE
            )
            efx_alloc, efx_trace = solve_efx(instance)
            assert efx_alloc.is_complete
            assert meets_threshold(
                fairness_factor(instance, efx_alloc, EFX), GOLDEN_RATIO_MINUS_ONE
            )
            assert replay_trace(efr_trace) == efr_alloc
            assert replay_trace(efx_trace) == efx_alloc

    def test_deterministic_runs(self, two_by_five):
        first = solve_efr(two_by_five)
        second = solve_efr(two_by_five)
        assert first == second

    def test_checks_do_not_change_the_answer(self):
        for _, instance in random_instances(30, (2, 5), (2, 10), 0, 60, (Fraction(1, 10),), seed=41):
            for solver in (solve_efr, solve_efx):
                checked, checked_trace = solver(instance, check=True)
                unchecked, unchecked_trace = solver(instance, check=False)
                assert checked == unchecked
                assert any(isinstance(e, InvariantChecked) for e in checked_trace)
                assert not any(isinstance(e, InvariantChecked) for e in unchecked_trace)
                assert [
                    e for e in checked_trace if not isinstance(e, InvariantChecked)
                ] == unchecked_trace

    def test_efx_at_160_agents_without_checks(self):
        instance = generate_instance(GenSpec(160, 480, 0, 100, Fraction(1, 10), 1))
        allocation, _ = solve_efx(instance, check=False)
        assert allocation.is_complete
        assert meets_threshold(
            fairness_factor(instance, allocation, EFX), GOLDEN_RATIO_MINUS_ONE
        )

    def test_bundle_sizes_by_group_when_pool_is_ample(self):
        """With m >= 3n the pool cannot run dry during refinement, so the
        groups end it with exactly 1, 2, and 3 items respectively."""
        for _, instance in random_instances(40, (2, 4), (12, 12), 1, 100, (Fraction(0),), seed=63):
            _, trace = solve_efr(instance)
            groups = next(e.groups for e in trace if isinstance(e, GroupsAssigned))
            picked = {agent: 1 for agent in range(instance.agent_count)}
            for event in trace:
                if isinstance(event, Pick):
                    picked[event.agent] += 1
            for agent in range(instance.agent_count):
                expected = 1 if agent in groups.g1 else 2 if agent in groups.g2 else 3
                assert picked[agent] == expected


class TestEdgeCaseValues:
    def test_against_the_oracle(self):
        """Huge and tiny rationals, all-zero rows and columns and mixed
        magnitudes, where the log-space warm start loses resolution: the
        matching stays certified and never beats the enumerated optimum, it
        reaches the optimum whenever that gives every agent a positive value
        (the certificate implies optimality there), and both solvers return
        complete allocations that meet their guarantees."""
        rng = random.Random(40)

        def huge():
            return Fraction(10**40 + rng.randint(0, 3), 7)

        def tiny():
            return Fraction(rng.randint(0, 3), 7 * 10**40)

        def mixed():
            return rng.choice((huge, tiny, lambda: rng.randint(0, 9)))()

        optimal = 0
        for case in range(400):
            n = rng.randint(2, 4)
            m = rng.randint(n, 6)
            value = (huge, tiny, mixed, mixed, mixed)[case % 5]
            rows = [[value() for _ in range(m)] for _ in range(n)]
            if case % 5 == 2:
                rows[rng.randrange(n)] = [0] * m
            elif case % 5 == 3:
                column = rng.randrange(m)
                for row in rows:
                    row[column] = 0
            instance = Instance.from_rows(rows)
            result = nsw_matching(instance)
            assert verify_nsw_certificate(instance, result.allocation)
            mine = lexicographic_objective(instance, result.allocation)
            best = oracle_nsw_matching(instance)[0]
            assert mine <= best
            if best[0] == n:
                assert mine == best
                optimal += 1
            for solver, mode, threshold in (
                (solve_efr, EFR, SQRT3_MINUS_ONE),
                (solve_efx, EFX, GOLDEN_RATIO_MINUS_ONE),
            ):
                allocation, _ = solver(instance)
                assert allocation.is_complete
                assert meets_threshold(fairness_factor(instance, allocation, mode), threshold)
        assert optimal > 200

    @pytest.mark.xfail(
        strict=True,
        reason="a swap that keeps the number of positive agents but passes "
        "through a zero value is invisible to the envy-ratio certificate",
    )
    def test_zero_column_near_tie_reaches_the_optimum(self):
        # The floats cannot tell the two values apart and give item 0 to
        # agent 0. Agent 1 then values its item at 0; the swap raises the
        # product, but agent 0 values item 1 at 0, so the cycle (0, 1) has
        # weight 0 and the matching is certified as it stands.
        instance = Instance.from_rows(
            [[Fraction(10**40 + 1, 7), 0], [Fraction(10**40 + 3, 7), 0]]
        )
        result = nsw_matching(instance)
        assert verify_nsw_certificate(instance, result.allocation)
        assert (
            lexicographic_objective(instance, result.allocation)
            == oracle_nsw_matching(instance)[0]
        )


class TestFailuresNameTheirWitness:
    @pytest.mark.parametrize("check", [True, False])
    def test_a_missed_guarantee_names_notion_factor_and_witness(self, monkeypatch, check):
        """With every threshold test failing, the first check to read one
        raises: the completion-factor check with checks on, the final check
        with checks off. Its message names the notion, the exact factor and
        the witness pair of the report it tested."""
        import fairalloc.algorithms as algorithms

        reports = []

        def refused(report, threshold):
            reports.append(report)
            return False

        monkeypatch.setattr(algorithms, "meets_threshold", refused)
        instance = generate_instance(GenSpec(40, 120, 0, 100, Fraction(1, 10), 1))
        with pytest.raises(InternalGuaranteeViolated) as raised:
            solve_efx(instance, check=check)
        (report,) = reports
        assert report.witness is not None
        missed = f"efx factor {report.factor} at witness pair {report.witness} misses"
        prefix = "completion-factor after pick: " if check else "final "
        assert str(raised.value) == f"{prefix}{missed} the guarantee"


class TestTraceReplay:
    def test_replay_needs_a_matching_event(self):
        with pytest.raises(ValueError):
            replay_trace([])

    def test_replay_reproduces_solver_output(self, four_by_four):
        allocation, trace = solve_efx(four_by_four)
        assert isinstance(trace[0], MatchingDone)
        assert replay_trace(trace) == allocation

    @pytest.mark.parametrize(
        "line",
        [
            '{"event": "pick", "agent": -1, "item": 3, "pass": "g2"}',
            '{"event": "pick", "agent": 4, "item": 3, "pass": "g2"}',
            '{"event": "source-pick", "agent": 0, "item": 0}',
            '{"event": "source-pick", "agent": 1, "item": 0}',
            '{"event": "source-pick", "agent": 0, "item": 7}',
        ],
        ids=["negative-agent", "agent-past-the-end", "re-pick-own-item",
             "item-held-by-another", "item-past-the-end"],
    )
    def test_replay_rejects_a_bad_pick_read_from_a_trace_file(self, line):
        matching = MatchingDone(
            Allocation.of([[0], [1], [2], [3]], 6), EnvyRanks((Fraction(1),) * 4)
        )
        text = trace_to_lines([matching]) + line + "\n"
        with pytest.raises(InvalidAllocation):
            replay_trace(trace_from_lines(text))


def refined_check_outcome(instance, allocation, groups):
    """The events `_check_refined` records, and the check that failed, if any."""
    trace = []
    try:
        _check_refined(instance, allocation, groups, trace)
    except InternalGuaranteeViolated as failed:
        return trace, str(failed)
    return trace, None


def reference_check_outcome(instance, allocation, groups):
    """The same checks on `Fraction`s, pair by pair and item by item."""
    spec = MODES[groups.mode]
    n = instance.agent_count
    own = [bundle_value(instance, i, allocation.bundles[i]) for i in range(n)]

    def denominator(i, j):
        per_item = sorted(instance.value(i, g) for g in allocation.bundles[j])
        if len(per_item) < 2:
            return Fraction(0)
        return sum(per_item, Fraction(0)) * (len(per_item) - 1) / len(per_item) if (
            groups.mode is EFR
        ) else sum(per_item, Fraction(0)) - per_item[0]

    verdicts = [
        (
            "refine-g1-full-fairness" if k == 0 else f"refine-g{k + 1}-factor",
            all(
                compare_scaled(own[i], factor, denominator(i, j)) >= 0
                for i in members
                for j in range(n)
                if j != i
            ),
        )
        for k, (members, factor) in enumerate(zip(groups.members, spec.factors))
    ]
    if spec.global_check:
        report = fairness_factor(instance, allocation, groups.mode)
        verdicts.append(("refine-global-factor", meets_threshold(report, spec.threshold)))
    verdicts.append((
        "refine-remaining-bounds",
        all(
            compare_scaled(own[i], bound, instance.value(i, item)) >= 0
            for members, bound in zip(groups.members, spec.pool_bounds)
            for i in members
            for item in allocation.remaining
        ),
    ))
    trace = []
    for name, passed in verdicts:  # the checks stop at the first failure
        trace.append(InvariantChecked(name, passed))
        if not passed:
            return trace, name
    return trace, None


def random_refinement_states(rng, trials):
    """(clean instance, poisoned instance, allocation, groups) tuples: p/q
    values, or 1s and 2s for exact ties, with zeros, partial allocations and
    random rank groups. The poisoned instance stores wrong rows, which every
    decision reads, but holds the clean instance's `check_values`."""
    for trial in range(trials):
        n, m = rng.randint(2, 5), rng.randint(2, 10)
        top, denominator = (2, 1) if trial % 2 else (40, 9)
        rows = [
            [
                Fraction(0) if rng.random() < 0.2
                else Fraction(rng.randint(1, top), rng.randint(1, denominator))
                for _ in range(m)
            ]
            for _ in range(n)
        ]
        clean = Instance.from_rows(rows)
        wrong_rows = tuple(tuple(rng.randint(0, 50) for _ in range(m)) for _ in range(n))
        poisoned = Instance(wrong_rows, (1,) * n)
        poisoned.__dict__["check_values"] = clean.check_values
        owners = [rng.randrange(-1, n) for _ in range(m)]
        alloc = Allocation.of([[g for g in range(m) if owners[g] == i] for i in range(n)], m)
        for mode, group_count in ((EFR, 3), (EFX, 2)):
            members = [set() for _ in range(3)]
            for agent in range(n):
                members[min(rng.randrange(group_count + 2), group_count - 1)].add(agent)
            groups = AgentGroups(mode, *map(frozenset, members))
            yield clean, poisoned, alloc, groups


class TestRefinementChecks:
    def test_verdicts_match_a_fraction_reference(self):
        failures = []
        for instance, _, allocation, groups in random_refinement_states(
            random.Random(808), 150
        ):
            outcome = refined_check_outcome(instance, allocation, groups)
            assert outcome == reference_check_outcome(instance, allocation, groups)
            failures.append(outcome[1])
        # With every agent in a group, the global EFR check cannot fail once
        # every group factor holds: each group's factor is at least sqrt(3) - 1.
        for name in (None, "refine-g1-full-fairness", "refine-g2-factor",
                     "refine-g3-factor", "refine-remaining-bounds"):
            assert name in failures, name

    def test_an_agent_outside_every_group_enters_the_global_check(self):
        """Agent 0 is in no group; its EFR ratio against {1, 2} is
        1 / (10 * 1/2) = 1/5 < sqrt(3) - 1, so every group check passes and
        the global one fails."""
        instance = Instance.from_rows([[1, 5, 5, 0], [1, 5, 5, 0]])
        allocation = Allocation.of([[0], [1, 2]], 4)
        groups = AgentGroups(EFR, frozenset({1}), frozenset())
        outcome = refined_check_outcome(instance, allocation, groups)
        assert outcome == reference_check_outcome(instance, allocation, groups)
        assert outcome == (
            [
                InvariantChecked("refine-g1-full-fairness", True),
                InvariantChecked("refine-g2-factor", True),
                InvariantChecked("refine-g3-factor", True),
                InvariantChecked("refine-global-factor", False),
            ],
            "refine-global-factor",
        )

    def test_wrong_decision_rows_change_no_check(self):
        """The checks read their own cached view, `check_values`: on an
        instance whose stored `rows` are wrong but whose view is the clean
        one, every factor, witness and refinement verdict stays the same."""
        outcomes = set()
        for clean, poisoned, allocation, groups in random_refinement_states(
            random.Random(909), 120
        ):
            for notion in FairnessNotion:
                assert fairness_factor(poisoned, allocation, notion) == (
                    fairness_factor(clean, allocation, notion)
                )
            outcome = refined_check_outcome(clean, allocation, groups)
            assert refined_check_outcome(poisoned, allocation, groups) == outcome
            outcomes.add(outcome[1])
        assert None in outcomes and len(outcomes) > 3  # passes and several failures

    def test_a_zeroed_check_view_changes_no_decision(self):
        """With the checks' integer view overwritten by zeros every D_ij is
        0, so each factor is unbounded and every check but the `Fraction`
        pool bounds passes vacuously. Decisions never read the view, so a
        checks-on solve returns the same allocation and trace as on the
        clean instance."""
        rng = random.Random(1515)
        for trial in range(100):
            n = rng.randint(2, 8)
            m = rng.randint(n, 4 * n)
            top, den = (2, 1) if trial % 3 == 0 else (60, 9)
            rows = [
                [
                    0 if rng.random() < 0.2
                    else Fraction(rng.randint(1, top), rng.randint(1, den))
                    for _ in range(m)
                ]
                for _ in range(n)
            ]
            clean, zeroed = Instance.from_rows(rows), Instance.from_rows(rows)
            zeroed.__dict__["check_values"] = np.zeros((n, m), dtype=object)
            for solver, notion in ((solve_efr, EFR), (solve_efx, EFX)):
                expected = solver(clean, check=True)
                assert fairness_factor(zeroed, expected[0], notion).factor == INF
                assert run_bytes(solver(zeroed, check=True)) == run_bytes(expected)


class TestGoldenTrace:
    def test_seeded_batch_digest(self):
        """Allocations and full traces of a seeded acceptance-shaped batch:
        the group events and the invariant check names and order are pinned
        together with the picks and rotations."""
        digest = hashlib.sha256()
        for _, instance in random_instances(
            100, (2, 6), (2, 12), 0, 100, (Fraction(0), Fraction(1, 10)), seed=20261018
        ):
            for solver in (solve_efr, solve_efx):
                allocation, trace = solver(instance, check=True)
                digest.update(allocation_to_json(allocation).encode())
                digest.update(trace_to_lines(trace).encode())
        assert digest.hexdigest() == (
            "ede0989055a2873edfdde63b1cf5ff54eedc16d1cf0f3110f9d7666174e2a192"
        )

    def test_large_checks_off_digest(self):
        """Allocations and full traces of larger solves with checks off, the
        path the benchmark's large workloads take: integer instances at
        n = 20, 40, 80 (m = 3n), and p/q instances with n >= 20 whose
        denominators reach the float warm start (the last one with many
        repeated values), most with a pool left over for EFR's completion.
        Recorded before the value matrix was threaded through the solve."""
        instances = [
            generate_instance(GenSpec(n, 3 * n, 0, 100, Fraction(1, 10), s))
            for n in (20, 40, 80)
            for s in (1, 2)
        ]
        rng = random.Random(20261019)
        for n, m, top, den in ((20, 60, 60, 12), (24, 100, 9, 4), (20, 100, 3, 2)):
            instances.append(
                Instance.from_rows(
                    [
                        [
                            0 if rng.random() < 0.15
                            else Fraction(rng.randint(1, top), rng.randint(1, den))
                            for _ in range(m)
                        ]
                        for _ in range(n)
                    ]
                )
            )
        digest = hashlib.sha256()
        for instance in instances:
            for solver in (solve_efr, solve_efx):
                allocation, trace = solver(instance, check=False)
                digest.update(allocation_to_json(allocation).encode())
                digest.update(trace_to_lines(trace).encode())
        assert digest.hexdigest() == (
            "6c05012e51752298b8406f156db5b00ffbcb072aebdb298513cb4d280249097e"
        )


def fibonacci(count: int) -> list[int]:
    numbers = [0, 1]
    while len(numbers) < count:
        numbers.append(numbers[-1] + numbers[-2])
    return numbers


FIB = fibonacci(90)
BOUNDARY_BASE = [[0, 13, 21, 0, 10, 0], [16, 19, 4, 11, 36, 13], [3, 3, 17, 9, 14, 2]]
BOUNDARY_PAIR = [[0, 1], [4, 5], [2, 3]]  # agent 0 keeps items 0 and 1


def boundary_rows(j: int) -> list[list[int]]:
    """The EFX boundary family: every value of `BOUNDARY_BASE` times
    F(j+1), then agent 0's items 1 and 2 set to 21 F(j) and 21 F(j+1), so
    that the final factor sits at F(j)/F(j+1), next to phi - 1."""
    rows = [[v * FIB[j + 1] for v in row] for row in BOUNDARY_BASE]
    rows[0][1], rows[0][2] = 21 * FIB[j], 21 * FIB[j + 1]
    return rows


class TestBoundaryInstances:
    """Solves whose decisions sit on phi - 1. For odd j, F(j)/F(j+1) lies
    above phi - 1 and the solver keeps agent 0's pair at exactly that
    factor; for even j it lies below, and the solver takes other bundles.
    From j = 41 on, a float cannot tell F(j)/F(j+1) from phi - 1, so only
    exact comparisons give these answers."""

    @pytest.mark.parametrize(
        "j, bundles, factor, witness",
        [
            *((j, BOUNDARY_PAIR, Fraction(FIB[j], FIB[j + 1]), (0, 2))
              for j in (7, 41, 81)),
            *((j, [[0, 1, 3], [4, 5], [2]], Fraction(17, 14), (2, 1)) for j in (8, 42, 82)),
        ],
    )
    def test_the_efx_fibonacci_family(self, j, bundles, factor, witness):
        rows = boundary_rows(j)
        integers = Instance.from_rows(rows)
        fractions = Instance.from_rows([[Fraction(v, FIB[j + 1]) for v in row] for row in rows])
        # agent 0's row over F(j+1) is 21 F(j) / F(j+1), 21 and 10 where not 0
        assert fractions.scales == (FIB[j + 1] // math.gcd(21, FIB[j + 1]), 1, 1)
        assert integers.scales == (1, 1, 1)
        for instance in (integers, fractions):
            allocation, _ = solve_efx(instance, check=True)
            report = fairness_factor(instance, allocation, EFX)
            assert [sorted(b) for b in allocation.bundles] == bundles
            assert (report.factor, report.witness) == (factor, witness)

    def test_floats_cannot_tell_the_crossing(self):
        assert (FIB[41], FIB[42]) == (165580141, 267914296)
        assert float(Fraction(FIB[41], FIB[42])) == (math.sqrt(5) - 1) / 2

    @pytest.mark.parametrize("j, ulps", [(42, 1), (44, 0), (82, 0)])
    def test_factor_at_least_decides_below_the_crossing(self, j, ulps):
        """Agent 0's pair at even j: its EFX factor F(j)/F(j+1) lies below
        phi - 1, so the guarantee is missed, while its float lies one ulp
        below float(phi - 1) at j = 42 and equals it from j = 44 on."""
        instance = Instance.from_rows(boundary_rows(j))
        report = fairness_factor(instance, Allocation.of(BOUNDARY_PAIR, 6), EFX)
        assert (report.factor, report.witness) == (Fraction(FIB[j], FIB[j + 1]), (0, 2))
        phi_minus_one = (math.sqrt(5) - 1) / 2
        assert float(report.factor) == phi_minus_one - ulps * math.ulp(phi_minus_one)
        assert not meets_threshold(report, GOLDEN_RATIO_MINUS_ONE)

    def test_verify_misses_phi_minus_one_where_the_floats_are_equal(self, tmp_path, capsys):
        (tmp_path / "instance.json").write_text(json.dumps({"valuations": boundary_rows(44)}))
        (tmp_path / "allocation.json").write_text(json.dumps({"bundles": BOUNDARY_PAIR}))
        code = main([
            "verify", "--notion", "efx", "--threshold", "phi-1",
            "--input", str(tmp_path / "instance.json"),
            "--allocation", str(tmp_path / "allocation.json"),
        ])
        assert code == 1
        assert "threshold phi-1: not met" in capsys.readouterr().out
