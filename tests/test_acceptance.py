"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
The two batch fixtures are shared across criteria so the 1000-instance runs
happen once per algorithm.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from fairalloc import (
    GOLDEN_RATIO_MINUS_ONE,
    SQRT3_MINUS_ONE,
    Allocation,
    CycleRotated,
    FairnessNotion,
    Instance,
    InvariantChecked,
    SourcePick,
    build_envy_ratio_graph,
    bundle_value,
    envy_ranks,
    factor_at_least,
    fairness_factor,
    find_improving_cycle,
    meets_threshold,
    nsw_matching,
    removal_expectation,
    replay_trace,
    rotate_bundles,
    solve_efr,
    solve_efx,
)
from fairalloc.cli import main as cli_main
from fairalloc.files import allocation_from_json, random_instances, trace_from_lines
from fairalloc.matching import lexicographic_objective
from fairalloc.oracle import (
    oracle_best_factor,
    oracle_envy_rank,
    oracle_improving_cycle,
    oracle_nsw_matching,
    oracle_removal_expectation,
)

from envy_reference import cycle_weights, product

ACCEPTANCE_SEED = 20260809
BATCH = dict(
    count=1000,
    agents=(2, 6),
    items=(2, 12),  # per-instance floor is the agent count
    low=0,
    high=100,
    zero_probabilities=(Fraction(0), Fraction(1, 10)),
    seed=ACCEPTANCE_SEED,
)


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _run_batch(solver):
    runs = []
    started = time.perf_counter()
    for spec, instance in random_instances(**BATCH):
        allocation, trace = solver(instance, check=True)
        runs.append((spec, instance, allocation, trace))
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def efr_batch():
    return _run_batch(solve_efr)


@pytest.fixture(scope="module")
def efx_batch():
    return _run_batch(solve_efx)


def test_criterion_1_worked_example_4x4(four_by_four, identity_allocation):
    """Envy rank 3, improving cycle (0,2,1) of product 3/2, and its rotation."""
    with criterion("1 worked example: ranks, improving cycle, rotation"):
        started = time.perf_counter()
        graph = build_envy_ratio_graph(four_by_four, identity_allocation)
        assert oracle_envy_rank(graph, 0) == 3
        found = oracle_improving_cycle(graph)
        assert found == ((0, 2, 1), Fraction(3, 2))
        cycle, _ = found
        assert product(cycle_weights(graph, cycle)) == Fraction(3, 2)
        assert find_improving_cycle(graph) == cycle
        assert rotate_bundles(identity_allocation, cycle) == Allocation.of(
            [[2], [0], [1], [3]], 4
        )
        assert time.perf_counter() - started < 1.0


def test_criterion_2_worked_example_2x5(two_by_five):
    """The unique product-maximal complete allocation and its exact factors."""
    with criterion("2 worked example: unique product maximum at factor 21/22"):
        started = time.perf_counter()
        best_product, winners = Fraction(-1), []
        for owners in itertools.product(range(2), repeat=5):
            bundles = [set(), set()]
            for item, owner in enumerate(owners):
                bundles[owner].add(item)
            prod = bundle_value(two_by_five, 0, bundles[0]) * bundle_value(
                two_by_five, 1, bundles[1]
            )
            if prod > best_product:
                best_product, winners = prod, [bundles]
            elif prod == best_product:
                winners.append(bundles)
        assert best_product == 49
        assert winners == [[{0, 1, 2}, {3, 4}]]

        allocation = Allocation.of([[0, 1, 2], [3, 4]], 5)
        assert removal_expectation(two_by_five, 1, {0, 1, 2}) == Fraction(22, 3)
        report = fairness_factor(two_by_five, allocation, FairnessNotion.EFR)
        assert report.factor == Fraction(21, 22)
        assert not meets_threshold(report, 1)
        assert meets_threshold(report, SQRT3_MINUS_ONE)
        assert time.perf_counter() - started < 1.0


def _assert_complete_and_disjoint(allocation):
    assert allocation.is_complete
    assert sum(len(b) for b in allocation.bundles) == allocation.item_count


def test_criterion_3_efr_guarantee_on_1000_instances(efr_batch):
    runs, elapsed = efr_batch
    with criterion(f"3 EFR guarantee on {len(runs)} seeded instances ({elapsed:.1f}s)"):
        assert len(runs) >= 1000
        for _, instance, allocation, _ in runs:
            _assert_complete_and_disjoint(allocation)
            report = fairness_factor(instance, allocation, FairnessNotion.EFR)
            assert meets_threshold(report, SQRT3_MINUS_ONE)
        assert elapsed < 60.0


def test_criterion_4_efx_guarantee_on_1000_instances(efx_batch):
    runs, elapsed = efx_batch
    with criterion(f"4 EFX guarantee on {len(runs)} seeded instances ({elapsed:.1f}s)"):
        assert len(runs) >= 1000
        for _, instance, allocation, _ in runs:
            _assert_complete_and_disjoint(allocation)
            report = fairness_factor(instance, allocation, FairnessNotion.EFX)
            assert meets_threshold(report, GOLDEN_RATIO_MINUS_ONE)
        assert elapsed < 60.0


EFR_CHECKS = {
    "matching-certificate",
    "refine-g1-full-fairness",
    "refine-g2-factor",
    "refine-g3-factor",
    "refine-global-factor",
    "refine-remaining-bounds",
}
EFX_CHECKS = {
    "matching-certificate",
    "refine-g1-full-fairness",
    "refine-g2-factor",
    "refine-remaining-bounds",
}


def _audit_checks(runs, expected_names):
    for _, _, _, trace in runs:
        seen = [e for e in trace if isinstance(e, InvariantChecked)]
        assert all(event.passed for event in seen)
        assert {e.name for e in seen} >= expected_names
        completion_events = sum(1 for e in seen if e.name == "completion-factor")
        step3_moves = sum(
            1 for e in trace if isinstance(e, (CycleRotated, SourcePick))
        )
        assert completion_events == step3_moves  # checked after every move


def test_criterion_5_mid_run_invariants(efr_batch, efx_batch):
    efr_runs, _ = efr_batch
    efx_runs, _ = efx_batch
    with criterion("5 mid-run invariant suite: zero violations"):
        _audit_checks(efr_runs, EFR_CHECKS)
        _audit_checks(efx_runs, EFX_CHECKS)


def test_criterion_6_oracle_equivalence():
    with criterion("6 oracle equivalence on 200 small instances"):
        started = time.perf_counter()
        count = 0
        for spec, instance in random_instances(
            count=200,
            agents=(2, 5),
            items=(2, 7),
            low=0,
            high=100,
            zero_probabilities=(Fraction(0), Fraction(1, 10)),
            seed=ACCEPTANCE_SEED + 1,
        ):
            count += 1
            result = nsw_matching(instance)
            assert (
                lexicographic_objective(instance, result.allocation)
                == oracle_nsw_matching(instance)[0]
            )
            graph = build_envy_ratio_graph(instance, result.allocation)
            assert find_improving_cycle(graph) is None
            assert oracle_improving_cycle(graph) is None
            ranks = envy_ranks(graph)
            for agent in range(instance.agent_count):
                assert ranks[agent] == oracle_envy_rank(graph, agent)

            # improving-cycle existence must also agree on graphs that have one
            rng = random.Random(spec.seed)
            shuffled = list(range(instance.item_count))
            rng.shuffle(shuffled)
            scrambled = Allocation.of(
                [[shuffled[i]] for i in range(instance.agent_count)],
                instance.item_count,
            )
            scrambled_graph = build_envy_ratio_graph(instance, scrambled)
            assert (find_improving_cycle(scrambled_graph) is None) == (
                oracle_improving_cycle(scrambled_graph) is None
            )

            allocation, _ = solve_efr(instance)
            for observer in range(instance.agent_count):
                for bundle in (*allocation.bundles, *result.allocation.bundles):
                    if bundle:
                        assert removal_expectation(
                            instance, observer, bundle
                        ) == oracle_removal_expectation(instance, observer, bundle)
        elapsed = time.perf_counter() - started
        assert count >= 200
        assert elapsed < 120.0


def test_criterion_6b_solver_never_beats_the_oracle():
    """oracle_best_factor >= the solver's achieved factor >= sqrt(3)-1."""
    with criterion("6b solver factor bracketed by the enumeration optimum"):
        for _, instance in random_instances(
            count=40,
            agents=(2, 3),
            items=(2, 7),
            low=0,
            high=20,
            zero_probabilities=(Fraction(0),),
            seed=ACCEPTANCE_SEED + 2,
        ):
            allocation, _ = solve_efr(instance)
            achieved = fairness_factor(instance, allocation, FairnessNotion.EFR).factor
            best, _ = oracle_best_factor(instance, FairnessNotion.EFR)
            assert best >= achieved
            assert factor_at_least(achieved, SQRT3_MINUS_ONE)


def test_criterion_7_determinism_and_replay(tmp_path, two_by_five):
    with criterion("7 byte-identical reruns and exact trace replay"):
        instance_path = tmp_path / "instance.json"
        instance_path.write_text(
            '{"n": 2, "m": 5, "valuations": [[3, 3, 1, 1, 1], [5, 5, 1, 4, 3]]}\n'
        )
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}-alloc.json"
            trace = tmp_path / f"{tag}-trace.jsonl"
            assert cli_main([
                "solve", "--algorithm", "efr",
                "--input", str(instance_path),
                "--output", str(out),
                "--trace", str(trace),
            ]) == 0
            outputs.append((out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]

        written = allocation_from_json(outputs[0][0].decode(), two_by_five)
        events = trace_from_lines(outputs[0][1].decode())
        assert replay_trace(events) == written
