import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fairalloc
from fairalloc import (
    INF,
    Allocation,
    Instance,
    InstanceTooSmall,
    InvalidAllocation,
    build_envy_ratio_graph,
    envy_ranks,
    find_improving_cycle,
    matching,
    nsw_matching,
    strict_envy_edges,
    topological_order,
    verify_nsw_certificate,
)
from fairalloc.envy import EnvyRanks, _value_matrix
from fairalloc.files import random_instances
from fairalloc.matching import (
    _find_pool_violation,
    _log_weights,
    lexicographic_objective,
)
from fairalloc.model import bundle_value
from fairalloc.oracle import oracle_nsw_matching

from envy_reference import product


class TestNswMatching:
    def test_4x4_reaches_the_product_maximum(self, four_by_four):
        result = nsw_matching(four_by_four)
        assert result.allocation == Allocation.of([[2], [0], [1], [3]], 4)
        assert lexicographic_objective(four_by_four, result.allocation) == (
            4,
            Fraction(432),
        )

    def test_single_agent_takes_its_maximum(self):
        result = nsw_matching(Instance.from_rows([[5, 9]]))
        assert result.allocation.bundles == (frozenset({1}),)

    def test_2x5_product(self, two_by_five):
        result = nsw_matching(two_by_five)
        count, prod = lexicographic_objective(two_by_five, result.allocation)
        assert (count, prod) == (2, Fraction(15))

    def test_too_few_items(self):
        with pytest.raises(InstanceTooSmall):
            nsw_matching(Instance.from_rows([[1, 2], [2, 1], [1, 1]]))

    def test_all_zero_instance(self):
        instance = Instance.from_rows([[0, 0, 0], [0, 0, 0]])
        result = nsw_matching(instance)
        assert lexicographic_objective(instance, result.allocation) == (0, Fraction(1))
        assert oracle_nsw_matching(instance)[0] == (0, Fraction(1))

    def test_float_near_tie_is_repaired_exactly(self):
        """Candidate products differing by one part in 10^18 are beyond float
        log precision; the exact repair loop must still settle on the winner."""
        big = 10**18
        instance = Instance.from_rows([[big - 1, big], [1, 1]])
        result = nsw_matching(instance)
        assert result.allocation == Allocation.of([[1], [0]], 2)
        assert lexicographic_objective(instance, result.allocation)[1] == big

    def test_float_near_tie_against_the_pool(self):
        big = 10**18
        instance = Instance.from_rows([[big - 1, big]])
        result = nsw_matching(instance)
        assert result.allocation.bundles == (frozenset({1}),)

    def test_near_tie_with_two_agents(self):
        big = 10**18
        instance = Instance.from_rows([[big + 1, big], [big, big]])
        result = nsw_matching(instance)
        # products (big+1)*big vs big*big: a log gap of ~1e-18, invisible to
        # floats, decided by the exact repair loop
        assert (
            lexicographic_objective(instance, result.allocation)
            == oracle_nsw_matching(instance)[0]
            == (2, Fraction((big + 1) * big))
        )

    def test_repair_fixes_misranked_warm_starts(self):
        """Values around 1e17 with +-3 jitter give log gaps below float
        resolution, so the warm start regularly lands on the wrong matching;
        the repair loop must still end at the enumerated optimum."""
        import random

        from fairalloc.matching import _warm_start

        rng = random.Random(13)
        repaired = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            m = rng.randint(n, 7)
            base = 10**17
            instance = Instance.from_rows(
                [[base + rng.randint(0, 3) for _ in range(m)] for _ in range(n)]
            )
            best = oracle_nsw_matching(instance)[0]
            result = nsw_matching(instance)
            assert lexicographic_objective(instance, result.allocation) == best
            start = Allocation.of([[item] for item in _warm_start(instance)], m)
            if lexicographic_objective(instance, start) != best:
                repaired += 1
        assert repaired > 10  # the sweep genuinely exercises the repair path

    def test_repair_from_arbitrary_starts_through_infinite_weights(self, monkeypatch):
        """Zero-heavy instances started from random one-item matchings: agents
        holding an item they value at 0 put infinite edges into the envy-ratio
        graph, so the repair loop rotates and pulls items through them. Every
        run must end certified and no worse than it started. From an
        arbitrary start the loop may stop at a certified local optimum, so
        global optimality is not asserted here."""
        import random

        from fairalloc import matching

        rng = random.Random(2718)
        through_infinite = 0
        for _ in range(150):
            n = rng.randint(2, 5)
            m = rng.randint(n, 7)
            zeros = rng.uniform(0.3, 0.7)
            rows = [
                [0 if rng.random() < zeros else rng.randint(1, 20) for _ in range(m)]
                for _ in range(n)
            ]
            instance = Instance.from_rows(rows)
            items = rng.sample(range(m), n)
            start = Allocation.of([[item] for item in items], m)
            monkeypatch.setattr(matching, "_warm_start", lambda _instance: items)
            result = nsw_matching(instance)
            assert verify_nsw_certificate(instance, result.allocation)
            assert lexicographic_objective(instance, result.allocation) >= (
                lexicographic_objective(instance, start)
            )
            graph = build_envy_ratio_graph(instance, start)
            if result.allocation != start and any(
                graph.weight(i, j) == INF for i, j in graph.pairs()
            ):
                through_infinite += 1
        # most runs start from a graph with infinite edges and make moves
        assert through_infinite > 50


class TestLexicographicObjective:
    def test_rejects_an_allocation_that_does_not_fit(self):
        instance = Instance.from_rows([[1, 2, 3], [3, 4, 5]])
        for bundles, item_count in (([[0]], 3), ([[0], [1]], 5), ([[0], [1], [2]], 3)):
            with pytest.raises(InvalidAllocation):
                lexicographic_objective(instance, Allocation.of(bundles, item_count))

    def test_equals_the_fraction_sums(self):
        """Bundles of any size on p/q rows with zeros: the count and product
        of the positive own values summed in `Fraction`s."""
        rng = random.Random(24)
        for _ in range(300):
            n, m = rng.randint(1, 5), rng.randint(1, 9)
            instance = Instance.from_rows(
                [
                    [
                        0 if rng.random() < 0.3
                        else Fraction(rng.randint(1, 10**rng.randint(1, 30)), rng.randint(1, 9))
                        for _ in range(m)
                    ]
                    for _ in range(n)
                ]
            )
            bundles = [[] for _ in range(n)]
            for item in range(m):
                if rng.random() < 0.8:
                    bundles[rng.randrange(n)].append(item)
            allocation = Allocation.of(bundles, m)
            own = [bundle_value(instance, i, b) for i, b in enumerate(allocation.bundles)]
            positive = [v for v in own if v > 0]
            assert lexicographic_objective(instance, allocation) == (
                len(positive), product(positive)
            )

    def test_a_solve_that_moves_builds_no_fraction_table(self, monkeypatch):
        """A jitter instance the warm start misranks: its repair loop makes
        two moves, and neither solve nor any of its checks builds
        `Instance.valuations`."""
        calls = 0
        objective = matching.lexicographic_objective

        def counted(*args):
            nonlocal calls
            calls += 1
            return objective(*args)

        monkeypatch.setattr(matching, "lexicographic_objective", counted)
        instance = Instance.from_rows([[10**17 + r for r in row] for row in [[2, 0, 3], [1, 1, 2]]])
        for solver in (fairalloc.solve_efr, fairalloc.solve_efx):
            solver(instance, check=True)
        assert calls == 2 * 3  # per solve: the start's objective and one per move
        assert "valuations" not in instance.__dict__


def per_value_log_weights(instance):
    """The warm start's weight table computed value by value: math.log(p) -
    math.log(q) for each p/q, and for each zero the sentinel below the
    positive weights by more than n times their spread, or -1.0 when every
    value is zero."""
    logs = [
        [
            math.log(v.numerator) - math.log(v.denominator) if v.numerator else None
            for v in row
        ]
        for row in instance.valuations
    ]
    finite = [x for row in logs for x in row if x is not None]
    if finite:
        lo, hi = min(finite), max(finite)
        sentinel = lo - (instance.agent_count * (hi - lo) + 1.0)
    else:
        sentinel = -1.0
    return [[sentinel if x is None else x for x in row] for row in logs]


class TestWarmStartWeights:
    """`_log_weights` takes one log per distinct value of the rows of one
    scale; every float must equal the per-value table's, with `==`, or the
    warm start could change."""

    def test_same_floats_as_the_per_value_table(self):
        rng = random.Random(4)
        families = {
            "repeated p/q": lambda: Fraction(rng.randint(1, 4), rng.randint(1, 3)),
            "wide p/q": lambda: Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)),
            "(10^40+r)/7": lambda: Fraction(10**40 + rng.randint(0, 40), 7),
            "integers as Fractions": lambda: Fraction(rng.randint(1, 100)),
            "integers": lambda: rng.randint(1, 100),
            "integers near 10^40": lambda: 10**40 + rng.randint(0, 40),
        }
        positive_int_rows = 0
        for draw in families.values():
            for _ in range(40):
                n, m = rng.randint(1, 8), rng.randint(1, 20)
                zeros = rng.choice([0, 0.3, 0.9])
                instance = Instance.from_rows(
                    [
                        [0 if rng.random() < zeros else draw() for _ in range(m)]
                        for _ in range(n)
                    ]
                )
                positive_int_rows += sum(
                    s == 1 and any(row) for row, s in zip(instance.rows, instance.scales)
                )
                weights = _log_weights(instance)
                assert weights.shape == (n, m)
                assert weights.tolist() == per_value_log_weights(instance)
        assert positive_int_rows > 300

    def test_integer_rows_beside_fraction_rows(self):
        """Rows of scale 1 beside rows of other scales in one instance, where
        an equal value takes the same float in every row that holds it,
        whatever the row's scale."""
        rng = random.Random(5)
        scales = set()
        for _ in range(200):
            n, m = rng.randint(2, 6), rng.randint(1, 12)
            rows = []
            for agent in range(n):
                if agent % 2:
                    rows.append([rng.randint(0, 12) for _ in range(m)])
                else:
                    rows.append([
                        Fraction(rng.randint(0, 12), rng.choice([1, 1, 2, 3]))
                        for _ in range(m)
                    ])
            instance = Instance.from_rows(rows)
            scales.update(instance.scales)
            weights = _log_weights(instance)
            assert weights.tolist() == per_value_log_weights(instance)
            whole = {}
            for row, logs in zip(instance.valuations, weights.tolist()):
                for value, log in zip(row, logs):
                    assert whole.setdefault(value, log) == log
        assert scales == {1, 2, 3, 6}
        instance = Instance.from_rows([[3, 0, 7], [Fraction(7), Fraction(3, 2), Fraction(3)]])
        assert instance.rows == ((3, 0, 7), (14, 3, 6)) and instance.scales == (1, 2)
        weights = _log_weights(instance).tolist()
        assert weights[0][0] == weights[1][2] == math.log(3)
        assert weights[0][2] == weights[1][0] == math.log(7)
        assert weights[1][1] == math.log(3) - math.log(2)
        assert weights == per_value_log_weights(instance)

    def test_all_zero_instance_takes_the_fixed_sentinel(self):
        instance = Instance.from_rows([[0] * 4] * 3)
        assert _log_weights(instance).tolist() == [[-1.0] * 4] * 3
        assert per_value_log_weights(instance) == [[-1.0] * 4] * 3


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    source = str(Path(fairalloc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": source + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


class TestAssignmentKernel:
    """The warm start's `linear_sum_assignment` is SciPy's compiled kernel,
    loaded from its file without importing `scipy.optimize`, or else the
    public function; either way it must be the same assignment."""

    @staticmethod
    def tie_heavy_tables():
        rng = np.random.default_rng(16)
        for _ in range(160):
            n = int(rng.integers(1, 41))
            m = int(rng.integers(n, 3 * n + 1))
            yield rng.integers(0, 6, size=(n, m)).astype(float)
        py_rng = random.Random(16)
        for _ in range(40):
            n = py_rng.randint(1, 12)
            m = py_rng.randint(n, 3 * n)
            zeros = py_rng.choice([0.2, 0.5, 0.9, 1.0])
            yield _log_weights(
                Instance.from_rows(
                    [
                        [0 if py_rng.random() < zeros else py_rng.randint(1, 5) for _ in range(m)]
                        for _ in range(n)
                    ]
                )
            )

    def test_same_rows_and_cols_as_the_public_function(self):
        from scipy.optimize import linear_sum_assignment as public

        sentinels = 0
        for table in self.tie_heavy_tables():
            rows, cols = matching.linear_sum_assignment(table, maximize=True)
            expected_rows, expected_cols = public(table, maximize=True)
            assert rows.tolist() == expected_rows.tolist()
            assert cols.tolist() == expected_cols.tolist()
            sentinels += bool((table < 0).any())
        assert sentinels > 20

    def test_falls_back_to_the_public_function_without_a_kernel_file(self, monkeypatch):
        from scipy.optimize import linear_sum_assignment as public

        monkeypatch.setattr(matching, "_kernel_path", lambda: None)
        assert matching._load_kernel() is public

    def test_falls_back_when_the_kernel_file_fails_to_load(self, monkeypatch, tmp_path):
        from scipy.optimize import linear_sum_assignment as public

        broken = tmp_path / "_lsap.so"
        broken.write_bytes(b"not a shared object")
        monkeypatch.setattr(matching, "_kernel_path", lambda: str(broken))
        before = sys.modules.get(matching._KERNEL)
        assert matching._load_kernel() is public
        assert sys.modules.get(matching._KERNEL) is before

    def test_scipy_optimize_imports_after_the_package(self):
        done = run_python(
            "import sys\n"
            "import numpy as np\n"
            "from fairalloc import matching\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "assert matching._KERNEL not in sys.modules\n"
            "import scipy.optimize\n"
            "table = np.random.default_rng(3).integers(0, 4, size=(30, 70)).astype(float)\n"
            "ours = matching.linear_sum_assignment(table, maximize=True)\n"
            "theirs = scipy.optimize.linear_sum_assignment(table, maximize=True)\n"
            "assert [a.tolist() for a in ours] == [a.tolist() for a in theirs]\n"
            "print('ok')\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"

    def test_a_cold_start_never_imports_scipy_optimize(self, tmp_path):
        """Which modules a solve loads, not how long it takes: the import,
        both solvers with checks on, and one CLI solve."""
        path = tmp_path / "four.json"
        path.write_text(
            '{"valuations": [[8, 2, 4, 3], [4, 2, 0, 2], [0, 3, 2, 2], [1, 6, 3, 9]]}\n'
        )
        done = run_python(
            "import sys\n"
            "from fairalloc import Instance, cli, solve_efr, solve_efx\n"
            "rows = [[8, 2, 4, 3], [4, 2, 0, 2], [0, 3, 2, 2], [1, 6, 3, 9]]\n"
            "solve_efr(Instance.from_rows(rows), check=True)\n"
            "solve_efx(Instance.from_rows(rows), check=True)\n"
            f"code = cli.main(['solve', '--algorithm', 'efx', '--input', {str(path)!r},"
            f" '--output', {str(tmp_path / 'out.json')!r}])\n"
            "assert code == 0, code\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out.json").exists()


class TestCertificate:
    def test_identity_4x4_fails(self, four_by_four, identity_allocation):
        assert not verify_nsw_certificate(four_by_four, identity_allocation)

    def test_rotated_4x4_holds(self, four_by_four, rotated_allocation):
        assert verify_nsw_certificate(four_by_four, rotated_allocation)

    def test_single_agent_holding_its_maximum(self):
        instance = Instance.from_rows([[5, 9]])
        assert verify_nsw_certificate(instance, Allocation.of([[1]], 2))
        assert not verify_nsw_certificate(instance, Allocation.of([[0]], 2))

    def test_requires_one_item_per_agent(self, two_by_five):
        with pytest.raises(InvalidAllocation):
            verify_nsw_certificate(two_by_five, Allocation.of([[0, 1], [2]], 5))


    def test_infinite_rank_breaks_on_a_pool_value_of_one(self):
        # Agent 0 values its own item at 0 and agent 1's item at 1, so agent
        # 1's rank is infinite: its pool value of 1 breaks the bound.
        instance = Instance.from_rows([[0, 1, 0], [0, 5, 1]])
        allocation = Allocation.of([[0], [1]], 3)
        assert envy_ranks(build_envy_ratio_graph(instance, allocation))[1] == INF
        assert not verify_nsw_certificate(instance, allocation)


def reference_pool_violation(instance, allocation, ranks):
    """The smallest (agent, pool item) with rank * value > own value, in
    `Fraction`s on the instance's own valuations."""
    for agent, bundle in enumerate(allocation.bundles):
        own = bundle_value(instance, agent, bundle)
        for item in sorted(allocation.remaining):
            if product([ranks[agent], instance.value(agent, item)]) > own:
                return agent, item
    return None


class TestPoolViolation:
    def test_matches_a_fraction_reference(self):
        """Random ranks, infinite ones included, and ranks set to own/value
        of a pool item so that rank * value ties the own value."""
        rng = random.Random(8)
        found = ties = 0
        for _ in range(600):
            n = rng.randint(1, 5)
            m = rng.randint(n + 1, 9)
            instance = Instance.from_rows(
                [
                    [
                        0 if rng.random() < 0.25
                        else Fraction(rng.randint(1, 30), rng.randint(1, 7))
                        for _ in range(m)
                    ]
                    for _ in range(n)
                ]
            )
            items = list(range(m))  # each agent takes its best item left
            bundles = []
            for row in instance.valuations:
                bundles.append([max(items, key=row.__getitem__)])
                items.remove(bundles[-1][0])
            allocation = Allocation.of(bundles, m)
            pool = sorted(allocation.remaining)
            ranks = []
            for agent, (item,) in enumerate(allocation.bundles):
                own, other = instance.value(agent, item), instance.value(
                    agent, rng.choice(pool)
                )
                kind = rng.random()
                if kind < 0.15:
                    ranks.append(INF)
                elif kind < 0.5 and other and own >= other:
                    ranks.append(own / other)
                    ties += 1
                else:
                    ranks.append(Fraction(rng.randint(4, 12), 4))
            ranks = EnvyRanks(tuple(ranks))
            expected = reference_pool_violation(instance, allocation, ranks)
            values = _value_matrix(instance.rows, allocation.bundles)
            items = [item for (item,) in bundles]
            assert _find_pool_violation(instance, items, values, ranks) == expected
            found += expected is not None
        assert ties > 100 and 150 < found < 450

    @pytest.mark.parametrize(
        "rank, expected", [(Fraction(1), None), (Fraction(3, 2), (0, 3))]
    )
    def test_a_row_maximum_held_by_another_agent(self, rank, expected):
        """Agent 0's best item is agent 1's: 10 * rank > 4 breaks the bound,
        but only pool items count. At rank 1 every pool value passes; at
        rank 3/2 the pool value 3 breaks it (4.5 > 4) and 2 does not."""
        instance = Instance.from_rows([[4, 10, 2, 3], [1, 5, 1, 1]])
        allocation = Allocation.of([[0], [1]], 4)
        ranks = EnvyRanks((rank, Fraction(1)))
        values = _value_matrix(instance.rows, allocation.bundles)
        assert reference_pool_violation(instance, allocation, ranks) == expected
        assert _find_pool_violation(instance, [0, 1], values, ranks) == expected


class TestMatchingMatrix:
    def test_each_certify_step_reads_the_summed_matrix(self, monkeypatch):
        """Every certify-or-move step's matrix, read off the stored rows at
        the matched items, equals the one `_value_matrix` sums, on random
        starts that make the repair loop move, with p/q rows, zeros and
        values far above 2**63."""
        rng = random.Random(2719)
        steps = 0
        build = matching._matching_matrix

        def compared(instance, items):
            nonlocal steps
            steps += 1
            values = build(instance, items)
            allocation = Allocation.of([[item] for item in items], instance.item_count)
            assert values == _value_matrix(instance.rows, allocation.bundles)
            return values

        monkeypatch.setattr(matching, "_matching_matrix", compared)
        for k in range(150):
            n = rng.randint(1, 5)
            m = rng.randint(n, 8)
            scale = 10**40 if k % 2 else 1
            rows = [
                [
                    0 if rng.random() < 0.3
                    else Fraction(rng.randint(1, 20) * scale, rng.randint(1, 3))
                    for _ in range(m)
                ]
                for _ in range(n)
            ]
            instance = Instance.from_rows(rows)
            start = rng.sample(range(m), n)
            monkeypatch.setattr(matching, "_warm_start", lambda _instance: start)
            result = nsw_matching(instance)
            assert verify_nsw_certificate(instance, result.allocation)
        assert steps > 2 * 150  # the verifications, and repair moves


class TestMatchingProperties:
    """Seeded sweeps over the small-instance space (the acceptance suite runs
    the full 200-instance equivalence; this is the fast development slice)."""

    INSTANCES = list(
        random_instances(
            count=80,
            agents=(2, 5),
            items=(2, 7),
            low=0,
            high=100,
            zero_probabilities=(Fraction(0), Fraction(1, 10)),
            seed=1881,
        )
    )

    def test_objective_matches_oracle(self):
        for _, instance in self.INSTANCES:
            result = nsw_matching(instance)
            assert (
                lexicographic_objective(instance, result.allocation)
                == oracle_nsw_matching(instance)[0]
            )

    def test_certificate_always_verifies(self):
        for _, instance in self.INSTANCES:
            result = nsw_matching(instance)
            assert verify_nsw_certificate(instance, result.allocation)

    def test_remaining_items_fully_bounded(self):
        """v_i(b) <= min(own, own / rank_i) for every remaining item b."""
        for _, instance in self.INSTANCES:
            result = nsw_matching(instance)
            graph = build_envy_ratio_graph(instance, result.allocation)
            assert find_improving_cycle(graph) is None
            ranks = envy_ranks(graph)
            assert ranks.ranks == result.ranks.ranks
            for agent in range(instance.agent_count):
                own = bundle_value(instance, agent, result.allocation.bundles[agent])
                for item in result.allocation.remaining:
                    value = instance.value(agent, item)
                    assert value <= own
                    assert product([ranks[agent], value]) <= own

    def test_strict_envy_graph_is_acyclic(self):
        for _, instance in self.INSTANCES:
            result = nsw_matching(instance)
            edges = strict_envy_edges(instance, result.allocation)
            topological_order(instance.agent_count, edges)  # must not raise
