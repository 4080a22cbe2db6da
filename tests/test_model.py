import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fairalloc import (
    GOLDEN_RATIO_MINUS_ONE,
    INF,
    SQRT3_MINUS_ONE,
    Allocation,
    FairnessNotion,
    FairnessReport,
    Instance,
    InvalidAllocation,
    InvalidInstance,
    bundle_value,
    factor_at_least,
    fairness_factor,
    is_infinite,
    meets_threshold,
    removal_expectation,
)
from fairalloc.model import Surd, compare_scaled
from fairalloc.oracle import _notion_factor, oracle_removal_expectation


class TestInstanceAndAllocation:
    def test_dimensions(self, two_by_five):
        assert two_by_five.agent_count == 2
        assert two_by_five.item_count == 5

    def test_rejects_negative_values(self):
        with pytest.raises(InvalidInstance):
            Instance.from_rows([[1, -1]])

    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidInstance):
            Instance.from_rows([[1, 2], [1]])

    def test_rejects_overlapping_bundles(self):
        with pytest.raises(InvalidAllocation):
            Allocation.of([[0, 1], [1]], 3)

    def test_rejects_out_of_range_items(self):
        with pytest.raises(InvalidAllocation):
            Allocation.of([[0], [5]], 3)

    def test_remaining_and_completeness(self):
        alloc = Allocation.of([[0], [2]], 4)
        assert alloc.remaining == {1, 3}
        assert not alloc.is_complete
        assert alloc.with_item(0, 1).with_item(1, 3).is_complete

    @pytest.mark.parametrize(
        "agent, item",
        [(-1, 1), (2, 1), (0, 0), (1, 0), (0, 4), (0, -1)],
        ids=["negative-agent", "agent-past-the-end", "re-pick-own-item",
             "item-held-by-another", "item-past-the-end", "negative-item"],
    )
    def test_with_item_rejects_bad_picks(self, agent, item):
        alloc = Allocation.of([[0], [2]], 4)
        with pytest.raises(InvalidAllocation):
            alloc.with_item(agent, item)

    def test_with_item_adds_exactly_one_item(self):
        alloc = Allocation.of([[0], [2]], 4).with_item(1, 3)
        assert alloc == Allocation.of([[0], [2, 3]], 4)
        assert alloc.remaining == {1}

    def test_mismatched_allocation_rejected(self, two_by_five):
        three_bundles = Allocation.of([[0], [1], [2]], 5)
        with pytest.raises(InvalidAllocation):
            fairness_factor(two_by_five, three_bundles, FairnessNotion.EF)


class TestBundleValue:
    def test_known_bundle_sums(self, two_by_five):
        assert bundle_value(two_by_five, 0, {0, 1, 2}) == 7
        assert bundle_value(two_by_five, 1, {0, 1, 2}) == 11

    def test_empty_bundle_is_zero(self, two_by_five):
        assert bundle_value(two_by_five, 0, frozenset()) == 0

    def test_out_of_range(self, two_by_five):
        with pytest.raises(IndexError):
            bundle_value(two_by_five, 2, {0})
        with pytest.raises(IndexError):
            bundle_value(two_by_five, 0, {5})


class TestRemovalExpectation:
    def test_three_item_bundle(self, two_by_five):
        assert removal_expectation(two_by_five, 1, {0, 1, 2}) == Fraction(22, 3)

    def test_singleton_is_zero(self, two_by_five):
        assert removal_expectation(two_by_five, 0, {3}) == 0

    def test_empty_is_zero(self, two_by_five):
        assert removal_expectation(two_by_five, 0, frozenset()) == 0

    def test_two_item_average(self):
        instance = Instance.from_rows([[4, 2]])
        assert removal_expectation(instance, 0, {0, 1}) == 3
        assert oracle_removal_expectation(instance, 0, {0, 1}) == 3

    @given(
        values=st.lists(st.integers(0, 50), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_matches_explicit_removal_average(self, values, data):
        instance = Instance.from_rows([values])
        size = data.draw(st.integers(1, len(values)))
        bundle = frozenset(
            data.draw(
                st.permutations(range(len(values))).map(lambda p: p[:size])
            )
        )
        assert removal_expectation(instance, 0, bundle) == oracle_removal_expectation(
            instance, 0, bundle
        )


class TestFairnessFactor:
    def test_efr_2x5(self, two_by_five):
        report = fairness_factor(
            two_by_five, Allocation.of([[0, 1, 2], [3, 4]], 5), FairnessNotion.EFR
        )
        assert report.factor == Fraction(21, 22)
        assert report.witness == (1, 0)

    def test_ef1_2x5(self, two_by_five):
        alloc = Allocation.of([[0, 1, 2], [3, 4]], 5)
        report = fairness_factor(two_by_five, alloc, FairnessNotion.EF1)
        assert report.factor == Fraction(7, 6)
        assert report.witness == (1, 0)
        # the other ordered pair: denominator 2 - 1 = 1, ratio 7
        assert bundle_value(two_by_five, 0, {3, 4}) - 1 == 1

    def test_ef_2x5(self, two_by_five):
        report = fairness_factor(
            two_by_five, Allocation.of([[0, 1, 2], [3, 4]], 5), FairnessNotion.EF
        )
        assert report.factor == Fraction(7, 11)
        assert report.witness == (1, 0)

    def test_efx_singletons_unbounded(self, two_by_five):
        report = fairness_factor(
            two_by_five, Allocation.of([[0], [1]], 5), FairnessNotion.EFX
        )
        assert report.factor == INF
        assert report.witness is None

    def test_deterministic(self, two_by_five):
        alloc = Allocation.of([[0, 1, 2], [3, 4]], 5)
        first = fairness_factor(two_by_five, alloc, FairnessNotion.EFR)
        second = fairness_factor(two_by_five, alloc, FairnessNotion.EFR)
        assert first == second

    def test_witness_reevaluation_reproduces_the_factor(self):
        rng = random.Random(6006)
        for _ in range(80):
            n, m = rng.randint(2, 4), rng.randint(2, 8)
            instance = Instance.from_rows(
                [[rng.randint(0, 25) for _ in range(m)] for _ in range(n)]
            )
            bundles = [[] for _ in range(n)]
            for item in range(m):
                bundles[rng.randrange(n)].append(item)
            alloc = Allocation.of(bundles, m)
            for notion in FairnessNotion:
                report = fairness_factor(instance, alloc, notion)
                if report.witness is None:
                    continue
                envier, envied = report.witness
                own = bundle_value(instance, envier, alloc.bundles[envier])
                rival = alloc.bundles[envied]
                per_item = sorted(instance.value(envier, b) for b in rival)
                if notion is FairnessNotion.EF:
                    denom = sum(per_item, Fraction(0))
                elif notion is FairnessNotion.EF1:
                    denom = sum(per_item, Fraction(0)) - per_item[-1]
                elif notion is FairnessNotion.EFX:
                    denom = sum(per_item, Fraction(0)) - per_item[0]
                else:
                    denom = removal_expectation(instance, envier, rival)
                assert denom > 0
                assert own / denom == report.factor

    @pytest.mark.parametrize("family", ["p/q", "(10^40 + r)/7"])
    def test_matches_the_oracle_on_rational_rows(self, family):
        """Odd trials leave items in the pool; zeros come with both families."""
        rng = random.Random(family)

        def value():
            if rng.random() < 0.2:
                return Fraction(0)
            if family == "p/q":
                return Fraction(rng.randint(1, 60), rng.randint(1, 12))
            return Fraction(10**40 + rng.randint(0, 1000), 7)

        for trial in range(150):
            n, m = rng.randint(2, 4), rng.randint(2, 7)
            instance = Instance.from_rows([[value() for _ in range(m)] for _ in range(n)])
            owners = range(-1 if trial % 2 else 0, n)  # -1 leaves the item unallocated
            bundles = [[] for _ in range(n)]
            for item in range(m):
                if (owner := rng.choice(owners)) >= 0:
                    bundles[owner].append(item)
            alloc = Allocation.of(bundles, m)
            for notion in FairnessNotion:
                expected = _notion_factor(instance, alloc, notion)
                assert fairness_factor(instance, alloc, notion).factor == expected

    @given(
        rows=st.integers(2, 4).flatmap(
            lambda n: st.integers(2, 7).flatmap(
                lambda m: st.lists(
                    st.lists(st.integers(0, 2), min_size=m, max_size=m),
                    min_size=n,
                    max_size=n,
                )
            )
        ),
        data=st.data(),
    )
    def test_witness_is_the_smallest_pair_attaining_the_factor(self, rows, data):
        """Values in {0, 1, 2} make ties between pairs common."""
        n, m = len(rows), len(rows[0])
        owners = data.draw(st.lists(st.integers(-1, n - 1), min_size=m, max_size=m))
        alloc = Allocation.of([[g for g in range(m) if owners[g] == i] for i in range(n)], m)
        instance = Instance.from_rows(rows)
        for notion in FairnessNotion:
            ratios = {}
            for i in range(n):
                own = sum((Fraction(rows[i][g]) for g in alloc.bundles[i]), Fraction(0))
                for j in range(n):
                    per_item = sorted(Fraction(rows[i][g]) for g in alloc.bundles[j])
                    if i == j or not per_item:
                        continue
                    total = sum(per_item, Fraction(0))
                    denom = {
                        FairnessNotion.EF: total,
                        FairnessNotion.EF1: total - per_item[-1],
                        FairnessNotion.EFX: total - per_item[0],
                        FairnessNotion.EFR: total * (len(per_item) - 1) / len(per_item),
                    }[notion]
                    if notion is not FairnessNotion.EF and len(per_item) == 1:
                        denom = Fraction(0)
                    if denom:
                        ratios[(i, j)] = own / denom
            report = fairness_factor(instance, alloc, notion)
            if not ratios:
                assert report == FairnessReport(notion, INF, None)
                continue
            factor = min(ratios.values())
            witness = min(pair for pair, ratio in ratios.items() if ratio == factor)
            assert report == FairnessReport(notion, factor, witness)

    def test_notion_ordering_on_random_allocations(self):
        """EF <= EFX <= EFR <= EF1, with an unbounded factor as top element."""
        rng = random.Random(4242)
        for _ in range(120):
            n = rng.randint(2, 4)
            m = rng.randint(n, 8)
            instance = Instance.from_rows(
                [[rng.randint(0, 30) for _ in range(m)] for _ in range(n)]
            )
            bundles = [[] for _ in range(n)]
            for item in range(m):
                bundles[rng.randrange(n)].append(item)
            alloc = Allocation.of(bundles, m)
            factors = {
                notion: fairness_factor(instance, alloc, notion).factor
                for notion in FairnessNotion
            }
            assert factors[FairnessNotion.EFX] <= factors[FairnessNotion.EFR]
            assert factors[FairnessNotion.EFR] <= factors[FairnessNotion.EF1]
            for notion in (FairnessNotion.EF1, FairnessNotion.EFX, FairnessNotion.EFR):
                assert factors[FairnessNotion.EF] <= factors[notion]

    @given(
        scale=st.fractions(min_value=Fraction(1, 7), max_value=7),
        seed=st.integers(0, 10_000),
    )
    def test_scaling_one_agent_changes_nothing(self, scale, seed):
        rng = random.Random(seed)
        n, m = rng.randint(2, 4), rng.randint(2, 6)
        rows = [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
        scaled = [list(row) for row in rows]
        agent = rng.randrange(n)
        scaled[agent] = [scale * v for v in scaled[agent]]
        bundles = [[] for _ in range(n)]
        for item in range(m):
            bundles[rng.randrange(n)].append(item)
        alloc = Allocation.of(bundles, m)
        for notion in FairnessNotion:
            original = fairness_factor(Instance.from_rows(rows), alloc, notion)
            rescaled = fairness_factor(Instance.from_rows(scaled), alloc, notion)
            assert original == rescaled


rational_values = st.one_of(
    st.just(Fraction(0)),
    st.integers(0, 10**30),  # a row of ints only is stored as ints
    st.fractions(min_value=0, max_denominator=10**6),
    st.builds(lambda r, q: Fraction(10**40 + r, q), st.integers(0, 1000), st.integers(1, 99)),
)

rational_rows = st.integers(1, 5).flatmap(
    lambda m: st.lists(st.lists(rational_values, min_size=m, max_size=m), min_size=1, max_size=4)
)


class TestScaledRows:
    @given(rational_rows)
    def test_each_row_is_a_positive_integer_multiple(self, rows):
        instance = Instance.from_rows(rows)
        assert len(instance.rows) == instance.agent_count
        for scaled, row in zip(instance.rows, instance.valuations):
            scale = math.lcm(*(v.denominator for v in row))
            assert list(scaled) == [v * scale for v in row]
            assert all(type(x) is int and x >= 0 for x in scaled)
            assert [x == 0 for x in scaled] == [v == 0 for v in row]
            for g, h in itertools.product(range(len(row)), repeat=2):
                assert scaled[g] * row[h] == scaled[h] * row[g]

    @given(rational_rows)
    def test_the_check_view_is_each_row_times_its_lcm_in_python_ints(self, rows):
        instance = Instance.from_rows(rows)
        view = instance.check_values
        assert view.dtype == object
        assert view.shape == (instance.agent_count, instance.item_count)
        for scaled, row in zip(view.tolist(), instance.valuations):
            scale = math.lcm(*(v.denominator for v in row))
            assert all(type(x) is int for x in scaled)  # no NumPy integer
            assert scaled == [v * scale for v in row]

    def test_the_check_view_is_exact_beyond_64_bits(self):
        rows = [[Fraction(10**40 + r, 7) for r in range(3)], [Fraction(10**40 + 1, 7), 3, 0]]
        view = Instance.from_rows(rows).check_values
        assert view.tolist() == [[10**40, 10**40 + 1, 10**40 + 2], [10**40 + 1, 21, 0]]
        assert all(type(x) is int for x in view.flat)


class TestThresholds:
    def test_factor_just_below_one_passes_sqrt3_threshold(self):
        assert factor_at_least(Fraction(21, 22), SQRT3_MINUS_ONE)

    def test_seven_tenths_fails_sqrt3_threshold(self):
        assert not factor_at_least(Fraction(7, 10), SQRT3_MINUS_ONE)

    def test_boundary_equality_with_rational(self):
        assert factor_at_least(Fraction(0), 0)
        assert factor_at_least(Fraction(3, 4), Fraction(3, 4))
        assert not factor_at_least(Fraction(3, 4), Fraction(4, 5))

    def test_unbounded_passes_everything(self):
        report = FairnessReport(FairnessNotion.EFX, INF, None)
        assert meets_threshold(report, SQRT3_MINUS_ONE)
        assert meets_threshold(report, GOLDEN_RATIO_MINUS_ONE)
        assert meets_threshold(report, 10**9)

    def test_only_the_float_inf_is_infinite(self):
        assert is_infinite(INF)
        assert not is_infinite(Fraction(10**400))  # beyond every finite float
        assert not is_infinite(-INF)
        assert not is_infinite(math.nan)
        assert not is_infinite(Fraction(0))

    def test_golden_ratio_threshold(self):
        # (sqrt(5)-1)/2 = 0.6180...: 5/8 passes, 3/5 does not
        assert factor_at_least(Fraction(5, 8), GOLDEN_RATIO_MINUS_ONE)
        assert not factor_at_least(Fraction(3, 5), GOLDEN_RATIO_MINUS_ONE)

    def test_rank_cut_points(self):
        sqrt3_plus_one, golden_ratio = Surd(1, 1, 3), Surd(1, 1, 5, 2)
        assert compare_scaled(Fraction(14, 5), sqrt3_plus_one, 1) == 1
        assert compare_scaled(Fraction(27, 10), sqrt3_plus_one, 1) == -1
        assert compare_scaled(Fraction(2), Surd(2), 1) == 0
        assert compare_scaled(Fraction(9, 5), golden_ratio, 1) == 1
        assert compare_scaled(Fraction(8, 5), golden_ratio, 1) == -1


MAGNITUDES = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)


def _decimal(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def _reference_sign(x: Fraction, a: Fraction, b: Fraction, d: int, y: Fraction) -> int:
    """Sign of x - (a + b*sqrt(d))*y: exact when rational, else 150 digits."""
    if b * y == 0:
        exact = x - a * y
        return (exact > 0) - (exact < 0)
    with localcontext() as ctx:
        ctx.prec = 150
        value = _decimal(x) - (_decimal(a) + _decimal(b) * Decimal(d).sqrt()) * _decimal(y)
        # Irrational, so nonzero: with these input sizes |value| > 1e-61, far
        # above the rounding error of about 1e-135.
        assert abs(value) > Decimal(10) ** -100
        return 1 if value > 0 else -1


def _surd(a: Fraction, b: Fraction, d: int) -> Surd:
    r = a.denominator * b.denominator
    return Surd(a.numerator * b.denominator, b.numerator * a.denominator, d, r)


class TestCompareScaled:
    @given(
        x=MAGNITUDES,
        a=MAGNITUDES,
        b=MAGNITUDES,
        y=MAGNITUDES,
        d=st.sampled_from((2, 3, 5, 7)),
    )
    def test_every_sign_combination_matches_decimal(self, x, a, b, y, d):
        for sx, sa, sb in itertools.product((-1, 0, 1), repeat=3):
            for yy in (y, Fraction(0)):
                expected = _reference_sign(sx * x, sa * a, sb * b, d, yy)
                assert compare_scaled(sx * x, _surd(sa * a, sb * b, d), yy) == expected

    @given(
        a=st.fractions(min_value=-100, max_value=100, max_denominator=100),
        b=st.fractions(min_value=-100, max_value=100, max_denominator=100),
        y=MAGNITUDES,
        d=st.sampled_from((2, 3, 5, 7)),
    )
    def test_near_ties_match_decimal(self, a, b, y, d):
        with localcontext() as ctx:
            ctx.prec = 150
            exact = (_decimal(a) + _decimal(b) * Decimal(d).sqrt()) * _decimal(y)
        x = Fraction(exact).limit_denominator(10**6)
        assert compare_scaled(x, _surd(a, b, d), y) == _reference_sign(x, a, b, d, y)
