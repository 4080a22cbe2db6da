"""Core data model: instances, allocations, and exact fairness factors.

All arithmetic is exact. Valuations are non-negative rationals
(`fractions.Fraction`); the only non-rational value that ever appears is
`math.inf`, used for unbounded fairness factors and infinite envy ratios.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import InvalidAllocation, InvalidInstance

INF = math.inf

# A factor or ratio: an exact Fraction, or math.inf.
ExtendedRational = Fraction | float


def is_infinite(x: ExtendedRational) -> bool:
    return x == INF


class FairnessNotion(enum.Enum):
    EF = "ef"
    EF1 = "ef1"
    EFX = "efx"
    EFR = "efr"


class Surd(NamedTuple):
    """The real number (p + q*sqrt(d)) / r, for integers d >= 0 and r > 0.

    q = 0 gives a rational; a rational t is Surd(t.numerator, 0, 0, t.denominator).
    """

    p: int
    q: int = 0
    d: int = 0
    r: int = 1


def compare_scaled(x: Fraction | int, t: Surd, y: Fraction | int) -> int:
    """Exact sign (-1, 0 or 1) of x - t*y for rationals x and y.

    Scaling by the positive r * den(x) * den(y) leaves the sign of
    P - Q*sqrt(d) for integers P and Q, decided by squaring only when P and
    Q share a sign. It works on numerators and denominators because Fraction
    arithmetic reduces every intermediate by a gcd, which measured slower
    than the hand-squared comparisons this replaces.
    """
    p, q, d, r = t
    xn, xd = x.numerator, x.denominator
    yn, yd = y.numerator, y.denominator
    big_p = r * xn * yd - p * yn * xd
    big_q = q * yn * xd
    if big_q == 0:
        return (big_p > 0) - (big_p < 0)
    if big_q > 0 and big_p <= 0:
        return -1
    if big_q < 0 and big_p >= 0:
        return 1
    diff = big_p * big_p - d * big_q * big_q
    sign = (diff > 0) - (diff < 0)
    return sign if big_p > 0 else -sign


class Threshold(enum.Enum):
    """Irrational guarantee thresholds; `surd` is the exact number."""

    SQRT3_MINUS_ONE = "sqrt3-1"
    GOLDEN_RATIO_MINUS_ONE = "phi-1"

    @property
    def surd(self) -> Surd:
        return _THRESHOLD_SURDS[self]


_THRESHOLD_SURDS = {
    Threshold.SQRT3_MINUS_ONE: Surd(-1, 1, 3),
    Threshold.GOLDEN_RATIO_MINUS_ONE: Surd(-1, 1, 5, 2),
}

SQRT3_MINUS_ONE = Threshold.SQRT3_MINUS_ONE
GOLDEN_RATIO_MINUS_ONE = Threshold.GOLDEN_RATIO_MINUS_ONE


@dataclass(frozen=True)
class Instance:
    """Additive valuations: one row per agent, one column per item."""

    valuations: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if not self.valuations or not self.valuations[0]:
            raise InvalidInstance("need at least one agent and one item")
        width = len(self.valuations[0])
        for row in self.valuations:
            if len(row) != width:
                raise InvalidInstance("valuation rows have unequal lengths")
            for v in row:
                if not isinstance(v, Fraction):
                    raise InvalidInstance(f"valuation {v!r} is not a Fraction")
                if v < 0:
                    raise InvalidInstance(f"negative valuation {v}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "Instance":
        return cls(tuple(tuple(Fraction(v) for v in row) for row in rows))

    @property
    def agent_count(self) -> int:
        return len(self.valuations)

    @property
    def item_count(self) -> int:
        return len(self.valuations[0])

    @functools.cached_property
    def scaled_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each agent's row times the LCM of its denominators, as ints. The
        solvers' decisions read these; one positive factor per row changes
        none of them, since each compares values of one agent only."""
        scales = [math.lcm(*(v.denominator for v in row)) for row in self.valuations]
        return tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row)
            for row, scale in zip(self.valuations, scales)
        )

    def value(self, agent: int, item: int) -> Fraction:
        if not 0 <= agent < self.agent_count:
            raise IndexError(f"agent {agent} out of range")
        if not 0 <= item < self.item_count:
            raise IndexError(f"item {item} out of range")
        return self.valuations[agent][item]


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles of item indices, one per agent; may be partial."""

    bundles: tuple[frozenset[int], ...]
    item_count: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for bundle in self.bundles:
            for item in bundle:
                if not 0 <= item < self.item_count:
                    raise InvalidAllocation(f"item {item} out of range")
                if item in seen:
                    raise InvalidAllocation(f"item {item} allocated twice")
                seen.add(item)

    @classmethod
    def of(cls, bundles: Iterable[Iterable[int]], item_count: int) -> "Allocation":
        return cls(tuple(frozenset(b) for b in bundles), item_count)

    @classmethod
    def empty(cls, agent_count: int, item_count: int) -> "Allocation":
        return cls((frozenset(),) * agent_count, item_count)

    @property
    def agent_count(self) -> int:
        return len(self.bundles)

    @property
    def remaining(self) -> frozenset[int]:
        allocated = frozenset().union(*self.bundles) if self.bundles else frozenset()
        return frozenset(range(self.item_count)) - allocated

    @property
    def is_complete(self) -> bool:
        return not self.remaining

    def with_item(self, agent: int, item: int) -> "Allocation":
        """New allocation with one more item in the given agent's bundle."""
        new = list(self.bundles)
        new[agent] = new[agent] | {item}
        return Allocation(tuple(new), self.item_count)


def check_allocation(instance: Instance, allocation: Allocation) -> None:
    """Raise InvalidAllocation unless the allocation fits the instance."""
    if allocation.agent_count != instance.agent_count:
        raise InvalidAllocation(
            f"allocation has {allocation.agent_count} bundles for "
            f"{instance.agent_count} agents"
        )
    if allocation.item_count != instance.item_count:
        raise InvalidAllocation(
            f"allocation covers {allocation.item_count} items for "
            f"{instance.item_count}-item instance"
        )


def bundle_value(instance: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Exact value of a bundle to an agent (sum of per-item values)."""
    total = Fraction(0)
    for item in bundle:
        total += instance.value(agent, item)
    return total


def removal_expectation(
    instance: Instance, observer: int, bundle: Iterable[int]
) -> Fraction:
    """Expected value of a bundle after a uniformly random item is removed.

    For an additive observer this collapses to ((k-1)/k) * bundle value for a
    k-item bundle. Bundles with fewer than two items yield 0: removing the
    only item (or removing from nothing) leaves nothing behind.
    """
    items = frozenset(bundle)
    bundle_value(instance, observer, items)  # range-check
    return _comparison_denominator(instance.valuations[observer], items, FairnessNotion.EFR)


@dataclass(frozen=True)
class FairnessReport:
    """Worst-pair approximation factor for one fairness notion.

    `factor` is INF when every ordered pair has a zero comparison
    denominator, in which case any approximation holds vacuously.
    `witness` is the (envier, envied) pair attaining the factor, smallest
    pair first on ties; None when the factor is unbounded.
    """

    notion: FairnessNotion
    factor: ExtendedRational
    witness: tuple[int, int] | None


def _comparison_denominator(
    row: tuple[Fraction, ...], rival_bundle: frozenset[int], notion: FairnessNotion
) -> Fraction:
    """The rival-bundle quantity the envier's own value is measured against.

    `row` is the envier's valuation row, read once per rival item. Every
    notion but EF removes an item first, so a singleton leaves 0.
    """
    if not rival_bundle or (len(rival_bundle) == 1 and notion is not FairnessNotion.EF):
        return Fraction(0)
    per_item = [row[b] for b in rival_bundle]
    total = sum(per_item, Fraction(0))
    if notion is FairnessNotion.EF:
        return total
    if notion is FairnessNotion.EF1:
        return total - max(per_item)
    if notion is FairnessNotion.EFX:
        return total - min(per_item)
    if notion is FairnessNotion.EFR:
        return Fraction(len(per_item) - 1, len(per_item)) * total
    raise ValueError(f"unknown notion {notion!r}")


def fairness_factor(
    instance: Instance, allocation: Allocation, notion: FairnessNotion
) -> FairnessReport:
    """Exact approximation factor of an allocation for one fairness notion.

    The factor is the minimum over ordered pairs (i, j), i != j, of
    v_i(own) / D_ij where D_ij is the notion's comparison denominator for
    j's bundle. Pairs with D_ij = 0 impose no constraint for any factor and
    are skipped; if every pair is skipped the factor is unbounded.
    """
    check_allocation(instance, allocation)
    n = instance.agent_count
    own = [bundle_value(instance, i, allocation.bundles[i]) for i in range(n)]
    best: Fraction | None = None
    witness: tuple[int, int] | None = None
    for i, row in enumerate(instance.valuations):
        for j in range(n):
            if i == j:
                continue
            denom = _comparison_denominator(row, allocation.bundles[j], notion)
            if denom == 0:
                continue
            ratio = own[i] / denom
            if best is None or ratio < best:
                best = ratio
                witness = (i, j)
    if best is None:
        return FairnessReport(notion, INF, None)
    return FairnessReport(notion, best, witness)


def factor_at_least(
    factor: ExtendedRational, threshold: Threshold | Fraction | int
) -> bool:
    """Exact test of factor >= threshold; an unbounded factor passes always."""
    if is_infinite(factor):
        return True
    if isinstance(threshold, Threshold):
        return compare_scaled(factor, threshold.surd, 1) >= 0
    return factor >= Fraction(threshold)


def meets_threshold(
    report: FairnessReport, threshold: Threshold | Fraction | int
) -> bool:
    return factor_at_least(report.factor, threshold)
