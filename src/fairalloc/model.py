"""Core data model: instances, allocations, and exact fairness factors.

All arithmetic is exact. Valuations are non-negative rationals
(`fractions.Fraction`); the only non-rational value that ever appears is
`math.inf`, used for unbounded fairness factors and infinite envy ratios.

Decisions and checks read the valuations in two separate forms. The
solvers decide on `Instance.scaled_rows`, each row times its cached LCM of
denominators (`Instance.row_scales`). The fairness checks keep integers of
their own: on each call `_worst_rivals` scales every envier's `Fraction`
row again, and reads neither cache, so a wrong decision row cannot certify
its own output. It reduces each envier's row to one worst ratio
v_i(own) / D_ij, a pair of integers; `fairness_factor` compares the n rows'
ratios by cross-multiplying and builds a single reduced `Fraction` at the
end.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidAllocation, InvalidInstance

INF = math.inf

# A factor or ratio: an exact Fraction, or math.inf.
ExtendedRational = Fraction | float


def is_infinite(x: ExtendedRational) -> bool:
    # the type test first: `Fraction == float` runs in pure Python
    return type(x) is float and x == INF


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
                if v.numerator < 0:  # a Fraction's denominator is positive
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
    def row_scales(self) -> tuple[int, ...]:
        """The LCM of each agent's denominators: the factor `scaled_rows`
        multiplies that agent's row by."""
        return tuple(math.lcm(*(v.denominator for v in row)) for row in self.valuations)

    @functools.cached_property
    def scaled_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each agent's row times its `row_scales` entry, as ints. The
        solvers' decisions read these; one positive factor per row changes
        none of them, since each compares values of one agent only."""
        return tuple(
            tuple(v.numerator * (scale // v.denominator) for v in row)
            for row, scale in zip(self.valuations, self.row_scales)
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
        """New allocation with one more item in the given agent's bundle.

        Only the new (agent, item) is checked: the agent must exist and the
        item must be in range and still unallocated. The bundles are then
        disjoint by construction, so they are not walked again.
        """
        if not 0 <= agent < self.agent_count:
            raise InvalidAllocation(f"agent {agent} out of range")
        if not 0 <= item < self.item_count:
            raise InvalidAllocation(f"item {item} out of range")
        for holder, bundle in enumerate(self.bundles):
            if item in bundle:
                raise InvalidAllocation(f"item {item} already held by agent {holder}")
        new = list(self.bundles)
        new[agent] = new[agent] | {item}
        allocation = object.__new__(Allocation)
        object.__setattr__(allocation, "bundles", tuple(new))
        object.__setattr__(allocation, "item_count", self.item_count)
        return allocation


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
    total = bundle_value(instance, observer, items)
    if len(items) < 2:
        return Fraction(0)
    return Fraction(len(items) - 1, len(items)) * total


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


def _worst_rivals(
    instance: Instance,
    allocation: Allocation,
    notion: FairnessNotion,
    enviers: Iterable[int],
) -> Iterator[tuple[int, int, int, int]]:
    """Each envier's worst rival, as (i, j, num, den) with num / den =
    v_i(own) / D_ij exactly, den > 0: the smallest ratio of row i, and the
    first rival j that attains it. At most one tuple per envier, in
    `enviers` order; an envier whose every D_ij is 0 yields none.

    D_ij is the notion's comparison denominator for j's bundle, read by
    agent i: the bundle's value (EF), less its most (EF1) or least (EFX)
    valued item, or (k-1)/k of it for a k-item bundle (EFR, folded in as
    num = own*k, den = (k-1)*total). Every notion but EF removes an item
    first, so a singleton leaves 0, which imposes nothing.

    Values are integers on agent i's row, scaled here on every call from
    the `Fraction` valuations, apart from the solvers' cached rows. The
    allocated items are listed once, bundle by bundle, with one slice per
    nonempty bundle; each row then takes `sum` and `min` or `max` of every
    slice, and its own slice's sum is the own value. EF, EF1 and EFX share
    the numerator own, so the worst rival is the first with the largest
    D_ij, or, when own is 0 and every ratio is 0, the first with D_ij > 0.
    EFR cross-multiplies over the rival bundles of two items or more.
    """
    if not isinstance(notion, FairnessNotion):
        raise ValueError(f"unknown notion {notion!r}")
    removed = {FairnessNotion.EF1: max, FairnessNotion.EFX: min}.get(notion)
    bundles = allocation.bundles
    holders = [j for j, bundle in enumerate(bundles) if bundle]
    slot_of = {j: s for s, j in enumerate(holders)}
    items = [g for j in holders for g in bundles[j]]
    sizes = [len(bundles[j]) for j in holders]
    ends = list(itertools.accumulate(sizes))
    slices = list(map(slice, [0, *ends], ends))
    for i in enviers:
        nums, dens = zip(*map(Fraction.as_integer_ratio, instance.valuations[i]))
        scale = math.lcm(*dens)
        if scale != 1:
            nums = [num * (scale // den) for num, den in zip(nums, dens)]
        parts = list(map(list(map(nums.__getitem__, items)).__getitem__, slices))
        totals = list(map(sum, parts))
        own_slot = slot_of.get(i)
        own = 0 if own_slot is None else totals[own_slot]
        if notion is FairnessNotion.EFR:
            worst = None
            for s, (size, total) in enumerate(zip(sizes, totals)):
                if size < 2 or s == own_slot:
                    continue
                num, den = own * size, (size - 1) * total
                if den and (worst is None or num * worst[3] < worst[2] * den):
                    worst = i, holders[s], num, den
            if worst is not None:
                yield worst
            continue
        if removed is None:  # EF
            ds = totals
        else:
            ds = list(map(operator.sub, totals, map(removed, parts)))
        if own_slot is not None:
            ds[own_slot] = 0
        den = max(ds, default=0) if own else next(filter(None, ds), 0)
        if den:
            yield i, holders[ds.index(den)], own, den


def fairness_factor(
    instance: Instance, allocation: Allocation, notion: FairnessNotion
) -> FairnessReport:
    """Exact approximation factor of an allocation for one fairness notion.

    The factor is the minimum over ordered pairs (i, j), i != j, of
    v_i(own) / D_ij where D_ij is the notion's comparison denominator for
    j's bundle. Pairs with D_ij = 0 impose no constraint for any factor and
    are skipped; if every pair is skipped the factor is unbounded. Each
    envier's row comes from `_worst_rivals` as one integer pair, its worst
    ratio at its first worst rival; the minimum over the rows is kept as
    the first strict minimum in envier order, so the witness is the first
    pair attaining the factor in (i, j) order, and is reduced to a
    `Fraction` once. The rows are scaled from the `Fraction` valuations on
    every call.
    """
    check_allocation(instance, allocation)
    best_num, best_den = 0, 1
    witness: tuple[int, int] | None = None
    agents = range(instance.agent_count)
    for i, j, num, den in _worst_rivals(instance, allocation, notion, agents):
        if witness is None or num * best_den < best_num * den:
            best_num, best_den, witness = num, den, (i, j)
    if witness is None:
        return FairnessReport(notion, INF, None)
    return FairnessReport(notion, Fraction(best_num, best_den), witness)


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
