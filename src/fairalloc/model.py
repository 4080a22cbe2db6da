"""Core data model: instances, allocations, and exact fairness factors.

All arithmetic is exact. Valuations are non-negative rationals; the only
non-rational value that ever appears is `math.inf`, used for unbounded
fairness factors and infinite envy ratios.

An `Instance` stores one form of row: each agent's values as a tuple of
Python ints plus one positive int scale per row, value = x / scale, with
the scale the LCM of the row's reduced denominators (1 for an integer
row). `Instance.valuations`, the public `Fraction` table, is built from the
rows on first use, with one `Fraction` per distinct (value, scale) pair.

The solvers decide on the stored `Instance.rows`: each decision compares
values of one agent only, so the row's scale cancels. The fairness checks
read `Instance.check_values`, the same ints as an object array of Python
ints, built and cached apart from `rows`. No decision reads that view and
no check reads `rows`, so a wrong decision row cannot certify its own
output. `_worst_rivals` reduces each agent's row of that view to one worst
ratio v_i(own) / D_ij, a pair of integers, with array reductions over all
bundles at once; `fairness_factor` compares the n rows' ratios by
cross-multiplying and builds a single reduced `Fraction` at the end.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

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


_INT_ONLY = {int}


def _rows_and_scales(
    rows: Iterable[Iterable[object]], convert: Callable[[object], Fraction]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Input rows as an `Instance` stores them: (rows, scales), each row a
    tuple of ints x with value x / scale. A row of ints only (`type(v) is
    int`, so not a bool) is kept with scale 1 and builds no `Fraction`; any
    other row becomes `convert` of each value, times the LCM of the
    reduced denominators. Every row is converted before any is validated."""
    stored, scales = [], []
    for row in map(tuple, rows):
        if {*map(type, row)} == _INT_ONLY:
            scale = 1
        else:
            pairs = [convert(v).as_integer_ratio() for v in row]
            scale = math.lcm(*(q for _, q in pairs))
            row = tuple(p * (scale // q) for p, q in pairs)
        stored.append(row)
        scales.append(scale)
    return tuple(stored), tuple(scales)


@dataclass(frozen=True)
class Instance:
    """Additive valuations: one row per agent, one column per item.

    Agent i values item j at rows[i][j] / scales[i]: each row is a tuple of
    ints and its scale a positive int, the LCM of the row's reduced
    denominators (so an integer row has scale 1). The form is canonical, so
    equal valuations give equal, equally hashed instances. `valuations` is
    the `Fraction` table, built on first use.
    """

    rows: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]

    def __post_init__(self) -> None:
        rows, scales = self.rows, self.scales
        if not rows or not rows[0]:
            raise InvalidInstance("need at least one agent and one item")
        if len(scales) != len(rows):
            raise InvalidInstance(f"{len(scales)} scales for {len(rows)} rows")
        width = len(rows[0])
        for row, scale in zip(rows, scales):
            if len(row) != width:
                raise InvalidInstance("valuation rows have unequal lengths")
            if {*map(type, row)} != _INT_ONLY:
                first = next(v for v in row if type(v) is not int)
                raise InvalidInstance(f"valuation {first!r} is not an int")
            if type(scale) is not int or scale < 1:
                raise InvalidInstance(f"scale {scale!r} is not a positive int")
            if min(row) < 0:
                first = next(v for v in row if v < 0)
                raise InvalidInstance(f"negative valuation {Fraction(first, scale)}")
            if scale != 1 and math.gcd(scale, *row) != 1:
                raise InvalidInstance(f"scale {scale} is not the LCM of the denominators")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "Instance":
        """An instance from rows of ints, "p/q" strings or `Fraction`s."""
        return cls(*_rows_and_scales(rows, Fraction))

    @property
    def agent_count(self) -> int:
        return len(self.rows)

    @property
    def item_count(self) -> int:
        return len(self.rows[0])

    @functools.cached_property
    def valuations(self) -> tuple[tuple[Fraction, ...], ...]:
        """Every value as a `Fraction`, built on first use and cached, with
        one shared `Fraction` per distinct (value, scale) pair."""
        shared: dict[int, dict[int, Fraction]] = {}
        table = []
        for row, scale in zip(self.rows, self.scales):
            fractions = shared.setdefault(scale, {})
            for x in set(row).difference(fractions):
                fractions[x] = Fraction(x, scale)
            table.append(tuple(map(fractions.__getitem__, row)))
        return tuple(table)

    @functools.cached_property
    def check_values(self) -> np.ndarray:
        """The fairness checks' own view of the stored `rows`: an n x m
        NumPy array of Python ints (dtype object), exact at any size. Only
        the checks read it, and it is a cache of its own, built apart from
        the `rows` the decisions read, so a wrong decision row cannot
        certify its own output."""
        return np.array(self.rows, dtype=object)

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
    instance: Instance, allocation: Allocation, notion: FairnessNotion
) -> Iterator[tuple[int, int, int, int]]:
    """Each agent's worst rival, as (i, j, num, den) with num / den =
    v_i(own) / D_ij exactly, den > 0: the smallest ratio of row i, and the
    first rival j that attains it. At most one tuple per agent, in agent
    order; an agent whose every D_ij is 0 yields none.

    D_ij is the notion's comparison denominator for j's bundle, read by
    agent i: the bundle's value (EF), less its most (EF1) or least (EFX)
    valued item, or (k-1)/k of it for a k-item bundle (EFR). Every notion
    but EF removes an item first, so a singleton leaves 0, which imposes
    nothing.

    Values come from `Instance.check_values`, the checks' own integer view,
    never from the `Instance.rows` the solvers read. The allocated columns
    are taken once, bundle by bundle, and the totals and D of every agent
    and nonempty bundle are array reductions (`reduceat`). EFR scales by L,
    the LCM of the bundle sizes: D_ij = total*(k-1)*(L/k) and num = own*L,
    the same ratio. All four notions thus share the numerator num of row i,
    so with the own slot set to 0 the worst rival is the first largest
    D_ij, or, when num is 0 and every ratio is 0, the first D_ij > 0. That
    pick runs on each row as a list (`max`, `index`): at n <= 6 it took
    half the time of the same pick as array calls, and the same time at
    n = 40.
    """
    if not isinstance(notion, FairnessNotion):
        raise ValueError(f"unknown notion {notion!r}")
    bundles = allocation.bundles
    holders = [j for j, bundle in enumerate(bundles) if bundle]
    sizes = [len(bundles[j]) for j in holders]
    starts = [0, *itertools.accumulate(sizes)][:-1]
    columns = instance.check_values[:, [g for j in holders for g in bundles[j]]]
    totals = np.add.reduceat(columns, starts, axis=1)
    scale = 1
    if notion is FairnessNotion.EF:
        ds = totals
    elif notion is FairnessNotion.EF1:
        ds = totals - np.maximum.reduceat(columns, starts, axis=1)
    elif notion is FairnessNotion.EFX:
        ds = totals - np.minimum.reduceat(columns, starts, axis=1)
    else:  # EFR
        scale = math.lcm(*sizes)
        ds = totals * np.array([(k - 1) * (scale // k) for k in sizes], dtype=object)
    own_totals = totals.tolist()
    slot_of = dict(zip(holders, range(len(holders))))
    for i, row in enumerate(ds.tolist()):
        s = slot_of.get(i)
        if s is None:
            num = 0
        else:
            num = own_totals[i][s] * scale
            row[s] = 0
        den = max(row) if num else next(filter(None, row), 0)
        if den:
            yield i, holders[row.index(den)], num, den


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
    `Fraction` once. The rows are read from `Instance.check_values`, built
    from the stored rows once per instance.
    """
    check_allocation(instance, allocation)
    best_num, best_den = 0, 1
    witness: tuple[int, int] | None = None
    for i, j, num, den in _worst_rivals(instance, allocation, notion):
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
