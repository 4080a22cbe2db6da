"""The two allocation algorithms: a (sqrt(3)-1)-EFR and a (phi-1)-EFX solver.

Both run the same three-step pipeline: a certified one-item-per-agent
matching, a refinement round where low-rank agents pick extra items in
topological envy order, and envy-cycle elimination to place whatever is
left. The two modes differ only in constants, held in one table, `MODES`:

  * `cuts` -- the rank cut points, top first; an agent joins the first group
    whose cut its rank exceeds, or the last group (EFR: sqrt(3)+1 and 2,
    EFX: phi);
  * `passes` -- the refinement pick passes, as (label, group index);
  * `factors` -- per group, the factor f with own >= f * D_ij checked after
    refinement, D_ij being the mode's comparison denominator against every
    rival bundle (EFR: 1, 3/4, sqrt(3)-1; EFX: 1, phi-1);
  * `pool_bounds` -- per group, the bound c with own >= c * v for every item
    left in the pool (EFR: sqrt(3)+1, 3, 3; EFX: phi, 2);
  * `global_check` -- whether refinement also re-checks the final factor;
  * `threshold` -- the guaranteed factor of the mode's notion.

Every comparison against one of these constants, irrational or not, goes
through `model.compare_scaled`, which decides it exactly in integers.

`_solve` calls the public steps by their module-global names:
`nsw_matching`, `topological_order` over `strict_envy_edges`,
`refine_step2` and `envy_cycle_elimination`. Only an `Allocation`,
validated by `Allocation.of`, passes between them; inside a step the
bundles are item lists and the pool a sorted list.

Every run produces a trace: the recorded matching followed by each pick and
rotation (replaying those reproduces the output allocation exactly) plus
the outcomes of the mid-run invariant checks. The checks are switchable --
they are the main verification payload but cost a factor evaluation per
step -- and a failed check raises InternalGuaranteeViolated, which for
valid inputs always means an implementation defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .envy import (
    Cycle,
    EnvyRanks,
    _envy_cycle_in_masks,
    _envy_mask,
    _envy_masks,
    _on_cycle,
    _value_matrix,
    find_envy_cycle,  # noqa: F401 -- perfbench/spans.py times this binding
    rotate_bundles,
    strict_envy_edges,
    topological_order,
)
from .errors import InfiniteRank, InternalGuaranteeViolated
from .matching import nsw_matching, verify_nsw_certificate
from .model import (
    Allocation,
    FairnessNotion,
    FairnessReport,
    Instance,
    Surd,
    Threshold,
    _worst_rivals,
    check_allocation,
    compare_scaled,
    fairness_factor,
    is_infinite,
    meets_threshold,
)


@dataclass(frozen=True)
class ModeSpec:
    """The constants that set one mode's pipeline apart (see module docstring)."""

    cuts: tuple[Surd, ...]
    passes: tuple[tuple[str, int], ...]
    factors: tuple[Surd, ...]
    pool_bounds: tuple[Surd, ...]
    global_check: bool
    threshold: Threshold


_SQRT3_PLUS_ONE = Surd(1, 1, 3)
_GOLDEN_RATIO = Surd(1, 1, 5, 2)

MODES: dict[FairnessNotion, ModeSpec] = {
    FairnessNotion.EFR: ModeSpec(
        cuts=(_SQRT3_PLUS_ONE, Surd(2)),
        passes=(("g3-pass-1", 2), ("g3-pass-2", 2), ("g2", 1)),
        factors=(Surd(1), Surd(3, r=4), Threshold.SQRT3_MINUS_ONE.surd),
        pool_bounds=(_SQRT3_PLUS_ONE, Surd(3), Surd(3)),
        global_check=True,
        threshold=Threshold.SQRT3_MINUS_ONE,
    ),
    FairnessNotion.EFX: ModeSpec(
        cuts=(_GOLDEN_RATIO,),
        passes=(("g2", 1),),
        factors=(Surd(1), Threshold.GOLDEN_RATIO_MINUS_ONE.surd),
        pool_bounds=(_GOLDEN_RATIO, Surd(2)),
        global_check=False,
        threshold=Threshold.GOLDEN_RATIO_MINUS_ONE,
    ),
}


def _mode_spec(mode: FairnessNotion) -> ModeSpec:
    try:
        return MODES[mode]
    except KeyError:
        raise ValueError("the solver modes are EFR and EFX only") from None


@dataclass(frozen=True)
class AgentGroups:
    """Partition of the agents by envy rank; g3 stays empty in EFX mode."""

    mode: FairnessNotion
    g1: frozenset[int]
    g2: frozenset[int]
    g3: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        group_count = len(_mode_spec(self.mode).cuts) + 1
        if any(self.members[group_count:]):
            raise ValueError(f"{self.mode.name} mode has only {group_count} groups")
        if self.g1 & self.g2 or self.g1 & self.g3 or self.g2 & self.g3:
            raise ValueError("groups overlap")

    @property
    def members(self) -> tuple[frozenset[int], ...]:
        """The groups in table order: g1, g2, g3."""
        return (self.g1, self.g2, self.g3)


def partition_groups(ranks: EnvyRanks, mode: FairnessNotion) -> AgentGroups:
    """Split agents by rank: above the mode's top threshold, middle, rest.

    Ranks must be finite. An infinite rank is only reachable through the
    zero-value weight conventions; the solvers place such agents in the
    top group themselves (their bundles must stay singletons), but this
    operation refuses to guess.
    """
    if any(is_infinite(r) for r in ranks.ranks):
        raise InfiniteRank("group membership is undefined for an infinite rank")
    return _partition_groups(ranks, mode)


def _partition_groups(ranks: EnvyRanks, mode: FairnessNotion) -> AgentGroups:
    cuts = _mode_spec(mode).cuts
    groups: list[set[int]] = [set() for _ in range(3)]
    for agent, rank in enumerate(ranks.ranks):
        for group, cut in enumerate(cuts):
            if is_infinite(rank) or compare_scaled(rank, cut, 1) > 0:
                break
        else:
            group = len(cuts)
        groups[group].add(agent)
    return AgentGroups(mode, *(frozenset(g) for g in groups))


# --- Trace events -----------------------------------------------------------


@dataclass(frozen=True)
class MatchingDone:
    allocation: Allocation
    ranks: EnvyRanks


@dataclass(frozen=True)
class GroupsAssigned:
    groups: AgentGroups


@dataclass(frozen=True)
class Pick:
    """A refinement-step pick; `label` names the pass it happened in."""

    agent: int
    item: int
    label: str


@dataclass(frozen=True)
class CycleRotated:
    cycle: Cycle


@dataclass(frozen=True)
class SourcePick:
    """A completion-step pick by an agent nobody envies."""

    agent: int
    item: int


@dataclass(frozen=True)
class InvariantChecked:
    name: str
    passed: bool


TraceEvent = (
    MatchingDone | GroupsAssigned | Pick | CycleRotated | SourcePick | InvariantChecked
)
Trace = list[TraceEvent]


def replay_trace(trace: Trace) -> Allocation:
    """Reapply the recorded picks and rotations to the recorded matching."""
    if not trace or not isinstance(trace[0], MatchingDone):
        raise ValueError("trace must start with the matching event")
    allocation = trace[0].allocation
    for event in trace[1:]:
        if isinstance(event, (Pick, SourcePick)):
            allocation = allocation.with_item(event.agent, event.item)
        elif isinstance(event, CycleRotated):
            allocation = rotate_bundles(allocation, event.cycle)
    return allocation


@dataclass(frozen=True)
class RefinementState:
    """What the refinement step threads through: the running allocation,
    the rank groups, and the fixed topological pick order."""

    allocation: Allocation
    groups: AgentGroups
    order: tuple[int, ...]


def _pick(row: list[int], pool: list[int]) -> int:
    """Pop the sorted `pool`'s first best item for `row`: one `itemgetter`
    pass over the pool, then the first maximum's index (the smallest item)."""
    offers = itemgetter(*pool)(row) if len(pool) > 1 else (row[pool[0]],)
    return pool.pop(offers.index(max(offers)))


def _take(
    instance: Instance,
    values: list[list[int]],
    masks: list[int],
    pool: list[int],
    agent: int,
) -> tuple[int, bool]:
    """The pick step of completion: the agent picks (`_pick`) and adds the
    item's entry of every row to its column of `values`. The column only
    grows, so another agent can only gain bit `agent` and only the agent's
    own mask is recomputed: O(n). Returns the item and whether anyone now
    envies the agent."""
    rows = instance.scaled_rows
    item = _pick(rows[agent], pool)
    bit = 1 << agent
    envied = False
    for i, row, value_row in zip(range(len(rows)), rows, values):
        value = value_row[agent] + row[item]
        value_row[agent] = value
        if value > value_row[i]:  # never for i == agent
            masks[i] |= bit
            envied = True
    masks[agent] = _envy_mask(values[agent], agent)
    return item, envied


def _bundle_lists(allocation: Allocation) -> tuple[list[list[int]], list[int]]:
    """The bundles as lists and the pool as a sorted list, for the picks."""
    return [list(bundle) for bundle in allocation.bundles], sorted(allocation.remaining)


def refine_step2(
    instance: Instance, state: RefinementState, trace: Trace | None = None
) -> RefinementState:
    """Let the low-rank groups extend their bundles from the pool.

    The mode's passes run in table order, each one pick per member in
    topological order. EFR mode: the bottom group picks its best remaining
    item twice (two full passes), then the middle group picks once. EFX
    mode: the bottom group picks once. Agents whose turn finds an empty
    pool are skipped. A pick (`_pick`) reads only the picker's row of
    `Instance.scaled_rows` and the pool, never the envy graph. The order
    must be a permutation of the agents and every group member an agent.
    """
    check_allocation(instance, state.allocation)
    groups, order, agents = state.groups, state.order, range(instance.agent_count)
    if sorted(order) != list(agents):
        raise ValueError(f"the pick order {order} is not a permutation of the agents")
    if not frozenset().union(*groups.members) <= set(agents):
        raise ValueError("a group names an agent outside the instance")
    trace = [] if trace is None else trace
    bundles, pool = _bundle_lists(state.allocation)
    rows = instance.scaled_rows
    for label, group in MODES[groups.mode].passes:
        for agent in order:
            if not pool:
                break  # pool exhausted: remaining picks are skipped
            if agent in groups.members[group]:
                item = _pick(rows[agent], pool)
                bundles[agent].append(item)
                trace.append(Pick(agent, item, label))
    return RefinementState(Allocation.of(bundles, instance.item_count), groups, order)


def envy_cycle_elimination(
    instance: Instance,
    allocation: Allocation,
    trace: Trace | None = None,
    *,
    mode: FairnessNotion | None = None,
) -> Allocation:
    """Complete the allocation with the classic envy-graph procedure.

    Until the pool is empty: rotate bundles along strict-envy cycles until
    the envy graph is acyclic (each rotation strictly shrinks the edge
    set), then let the smallest-index unenvied agent pick its best
    remaining item, smallest index on ties.

    The envy graph is read from one integer matrix values[i][j] = v_i(B_j)
    on the rows of `Instance.scaled_rows`, and its strict-envy edges from
    one bitmask per agent, bit j of masks[i] set iff values[i][j] >
    values[i][i]. Both are built once, from the bundles, when the pool is
    not empty; on an empty pool the allocation is returned as it is. The
    procedure only ever compares entries of one row with each other
    (values[i][j] > values[i][i], and the source's best pool item), so each
    row's own scale cancels.

    A pick (`_take`) updates the matrix and the masks in O(n). A rotation
    permutes the cycle's columns as `rotate_bundles` moves its bundles and
    recomputes every mask. The source is the lowest bit set in no mask.
    Before a pick the graph is acyclic; the pick adds edges into the source
    only and removes edges out of it only, so any cycle it closes passes
    through the source. The cycle search therefore runs after a pick only
    when the source is now envied and reaches itself along the masks;
    anywhere else it would return None.

    With `mode` set (EFR or EFX), the exact checker re-verifies the mode's
    threshold factor on its own integer view of the instance after every
    rotation and every pick, as a `completion-factor` check, so a wrong
    matrix or mask update cannot certify itself.
    """
    threshold = None if mode is None else _mode_spec(mode).threshold
    check_allocation(instance, allocation)
    trace = [] if trace is None else trace
    bundles, pool = _bundle_lists(allocation)
    if not pool:
        return allocation

    def check_running(tag: str) -> None:
        if mode is None:
            return
        report = fairness_factor(instance, Allocation.of(bundles, instance.item_count), mode)
        passed = meets_threshold(report, threshold)
        trace.append(InvariantChecked("completion-factor", passed))
        if not passed:
            raise InternalGuaranteeViolated(f"completion-factor after {tag}: {_missed(report)}")

    values = _value_matrix(instance.scaled_rows, bundles)
    masks = _envy_masks(values)
    search = True  # the starting allocation may hold cycles
    while pool:
        while search and (cycle := _envy_cycle_in_masks(masks)) is not None:
            successors = cycle[1:] + cycle[:1]
            for row in [*values, bundles]:  # the bundles move as the columns do
                for agent, value in zip(cycle, [row[j] for j in successors]):
                    row[agent] = value
            masks = _envy_masks(values)
            trace.append(CycleRotated(cycle))
            check_running("rotation")
        envied = 0
        for mask in masks:
            envied |= mask
        source = (~envied & (envied + 1)).bit_length() - 1  # lowest unset bit
        item, envied_now = _take(instance, values, masks, pool, source)
        search = envied_now and _on_cycle(masks, source)
        bundles[source].append(item)
        trace.append(SourcePick(source, item))
        check_running("pick")
    return Allocation.of(bundles, instance.item_count)


# --- Mid-run invariant checks ------------------------------------------------


def _missed(report: FairnessReport) -> str:
    """A missed guarantee, named by its notion, exact factor and witness pair."""
    notion, factor, witness = report.notion.value, report.factor, report.witness
    return f"{notion} factor {factor} at witness pair {witness} misses the guarantee"


def _check(trace: Trace, name: str, passed: bool) -> None:
    trace.append(InvariantChecked(name, passed))
    if not passed:
        raise InternalGuaranteeViolated(name)


def _check_refined(instance: Instance, state: RefinementState, trace: Trace) -> None:
    """Exact per-group guarantees at the end of the refinement step.

    A group's factor f holds when own >= f * D_ij against every rival,
    that is, against the agent's worst rival; with its ratio
    own / D_ij = num / den from `model._worst_rivals` that is
    num >= f * den, and an agent whose every D_ij is 0 holds for any f. One
    walk over the agents' worst ratios, n exact comparisons, gives each
    group's verdict and the smallest ratio of all, which the global check
    compares with the mode's threshold: an agent that no group holds enters
    that check only. The pool bounds read own and the largest pool value
    in integers, from the agent's row of `Instance.check_values` as a list
    (`tolist`, which measured faster than indexing the object array): both
    come from one row, so the row's scale cancels.
    """
    allocation, groups = state.allocation, state.groups
    mode, spec = groups.mode, MODES[groups.mode]
    group_of = {i: k for k, members in enumerate(groups.members) for i in members}
    held = [True] * len(spec.factors)
    low_num, low_den = 1, 0  # the smallest num / den so far; 1 / 0 is unbounded
    for i, _, num, den in _worst_rivals(instance, allocation, mode):
        k = group_of.get(i)
        if k is not None and held[k]:
            held[k] = compare_scaled(num, spec.factors[k], den) >= 0
        if num * low_den < low_num * den:
            low_num, low_den = num, den
    for k, passed in enumerate(held):
        name = "refine-g1-full-fairness" if k == 0 else f"refine-g{k + 1}-factor"
        _check(trace, name, passed)
    if spec.global_check:
        passed = compare_scaled(low_num, spec.threshold.surd, low_den) >= 0
        _check(trace, "refine-global-factor", passed)
    pool, values = allocation.remaining, instance.check_values

    def bounded(i: int, bound: Surd) -> bool:
        # own >= c * v for every pool item is own >= c * (the largest v)
        row = values[i].tolist()
        own = sum(map(row.__getitem__, allocation.bundles[i]))
        return compare_scaled(own, bound, max(map(row.__getitem__, pool))) >= 0

    _check(
        trace,
        "refine-remaining-bounds",
        not pool
        or all(
            bounded(i, bound)
            for members, bound in zip(groups.members, spec.pool_bounds)
            for i in members
        ),
    )


# --- Solvers -----------------------------------------------------------------


def _solve(
    instance: Instance, mode: FairnessNotion, check: bool
) -> tuple[Allocation, Trace]:
    threshold = MODES[mode].threshold
    trace: Trace = []

    result = nsw_matching(instance)
    trace.append(MatchingDone(result.allocation, result.ranks))
    if check:
        _check(
            trace,
            "matching-certificate",
            verify_nsw_certificate(instance, result.allocation),
        )

    groups = _partition_groups(result.ranks, mode)
    trace.append(GroupsAssigned(groups))
    order = topological_order(
        instance.agent_count, strict_envy_edges(instance, result.allocation)
    )

    state = refine_step2(instance, RefinementState(result.allocation, groups, order), trace)
    if check:
        _check_refined(instance, state, trace)

    allocation = envy_cycle_elimination(
        instance, state.allocation, trace, mode=mode if check else None
    )

    report = fairness_factor(instance, allocation, mode)
    if not meets_threshold(report, threshold):
        raise InternalGuaranteeViolated(f"final {_missed(report)}")
    return allocation, trace


def solve_efr(instance: Instance, check: bool = True) -> tuple[Allocation, Trace]:
    """Complete allocation whose EFR factor is at least sqrt(3)-1, exactly."""
    return _solve(instance, FairnessNotion.EFR, check)


def solve_efx(instance: Instance, check: bool = True) -> tuple[Allocation, Trace]:
    """Complete allocation whose EFX factor is at least phi-1, exactly."""
    return _solve(instance, FairnessNotion.EFX, check)
