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

Every run produces a trace: the recorded matching followed by each pick and
rotation (replaying those reproduces the output allocation exactly) plus
the outcomes of the mid-run invariant checks. The checks are switchable --
they are the main verification payload but cost a factor evaluation per
step -- and a failed check raises InternalGuaranteeViolated, which for
valid inputs always means an implementation defect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .envy import (
    Cycle,
    EnvyRanks,
    _value_matrix,
    envy_cycle_in,
    find_envy_cycle,  # noqa: F401 -- perfbench/spans.py times this binding
    rotate_bundles,
    strict_envy_edges,
    topological_order,
)
from .errors import InfiniteRank, InstanceTooSmall, InternalGuaranteeViolated
from .matching import nsw_matching, verify_nsw_certificate
from .model import (
    Allocation,
    FairnessNotion,
    Instance,
    Surd,
    Threshold,
    _comparison_denominator,
    bundle_value,
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
        raise ValueError("grouping is defined for the EFR and EFX modes only") from None


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


def _pick_pass(
    instance: Instance,
    allocation: Allocation,
    members: frozenset[int],
    order: tuple[int, ...],
    label: str,
    trace: Trace,
) -> Allocation:
    for agent in order:
        if agent not in members:
            continue
        # the first maximum: smallest index on ties
        row = instance.scaled_rows[agent]
        item = max(sorted(allocation.remaining), key=row.__getitem__, default=None)
        if item is None:
            break  # pool exhausted: remaining picks are skipped
        allocation = allocation.with_item(agent, item)
        trace.append(Pick(agent, item, label))
    return allocation


def refine_step2(
    instance: Instance, state: RefinementState, trace: Trace | None = None
) -> RefinementState:
    """Let the low-rank groups extend their bundles from the pool.

    The mode's passes run in table order, each one pick per member in
    topological order. EFR mode: the bottom group picks its best remaining
    item twice (two full passes), then the middle group picks once. EFX
    mode: the bottom group picks once. Agents whose turn finds an empty
    pool are skipped.
    """
    if trace is None:
        trace = []
    allocation, groups, order = state.allocation, state.groups, state.order
    for label, group in MODES[groups.mode].passes:
        allocation = _pick_pass(
            instance, allocation, groups.members[group], order, label, trace
        )
    return RefinementState(allocation, groups, order)


def envy_cycle_elimination(
    instance: Instance,
    allocation: Allocation,
    trace: Trace | None = None,
    running_check: tuple[FairnessNotion, Threshold] | None = None,
) -> Allocation:
    """Complete the allocation with the classic envy-graph procedure.

    Until the pool is empty: rotate bundles along strict-envy cycles until
    the envy graph is acyclic (each rotation strictly shrinks the edge
    set), then let the smallest-index unenvied agent pick its best
    remaining item, smallest index on ties.

    The envy graph is read from one integer matrix values[i][j] = v_i(B_j),
    summed once on the rows of `Instance.scaled_rows` and then updated in
    place: a pick adds the picked item's entry of row i to column `source`
    of every row i, and a rotation permutes the cycle's columns as
    `rotate_bundles` moves its bundles. The procedure only ever compares
    entries of one row with each other (values[i][j] > values[i][i], and
    the source's best pool item), so each row's own scale cancels.

    With `running_check` set, the stated factor is re-verified after every
    rotation and every pick from the instance itself, in `Fraction`s, so a
    wrong matrix update cannot certify itself.
    """
    if trace is None:
        trace = []
    check_allocation(instance, allocation)
    pool = sorted(allocation.remaining)
    if not pool:  # refinement often empties it: build no matrix then
        return allocation
    rows = instance.scaled_rows
    values = _value_matrix(instance, allocation)
    agents = range(instance.agent_count)

    def check_running(tag: str) -> None:
        if running_check is None:
            return
        notion, threshold = running_check
        passed = meets_threshold(fairness_factor(instance, allocation, notion), threshold)
        trace.append(InvariantChecked("completion-factor", passed))
        if not passed:
            raise InternalGuaranteeViolated(f"completion-factor after {tag}")

    while pool:
        while (cycle := envy_cycle_in(values)) is not None:
            allocation = rotate_bundles(allocation, cycle)
            successors = cycle[1:] + cycle[:1]
            for row in values:
                for agent, value in zip(cycle, [row[j] for j in successors]):
                    row[agent] = value
            trace.append(CycleRotated(cycle))
            check_running("rotation")
        source = next(
            j for j in agents if all(values[i][j] <= values[i][i] for i in agents)
        )
        item = max(pool, key=rows[source].__getitem__)  # first maximum: smallest index
        pool.remove(item)
        for row, value_row in zip(rows, values):
            value_row[source] += row[item]
        allocation = allocation.with_item(source, item)
        trace.append(SourcePick(source, item))
        check_running("pick")
    return allocation


# --- Mid-run invariant checks ------------------------------------------------


def _check(trace: Trace, name: str, passed: bool) -> None:
    trace.append(InvariantChecked(name, passed))
    if not passed:
        raise InternalGuaranteeViolated(name)


def _check_refined(instance: Instance, state: RefinementState, trace: Trace) -> None:
    """Exact per-group guarantees at the end of the refinement step."""
    allocation, groups = state.allocation, state.groups
    mode, spec = groups.mode, MODES[groups.mode]
    n, rows = instance.agent_count, instance.valuations
    own = [bundle_value(instance, i, allocation.bundles[i]) for i in range(n)]
    for k, (members, factor) in enumerate(zip(groups.members, spec.factors)):
        _check(
            trace,
            "refine-g1-full-fairness" if k == 0 else f"refine-g{k + 1}-factor",
            all(
                compare_scaled(
                    own[i],
                    factor,
                    _comparison_denominator(rows[i], allocation.bundles[j], mode),
                )
                >= 0
                for i in members
                for j in range(n)
                if j != i
            ),
        )
    if spec.global_check:
        _check(
            trace,
            "refine-global-factor",
            meets_threshold(fairness_factor(instance, allocation, mode), spec.threshold),
        )
    pool = sorted(allocation.remaining)
    _check(
        trace,
        "refine-remaining-bounds",
        all(
            compare_scaled(own[i], bound, rows[i][item]) >= 0
            for members, bound in zip(groups.members, spec.pool_bounds)
            for i in members
            for item in pool
        ),
    )


# --- Solvers -----------------------------------------------------------------


def _solve(
    instance: Instance, mode: FairnessNotion, check: bool
) -> tuple[Allocation, Trace]:
    if instance.item_count < instance.agent_count:
        raise InstanceTooSmall(
            f"need at least {instance.agent_count} items, got {instance.item_count}"
        )
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

    state = refine_step2(
        instance, RefinementState(result.allocation, groups, order), trace
    )
    if check:
        _check_refined(instance, state, trace)

    allocation = envy_cycle_elimination(
        instance,
        state.allocation,
        trace,
        running_check=(mode, threshold) if check else None,
    )

    report = fairness_factor(instance, allocation, mode)
    if not meets_threshold(report, threshold):
        raise InternalGuaranteeViolated(
            f"final {mode.value} factor {report.factor} misses the guarantee"
        )
    return allocation, trace


def solve_efr(instance: Instance, check: bool = True) -> tuple[Allocation, Trace]:
    """Complete allocation whose EFR factor is at least sqrt(3)-1, exactly."""
    return _solve(instance, FairnessNotion.EFR, check)


def solve_efx(instance: Instance, check: bool = True) -> tuple[Allocation, Trace]:
    """Complete allocation whose EFX factor is at least phi-1, exactly."""
    return _solve(instance, FairnessNotion.EFX, check)
