"""Fair division of indivisible goods under additive valuations.

Exact-rational fairness verification (EF, EF1, EFX, EFR), envy-ratio graph
analytics, product-maximizing one-item matchings with exact certificates,
two guaranteed allocation algorithms, and brute-force oracles for
desk-scale ground truth.
"""

from .algorithms import (
    AgentGroups,
    CycleRotated,
    GroupsAssigned,
    InvariantChecked,
    MatchingDone,
    Pick,
    RefinementState,
    SourcePick,
    Trace,
    TraceEvent,
    envy_cycle_elimination,
    partition_groups,
    refine_step2,
    replay_trace,
    solve_efr,
    solve_efx,
)
from .envy import (
    Cycle,
    EnvyRanks,
    EnvyRatioGraph,
    build_envy_ratio_graph,
    envy_edges,
    envy_ranks,
    find_envy_cycle,
    find_improving_cycle,
    max_product_path,
    rotate_bundles,
    strict_envy_edges,
    topological_order,
)
from .errors import (
    CyclicEnvyGraph,
    FairAllocError,
    ImprovingCycleExists,
    InfiniteRank,
    InstanceTooSmall,
    InternalGuaranteeViolated,
    InvalidAllocation,
    InvalidInstance,
    LimitExceeded,
)
from .matching import (
    NswMatchingResult,
    lexicographic_objective,
    nsw_matching,
    verify_nsw_certificate,
)
from .model import (
    GOLDEN_RATIO_MINUS_ONE,
    INF,
    SQRT3_MINUS_ONE,
    Allocation,
    FairnessNotion,
    FairnessReport,
    Instance,
    Threshold,
    bundle_value,
    factor_at_least,
    fairness_factor,
    is_infinite,
    meets_threshold,
    removal_expectation,
)
from .oracle import (
    DEFAULT_LIMITS,
    OracleLimits,
    oracle_best_factor,
    oracle_envy_rank,
    oracle_improving_cycle,
    oracle_nsw_matching,
    oracle_removal_expectation,
)

__version__ = "0.1.0"
