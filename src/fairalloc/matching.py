"""One item per agent, chosen to maximize the product of utilities.

The matching runs in two phases. A floating-point warm start solves
maximum-weight bipartite matching on log values (zero values get a sentinel
weight low enough that assignments are ranked first by how many agents end
up with a positive value). The log table is read from the stored
`Instance.rows` and `Instance.scales`: one table per distinct scale s, with
one math.log(p) - math.log(q) per distinct nonzero value x, where p/q is
x/s in lowest terms. Since math.log(1) is 0.0, the floats are exactly those
of a value-by-value table on the reduced p/q.
The floats only choose the start: an exact repair loop then fixes
anything they got wrong. Every iteration is one certify-or-move step: a
single max-product relaxation over the envy ratios either certifies the
two properties every later step relies on,

  * the envy-ratio graph admits no improving cycle, and
  * rank_i * v_i(b) <= v_i(own bundle) for every agent i and remaining b,

and returns the envy ranks, or it yields the repair move: a rotation of the
matched items along the improving cycle it found, or, for the smallest
(agent, pool item) breaking the second clause, a path move along the
agent's maximum-product path that pulls the item in. `verify_nsw_certificate`
is the same step run once on a given matching. The relaxation runs on
integers only, straight on the integer value matrix, which each step reads
off `Instance.scaled_rows` at the matched items (`_matching_matrix`; one
item per agent, so nothing is summed). No `EnvyRatioGraph` is built, and
the relaxation lists only the envy ratios that can raise a rank
(`envy._relax_max_product`): on a matching with few envious agents it
costs little more than their edges.
The solvers keep the matrix of the certified matching (`_certified_matching`)
and update it through the rest of the solve.

Each repair move strictly increases the lexicographic objective (number of
agents with positive value, then the product of those values), so the loop
terminates. The final allocation maximizes that objective whenever the
floats ranked candidate matchings correctly; the exact certificate holds
unconditionally, which is all the downstream guarantees consume.

The warm start's solver is SciPy's `linear_sum_assignment`, loaded once at
import straight from its compiled kernel file (`_lsap*` in the
`scipy.optimize` folder), which skips the import of `scipy` and of all of
`scipy.optimize`. Without that file, or when it fails to load, it is the
same function imported through `scipy.optimize`.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from itertools import chain, compress

import numpy as np

from .envy import (
    EnvyRanks,
    _predecessor_path,
    _relax_max_product,
    rotate_bundles,
)
from .errors import ImprovingCycleExists, InstanceTooSmall, InvalidAllocation
from .model import (
    Allocation,
    Instance,
    bundle_value,
    check_allocation,
    is_infinite,
)

Objective = tuple[int, Fraction]

_KERNEL = "scipy.optimize._lsap"


def _kernel_path() -> str | None:
    """The file of SciPy's compiled assignment kernel, if there is one.

    The kernel sits in the `optimize` folder of the `scipy` package, and
    `find_spec("scipy")` locates that package without running its
    `__init__`: nothing of `scipy` is imported."""
    spec = importlib.util.find_spec("scipy")
    for folder in (spec and spec.submodule_search_locations) or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_kernel() -> Callable[..., tuple[np.ndarray, np.ndarray]]:
    """SciPy's `linear_sum_assignment`, loaded from the kernel file alone.

    Without a kernel file, or when it fails to load, this is the same
    compiled function imported the public way, through `scipy.optimize`.
    The loaded module is not left in `sys.modules`: an extension module
    registers itself there as it loads, and the entry is put back as it was.
    """
    path = _kernel_path()
    if path is not None:
        loader = ExtensionFileLoader(_KERNEL, path)
        spec = importlib.util.spec_from_file_location(_KERNEL, path, loader=loader)
        saved = sys.modules.get(_KERNEL)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module.linear_sum_assignment
        except (ImportError, OSError):
            pass
        finally:
            if saved is None:
                sys.modules.pop(_KERNEL, None)
            else:
                sys.modules[_KERNEL] = saved
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


linear_sum_assignment = _load_kernel()


@dataclass(frozen=True)
class NswMatchingResult:
    allocation: Allocation
    ranks: EnvyRanks


def lexicographic_objective(instance: Instance, allocation: Allocation) -> Objective:
    """(number of agents with positive own value, product of those values)."""
    count = 0
    prod = Fraction(1)
    for agent, bundle in enumerate(allocation.bundles):
        value = bundle_value(instance, agent, bundle)
        if value > 0:
            count += 1
            prod *= value
    return count, prod


def _log_weights(instance: Instance) -> np.ndarray:
    """The warm start's weights: log v = math.log(p) - math.log(q) for each
    value v = p/q in lowest terms, and a sentinel below every positive
    weight by more than n times their spread for each zero value (-1.0 when
    every value is 0), so assignments rank first by how many agents get a
    positive value.

    The table is read from the stored `Instance.rows` and `Instance.scales`:
    one log table per distinct scale s, with one entry per distinct nonzero
    value x of its rows, math.log(x // g) - math.log(s // g) for g = gcd(x, s),
    which is x / s in lowest terms. For s = 1 that is math.log(x) - 0.0.
    """
    n, m = instance.agent_count, instance.item_count
    rows, scales = instance.rows, instance.scales
    tables: dict[int, dict[int, float]] = {}
    finite: list[float] = []
    for s in set(scales):
        whole = set().union(*compress(rows, map(s.__eq__, scales)))
        whole.discard(0)
        if s == 1:  # the same floats, less math.log(1) and the gcds
            logs = dict(zip(whole, map(math.log, whole)))
        else:
            logs = {x: math.log(x // (g := math.gcd(x, s))) - math.log(s // g) for x in whole}
        finite += logs.values()
        logs[0] = math.nan
        tables[s] = logs
    cells = (map(tables[s].__getitem__, row) for row, s in zip(rows, scales))
    weights = np.fromiter(chain.from_iterable(cells), dtype=float, count=n * m).reshape(n, m)
    if finite:
        lo, hi = min(finite), max(finite)
        sentinel = lo - (n * (hi - lo) + 1.0)
    else:
        sentinel = -1.0
    weights[np.isnan(weights)] = sentinel
    return weights


def _warm_start(instance: Instance) -> Allocation:
    """Float log-weight matching on `_log_weights`."""
    n, m = instance.agent_count, instance.item_count
    rows, cols = linear_sum_assignment(_log_weights(instance), maximize=True)
    bundles: list[frozenset[int]] = [frozenset()] * n
    for agent, item in zip(rows, cols):
        bundles[agent] = frozenset({int(item)})
    return Allocation(tuple(bundles), m)


def _apply_path_move(
    allocation: Allocation, path: list[int], item: int
) -> Allocation:
    """Shift bundles backwards along the path; its endpoint takes the item.

    Every agent on the path receives its successor's bundle, the endpoint
    receives {item} from the pool, and the first agent's old item returns
    to the pool. A single-vertex path is a plain swap against the pool.
    """
    new = list(allocation.bundles)
    for t in range(len(path) - 1):
        new[path[t]] = allocation.bundles[path[t + 1]]
    new[path[-1]] = frozenset({item})
    return Allocation(tuple(new), allocation.item_count)


def _matching_matrix(instance: Instance, allocation: Allocation) -> list[list[int]]:
    """values[i][j] = v_i(B_j) of a one-item-per-agent matching: each agent's
    row of `Instance.scaled_rows` read at the matched items, with no sums."""
    items = [item for bundle in allocation.bundles for item in bundle]
    return [[row[item] for item in items] for row in instance.scaled_rows]


def _find_pool_violation(
    instance: Instance, allocation: Allocation, values: list[list[int]], ranks: EnvyRanks
) -> tuple[int, int] | None:
    """Smallest (agent, remaining item) with rank * value > own value, read
    from the agent's row of `Instance.scaled_rows` and values[agent][agent].

    Decided in integers: a value v breaks the bound when v * num > bound,
    with (num, bound) = (rank.numerator, own * rank.denominator) for a
    finite rank and (1, 0) for an infinite one, which every positive value
    breaks; a zero value breaks neither. An agent's pool items are scanned
    only when the largest value in its whole row breaks the bound: rank *
    value grows with value, and the pool's values are among the row's, so
    otherwise none of them does.
    """
    pool = sorted(allocation.remaining)
    for agent, row in enumerate(instance.scaled_rows):
        rank = ranks[agent]
        if is_infinite(rank):
            num, bound = 1, 0
        else:
            num, bound = rank.numerator, values[agent][agent] * rank.denominator
        if max(row) * num <= bound:
            continue
        for item in pool:
            if row[item] * num > bound:
                return agent, item
    return None


def _certify_or_move(
    instance: Instance, allocation: Allocation, values: list[list[int]]
) -> EnvyRanks | Allocation:
    """The certified envy ranks, or the repair loop's next allocation, from
    the allocation's value matrix `values`."""
    try:
        ranks, preds = _relax_max_product(values)
    except ImprovingCycleExists as found:
        return rotate_bundles(allocation, found.cycle)
    violation = _find_pool_violation(instance, allocation, values, ranks)
    if violation is None:
        return ranks
    agent, item = violation
    return _apply_path_move(allocation, _predecessor_path(preds, agent), item)


def nsw_matching(instance: Instance) -> NswMatchingResult:
    """Certified one-item-per-agent allocation (see module docstring)."""
    return _certified_matching(instance)[0]


def _certified_matching(
    instance: Instance,
) -> tuple[NswMatchingResult, list[list[int]]]:
    """`nsw_matching`'s result plus the value matrix of its matching, the
    one the last certify-or-move step built: the solvers keep it up to date
    from there instead of summing the bundles again."""
    if instance.item_count < instance.agent_count:
        raise InstanceTooSmall(
            f"need at least {instance.agent_count} items, got {instance.item_count}"
        )
    allocation = _warm_start(instance)
    objective: Objective | None = None  # of `allocation`, once a move needs it
    while True:
        values = _matching_matrix(instance, allocation)
        step = _certify_or_move(instance, allocation, values)
        if isinstance(step, EnvyRanks):
            return NswMatchingResult(allocation, step), values
        if objective is None:
            objective = lexicographic_objective(instance, allocation)
        after = lexicographic_objective(instance, step)
        assert after > objective, "a repair move must improve the objective"
        allocation, objective = step, after


def verify_nsw_certificate(instance: Instance, allocation: Allocation) -> bool:
    """Exactly re-check both certificate clauses on a one-item matching."""
    check_allocation(instance, allocation)
    if any(len(bundle) != 1 for bundle in allocation.bundles):
        raise InvalidAllocation("certificate verification needs one item per agent")
    values = _matching_matrix(instance, allocation)
    return isinstance(_certify_or_move(instance, allocation, values), EnvyRanks)
