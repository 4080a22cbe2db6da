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
anything they got wrong. The loop works on the matching as one item vector,
items[i] = agent i's item, from the warm start to the certified result;
an `Allocation` is built only for the result and for a move's objective
check. Every iteration is one certify-or-move step: a single max-product
relaxation over the envy ratios either certifies the two properties every
later step relies on,

  * the envy-ratio graph admits no improving cycle, and
  * rank_i * v_i(b) <= v_i(own item) for every agent i and remaining b,

and returns the envy ranks, or it yields the repair move. Both kinds of
move are one shift of the vector (`_shift`): each agent on a list takes
the next one's item and the last takes an incoming one. A rotation along
the improving cycle the relaxation found takes the first agent's item in;
for the smallest (agent, pool item) breaking the second clause, a path move
along the agent's maximum-product path takes the pool item in and returns
the first agent's item to the pool. `verify_nsw_certificate` is the same
step run once on a given matching. The relaxation runs on integers only,
straight on the integer value matrix, which each step reads off
`Instance.scaled_rows` at the matched items (`_matching_matrix`; one item
per agent, so nothing is summed). No `EnvyRatioGraph` is built, and the
relaxation lists only the envy ratios that can raise a rank
(`envy._relax_max_product`): on a matching with few envious agents it
costs little more than their edges.
The solvers' order step reads the certified matching's strict-envy edges
through `envy.strict_envy_edges`, which sums the one-item bundles.

Each repair move strictly increases the lexicographic objective (number of
agents with positive value, then the product of those values), so the loop
terminates. The objective is read from the stored integer rows, one exact
`Fraction` per matching, and no `Fraction` table is built. The final
allocation maximizes that objective whenever the floats ranked candidate
matchings correctly; the exact certificate holds unconditionally, which is
all the downstream guarantees consume.

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
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from itertools import chain, compress

import numpy as np

from .envy import EnvyRanks, _predecessor_path, _relax_max_product
from .errors import ImprovingCycleExists, InstanceTooSmall, InvalidAllocation
from .model import Allocation, Instance, check_allocation, is_infinite

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
    """(number of agents with positive own value, product of those values).

    Read from the stored integer rows: agent i's own value is its row's sum
    over the bundle, over scales[i], so the product is that of the positive
    sums over that of their rows' scales, one `Fraction`."""
    check_allocation(instance, allocation)
    count, num, den = 0, 1, 1
    for row, scale, bundle in zip(instance.rows, instance.scales, allocation.bundles):
        if total := sum(row[item] for item in bundle):
            count += 1
            num *= total
            den *= scale
    return count, Fraction(num, den)


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


def _warm_start(instance: Instance) -> list[int]:
    """Float log-weight matching on `_log_weights`, as the item vector:
    items[i] is agent i's item. There are at least as many items as agents,
    so every agent is matched, and the agents come back in order."""
    return linear_sum_assignment(_log_weights(instance), maximize=True)[1].tolist()


def _allocation(items: list[int], item_count: int) -> Allocation:
    """The matching as an `Allocation`: agent i holds {items[i]}."""
    return Allocation.of([[item] for item in items], item_count)


def _shift(items: list[int], agents: Sequence[int], incoming: int) -> list[int]:
    """The one repair move: each agent in `agents` takes the next agent's
    item, and the last takes `incoming`."""
    new = items.copy()
    for agent, following in zip(agents, agents[1:]):
        new[agent] = items[following]
    new[agents[-1]] = incoming
    return new


def _matching_matrix(instance: Instance, items: list[int]) -> list[list[int]]:
    """values[i][j] = v_i(item of j): each agent's row of
    `Instance.scaled_rows` read at the matched items, with no sums."""
    return [[row[item] for item in items] for row in instance.scaled_rows]


def _find_pool_violation(
    instance: Instance, items: list[int], values: list[list[int]], ranks: EnvyRanks
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
    pool = sorted(set(range(instance.item_count)).difference(items))
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


def _certify_or_move(instance: Instance, items: list[int]) -> EnvyRanks | list[int]:
    """The certified envy ranks, or the repair loop's next item vector, from
    the matching's value matrix (`_matching_matrix`)."""
    values = _matching_matrix(instance, items)
    try:
        ranks, preds = _relax_max_product(values)
    except ImprovingCycleExists as found:
        return _shift(items, found.cycle, items[found.cycle[0]])
    violation = _find_pool_violation(instance, items, values, ranks)
    if violation is None:
        return ranks
    agent, item = violation
    return _shift(items, _predecessor_path(preds, agent), item)


def nsw_matching(instance: Instance) -> NswMatchingResult:
    """Certified one-item-per-agent allocation (see module docstring)."""
    n, m = instance.agent_count, instance.item_count
    if m < n:
        raise InstanceTooSmall(f"need at least {n} items, got {m}")
    items = _warm_start(instance)
    objective: Objective | None = None  # of `items`, once a move needs it
    while True:
        step = _certify_or_move(instance, items)
        if isinstance(step, EnvyRanks):
            return NswMatchingResult(_allocation(items, m), step)
        if objective is None:
            objective = lexicographic_objective(instance, _allocation(items, m))
        after = lexicographic_objective(instance, _allocation(step, m))
        assert after > objective, "a repair move must improve the objective"
        items, objective = step, after


def verify_nsw_certificate(instance: Instance, allocation: Allocation) -> bool:
    """Exactly re-check both certificate clauses on a one-item matching."""
    check_allocation(instance, allocation)
    if any(len(bundle) != 1 for bundle in allocation.bundles):
        raise InvalidAllocation("certificate verification needs one item per agent")
    items = [item for (item,) in allocation.bundles]
    return isinstance(_certify_or_move(instance, items), EnvyRanks)
