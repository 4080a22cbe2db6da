"""Test-only references for `fairalloc.envy`.

`reference_envy_cycle` is a list-based strict-envy cycle search, the
reference for the bitset search behind `fairalloc.envy.envy_cycle_in`. It
shares no code with the package: successor lists are rebuilt from the value
matrix on every call, and the cycle is rotated here.

`product` and `cycle_weights` multiply envy-ratio weights exactly, as
`Fraction`s and INF, to check the package's integer relaxation against.
"""

from fractions import Fraction

from fairalloc.model import INF, is_infinite


def product(weights):
    """Exact product of extended weights: 0 absorbs, then inf dominates."""
    ws = list(weights)
    if any(w == 0 for w in ws):
        return Fraction(0)
    if any(is_infinite(w) for w in ws):
        return INF
    result = Fraction(1)
    for w in ws:
        result *= w
    return result


def cycle_weights(graph, cycle):
    """The weights of a cycle's edges in an `EnvyRatioGraph`, in order."""
    return [
        graph.weight(cycle[t], cycle[(t + 1) % len(cycle)]) for t in range(len(cycle))
    ]


def reference_envy_cycle(values):
    """The first strict-envy cycle of a depth-first search over
    values[i][j] = v_i(B_j), smallest agent first on the cycle; or None.

    Agent i envies j when values[i][j] > values[i][i]. The search starts
    from the smallest agent index and visits neighbours in ascending order.
    """
    n = len(values)
    successors = [
        [j for j, value in enumerate(row) if j != i and value > row[i]]
        for i, row in enumerate(values)
    ]
    color = [0] * n  # 0 new, 1 open, 2 done
    for start in range(n):
        if color[start]:
            continue
        color[start] = 1
        path = [start]  # the open vertices, in visit order
        pending = [iter(successors[start])]  # each one's unvisited neighbours
        while path:
            for nxt in pending[-1]:
                if color[nxt] == 1:
                    cycle = path[path.index(nxt):]
                    first = cycle.index(min(cycle))
                    return tuple(cycle[first:] + cycle[:first])
                if color[nxt] == 0:
                    color[nxt] = 1
                    path.append(nxt)
                    pending.append(iter(successors[nxt]))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return None
