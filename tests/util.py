"""Builders shared across test modules."""

from fractions import Fraction
from operator import sub

from germkit import (
    BasisDescriptor, Branch, QLinearMap, SurfaceGermModel, TRIVIAL_BASIS, WeightedDualGraph,
)
from germkit.coefflattice import LESS, _nums_sign
from germkit.enclosures import NestedIntervalsEnclosure


def chain(*weights):
    n = len(weights)
    return WeightedDualGraph(
        tuple((i, w) for i, w in enumerate(weights)),
        tuple((i, i + 1) for i in range(n - 1)),
    )


def germ(graph, branches=(), loads=(), eps=None, basis=TRIVIAL_BASIS):
    return SurfaceGermModel(graph, tuple(branches), tuple(loads), eps, basis)


def rbranch(vertex, value, basis=TRIVIAL_BASIS):
    return Branch(vertex, basis.rational(Fraction(value)))


def declared(basis, levels=256):
    """The same basis with each irrational given by its first ``levels`` levels.

    An ``intervals`` enclosure has no closed form, so the copy is only
    declared independent and every irrational decision over it refines;
    256 levels cover a decimal at the default budget (4 x 64 levels).
    """
    encs = basis.enclosures[:1] + tuple(
        NestedIntervalsEnclosure(tuple(e.interval(k) for k in range(levels)))
        for e in basis.enclosures[1:]
    )
    return BasisDescriptor(basis.symbols, encs)


EMPTY = WeightedDualGraph((), ())


def reference_least(basis, rows, den):
    """discrepancy._least before its grouping and bracket filter, verbatim.

    Compares each row with the running best only: rows with equal
    irrational parts by their integers, any other pair by a certified sign.
    """
    rows = iter(rows)
    best = next(rows)
    for x in rows:
        if x[1:] == best[1:]:
            less = x[0] < best[0]
        else:
            less = _nums_sign(basis, tuple(map(sub, x, best)), den) == LESS
        if less:
            best = x
    return best


def identity_map(basis):
    """The identity of the span over ``basis``, as a QLinearMap."""
    n = basis.dim
    return QLinearMap(basis, basis, tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    ))


def weight_total(part):
    """The sum of a partition's weights, by span addition."""
    total = part.weights_basis.zero()
    for w, _ in part.entries:
        total = total + w
    return total


def path_length(path):
    """The number of edges of a MarkedVertexPath."""
    return len(path.vertex_ids) - 1


def is_path_in(path, g):
    """Whether a MarkedVertexPath walks existing edges of g between its vertices."""
    ids = path.vertex_ids
    if not ids or not set(ids) <= set(g.ids()):
        return False
    return all(g.has_edge(a, b) for a, b in zip(ids, ids[1:]))
