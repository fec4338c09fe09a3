"""Builders shared across test modules."""

from fractions import Fraction
from itertools import chain as chained, combinations
from operator import sub

from germkit import (
    BasisDescriptor, Branch, HypothesesUnmet, QLinearMap, SurfaceGermModel, TRIVIAL_BASIS,
    WeightedDualGraph, is_gt, is_lt, mld_oracle, mld_point, span_min,
)
from germkit.coefflattice import LESS, _nums_sign, _over_lcm
from germkit.discrepancy import (
    Violation, _affine, _tower_forms, branch_total, smooth_point_mld, solve_discrepancies,
)
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


def reference_oracle_rows(model, depth, profile=None):
    """The rows mld_oracle handed to _least when it evaluated each point on its own.

    mld_oracle before it evaluated each table over all of its points in one
    pass, verbatim up to the ranking: the vertex rows, then the towers of
    each distinct point in order of first appearance.
    """
    a = solve_discrepancies(model) if profile is None else profile.a_map()
    basis, ids = model.basis, model.graph.ids()
    rows, den = _over_lcm([a[v] for v in ids] + [br.coeff for br in model.branches])
    scaled, comps = dict(zip(ids, rows)), [_affine(1, -1, b, den) for b in rows[len(ids):]]

    points = [(scaled[i], scaled[j]) for i, j in model.graph.edges]
    branch_points = zip(model.branches, comps)
    points += [(scaled[br.vertex], c) for br, c in branch_points if br.vertex is not None]
    points += [(scaled[v],) for v in ids] if ids else [tuple(comps)]
    unique = dict.fromkeys(tuple(sorted(p)) for p in points)
    towers = (_one_point_towers(p, depth, den, basis.dim) for p in unique)
    return list(chained(scaled.values(), chained.from_iterable(towers)))


def _one_point_towers(point, d, den, dim):
    """Values over the towers of height up to d above one point, evaluated on its own."""
    if len(point) in (1, 2):
        u, v = (point + ((0,) * dim,))[:2]
        return _one_point_evaluate(_tower_forms(len(point), d), u, v, den)
    created = [sum(c) for c in zip(*point)] or [0] * dim
    created[0] += (2 - len(point)) * den
    values = [tuple(created)]
    if d > 1:
        for x, arity in [(x, 2) for x in point] + [((0,) * dim, 1)]:
            values += _one_point_evaluate(_tower_forms(arity, d - 1), created, x, den)
    return values


def _one_point_evaluate(forms, u, v, den):
    """Each form (c0, c1, c2) at the numerator vectors u and v over den."""
    u0, v0 = u[0], v[0]
    cols = [[c0 * den + c1 * u0 + c2 * v0 for c0, c1, c2 in forms]]
    cols += [[c1 * p + c2 * q for _, c1, c2 in forms] for p, q in zip(u[1:], v[1:])]
    return list(zip(*cols))


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


def moved(model, basis):
    """The same germ with every value written over ``basis`` (same dimension)."""
    def move(x):
        return basis.element(x.coords)

    return SurfaceGermModel(
        model.graph,
        tuple(Branch(br.vertex, move(br.coeff)) for br in model.branches),
        tuple((v, move(mu)) for v, mu in model.nef_loads),
        None if model.epsilon is None else move(model.epsilon),
        basis,
    )


# The four lemma checkers as they were written on span arithmetic, before
# they moved to integer rows over one denominator: each inequality is one
# is_gt or is_lt of SpanElements, and the vertex window takes span_min of
# the positive inputs.


def reference_convexity(model, profile=None):
    if profile is None:
        profile = mld_point(model)
    if not profile.is_lc:
        raise HypothesesUnmet("convexity checks need a log canonical model")
    a = profile.a_map()
    for vid, av in a.items():
        if is_gt(av, 1):
            raise HypothesesUnmet(f"vertex {vid} has log discrepancy above 1")
    adj = model.graph.adjacency()
    out = []
    half = Fraction(1, 2)
    for vid, w in model.graph.vertices:
        if w <= -2:
            for p, q in combinations(adj[vid], 2):
                if is_gt(a[vid], (a[p] + a[q]) * half):
                    out.append(
                        Violation("midpoint", (p, vid, q), f"a({vid}) above neighbor mean")
                    )
        bound = Fraction(2, -w)
        if is_gt(a[vid], bound):
            out.append(Violation("weight-bound", (vid,), f"a({vid}) above {bound}"))
    if profile.classification == "eps-lc":
        eps = model.epsilon
        for vid, w in model.graph.vertices:
            if w > -3:
                continue
            for p, q in combinations(adj[vid], 2):
                if is_lt(a[p] + a[q] - 2 * a[vid], eps):
                    out.append(Violation("gap", (p, vid, q), "second difference below epsilon"))
    return tuple(out)


def reference_smooth_threshold(model, profile=None):
    if profile is None:
        profile = mld_point(model)
    g = model.graph
    if g.order == 0 or any(w > -2 for _, w in g.vertices) or not profile.is_lc:
        return ()
    if is_gt(profile.mld, 1):
        return (Violation("smooth-threshold", (), "mld above 1 on an all-(-2-or-below) graph"),)
    return ()


def reference_empty_graph_value(model, profile=None):
    if model.graph.order != 0:
        return ()
    total = branch_total(model)
    if is_gt(total, 1):
        return ()
    if profile is None:
        profile = mld_point(model)
    expected = smooth_point_mld(total)
    out = []
    if profile.mld != expected:
        out.append(Violation("smooth-center-value", (), "mld differs from 2 - mult"))
    if mld_oracle(model, 4, profile) != expected:
        out.append(Violation("smooth-center-oracle", (), "tower oracle differs from 2 - mult"))
    return tuple(out)


def reference_vertex_window(model, profile=None):
    g = model.graph
    if g.order == 0 or any(w > -2 for _, w in g.vertices):
        return ()
    if profile is None:
        profile = mld_point(model)
    if not profile.is_lc:
        return ()
    mld = profile.mld
    if profile.realizing[0] != "vertex":
        return ()
    if not (is_gt(mld, Fraction(2, 3)) and is_lt(mld, 1)):
        return ()
    inputs = [br.coeff for br in model.branches] + [mu for _, mu in model.nef_loads]
    positives = [x for x in inputs if is_gt(x, 0)]
    if positives:
        d = span_min(positives)
        floor = model.basis.rational(1) - d / 2
        if not is_gt(mld, floor):
            return ()
    return (
        Violation(
            "vertex-window",
            (profile.realizing[1],),
            "vertex-realized mld inside the excluded window",
        ),
    )
