"""Log discrepancies of surface germs from resolution dual-graph data.

A model bundles a weighted dual graph with branch coefficients, nef loads
and an optional positivity threshold, all exact values over one declared
basis.  The solver reads the graph's one factorization of the intersection
form to get per-curve log discrepancies.  Once the pair is log canonical
no point of the fiber has a smaller log discrepancy than some curve
through it, so the point minimum is the least log discrepancy of a curve,
ranked with certified signs.  An independent brute-force enumeration of
blow-up towers, which still visits meeting points and branch points,
cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from operator import add, sub
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .coefflattice import (
    BasisDescriptor,
    GREATER,
    LESS,
    QLinearMap,
    SpanElement,
    is_ge,
    is_gt,
    is_le,
    is_lt,
    render_exact,
    span_min,
    _nums_sign,
    _over_lcm,
    _reduced,
    _refine,
    _span,
)
from .dualgraph import (
    MarkedVertexPath,
    WeightedDualGraph,
    find_chain,
    fork_census,
    graph_determinant_abs,
    is_negative_definite,
    split_at_edge,
)
from .errors import (
    HypothesesUnmet,
    InvariantViolated,
    ModelError,
    NotNegativeDefinite,
    RefinementExhausted,
)
from .linalg import Row, _lowest, solve_exact


class NegInfinity:
    """Inhabitant of the single non-finite mld value.

    Kept as its own type so finite arithmetic can never absorb it silently;
    code must branch on it explicitly.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NEG_INFINITY"

    def __str__(self):
        return "-inf"


NEG_INFINITY = NegInfinity()

MldValue = Union[SpanElement, NegInfinity]

# realizing locus kinds: ("vertex", id); ("branch", index) for the first
# branch with coefficient above 1 on a germ that is not lc; ("point", None)
# for the center of an empty-graph germ.  No meeting point of two curves is
# ever a locus: once the germ is lc a curve through it does as well.
Locus = Tuple[str, object]


@dataclass(frozen=True)
class Branch:
    """A curve germ through the fiber, transverse to one exceptional curve.

    ``vertex`` is None only on the empty graph, where the branch passes
    through the smooth center itself.
    """

    vertex: Optional[int]
    coeff: SpanElement


@dataclass(frozen=True)
class SurfaceGermModel:
    graph: WeightedDualGraph
    branches: Tuple[Branch, ...] = ()
    nef_loads: Tuple[Tuple[int, SpanElement], ...] = ()
    epsilon: Optional[SpanElement] = None
    basis: BasisDescriptor = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.basis is None:
            raise ModelError("model needs a basis")
        ids = set(self.graph.ids())
        for i, br in enumerate(self.branches):
            if br.vertex is None:
                if ids:
                    raise ModelError(
                        "free branch allowed only on the empty graph", f"branches[{i}].vertex"
                    )
            elif br.vertex not in ids:
                raise ModelError(f"no vertex {br.vertex}", f"branches[{i}].vertex")
            if br.coeff.basis != self.basis:
                raise ModelError("coefficient over a foreign basis", f"branches[{i}].b")
            if is_lt(br.coeff, 0):
                raise ModelError("branch coefficient must be >= 0", f"branches[{i}].b")
        seen = set()
        for v, mu in self.nef_loads:
            if v not in ids:
                raise ModelError(f"no vertex {v}", f"nefloads.{v}")
            if v in seen:
                raise ModelError("duplicate load", f"nefloads.{v}")
            seen.add(v)
            if mu.basis != self.basis:
                raise ModelError("load over a foreign basis", f"nefloads.{v}")
            if is_lt(mu, 0):
                raise ModelError("nef load must be >= 0", f"nefloads.{v}")
        object.__setattr__(self, "nef_loads", tuple(sorted(self.nef_loads)))
        if self.epsilon is not None:
            if self.epsilon.basis != self.basis:
                raise ModelError("epsilon over a foreign basis", "epsilon")
            if is_lt(self.epsilon, 0):
                raise ModelError("epsilon must be >= 0", "epsilon")
        if not is_negative_definite(self.graph):
            raise NotNegativeDefinite(
                "intersection matrix of the dual graph is not negative definite"
            )


def apply_to_coefficients(model: SurfaceGermModel, f: QLinearMap) -> SurfaceGermModel:
    """Push every branch coefficient, load and epsilon through a snap map."""
    if f.source != model.basis:
        raise ModelError("map source does not match the model basis")
    branches = tuple(Branch(b.vertex, f.apply(b.coeff)) for b in model.branches)
    loads = tuple((v, f.apply(mu)) for v, mu in model.nef_loads)
    eps = None if model.epsilon is None else f.apply(model.epsilon)
    return SurfaceGermModel(model.graph, branches, loads, eps, model.basis)


def branch_total(model: SurfaceGermModel) -> SpanElement:
    """Sum of the branch coefficients, the multiplicity of the boundary."""
    return sum((br.coeff for br in model.branches), model.basis.zero())


def positive_inputs(model: SurfaceGermModel) -> List[SpanElement]:
    """The positive branch coefficients, then the positive nef loads, in model order."""
    inputs = [br.coeff for br in model.branches] + [mu for _, mu in model.nef_loads]
    return [x for x in inputs if _nums_sign(x.basis, x.nums, x.den) == GREATER]


@dataclass(frozen=True)
class DiscrepancyProfile:
    """Solved log discrepancies plus the point minimum and its classification.

    ``classification`` is "not-lc", "lc", "klt" or "eps-lc"; whether the
    germ is lc or klt is read from it.  ``epsilon_ok`` says whether the mld
    reaches the model's epsilon, None when the model declares none.
    """

    a: Tuple[Tuple[int, SpanElement], ...]
    mld: MldValue
    realizing: Locus
    classification: str
    epsilon_ok: Optional[bool]

    @property
    def is_lc(self) -> bool:
        return self.classification != "not-lc"

    @property
    def is_klt(self) -> bool:
        # an eps-lc mld reaches an epsilon > 0
        return self.classification in ("klt", "eps-lc")

    @cached_property
    def above_one(self) -> Optional[int]:
        """The first vertex by id whose log discrepancy is above 1, None when every a <= 1."""
        above = (
            v for v, x in self.a if _nums_sign(x.basis, _affine(1, -1, x.nums, x.den), x.den) < 0
        )
        return next(above, None)

    @cached_property
    def one_minus_mld_sign(self) -> int:
        """The certified sign of 1 - mld, GREATER when the mld is below 1; lc profiles only."""
        x = self.mld
        return _nums_sign(x.basis, _affine(1, -1, x.nums, x.den), x.den)

    def a_map(self) -> Dict[int, SpanElement]:
        return dict(self.a)


def _affine(c: int, k: int, nums: Nums, den: int) -> Nums:
    """The numerators of c + k x over den, for x = nums/den; 1 - x is in lowest terms when x is."""
    return (c * den + k * nums[0],) + tuple([k * n for n in nums[1:]])


def solve_discrepancies(model: SurfaceGermModel) -> Dict[int, SpanElement]:
    """Per-curve log discrepancies from the pullback linear system.

    For each vertex j the system reads
        sum_i (1 - a_i) (E_i . E_j) = (w_j + 2) - (branch coefficients at j) - load(j)
    and negative definiteness, certified when the model was built, makes it
    uniquely solvable.  One substitution on the graph's factor solves every
    basis coordinate at once, on the integer numerators and common
    denominator the elements store.
    """
    basis = model.basis
    sols = solve_exact(model.graph.factor, _rhs_rows(model))
    return {v: _span(basis, _affine(1, -1, n, d), d) for v, (n, d) in zip(model.graph.ids(), sols)}


def _rhs_rows(model: SurfaceGermModel) -> List[Row]:
    """The right-hand side at each vertex, as integer numerators over a denominator.

    Each row is (w + 2) minus the inputs at the vertex, in lowest terms;
    every input of the model goes over one denominator first.
    """
    inputs = [(br.vertex, br.coeff) for br in model.branches if br.vertex is not None]
    inputs += model.nef_loads
    scaled, den = _over_lcm([x for _, x in inputs])
    sums: Dict[int, Sequence[int]] = {}
    for (vid, _), row in zip(inputs, scaled):
        sums[vid] = list(map(add, sums[vid], row)) if vid in sums else row
    zeros = (0,) * (model.basis.dim - 1)
    return [
        _lowest(_affine(w + 2, -1, sums[vid], den), den) if vid in sums else ((w + 2,) + zeros, 1)
        for vid, w in model.graph.vertices
    ]


def mld_point(model: SurfaceGermModel) -> DiscrepancyProfile:
    """Minimal log discrepancy over the fiber, with realizing locus and tags.

    The value is NEG_INFINITY exactly when the model is not log canonical:
    the locus is the first vertex by id with a < 0, else the first branch
    with b > 1, else, on the empty graph, the center when 2 - sum b < 0.
    On the empty graph the center is the only point, of value 2 - sum b.

    Otherwise the minimum is the least a_i, realized at the first vertex by
    id that attains it.  Blowing up a point where curves of values c_1..c_r
    meet (an exceptional curve has value a_i, a branch 1 - b) creates a
    curve of value 2 - r + sum c_k: log discrepancies add under a point
    blow-up of an snc pair (Kollar-Mori, Birational Geometry of Algebraic
    Varieties, 1998, section 2.3), and for a generalized pair the nef part
    descends to the blow-up, so the same holds.  An lc pair has every a_i >= 0 and
    every b <= 1, so a meeting point gives a_i + a_j >= a_i, a branch point
    1 + a_i - b >= a_i and a general point 1 + a_i, and each new curve again
    has a value >= 0: no point of the fiber beats the curves through it,
    and a vertex wins every tie.  The vertices are ranked by _least, as
    mld_oracle ranks, so no SpanElement is built per comparison.
    """
    a = solve_discrepancies(model)
    basis = model.basis
    ids = model.graph.ids()

    for vid in ids:
        x = a[vid]
        if _nums_sign(basis, x.nums, x.den) == LESS:
            return _profile(model, a, NEG_INFINITY, ("vertex", vid))
    for idx, br in enumerate(model.branches):
        if _nums_sign(basis, _affine(1, -1, br.coeff.nums, br.coeff.den), br.coeff.den) == LESS:
            return _profile(model, a, NEG_INFINITY, ("branch", idx))

    if not ids:
        value = basis.rational(2) - branch_total(model)
        if _nums_sign(basis, value.nums, value.den) == LESS:
            return _profile(model, a, NEG_INFINITY, ("point", None))
        return _profile(model, a, value, ("point", None))

    values = [a[vid] for vid in ids]
    scaled, den = _over_lcm(values)
    # equal values have equal rows over one denominator: index finds the first
    k = scaled.index(_least(basis, scaled, den))
    return _profile(model, a, values[k], ("vertex", ids[k]))


def _least(basis: BasisDescriptor, rows: Iterable[Nums], den: int) -> Nums:
    """The least of nonempty numerator rows over den, the first of equal rows.

    Group: rows with equal irrational parts differ by a rational, which
    their integers decide, so one pass keeps the least integer for each
    irrational part, in order of first appearance.

    Filter, over a certified basis with more than one representative left:
    the symbol brackets lo_j <= 2^BRACKET_BITS * r_j <= hi_j bound each
    representative's value times 2^BRACKET_BITS by integers L <= v <= U.
    Representatives have distinct irrational parts, so, the basis being
    certified independent, distinct values; the least one has
    L <= v <= every other value <= that one's U, so it is among those with
    L <= min U, and only those are ranked.  This is the static filter of
    exact geometric computation (Fortune and Van Wyk, ACM TOG 15, 1996).
    Over a declared basis every representative is ranked.

    The ranking keeps a running best and asks each later representative's
    certified sign against it (_nums_sign).
    """
    least: Dict[Nums, int] = {}
    for x in rows:
        c, irrational = x[0], x[1:]
        if least.get(irrational, c) >= c:
            least[irrational] = c
    reps = [(c,) + irrational for irrational, c in least.items()]
    brackets = basis._brackets if len(reps) > 1 else None
    if brackets is not None:
        bounds = []
        for x in reps:
            lo = hi = 0
            for n, (l, h) in zip(x, brackets):
                if n > 0:
                    lo, hi = lo + n * l, hi + n * h
                elif n:
                    lo, hi = lo + n * h, hi + n * l
            bounds.append((lo, hi))
        top = min(hi for _, hi in bounds)
        reps = [x for x, (lo, _) in zip(reps, bounds) if lo <= top]
    best = reps[0]
    for x in reps[1:]:
        if _nums_sign(basis, tuple(map(sub, x, best)), den) == LESS:
            best = x
    return best


def _profile(
    model: SurfaceGermModel,
    a: Dict[int, SpanElement],
    mld: MldValue,
    realizing: Locus,
) -> DiscrepancyProfile:
    eps = model.epsilon
    if mld is NEG_INFINITY:
        tag, eps_ok = "not-lc", None if eps is None else False
    else:
        eps_ok = None if eps is None else is_ge(mld, eps)
        if eps_ok and is_gt(eps, 0):
            tag = "eps-lc"
        elif _nums_sign(mld.basis, mld.nums, mld.den) == GREATER:
            tag = "klt"
        else:
            tag = "lc"
    return DiscrepancyProfile(tuple(a.items()), mld, realizing, tag, eps_ok)


# Deepest tower the oracle walks.  Its tables, and its work per point with
# them, grow by at most two forms per level.  At depth 14 the 7/3 chain with
# one rational branch takes 4.5 ms, building every table, and 0.05 ms once
# they are built; `germkit mld` on the 5-curve golden tree and cycle models
# over sqrt2 takes 0.15 to 0.23 s and 22 MB of process RSS, as at depth 1
# (Python 3.11, 2 shared cores).
MAX_ORACLE_DEPTH = 14


def check_oracle_depth(depth: int) -> None:
    """Refuse an oracle depth before any work starts.

    A depth that is not an int, or is a bool, raises TypeError; one below 1
    raises ValueError; one above MAX_ORACLE_DEPTH raises HypothesesUnmet.
    """
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise TypeError(f"oracle depth must be an int, got {depth!r}")
    if depth < 1:
        raise ValueError(f"oracle depth must be at least 1, got {depth}")
    if depth > MAX_ORACLE_DEPTH:
        raise HypothesesUnmet(
            f"oracle depth {depth} exceeds the cap of {MAX_ORACLE_DEPTH}"
        )


Nums = Tuple[int, ...]
Point2 = Tuple[int, int]

# (arity, depth) -> _tower_forms(arity, depth), built once per process
_TOWER_FORMS: Dict[Tuple[int, int], Tuple[Nums, ...]] = {}


def _composed(point: Tuple[Nums, ...], d: int, den: int, dim: int) -> List[Nums]:
    """Values over the towers of height up to d above one point, their least included.

    ``point`` holds the values of its curves as numerator vectors over den.
    Its blow-up creates a curve of value 2 - r + sum(point), and every later
    value is a form of _tower_forms(2, d - 1) at (created, x) for a curve x
    through the point, or of _tower_forms(1, d - 1) at created.
    """
    created = [sum(c) for c in zip(*point)] or [0] * dim
    created[0] += (2 - len(point)) * den
    values = [tuple(created)]
    if d > 1:
        values += _evaluate(_tower_forms(2, d - 1), [(created, x) for x in point], den)
        values += _evaluate(_tower_forms(1, d - 1), [(created, (0,) * dim)], den)
    return values


def _evaluate(forms: Sequence[Nums], points: Sequence[Tuple[Nums, Nums]], den: int) -> List[Nums]:
    """Each form (c0, c1, c2) at each point (u, v) of numerator vectors over den, point-major."""
    if not points:
        return []
    # one list per coordinate over points x forms, zipped into vectors at C speed
    cols = [[c0 * den + c1 * u[0] + c2 * v[0] for u, v in points for c0, c1, c2 in forms]]
    for k in range(1, len(points[0][0])):
        cols.append([c1 * u[k] + c2 * v[k] for u, v in points for _, c1, c2 in forms])
    return list(zip(*cols))


def _tower_forms(arity: int, d: int) -> Tuple[Nums, ...]:
    """The tower values above a point of 1 or 2 curves that can be least, as forms.

    Above curves of values u (and v) every value over the towers of height
    up to d is c0 + c1*u + c2*v with integer c0, c1, c2, whatever the model:
    _composed of (u,) or (u, v) over the symbols (1, u, v).  Two forms with
    the same linear part (c1, c2) differ by the same integer at every point,
    so only the least constant per linear part is kept.

    Of those, only the lower envelope is kept.  A form q is dropped when its
    linear part is sum(l_i * (a1_i, a2_i)) for kept forms a_i and weights
    l_i >= 0 of sum 1, and q0 >= sum(l_i * a0_i).  Then at every real (u, v)
        q(u, v) >= sum(l_i * a_i(u, v)) >= min_i a_i(u, v),
    so q is never below every kept form and the least value at each point
    is unchanged; composing a table into the next keeps that so.  This is
    linear programming, not a lemma about mlds: no sign of a, and no b <= 1,
    is assumed, so the oracle stays independent of mld_point.

    Arity 1 keeps the lower convex chain of the points (c1, c0): a dropped
    point lies on or above the chain segment over its c1.  Arity 2 keeps
    what _fan_envelope keeps.  The forms stay in the order the composition
    first made them, which is the order a declared basis ranks them in.
    """
    forms = _TOWER_FORMS.get((arity, d))
    if forms is None:
        least: Dict[Point2, int] = {}
        for c0, c1, c2 in _composed(((0, 1, 0), (0, 0, 1))[:arity], d, 1, 3):
            if least.get((c1, c2), c0) >= c0:
                least[c1, c2] = c0
        if arity == 1:
            chain = _lower_chain(sorted((c1, c0) for (c1, _), c0 in least.items()))
            kept = {(c1, 0) for c1, _ in chain}
        else:
            kept = _fan_envelope(least)
        forms = tuple((c0,) + lin for lin, c0 in least.items() if lin in kept)
        _TOWER_FORMS[arity, d] = forms
    return forms


def _cross(o: Point2, a: Point2, b: Point2) -> int:
    """(a - o) x (b - o), positive when o, a, b turn counter-clockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_chain(points: Sequence[Point2]) -> List[Point2]:
    """The vertices of the lower convex chain of sorted distinct points, in order.

    The monotone chain of A. M. Andrew (Inf. Process. Lett. 9(5), 1979); a
    point inside a segment of the chain is not a vertex.
    """
    chain: List[Point2] = []
    for p in points:
        while len(chain) > 1 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _fan_envelope(least: Dict[Point2, int]) -> Set[Point2]:
    """The linear parts (c1, c2) of ``least``, mapped to c0, that _tower_forms keeps.

    Each form whose (c1, c2) is a vertex of the convex hull of the linear
    parts is kept: no two forms share a linear part, so it is a vertex of
    the lower hull.  The hull vertices, counter-clockwise, are the lower
    chain of the sorted parts and then that of the reversed ones; the fan
    triangles join the first vertex to each later edge.  A part p in the
    triangle (a, b, c) is (la*a + lb*b + lc*c) / det for integers
    la, lb, lc >= 0 of sum det = 2 * its area, and its form is dropped when
    la*a0 + lb*b0 + lc*c0 <= det * p0.  A form that no fan triangle
    certifies is kept.
    """
    points = sorted(least)
    hull = _lower_chain(points)[:-1] + _lower_chain(points[::-1])[:-1]
    fan = [(hull[0], b, c) for b, c in zip(hull[1:-1], hull[2:])]

    def certified(p: Point2) -> bool:
        for a, b, c in fan:
            det, lb, lc = _cross(a, b, c), _cross(a, p, c), _cross(a, b, p)
            la = det - lb - lc
            if min(la, lb, lc) >= 0:
                if la * least[a] + lb * least[b] + lc * least[c] <= det * least[p]:
                    return True
        return False

    return set(hull) | {p for p in points if not certified(p)}


def mld_oracle(
    model: SurfaceGermModel, depth: int, profile: DiscrepancyProfile | None = None
) -> MldValue:
    """Brute-force cross-check of mld_point by enumerating blow-up towers.

    Every point of the fiber worth blowing up is described by the multiset
    of local coefficient values of the curves through it (each exceptional
    curve contributes its log discrepancy, each branch contributes one minus
    its coefficient).  Blowing up such a point creates a curve of value
    2 - r + sum(values) and the new points worth visiting are its meetings
    with each old curve plus one generic point on it.  The oracle takes the
    minimum over all towers of height up to ``depth``.  Those towers do not
    depend on the model, so their values come from the integer forms that
    can be least, tabled once per process (_tower_forms), evaluated once
    per call over all points of one or two curves (_evaluate), on integer
    numerators over one common denominator, and ranked by _least, which
    keeps the least candidate per irrational part and, over a certified
    basis, signs only those whose integer brackets reach the least upper
    bound; only the minimum becomes a SpanElement again.

    Agrees exactly with mld_point whenever every branch coefficient is at
    most 1 (so, on the whole generated corpus).  With a coefficient above 1
    the closed form reports NEG_INFINITY while a shallow enumeration may not
    yet have produced a negative value.

    ``profile``, when given, is ``mld_point(model)``; its log discrepancies
    are used instead of solving the linear system again.  The depth is
    checked by check_oracle_depth.
    """
    check_oracle_depth(depth)
    a = solve_discrepancies(model) if profile is None else profile.a_map()
    basis, ids = model.basis, model.graph.ids()
    # every value as integer numerators over one denominator, each branch as 1 - b
    rows, den = _over_lcm([a[v] for v in ids] + [br.coeff for br in model.branches])
    scaled, comps = dict(zip(ids, rows)), [_affine(1, -1, b, den) for b in rows[len(ids):]]
    zeros = (0,) * basis.dim
    if ids:
        pairs = [(scaled[i], scaled[j]) for i, j in model.graph.edges]
        branch_points = zip(model.branches, comps)
        pairs += [(scaled[br.vertex], c) for br, c in branch_points if br.vertex is not None]
        # a point seen twice, in any order of its curves, has the same towers
        unique = list(dict.fromkeys(tuple(sorted(p)) for p in pairs))
        towers = _evaluate(_tower_forms(2, depth), unique, den)
        singles = [(u, zeros) for u in dict.fromkeys(scaled.values())]
        towers += _evaluate(_tower_forms(1, depth), singles, den)
    else:
        # the centre of the empty graph, on every branch; one of other than
        # one or two curves is composed from the tables one level down
        centre = tuple(sorted(comps))
        if len(centre) in (1, 2):
            towers = _evaluate(_tower_forms(len(centre), depth), [(centre + (zeros,))[:2]], den)
        else:
            towers = _composed(centre, depth, den, basis.dim)
    best = _least(basis, chain(scaled.values(), towers), den)
    if _nums_sign(basis, best, den) == LESS:
        return NEG_INFINITY
    return _reduced(basis, best, den)


def smooth_point_mld(mult: SpanElement) -> SpanElement:
    """Mld of a smooth point against a boundary of the given multiplicity.

    Valid for multiplicity between 0 and 1, where one blow-up computes the
    minimum 2 - mult; beyond 1 the formula stops being the answer, so the
    call is refused.
    """
    if is_lt(mult, 0):
        raise HypothesesUnmet("multiplicity must be >= 0")
    if is_gt(mult, 1):
        raise HypothesesUnmet("formula holds only for multiplicity <= 1")
    return mult.basis.rational(2) - mult


@dataclass(frozen=True)
class Violation:
    check: str
    where: Tuple
    detail: str


def check_convexity(
    model: SurfaceGermModel, profile: DiscrepancyProfile | None = None
) -> Tuple[Violation, ...]:
    """Local convexity of log discrepancies along the dual graph.

    Three families of inequalities, each checked exactly:
      midpoint     a(E) <= mean of a over any two distinct neighbors,
                   for middle curves of weight <= -2;
      weight-bound a(E) <= 2/(-E^2) at every vertex;
      gap          a(E1) + a(E3) - 2 a(E2) >= epsilon across middle curves
                   of weight <= -3, when the profile classifies the model
                   "eps-lc" (a declared epsilon > 0 that the mld reaches).
    Requires a log canonical model with every a <= 1.
    """
    if profile is None:
        profile = mld_point(model)
    if not profile.is_lc:
        raise HypothesesUnmet("convexity checks need a log canonical model")
    if profile.above_one is not None:
        raise HypothesesUnmet(f"vertex {profile.above_one} has log discrepancy above 1")
    gap = profile.classification == "eps-lc"
    values = [x for _, x in profile.a] + ([model.epsilon] if gap else [])
    rows, den = _over_lcm(values)
    a = {vid: row for (vid, _), row in zip(profile.a, rows)}
    adj = model.graph.adjacency()
    out: List[Violation] = []
    for vid, w in model.graph.vertices:
        if w <= -2:
            for p, q in combinations(adj[vid], 2):
                mid = tuple([2 * i - j - k for i, j, k in zip(a[vid], a[p], a[q])])
                if _nums_sign(values[0].basis, mid, den) == GREATER:
                    out.append(Violation("midpoint", (p, vid, q), f"a({vid}) above neighbor mean"))
        if _nums_sign(values[0].basis, _affine(-2, -w, a[vid], den), den) == GREATER:
            out.append(Violation("weight-bound", (vid,), f"a({vid}) above {Fraction(2, -w)}"))
    if gap:
        for vid, w in model.graph.vertices:
            if w > -3:
                continue
            for p, q in combinations(adj[vid], 2):
                second = [j + k - 2 * i - e for i, j, k, e in zip(a[vid], a[p], a[q], rows[-1])]
                if _nums_sign(values[0].basis, tuple(second), den) == LESS:
                    out.append(Violation("gap", (p, vid, q), "second difference below epsilon"))
    return tuple(out)


def check_smooth_threshold(
    model: SurfaceGermModel, profile: DiscrepancyProfile | None = None
) -> Tuple[Violation, ...]:
    """Nonempty graphs with every weight <= -2 must have mld at most 1."""
    if profile is None:
        profile = mld_point(model)
    g = model.graph
    if g.order == 0 or any(w > -2 for _, w in g.vertices) or not profile.is_lc:
        return ()
    if profile.one_minus_mld_sign == LESS:
        return (Violation("smooth-threshold", (), "mld above 1 on an all-(-2-or-below) graph"),)
    return ()


def check_empty_graph_value(
    model: SurfaceGermModel, profile: DiscrepancyProfile | None = None
) -> Tuple[Violation, ...]:
    """Empty-graph models with multiplicity <= 1: mld must equal 2 - mult.

    The multiplicity is branch_total, which smooth_point_mld refuses above
    1.  The value is cross-checked against the tower oracle at depth 4.
    """
    if model.graph.order != 0:
        return ()
    try:
        expected = smooth_point_mld(branch_total(model))
    except HypothesesUnmet:
        return ()
    if profile is None:
        profile = mld_point(model)
    out: List[Violation] = []
    if profile.mld != expected:
        out.append(Violation("smooth-center-value", (), "mld differs from 2 - mult"))
    if mld_oracle(model, 4, profile) != expected:
        out.append(Violation("smooth-center-oracle", (), "tower oracle differs from 2 - mult"))
    return tuple(out)


def check_vertex_window(
    model: SurfaceGermModel, profile: DiscrepancyProfile | None = None
) -> Tuple[Violation, ...]:
    """No vertex-realized mld in the forbidden window on all-(<= -2) graphs.

    For log canonical models whose graph is nonempty with every weight at
    most -2, a vertex-realized mld strictly between max(2/3, 1 - d/2) and 1
    is impossible, where d is the smallest positive branch coefficient or
    load (absent coefficients leave only the 2/3 floor).  Finding one is
    reported as a violation.
    """
    g = model.graph
    if g.order == 0 or any(w > -2 for _, w in g.vertices):
        return ()
    if profile is None:
        profile = mld_point(model)
    if not profile.is_lc or profile.realizing[0] != "vertex":
        return ()
    basis, n, den = profile.mld.basis, profile.mld.nums, profile.mld.den
    if _nums_sign(basis, _affine(-2, 3, n, den), den) <= 0 or profile.one_minus_mld_sign <= 0:
        return ()
    # mld > 1 - d/2 for the least d is 2 mld - 2 + d > 0 for every d
    (m, *ds), den = _over_lcm([profile.mld] + positive_inputs(model))
    if any(_nums_sign(basis, tuple(map(add, _affine(-2, 2, m, den), d)), den) <= 0 for d in ds):
        return ()
    where = (profile.realizing[1],)
    return (Violation("vertex-window", where, "vertex-realized mld inside the excluded window"),)


@dataclass(frozen=True)
class ResolutionStep:
    """Outcome of normalizing a model so a vertex realizes the minimum.

    ``kind`` is "existing-vertex" when the input already realizes its mld at
    a curve, which every log canonical germ on a nonempty graph does, or
    "blown-up" when the center of an empty graph was blown up.  ``profile``
    describes the returned model.
    """

    model: SurfaceGermModel
    kind: str
    computing_vertex: int
    profile: DiscrepancyProfile
    minus_one_unique: Optional[bool]


def resolution_model(model: SurfaceGermModel) -> ResolutionStep:
    """Arrange for the mld to be realized at a vertex, blowing up once if needed.

    Log canonical input only.  On a nonempty graph mld_point realizes the
    minimum at a curve (its docstring says why), so the model is returned
    as it is.  On the empty graph the minimum sits at the smooth center,
    which is blown up: the new curve gets weight -1 and zero load, and every
    branch re-attaches to it.  The new curve's log discrepancy equals the
    old minimum, which is re-derived from the new graph as an internal
    consistency check.
    """
    profile = mld_point(model)
    if not profile.is_lc:
        raise HypothesesUnmet("model is not log canonical")
    kind, where = profile.realizing
    if kind == "vertex":
        return ResolutionStep(model, "existing-vertex", where, profile, None)

    new_model = SurfaceGermModel(
        WeightedDualGraph(((0, -1),), ()),
        tuple(Branch(0, br.coeff) for br in model.branches),
        model.nef_loads,
        model.epsilon,
        model.basis,
    )
    new_profile = mld_point(new_model)
    if new_profile.a_map()[0] != profile.mld:
        raise InvariantViolated("blow-up must be crepant at the new curve")
    if new_profile.mld != profile.mld:
        raise InvariantViolated("one blow-up must preserve the minimum")
    # the new curve is the only curve, so the only (-1)-curve
    return ResolutionStep(new_model, "blown-up", 0, new_profile, True)


@dataclass(frozen=True)
class ComputingPathReport:
    """A path out of a computing vertex together with its certified facts.

    ``kind`` records which shape the path has: "noncomputing-neighbor" when
    the second vertex already fails to compute the mld, "computing-run" when
    the whole path computes it and the far side of the first edge is a chain
    holding no other computing vertex.  ``conditions`` maps each promised
    fact to its certified truth; the moreover facts are only checked when
    the threshold hypotheses hold, and stay None otherwise.
    """

    path: MarkedVertexPath
    kind: str
    m: int
    order: int
    computing_ids: Tuple[int, ...]
    conditions: Dict[str, bool]
    moreover_applicable: bool
    moreover: Dict[str, Optional[bool]]


def _length_at_least_half_log(m: int, n: int) -> bool:
    # m >= (log_3(2n+1) - 1)/2, decided in exact integer arithmetic
    return 3 ** (2 * m + 1) >= 2 * n + 1


def _min_coeff_exceeds_16_over_nprime(s: SpanElement, n: int) -> bool:
    """Decide s > 16/(log_3(2n+1) - 1) without floating point.

    For rational s = p/q the inequality rearranges to (2n+1)^p > 3^(p+16q);
    irrational s is bracketed by its enclosures, level by level, until one
    side decides.
    """

    def rational_test(fr: Fraction) -> bool:
        p, q = fr.numerator, fr.denominator
        if p <= 0:
            return False
        return (2 * n + 1) ** p > 3 ** (p + 16 * q)

    def decide(lo: Fraction, hi: Fraction) -> Optional[bool]:
        if lo > 0 and rational_test(lo):
            return True
        if not rational_test(hi):
            return False
        return None

    if s.is_rational:
        return rational_test(s.coords[0])
    return _refine(s, decide, lambda levels: RefinementExhausted(
        f"{render_exact(s)} > 16/(log_3({2 * n + 1}) - 1) undecided after "
        f"{levels} refinement levels"
    ))


def find_computing_path(model: SurfaceGermModel) -> ComputingPathReport:
    """Extract a path of curves witnessing how the mld sits in the graph.

    Requires a log canonical model with 0 < mld < 1 whose minimum is
    realized at a vertex (run resolution_model first), a tree-shaped graph
    with maximum degree 4, some computing vertex of degree at most 3, and
    at least 3 vertices so the guaranteed length is usable.

    The path starts at the smallest eligible computing vertex, follows the
    greedy long-chain construction, and is then normalized: either cut at
    the last computing vertex (so the next one is not computing), or, when
    computing vertices run at least half the guaranteed length, re-anchored
    at the far end of the maximal computing run along the adjacent chain.
    Every promised inequality is certified exactly and reported.
    """
    profile = mld_point(model)
    if not profile.is_lc:
        raise HypothesesUnmet("model must be log canonical")
    mld = profile.mld
    if not (is_gt(mld, 0) and is_lt(mld, 1)):
        raise HypothesesUnmet("need 0 < mld < 1")
    if profile.realizing[0] != "vertex":
        raise HypothesesUnmet("mld not realized at a vertex; apply resolution_model first")
    g = model.graph
    n = g.order
    # usable guaranteed length needs (log_3(2n+1) - 1)/2 >= 1/2, i.e. (2n+1)^2 >= 27
    if (2 * n + 1) ** 2 < 27:
        raise HypothesesUnmet(f"order {n} leaves the guaranteed path length below usable")
    census = fork_census(g)
    if not census.is_tree:
        raise HypothesesUnmet("graph must be a tree")
    adj = g.adjacency()
    if any(len(adj[v]) > 4 for v in g.ids()):
        raise HypothesesUnmet("a vertex has degree above 4")
    a = profile.a_map()
    computing = tuple(v for v in g.ids() if a[v] == mld)
    starts = [v for v in computing if len(adj[v]) <= 3]
    if not starts:
        raise HypothesesUnmet("every computing vertex has degree 4")
    start = starts[0]

    ell = 1
    while 3 ** (ell + 1) < 2 * n + 1:
        ell += 1
    base = list(find_chain(g, start, ell).vertex_ids)
    is_comp = [v in computing for v in base]
    j = max(i for i, c in enumerate(is_comp) if c)

    def run_is_computing(seq: Sequence[int]) -> bool:
        return all(v in computing for v in seq)

    if not _length_at_least_half_log(j, n):
        # the computing prefix is short: drop it and start at its last vertex
        path_ids = base[j:]
        kind = "noncomputing-neighbor"
        if path_ids[1] in computing:
            raise InvariantViolated("the vertex after the last computing one computes the mld")
    else:
        if not run_is_computing(base[: j + 1]):
            raise HypothesesUnmet(
                "vertices between two computing vertices fail to compute the mld"
            )

        def chain_side(x0: int, x1: int):
            gamma, _ = split_at_edge(g, (x0, x1))
            c = fork_census(gamma)
            if c.forks:
                return None
            if gamma.degree(x0) > 1:
                return None
            return gamma

        run = base[: j + 1]
        gamma = chain_side(run[0], run[1])
        if gamma is None:
            run = list(reversed(run))
            gamma = chain_side(run[0], run[1])
        if gamma is None:
            raise HypothesesUnmet("no chain hangs off either end of the computing run")
        # walk the chain away from the run's head, extending through the
        # farthest computing vertex found
        tail: List[int] = []
        prev, cur = run[1], run[0]
        gadj = gamma.adjacency()
        while True:
            nxt = [u for u in (gadj[cur] if cur in gadj else []) if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            tail.append(cur)
        far = 0
        for i, v in enumerate(tail, start=1):
            if v in computing:
                far = i
        if not run_is_computing(tail[:far]):
            raise HypothesesUnmet(
                "vertices between two computing vertices fail to compute the mld"
            )
        path_ids = list(reversed(tail[:far])) + run
        kind = "computing-run"

    m = len(path_ids) - 1
    path = MarkedVertexPath(tuple(path_ids))
    conditions: Dict[str, bool] = {}
    conditions["starts-computing"] = path_ids[0] in computing
    conditions["length"] = _length_at_least_half_log(m, n)
    gap = a[path_ids[1]] - a[path_ids[0]]
    conditions["gap-nonnegative"] = is_ge(gap, 0)
    conditions["gap-at-most-1/m"] = is_le(gap, Fraction(1, m))
    gamma0, _ = split_at_edge(g, (path_ids[0], path_ids[1]))
    if kind == "noncomputing-neighbor":
        conditions["second-not-computing"] = path_ids[1] not in computing
    else:
        conditions["run-computing"] = run_is_computing(path_ids)
        conditions["side-is-chain"] = not fork_census(gamma0).forks
        conditions["side-has-no-other-computing"] = all(
            v == path_ids[0] or v not in computing for v in gamma0.ids()
        )

    moreover: Dict[str, Optional[bool]] = {
        "half-path-weights-minus-2": None,
        "side-size-bound": None,
        "side-singleton-at-minus-1": None,
    }
    applicable = False
    if profile.classification == "eps-lc":
        coeff_positives = positive_inputs(model)
        floor = span_min([model.epsilon] + coeff_positives)
        if _min_coeff_exceeds_16_over_nprime(floor, n):
            applicable = True
            moreover["half-path-weights-minus-2"] = all(
                g.weight(path_ids[i]) == -2 for i in range(1, m // 2 + 1)
            )
            if coeff_positives:
                d = span_min(coeff_positives)
                if is_le(d, Fraction(2, 3)):
                    moreover["side-size-bound"] = is_le(floor * (gamma0.order - 1), 16)
            if g.weight(path_ids[0]) == -1:
                moreover["side-singleton-at-minus-1"] = gamma0.order == 1

    return ComputingPathReport(
        path, kind, m, n, computing, conditions, applicable, moreover
    )


def adjunction_coefficient(
    model: SurfaceGermModel, branch_index: int, profile: DiscrepancyProfile | None = None
) -> SpanElement:
    """Coefficient the germ induces on a reduced branch through it.

    The distinguished branch must carry coefficient exactly 1.  On the
    empty graph the branch is untouched and the answer is 0; otherwise it
    is 1 - a(E) for the curve E the branch attaches to.  ``profile``, when
    given, is ``mld_point(model)``.
    """
    try:
        br = model.branches[branch_index]
    except IndexError:
        raise ModelError(f"no branch {branch_index}") from None
    if br.coeff != model.basis.rational(1):
        raise HypothesesUnmet("distinguished branch must have coefficient exactly 1")
    if profile is None:
        profile = mld_point(model)
    if not profile.is_lc:
        raise HypothesesUnmet("model must be log canonical")
    if br.vertex is None:
        return model.basis.rational(0)
    a = profile.a_map()
    return model.basis.rational(1) - a[br.vertex]


@dataclass(frozen=True)
class AdjunctionForm:
    """Shape of an adjunction coefficient, by the kind of the pair (X, C).

    ``kind`` is "plt" when the coefficient with the branch C alone is
    1 - 1/l: the coefficient is then 1 - 1/l + (integers . inputs)/l.  It
    is "lc" when that coefficient is 1 (lc but not plt): the coefficient
    must then be exactly 1, with every input at a nonzero multiplier zero.
    ``constant_ok`` records the kind's own condition.
    """

    coefficient: SpanElement
    det: int
    kind: str
    constant_ok: bool
    branch_multipliers: Tuple[Tuple[int, Fraction], ...]
    load_multipliers: Tuple[Tuple[int, Fraction], ...]
    multipliers_integral: bool
    multipliers_nonnegative: bool
    reconstruction_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.constant_ok
            and self.multipliers_integral
            and self.multipliers_nonnegative
            and self.reconstruction_ok
        )


def adjunction_form(
    model: SurfaceGermModel, branch_index: int, profile: DiscrepancyProfile | None = None
) -> AdjunctionForm:
    """Certify the arithmetic shape of the adjunction coefficient.

    The coefficient is affine in the other branch coefficients and the
    loads: with M the intersection matrix and E_s the curve the branch
    meets, an input of coefficient c at v moves it by -(M^-1)_(s,v) c.  One
    solve against the unit column at s gives every multiplier and the
    no-input constant, the coefficient with the branch C alone.  l is |det|
    of the intersection matrix.

    When (X, C) is plt, C meets an end curve of a chain and the constant
    is 1 - 1/l; the form holds when every multiplier times l is a
    nonnegative integer and the affine reconstruction matches the actual
    coefficient (Prokhorov, Lectures on Complements in Log Surfaces, 2001:
    1 - 1/m + sum k_i b_i / m).  When (X, C) is lc but not plt, a(E_s) = 0
    and the constant is exactly 1 (Kollar et al., Flips and Abundance,
    1992, ch. 16); the germ then stays lc only if the coefficient is
    exactly 1 and every input at a nonzero multiplier, branch or nef load
    alike, is zero.  A nef load of a generalized pair enters as one more
    input at its curve, so neither case needs a separate statement for it.
    ``profile``, when given, is ``mld_point(model)``.
    """
    value = adjunction_coefficient(model, branch_index, profile)
    ell = graph_determinant_abs(model.graph)
    basis = model.basis
    g = model.graph
    if g.order == 0:
        return AdjunctionForm(
            value, ell, "plt", value == basis.rational(0), (), (), True, True, True
        )
    s = model.branches[branch_index].vertex
    column = solve_exact(g.factor, [((int(vid == s),), 1) for vid in g.ids()])
    mult = {vid: Fraction(-n, d) for vid, ((n,), d) in zip(g.ids(), column)}
    # with the distinguished branch alone the right-hand side is (w_v + 2) - [v = s]
    base = sum(-mult[vid] * (w + 2) for vid, w in g.vertices) + mult[s]
    others = [(idx, br) for idx, br in enumerate(model.branches) if idx != branch_index]
    inputs = [(br.vertex, br.coeff) for _, br in others] + list(model.nef_loads)
    if base == 1:
        kind = "lc"
        zero = basis.zero()
        constant_ok = value == basis.rational(1) and all(
            x == zero for vid, x in inputs if mult[vid] != 0
        )
    else:
        kind = "plt"
        constant_ok = base == 1 - Fraction(1, ell)
    recon = basis.rational(base)
    for vid, x in inputs:
        recon = recon + mult[vid] * x
    branch_mults = tuple((idx, ell * mult[br.vertex]) for idx, br in others)
    load_mults = tuple((vid, ell * mult[vid]) for vid, _ in model.nef_loads)
    mults = [m for _, m in branch_mults + load_mults]
    integral = all(m.denominator == 1 for m in mults)
    nonneg = all(m >= 0 for m in mults)
    return AdjunctionForm(
        value,
        ell,
        kind,
        constant_ok,
        branch_mults,
        load_mults,
        integral,
        nonneg,
        recon == value,
    )

