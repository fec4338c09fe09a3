"""Cross-checks the closed-form mld against the blow-up search oracle."""

import gc
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Dict, List, Tuple

from hypothesis import given, settings, strategies as st

from germkit import (
    NEG_INFINITY,
    Branch,
    RefinementExhausted,
    SpanElement,
    TRIVIAL_BASIS,
    mld_oracle,
    mld_point,
)
from germkit import discrepancy
from germkit.coefflattice import LESS, compare, is_lt, refinement_budget, span_min
from germkit.corpus import corpus
from germkit.discrepancy import MAX_ORACLE_DEPTH, _TOWER_FORMS, _tower_forms, solve_discrepancies
from germkit.dualgraph import hj_graph
from germkit.explorer import load_model

from util import EMPTY, chain, declared, germ, moved, rbranch, reference_oracle_rows

GOLDEN = Path(__file__).parent / "golden"


def reference_oracle(model, depth, profile=None):
    """The tower walk on SpanElements, one certified compare per node.

    mld_oracle walks the same towers on integer numerators over one common
    denominator; this is the form it replaced, kept to compare against.
    """
    a = solve_discrepancies(model) if profile is None else profile.a_map()
    one = model.basis.rational(1)

    memo: Dict[Tuple, SpanElement] = {}

    def key(point: Tuple[SpanElement, ...], d: int) -> Tuple:
        return (tuple(sorted((x.nums, x.den) for x in point)), d)

    def minval(point: Tuple[SpanElement, ...], d: int) -> SpanElement:
        k = key(point, d)
        hit = memo.get(k)
        if hit is not None:
            return hit
        created = model.basis.rational(2 - len(point))
        for x in point:
            created = created + x
        best = created
        if d > 1:
            for x in point:
                cand = minval((created, x), d - 1)
                if compare(cand, best) == LESS:
                    best = cand
            cand = minval((created,), d - 1)
            if compare(cand, best) == LESS:
                best = cand
        memo[k] = best
        return best

    points: List[Tuple[SpanElement, ...]] = []
    for i, j in model.graph.edges:
        points.append((a[i], a[j]))
    for br in model.branches:
        if br.vertex is None:
            continue
        points.append((a[br.vertex], one - br.coeff))
    for vid in model.graph.ids():
        points.append((a[vid],))
    if model.graph.order == 0:
        points.append(tuple(one - br.coeff for br in model.branches))

    values: List[SpanElement] = [a[v] for v in model.graph.ids()]
    values.extend(minval(p, depth) for p in points)
    best = span_min(values)
    if is_lt(best, 0):
        return NEG_INFINITY
    return best


def walk_forms(point, d):
    """Every value the old tower walk visits above ``point``, in visit order.

    The walk of mld_oracle before its tables, on forms (c0, c1, c2) standing
    for c0 + c1*u + c2*v, with no memo and nothing dropped.
    """
    created = tuple(map(sum, zip(*point)))
    created = (created[0] + 2 - len(point),) + created[1:]
    out = [created]
    if d > 1:
        for x in point:
            out += walk_forms((created, x), d - 1)
        out += walk_forms((created,), d - 1)
    return out


def outcome(oracle, model, depth):
    """The oracle's value, or the type and text of what it raised."""
    try:
        return oracle(model, depth)
    except RefinementExhausted as e:
        return ("RefinementExhausted", str(e))


def agree(model, depth):
    want = mld_point(model).mld
    got = mld_oracle(model, depth)
    if want is NEG_INFINITY or got is NEG_INFINITY:
        return want is got
    # coordinates over a shared basis are a canonical form
    return want.coords == got.coords


def test_corpus_slice_matches_oracle():
    models = corpus(0, 40)
    for m in models:
        for depth in (1, 2):
            assert agree(m, depth), m


@st.composite
def small_chain_models(draw):
    weights = draw(st.lists(st.integers(-4, -2), min_size=1, max_size=4))
    g = chain(*weights)
    branches = []
    for v in range(len(weights)):
        if draw(st.booleans()):
            # stay within [0, 1]: above 1 the finite-depth oracle can lag
            # behind the closed form (see the depth caveat test)
            num = draw(st.integers(0, 6))
            branches.append(rbranch(v, Fraction(num, 6)))
    return germ(g, branches)


@settings(max_examples=60, deadline=None)
@given(small_chain_models())
def test_random_chains_match_oracle(model):
    assert agree(model, 2)


@settings(max_examples=40, deadline=None)
@given(small_chain_models())
def test_oracle_depth_monotone(model):
    """Deeper searches only find smaller candidate discrepancies."""
    prev = None
    for depth in (1, 2, 3):
        val = mld_oracle(model, depth)
        cur = None if val is NEG_INFINITY else val.as_fraction()
        if prev is not None:
            if prev == "neg":
                assert cur is None
            elif cur is not None:
                assert cur <= prev
        prev = "neg" if cur is None else cur


def test_matches_reference_on_the_corpus():
    for m in corpus(0, 60):
        for depth in (1, 2, 3, 4):
            assert mld_oracle(m, depth) == reference_oracle(m, depth), m


def test_matches_reference_over_declared_bases():
    # an intervals copy of sqrt2 has no closed form, so every irrational
    # comparison takes the refinement path
    for m in corpus(0, 12):
        m = moved(m, declared(m.basis))
        for depth in (1, 2, 3):
            assert mld_oracle(m, depth) == reference_oracle(m, depth), m


def test_matches_reference_over_two_certified_symbols(sq2_sq3):
    b = sq2_sq3
    r2, r3, one = b.unit(1), b.unit(2), b.rational(1)
    pairs = [
        (chain(-2, -3), b.rational(2) - r2, r3 - one),
        (hj_graph(7, 3), (r2 + r3) / 8, r3 / 4),
        (chain(-3), b.rational(2) - r2, r2 * 3 - r3 * 2),
        (chain(-2, -2, -2), b.rational(2) - r2, r3 / 4),
    ]
    for g, first, last in pairs:
        m = germ(g, [Branch(0, first), Branch(g.order - 1, last)], basis=b)
        for depth in (1, 2, 3, 4):
            got = mld_oracle(m, depth)
            assert got == reference_oracle(m, depth), m
            # the minimum involves both radicals, so signs over both ran
            assert got.nums[1] and got.nums[2]


def test_matches_reference_on_the_empty_graph_and_not_lc_germs():
    half = TRIVIAL_BASIS.rational(Fraction(1, 2))
    two_thirds = TRIVIAL_BASIS.rational(Fraction(2, 3))
    models = [
        germ(EMPTY),
        germ(EMPTY, [Branch(None, half)]),
        germ(EMPTY, [Branch(None, two_thirds), Branch(None, half)]),
        germ(chain(-2), [rbranch(0, "5/4")]),
        germ(chain(-2, -2), [rbranch(0, 1), rbranch(1, 1)]),
        germ(chain(-4), [rbranch(0, 1), rbranch(0, 1), rbranch(0, 1)]),
    ]
    for m in models:
        for depth in (1, 2, 3, 4):
            assert mld_oracle(m, depth) == reference_oracle(m, depth), m
    assert mld_oracle(models[3], 2) is NEG_INFINITY
    assert mld_oracle(models[5], 2) is NEG_INFINITY


def test_exhaustion_refuses_or_answers_over_a_declared_basis():
    # at budget 1 the oracle either names an undecided sign or returns the
    # value the reference walk finds at the full budget; which of the two
    # depends on the order in which it compares candidates
    models = [moved(m, declared(m.basis)) for m in corpus(0, 12)]
    cases = [(m, depth) for m in models for depth in (1, 2, 3)]
    want = [reference_oracle(m, depth) for m, depth in cases]
    with refinement_budget(1):
        got = [outcome(mld_oracle, m, depth) for m, depth in cases]
    refused = 0
    for g, w, (m, depth) in zip(got, want, cases):
        if isinstance(g, tuple):
            refused += 1
            assert g[0] == "RefinementExhausted", m
            assert re.fullmatch(r"sign of .* undecided after 1 refinement levels", g[1]), m
        else:
            assert g == w, (m, depth)
    assert 0 < refused < len(cases)


def _certificate(q, forms):
    """Up to three forms whose weighted mean has q's linear part and a constant <= q's.

    A point, a segment or a triangle of ``forms``, found by brute force;
    None when there is none.
    """
    q0, q1, q2 = q
    for k in (1, 2, 3):
        for picked in combinations(forms, k):
            weights = _barycentric([f[1:] for f in picked], (q1, q2))
            if weights and sum(w * f[0] for w, f in zip(weights, picked)) <= sum(weights) * q0:
                return picked
    return None


def _barycentric(points, q):
    """Integer weights l_i >= 0 of positive sum with sum l_i * points_i = sum l_i * q.

    For one, two or three affinely independent ``points`` whose hull holds
    q (Cramer's rule); None otherwise.
    """
    x, y = q
    if len(points) == 1:
        return (1,) if points[0] == q else None
    if len(points) == 2:
        (ax, ay), (bx, by) = points
        # q on the segment: collinear, and both signed lengths >= 0
        if (bx - ax) * (y - ay) != (by - ay) * (x - ax):
            return None
        la = (bx - x) * (bx - ax) + (by - y) * (by - ay)
        lb = (x - ax) * (bx - ax) + (y - ay) * (by - ay)
        return (la, lb) if la >= 0 and lb >= 0 and la + lb > 0 else None
    (ax, ay), (bx, by), (cx, cy) = points
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    lb = (x - ax) * (cy - ay) - (y - ay) * (cx - ax)
    lc = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
    if det < 0:
        det, lb, lc = -det, -lb, -lc
    la = det - lb - lc
    return (la, lb, lc) if det and min(la, lb, lc) >= 0 else None


def test_tower_tables_are_the_lower_envelope_of_the_old_walk():
    units = ((0, 1, 0), (0, 0, 1))
    for arity in (1, 2):
        for d in range(1, 9):
            least = {}
            for c0, c1, c2 in walk_forms(units[:arity], d):
                least[c1, c2] = min(c0, least.get((c1, c2), c0))
            table = _tower_forms(arity, d)
            assert len(table) <= 2 * d - 1, (arity, d)
            assert {(c1, c2): c0 for c0, c1, c2 in table}.items() <= least.items(), (arity, d)
            # every dropped form lies on or above a point, segment or
            # triangle of kept forms, so it is never the least
            for (c1, c2), c0 in least.items():
                if (c0, c1, c2) not in table:
                    assert _certificate((c0, c1, c2), table), (arity, d, c0, c1, c2)
            # and no kept form is so certified by the others
            for f in table:
                assert _certificate(f, [g for g in table if g != f]) is None, (arity, d, f)


def test_matches_reference_at_depths_five_and_six():
    sixth = TRIVIAL_BASIS.rational(Fraction(1, 6))
    models = corpus(0, 10) + [germ(EMPTY, [Branch(None, sixth)] * 5)]
    for m in models:
        for depth in (5, 6):
            assert mld_oracle(m, depth) == reference_oracle(m, depth), m


def test_deepest_oracle_stays_small():
    # the tables depend on no model and grow by at most two forms per
    # level; a point of 1 or 2 curves reads its own table, any other point
    # composes the tables one level down
    for name in ("tree.json", "cycle.json"):
        m = load_model(str(GOLDEN / name))
        assert mld_oracle(m, MAX_ORACLE_DEPTH) == mld_point(m).mld, name
    seventh = TRIVIAL_BASIS.rational(Fraction(1, 7))
    m = germ(EMPTY, [Branch(None, seventh)] * 6)
    assert mld_oracle(m, MAX_ORACLE_DEPTH) == mld_point(m).mld
    assert {arity for arity, _ in _TOWER_FORMS} <= {1, 2}
    assert max(d for _, d in _TOWER_FORMS) <= MAX_ORACLE_DEPTH
    depths = range(1, MAX_ORACLE_DEPTH + 1)
    assert [len(_tower_forms(1, d)) for d in depths] == [1, 2] + list(range(2, MAX_ORACLE_DEPTH))
    assert [len(_tower_forms(2, d)) for d in depths] == [2 * d - 1 for d in depths]


def test_the_memo_is_freed_on_return():
    # a call that holds its candidates through a reference cycle leaves
    # them all to the cyclic collector
    m = corpus(0, 1)[0]
    gc.collect()
    gc.disable()
    try:
        mld_oracle(m, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


GOLDEN_NAMES = (
    "chain", "chain60", "cycle", "cycle40", "gen_hj_7_3", "path20", "point", "pool3",
    "sqrt2_sqrt3", "tree",
)


def test_one_pass_tables_hand_least_the_per_point_rows(monkeypatch):
    # the tables evaluated over all of a call's points at once give the
    # ranking the rows of the per-point evaluation, in the same order
    handed = []
    real = discrepancy._least

    def spy(basis, rows, den):
        handed.append(list(rows))
        return real(basis, handed[-1], den)

    monkeypatch.setattr(discrepancy, "_least", spy)
    goldens = [load_model(str(GOLDEN / f"{n}.json")) for n in GOLDEN_NAMES]
    declared_copies = [moved(m, declared(m.basis, 64)) for m in corpus(0, 20)]
    # distinct coefficients in descending order, so sorting the centre's curves reorders them
    centres = [
        germ(EMPTY, [rbranch(None, Fraction(6 - i, 24)) for i in range(k)]) for k in range(6)
    ]
    for m in corpus(0, 200) + declared_copies + goldens + centres:
        profile = mld_point(m)
        for depth in range(1, 7):
            handed.clear()
            mld_oracle(m, depth, profile)
            assert handed == [reference_oracle_rows(m, depth, profile)], (m, depth)


def test_a_nonempty_graph_evaluates_each_table_once_per_call(monkeypatch):
    # one _evaluate per arity, whatever the number of points; a loop over
    # points would make one call per point
    models = corpus(0, 20) + [load_model(str(GOLDEN / f"{n}.json")) for n in GOLDEN_NAMES]
    models = [m for m in models if m.graph.order]
    depths = (1, 3, 6)
    for arity in (1, 2):
        for depth in depths:
            _tower_forms(arity, depth)
    calls = []
    real = discrepancy._evaluate

    def spy(forms, points, den):
        calls.append(len(points))
        return real(forms, points, den)

    monkeypatch.setattr(discrepancy, "_evaluate", spy)
    points = 0
    for m in models:
        for depth in depths:
            calls.clear()
            mld_oracle(m, depth)
            assert len(calls) == 2, (m, depth, calls)
            points = max(points, *calls)
    # chain60 alone has 59 edges and 60 vertices
    assert points >= 59
