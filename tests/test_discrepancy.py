"""Discrepancy solver, mld classification, and the surface-lemma checkers."""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germkit import (
    Branch,
    HypothesesUnmet,
    NEG_INFINITY,
    SpanElement,
    SurfaceGermModel,
    TRIVIAL_BASIS,
    WeightedDualGraph,
    hj_graph,
    mld_oracle,
    mld_point,
)
from germkit import coefflattice
from germkit.coefflattice import LESS, compare, is_ge, is_gt, is_lt, refinement_budget
from germkit.corpus import (
    coefficient_pool,
    corpus,
    decorate,
    family_an,
    family_cyclic_one_one,
    random_nd_tree,
    sqrt2_basis,
)
from germkit.discrepancy import (
    MAX_ORACLE_DEPTH,
    Locus,
    _min_coeff_exceeds_16_over_nprime,
    _rhs_rows,
    adjunction_form,
    check_convexity,
    check_empty_graph_value,
    check_smooth_threshold,
    check_vertex_window,
    find_computing_path,
    resolution_model,
    smooth_point_mld,
    solve_discrepancies,
)
from germkit.dualgraph import is_negative_definite
from germkit.errors import GermkitError, RefinementExhausted
from germkit.explorer import load_model

from util import EMPTY, chain, declared, germ, moved, rbranch


def frac(x):
    return TRIVIAL_BASIS.rational(Fraction(x))


def solved(model):
    return {v: x.as_fraction() for v, x in solve_discrepancies(model).items()}


# ---------------------------------------------------------------------------
# solve_discrepancies


def test_solve_single_minus_two():
    # bare (-2) curve: crepant, a = 1
    assert solved(germ(chain(-2))) == {0: Fraction(1)}


def test_solve_single_minus_three():
    assert solved(germ(chain(-3))) == {0: Fraction(2, 3)}


def test_solve_nef_load_lowers_discrepancy():
    m = germ(chain(-2), loads=[(0, frac(1))])
    assert solved(m) == {0: Fraction(1, 2)}


def test_solve_branch_coefficient_raises_discrepancy():
    m = germ(chain(-2), [rbranch(0, "1/2")])
    assert solved(m) == {0: Fraction(3, 4)}


def test_solve_two_branches_stack():
    m = germ(chain(-2), [rbranch(0, "1/2"), rbranch(0, "1/2")])
    assert solved(m) == {0: Fraction(1, 2)}


def test_solve_hirzebruch_jung_with_branch():
    # 7/3 chain is (-3,-2,-2); a branch of coefficient 1/2 hangs off the end
    m = SurfaceGermModel(hj_graph(7, 3), (rbranch(0, "1/2"),), (), None, TRIVIAL_BASIS)
    assert solved(m) == {0: Fraction(5, 14), 1: Fraction(4, 7), 2: Fraction(11, 14)}
    p = mld_point(m)
    assert p.mld.as_fraction() == Fraction(5, 14)
    assert p.realizing == ("vertex", 0)


def test_solve_irrational_branch_coefficient():
    basis = sqrt2_basis()
    half_sqrt2 = SpanElement(basis, (Fraction(0), Fraction(1, 2)))
    m = SurfaceGermModel(
        WeightedDualGraph(((0, -3),), ()), (Branch(0, half_sqrt2),), (), None, basis
    )
    a = solve_discrepancies(m)
    # (1 - a)(-3) = -1 + sqrt2/2 so a = 2/3 - sqrt2/6
    assert a[0].coords == (Fraction(2, 3), Fraction(-1, 6))
    assert mld_point(m).classification == "klt"


# ---------------------------------------------------------------------------
# mld_point on the stock families


def test_an_family_is_canonical():
    for m in family_an(8):
        p = mld_point(m)
        assert p.mld.as_fraction() == 1
        # ties resolve to the smallest vertex id
        assert p.realizing == ("vertex", 0)
        assert p.classification == "klt"


def test_cyclic_one_one_family():
    for n, m in enumerate(family_cyclic_one_one(8), start=2):
        assert mld_point(m).mld.as_fraction() == Fraction(2, n)


def test_hj_five_two():
    p = mld_point(germ(hj_graph(5, 2)))
    assert p.mld.as_fraction() == Fraction(3, 5)
    assert p.realizing == ("vertex", 0)


def test_long_chain_with_half_branch():
    # (-2)^20 with b = 1/2 at vertex 0: a_j = 1 - (20 - j)/42
    m = germ(chain(*[-2] * 20), [rbranch(0, "1/2")])
    a = solved(m)
    for j in range(20):
        assert a[j] == 1 - Fraction(20 - j, 42)
    p = mld_point(m)
    assert p.mld.as_fraction() == Fraction(11, 21)
    assert p.realizing == ("vertex", 0)
    # neighbouring discrepancies differ by the constant step 1/42
    assert a[1] - a[0] == Fraction(1, 42)


# ---------------------------------------------------------------------------
# non-lc detection


def test_branch_above_one_is_not_lc():
    p = mld_point(germ(chain(-2), [rbranch(0, "5/4")]))
    assert p.mld is NEG_INFINITY
    assert p.classification == "not-lc"
    assert p.realizing == ("branch", 0)


def test_heavy_nef_load_is_not_lc():
    p = mld_point(germ(chain(-2), loads=[(0, frac(3))]))
    assert p.mld is NEG_INFINITY
    assert p.realizing == ("vertex", 0)


def test_empty_graph_values():
    cases = [
        ((), Fraction(2), "klt"),
        (("1/2",), Fraction(3, 2), "klt"),
        (("5/6", "5/6"), Fraction(1, 3), "klt"),
        (("1", "1"), Fraction(0), "lc"),
    ]
    for coeffs, want, cls in cases:
        brs = [Branch(None, frac(c)) for c in coeffs]
        p = mld_point(germ(EMPTY, brs))
        assert p.mld.as_fraction() == want
        assert p.realizing == ("point", None)
        assert p.classification == cls
    bad = mld_point(germ(EMPTY, [Branch(None, frac("5/4"))]))
    assert bad.mld is NEG_INFINITY


def test_epsilon_tagging():
    p = mld_point(germ(chain(-3), eps=frac("1/4")))
    assert p.classification == "eps-lc"
    assert p.epsilon_ok is True
    p = mld_point(germ(chain(-3), eps=frac("3/4")))
    assert p.classification == "klt"
    assert p.epsilon_ok is False
    p = mld_point(germ(chain(-3), eps=frac(0)))
    assert p.classification == "klt"
    assert p.epsilon_ok is True


# ---------------------------------------------------------------------------
# the vertex minimum against the candidate loop it replaced


def _candidates(
    model: SurfaceGermModel, a: Dict[int, SpanElement]
) -> List[Tuple[SpanElement, Locus]]:
    one = model.basis.rational(1)
    cands: List[Tuple[SpanElement, Locus]] = []
    for vid in model.graph.ids():
        cands.append((a[vid], ("vertex", vid)))
    for i, j in model.graph.edges:
        cands.append((a[i] + a[j], ("edge", (i, j))))
    for idx, br in enumerate(model.branches):
        if br.vertex is not None:
            cands.append((one + a[br.vertex] - br.coeff, ("branch", idx)))
    return cands


def _reference_tag(model, mld):
    eps = model.epsilon
    if eps is not None and is_ge(mld, eps) and is_gt(eps, 0):
        return "eps-lc"
    return "klt" if is_gt(mld, 0) else "lc"


def reference_mld_point(model):
    """(mld, realizing, classification) ranked over every vertex, meeting
    point and branch point, as mld_point did before it ranked vertices only."""
    a = solve_discrepancies(model)
    basis = model.basis
    for vid in model.graph.ids():
        if is_lt(a[vid], 0):
            return NEG_INFINITY, ("vertex", vid), "not-lc"
    for idx, br in enumerate(model.branches):
        if is_gt(br.coeff, 1):
            return NEG_INFINITY, ("branch", idx), "not-lc"

    if model.graph.order == 0:
        total = basis.zero()
        for br in model.branches:
            total = total + br.coeff
        value = basis.rational(2) - total
        if is_lt(value, 0):
            return NEG_INFINITY, ("point", None), "not-lc"
        return value, ("point", None), _reference_tag(model, value)

    cands = _candidates(model, a)
    mld, realizing = cands[0]
    for value, locus in cands[1:]:
        if compare(value, mld) == LESS:
            mld, realizing = value, locus
    return mld, realizing, _reference_tag(model, mld)


def _point_minimum(model):
    p = mld_point(model)
    return p.mld, p.realizing, p.classification


def _outcome(f, model):
    try:
        return f(model)
    except GermkitError as e:
        return type(e), str(e)


def assert_matches_reference(model):
    want = _outcome(reference_mld_point, model)
    assert _outcome(_point_minimum, model) == want
    return want


SQ2 = sqrt2_basis()
DECLARED_SQ2 = declared(SQ2)
# the corpus pool plus coefficients above 1, which make germs that are not lc
POOL = coefficient_pool(SQ2) + [SQ2.rational(Fraction(5, 4)), SQ2.element((1, Fraction(1, 8)))]


@lru_cache(maxsize=None)
def _corpus(seed):
    return corpus(seed, 200)


@given(st.integers(0, 3), st.integers(0, 199), st.booleans())
@settings(max_examples=80, deadline=None)
def test_vertex_minimum_matches_candidates_on_the_corpus(seed, index, declare):
    model = _corpus(seed)[index]
    assert_matches_reference(moved(model, DECLARED_SQ2) if declare else model)


@st.composite
def drawn_germs(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["tree", "one-cycle", "empty"]))
    if shape == "empty":
        k = draw(st.integers(0, 3))
        return germ(EMPTY, [Branch(None, rng.choice(POOL)) for _ in range(k)], basis=SQ2)
    g = random_nd_tree(rng, draw(st.integers(1, 9)))
    if shape == "one-cycle":
        ids = g.ids()
        missing = [(i, j) for i in ids for j in ids if i < j and (i, j) not in g.edges]
        assume(missing)
        g = WeightedDualGraph(g.vertices, g.edges + (rng.choice(missing),))
        assume(is_negative_definite(g))
        if draw(st.booleans()):
            # a bare cycle is lc with every a_i = 0, so every point ties;
            # any branch or load on it leaves it not lc
            return germ(g, basis=SQ2)
    return decorate(rng, g, SQ2, POOL)


@given(drawn_germs(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_vertex_minimum_matches_candidates_on_drawn_germs(model, declare):
    assert_matches_reference(moved(model, DECLARED_SQ2) if declare else model)


def test_vertex_minimum_matches_candidates_on_germs_that_are_not_lc():
    sq2_third = SQ2.element((1, Fraction(1, 3)))  # 1 + sqrt2/3 > 1
    cases = [
        germ(chain(-2), loads=[(0, frac(3))]),
        germ(chain(-2, -2), [rbranch(1, "1"), rbranch(1, "1"), rbranch(1, "1")]),
        germ(chain(-2, -3), [rbranch(1, "5/4")]),
        germ(chain(-3, -2), [Branch(0, sq2_third)], basis=SQ2),
        germ(EMPTY, [Branch(None, frac("3/2")), Branch(None, frac("3/4"))]),
        germ(EMPTY, [Branch(None, sq2_third)], basis=SQ2),
    ]
    for model in cases:
        for m in (model, moved(model, declared(model.basis))):
            assert assert_matches_reference(m)[2] == "not-lc"


def test_vertex_minimum_matches_candidates_on_the_empty_graph():
    for coeffs in ((), ("1/2",), ("5/6", "5/6"), ("1", "1"), ("1", "1", "1/3")):
        model = germ(EMPTY, [Branch(None, frac(c)) for c in coeffs])
        assert assert_matches_reference(model)[1] == ("point", None)


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MODELS = ("chain", "chain60", "cycle", "cycle40", "tree")


def test_resolution_keeps_every_lc_germ_on_a_nonempty_graph():
    models = _corpus(0) + [load_model(str(GOLDEN / f"{n}.json")) for n in GOLDEN_MODELS]
    lc = [m for m in models if mld_point(m).is_lc]
    # every graph here is nonempty; 94 corpus germs and 3 goldens are lc
    assert all(m.graph.order for m in models) and len(lc) == 97
    for model in lc:
        step = resolution_model(model)
        assert (step.kind, step.model) == ("existing-vertex", model)


def span_rows(model):
    """The solve's right-hand side built with SpanElement arithmetic, as it was."""
    basis = model.basis
    pos = {vid: i for i, vid in enumerate(model.graph.ids())}
    rhs = [basis.rational(w + 2) for _, w in model.graph.vertices]
    inputs = [(br.vertex, br.coeff) for br in model.branches if br.vertex is not None]
    for vid, x in inputs + list(model.nef_loads):
        rhs[pos[vid]] -= x
    return [(x.nums, x.den) for x in rhs]


def test_integer_rhs_rows_equal_the_span_element_rows():
    names = GOLDEN_MODELS + ("gen_hj_7_3", "path20", "point", "pool3", "sqrt2_sqrt3")
    goldens = [load_model(str(GOLDEN / f"{n}.json")) for n in names]
    for model in _corpus(0) + _corpus(1) + goldens:
        assert _rhs_rows(model) == span_rows(model), model


def test_point_minimum_of_a_long_chain_makes_no_compare(monkeypatch):
    model = load_model(str(GOLDEN / "chain60.json"))
    calls = []
    real = coefflattice.compare

    def spy(x, y):
        calls.append((x, y))
        return real(x, y)

    monkeypatch.setattr(coefflattice, "compare", spy)
    profile = mld_point(model)
    assert calls == []
    assert profile.realizing == ("vertex", 28)
    # the spy sees the comparisons the candidate loop made
    assert reference_mld_point(model)[:2] == (profile.mld, profile.realizing)
    assert calls


# ---------------------------------------------------------------------------
# brute-force oracle and its depth sensitivity


def test_oracle_needs_depth_beyond_one_when_b_exceeds_one():
    """A coefficient above 1 only reveals -infinity after enough blow-ups.

    At depth 1 every exceptional discrepancy is still positive; the witness
    appears at depth 2 and the answer is stable from there on.
    """
    m = germ(chain(-2), [rbranch(0, "5/4")])
    assert mld_point(m).mld is NEG_INFINITY
    assert mld_oracle(m, 1).as_fraction() == Fraction(1, 8)
    assert mld_oracle(m, 2) is NEG_INFINITY
    assert mld_oracle(m, 3) is NEG_INFINITY


def test_oracle_matches_closed_form_on_small_models():
    models = [
        germ(chain(-2)),
        germ(chain(-3)),
        germ(hj_graph(5, 2)),
        germ(chain(-2, -2), [rbranch(1, "1/3")]),
        germ(EMPTY, [Branch(None, frac("1/2"))]),
    ]
    for m in models:
        want = mld_point(m).mld
        for depth in (1, 2, 3):
            got = mld_oracle(m, depth)
            if want is NEG_INFINITY:
                assert got is NEG_INFINITY
            else:
                assert got.as_fraction() == want.as_fraction()


def test_oracle_reuses_the_given_profile(monkeypatch):
    from germkit import discrepancy
    from germkit.corpus import corpus

    models = [germ(chain(-2), [rbranch(0, "5/4")]), germ(EMPTY, [Branch(None, frac("1/2"))])]
    models += corpus(0, 12)
    want = [[mld_oracle(m, d) for d in (1, 2, 3)] for m in models]
    profiles = [mld_point(m) for m in models]

    def no_solve(model):
        raise AssertionError("solve_discrepancies called although a profile was given")

    monkeypatch.setattr(discrepancy, "solve_discrepancies", no_solve)
    got = [[mld_oracle(m, d, p) for d in (1, 2, 3)] for m, p in zip(models, profiles)]
    assert got == want


def test_oracle_depth_over_the_cap_is_refused_at_once(monkeypatch):
    from germkit import discrepancy, explorer

    def no_work(*args):
        raise AssertionError("work started for a refused depth")

    discrepancy.check_oracle_depth(MAX_ORACLE_DEPTH)  # the cap itself is allowed
    m = germ(chain(-3, -2))
    monkeypatch.setattr(discrepancy, "solve_discrepancies", no_work)
    monkeypatch.setattr(explorer, "corpus", no_work)
    monkeypatch.setattr(explorer, "build_scan_models", no_work)
    over = MAX_ORACLE_DEPTH + 1
    with pytest.raises(HypothesesUnmet, match=f"oracle depth {over} exceeds the cap of 14"):
        mld_oracle(m, over)
    with pytest.raises(HypothesesUnmet, match="exceeds the cap"):
        explorer.run_verification(count=5, oracle_depth=over)
    with pytest.raises(HypothesesUnmet, match="exceeds the cap"):
        explorer.run_scan(explorer.ScanConfig(count=5, oracle_depth=over))


@pytest.mark.parametrize(
    "depth, error, message",
    [
        (2.5, TypeError, "oracle depth must be an int, got 2.5"),
        (True, TypeError, "oracle depth must be an int, got True"),
        (Fraction(2), TypeError, "oracle depth must be an int"),
        (0, ValueError, "oracle depth must be at least 1, got 0"),
        (-2, ValueError, "oracle depth must be at least 1, got -2"),
    ],
    ids=["float", "bool", "fraction", "zero", "negative"],
)
def test_oracle_depth_that_is_not_a_positive_int_is_refused_at_once(
    monkeypatch, depth, error, message
):
    from germkit import discrepancy, explorer

    def no_work(*args):
        raise AssertionError("work started for a refused depth")

    with pytest.raises(error, match=message):
        discrepancy.check_oracle_depth(depth)
    m = germ(chain(-3, -2))
    profile = mld_point(m)
    monkeypatch.setattr(discrepancy, "solve_discrepancies", no_work)
    monkeypatch.setattr(explorer, "corpus", no_work)
    with pytest.raises(error, match=message):
        mld_oracle(m, depth)
    with pytest.raises(error, match=message):
        mld_oracle(m, depth, profile)
    with pytest.raises(error, match=message):
        explorer.run_verification(count=5, oracle_depth=depth)


# ---------------------------------------------------------------------------
# resolution step


def test_resolution_keeps_vertex_realized_model():
    m = germ(chain(-2, -2))
    step = resolution_model(m)
    assert step.kind == "existing-vertex"
    assert step.model is m
    assert step.computing_vertex == 0
    assert step.minus_one_unique is None


def test_resolution_blows_up_point_realized_model():
    m = germ(EMPTY, [Branch(None, frac("1/2")), Branch(None, frac("1/2"))])
    before = mld_point(m)
    assert before.realizing == ("point", None)
    step = resolution_model(m)
    assert step.kind == "blown-up"
    assert step.model.graph.vertices == ((0, -1),)
    assert step.model.graph.edges == ()
    # both branches reattach to the new exceptional curve
    assert [b.vertex for b in step.model.branches] == [0, 0]
    assert step.profile.mld.as_fraction() == before.mld.as_fraction() == 1
    assert step.minus_one_unique is True


def test_resolution_rejects_non_lc():
    with pytest.raises(HypothesesUnmet):
        resolution_model(germ(chain(-2), [rbranch(0, "5/4")]))


# ---------------------------------------------------------------------------
# computing paths


def test_computing_path_noncomputing_neighbor():
    m = germ(chain(*[-2] * 20), [rbranch(0, "1/2")])
    r = find_computing_path(m)
    assert r.kind == "noncomputing-neighbor"
    assert r.path.vertex_ids == (0, 1, 2, 3)
    assert r.m == 3
    assert r.order == 20
    assert r.computing_ids == (0,)
    assert r.conditions == {
        "starts-computing": True,
        "length": True,
        "gap-nonnegative": True,
        "gap-at-most-1/m": True,
        "second-not-computing": True,
    }
    assert r.moreover_applicable is False
    assert all(v is None for v in r.moreover.values())


def test_computing_path_run_of_computing_vertices():
    # symmetric loading makes every vertex realize the minimum
    m = germ(chain(-2, -2, -2, -2), [rbranch(0, "1/2"), rbranch(3, "1/2")])
    p = mld_point(m)
    assert [x.as_fraction() for _, x in p.a] == [Fraction(1, 2)] * 4
    r = find_computing_path(m)
    assert r.kind == "computing-run"
    assert r.path.vertex_ids == (0, 1)
    assert r.m == 1
    assert r.computing_ids == (0, 1, 2, 3)
    assert r.conditions["run-computing"] is True
    assert r.conditions["side-is-chain"] is True
    assert r.conditions["side-has-no-other-computing"] is True


def test_computing_path_run_extends_along_the_chain_behind_it():
    # nine (-2)-curves in chain order 5, 0, 1, ..., 8 with a 1/2 branch on
    # each end: every a_i is 1/2, the greedy path from 0 runs 0, 1, 2, and
    # the chain behind 0 adds the computing vertex 5 in front of it
    ids = (5, 0, 1, 2, 3, 4, 6, 7, 8)
    g = WeightedDualGraph(tuple((v, -2) for v in ids), tuple(zip(ids, ids[1:])))
    m = germ(g, [rbranch(5, "1/2"), rbranch(8, "1/2")])
    assert {x.as_fraction() for _, x in mld_point(m).a} == {Fraction(1, 2)}
    r = find_computing_path(m)
    assert r.kind == "computing-run"
    assert r.path.vertex_ids == (5, 0, 1, 2)
    assert (r.m, r.order) == (3, 9)
    assert r.computing_ids == tuple(range(9))
    assert r.conditions == {
        "starts-computing": True,
        "length": True,
        "gap-nonnegative": True,
        "gap-at-most-1/m": True,
        "run-computing": True,
        "side-is-chain": True,
        "side-has-no-other-computing": True,
    }
    assert r.moreover_applicable is False
    assert all(v is None for v in r.moreover.values())


def test_computing_path_run_turns_to_its_chain_end():
    # the fork 0 and the (-3)-curve 2 both have a = 1/4; no chain hangs off
    # the fork, so the run is read from 2, whose side 2 - 5 - 4 holds no
    # other computing vertex
    g = WeightedDualGraph(
        ((0, -2), (1, -2), (2, -3), (3, -2), (4, -2), (5, -2)),
        ((0, 1), (0, 2), (0, 3), (2, 5), (4, 5)),
    )
    r = find_computing_path(germ(g))
    assert r.kind == "computing-run"
    assert r.path.vertex_ids == (2, 0)
    assert r.computing_ids == (0, 2)
    assert r.conditions == {
        "starts-computing": True,
        "length": True,
        "gap-nonnegative": True,
        "gap-at-most-1/m": True,
        "run-computing": True,
        "side-is-chain": True,
        "side-has-no-other-computing": True,
    }


def test_computing_path_hypotheses():
    with pytest.raises(HypothesesUnmet, match="0 < mld < 1"):
        find_computing_path(germ(chain(-2, -2)))
    with pytest.raises(HypothesesUnmet, match="log canonical"):
        find_computing_path(germ(chain(-2, -2, -2), [rbranch(0, "5/4")]))
    # order 2 cannot host a usable path even with mld inside (0, 1)
    with pytest.raises(HypothesesUnmet, match="order 2"):
        find_computing_path(germ(hj_graph(5, 2)))


def test_threshold_of_the_moreover_facts():
    # s > 16/(log_3(2n+1) - 1): for s = 1 that is 2n + 1 > 3^17 = 129140163,
    # so the moreover facts of find_computing_path need 64,570,082 curves
    # and the helper is asked directly
    one = frac(1)
    assert _min_coeff_exceeds_16_over_nprime(one, 64_570_082) is True
    assert _min_coeff_exceeds_16_over_nprime(one, 64_570_081) is False
    assert _min_coeff_exceeds_16_over_nprime(frac(0), 10**9) is False
    # for s = sqrt2 the bound is 2n + 1 > 3^(1 + 8*sqrt2), n near 375,061;
    # the enclosures are refined over the certified basis too
    sq2 = sqrt2_basis()
    for basis in (sq2, declared(sq2)):
        s = basis.unit(1)
        assert _min_coeff_exceeds_16_over_nprime(s, 380_000) is True
        assert _min_coeff_exceeds_16_over_nprime(s, 370_000) is False
    with refinement_budget(1), pytest.raises(RefinementExhausted) as info:
        _min_coeff_exceeds_16_over_nprime(declared(sq2).unit(1), 380_000)
    assert str(info.value) == (
        "sqrt2 > 16/(log_3(760001) - 1) undecided after 1 refinement levels"
    )


# ---------------------------------------------------------------------------
# adjunction along a reduced branch


def test_adjunction_a1():
    m = germ(chain(-2), [rbranch(0, 1)])
    f = adjunction_form(m, 0)
    assert f.coefficient.as_fraction() == Fraction(1, 2)
    assert f.det == 2
    assert f.branch_multipliers == ()
    assert f.load_multipliers == ()
    assert f.ok


def test_adjunction_minus_three():
    f = adjunction_form(germ(chain(-3), [rbranch(0, 1)]), 0)
    assert f.coefficient.as_fraction() == Fraction(2, 3)
    assert f.det == 3
    assert f.ok


def test_adjunction_extra_branch_contributes_integrally():
    m = germ(chain(-2), [rbranch(0, 1), rbranch(0, "1/2")])
    f = adjunction_form(m, 0)
    # 3/4 = 1/2 + 1 * (1/2)/2: the extra branch enters with multiplier 1
    assert f.coefficient.as_fraction() == Fraction(3, 4)
    assert f.branch_multipliers == ((1, Fraction(1)),)
    assert f.multipliers_integral and f.multipliers_nonnegative
    assert f.reconstruction_ok
    assert f.ok


def test_adjunction_hypotheses():
    with pytest.raises(HypothesesUnmet, match="coefficient exactly 1"):
        adjunction_form(germ(chain(-2), [rbranch(0, "1/2")]), 0)
    with pytest.raises(HypothesesUnmet, match="log canonical"):
        adjunction_form(germ(chain(-2), [rbranch(0, 1), rbranch(0, "5/4")]), 0)


def test_adjunction_plt_with_a_load():
    # 2/3 + 1 * (3/4)/3 on a (-3)-curve: the load enters like a branch
    f = adjunction_form(germ(chain(-3), [rbranch(0, 1)], loads=[(0, frac("3/4"))]), 0)
    assert f.kind == "plt"
    assert f.coefficient.as_fraction() == Fraction(11, 12)
    assert f.load_multipliers == ((0, Fraction(1)),)
    assert f.ok


def test_adjunction_lc_not_plt_on_a_chain_middle():
    # C through the middle of (-2, -6, -2) is lc but not plt: a(E_s) = 0
    f = adjunction_form(germ(chain(-2, -6, -2), [rbranch(1, 1)]), 0)
    assert f.kind == "lc"
    assert f.coefficient.as_fraction() == 1
    assert f.det == 20
    assert f.constant_ok and f.ok
    # a zero load keeps it lc; any positive input would make it not lc
    f = adjunction_form(germ(chain(-2, -6, -2), [rbranch(1, 1)], loads=[(0, frac(0))]), 0)
    assert f.kind == "lc" and f.load_multipliers == ((0, Fraction(2)),) and f.ok
    with pytest.raises(HypothesesUnmet, match="log canonical"):
        adjunction_form(germ(chain(-2, -6, -2), [rbranch(1, 1)], loads=[(0, frac("1/9"))]), 0)
    with pytest.raises(HypothesesUnmet, match="log canonical"):
        adjunction_form(germ(chain(-2, -6, -2), [rbranch(1, 1), rbranch(2, "1/9")]), 0)


# a fork: centre 3 (-5) with (-2)-leaves 0 and 2 and a (-3)-arm 1
FORK = WeightedDualGraph(((0, -2), (1, -3), (2, -2), (3, -5)), ((0, 3), (1, 3), (2, 3)))


def test_adjunction_lc_not_plt_on_a_fork():
    f = adjunction_form(germ(FORK, [rbranch(1, 1)]), 0)
    assert f.kind == "lc"
    assert f.coefficient.as_fraction() == 1
    assert f.det == 44
    assert f.ok
    # on the centre, C would be a fourth branch there and the pair is not lc
    with pytest.raises(HypothesesUnmet, match="log canonical"):
        adjunction_form(germ(FORK, [rbranch(3, 1)]), 0)


def test_adjunction_kind_follows_the_chain_end_rule():
    # (X, C) is plt exactly when the graph is a chain and C meets an end of it
    rng = random.Random(20)
    seen = Counter()
    for _ in range(300):
        g = random_nd_tree(rng, rng.randint(1, 7))
        degree = Counter(v for edge in g.edges for v in edge)
        is_chain = all(degree[v] <= 2 for v in g.ids())
        for v in g.ids():
            m = germ(g, [rbranch(v, 1)])
            if not mld_point(m).is_lc:
                continue
            f = adjunction_form(m, 0)
            want = "plt" if is_chain and degree[v] <= 1 else "lc"
            assert (f.kind, f.ok) == (want, True), (g, v)
            seen[f.kind] += 1
    assert seen["plt"] > 100 and seen["lc"] > 5


# ---------------------------------------------------------------------------
# checkers


def test_convexity_clean_on_klt_chain():
    assert check_convexity(germ(chain(-2, -3, -2), [rbranch(0, "1/3")])) == ()


def test_convexity_reads_weights_from_the_vertex_list(monkeypatch):
    # the gap loop asked graph.weight for each vertex, a scan of the vertex
    # list per vertex; curves 1 (-4) and 3 (-3) are middle curves it visits
    m = germ(chain(-2, -4, -2, -3, -2), [rbranch(0, "1/3")], eps=frac("1/20"))
    profile = mld_point(m)
    assert profile.classification == "eps-lc"
    want = check_convexity(m, profile)

    def no_lookup(self, vid):
        raise AssertionError(f"weight of {vid} looked up by id")

    monkeypatch.setattr(WeightedDualGraph, "weight", no_lookup)
    assert check_convexity(m, profile) == want


def test_convexity_needs_discrepancies_at_most_one():
    with pytest.raises(HypothesesUnmet, match="above 1"):
        check_convexity(germ(chain(-1)))


def test_window_checkers_pass_on_plain_chains():
    m = germ(chain(-2, -2, -2))
    assert check_smooth_threshold(m) == ()
    assert check_vertex_window(m) == ()


def test_empty_graph_checker():
    m = germ(EMPTY, [Branch(None, frac("1/2"))])
    assert check_empty_graph_value(m) == ()
    # out of scope on a nonempty graph, reports nothing
    assert check_empty_graph_value(germ(chain(-2))) == ()


# ---------------------------------------------------------------------------
# pointwise mld helpers


def test_smooth_point_mld():
    assert smooth_point_mld(frac("1/2")).as_fraction() == Fraction(3, 2)
    assert smooth_point_mld(frac(0)).as_fraction() == 2
    assert smooth_point_mld(frac(1)).as_fraction() == 1
    with pytest.raises(HypothesesUnmet):
        smooth_point_mld(frac("5/4"))
    with pytest.raises(HypothesesUnmet):
        smooth_point_mld(frac("-1/4"))

