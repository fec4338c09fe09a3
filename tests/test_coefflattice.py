"""Span arithmetic, certified comparison and the perturbation constructions."""

import dataclasses
import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import (
    BasisDescriptor,
    MAX_PARTITION_SYMBOLS,
    QLinearMap,
    SpanElement,
    TRIVIAL_BASIS,
    compare,
    decimal_str,
    floor_span,
    is_ge,
    is_gt,
    is_le,
    is_lt,
    partition_of_one,
    product_basis,
    refinement_budget,
    render_exact,
    span_min,
    span_product,
    verify_partition,
)
from germkit import coefflattice
from germkit.coefflattice import DEFAULT_BUDGET, GREATER, in_span
from germkit.enclosures import (
    ContinuedFractionEnclosure,
    NestedIntervalsEnclosure,
    PointEnclosure,
)
from germkit.errors import (
    BasisMismatch,
    FloorUndecidable,
    GermkitError,
    HypothesesUnmet,
    InvariantViolated,
    RefinementExhausted,
)
from util import declared, identity_map, weight_total

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def test_basis_validation():
    pt = PointEnclosure(Fraction(1))
    cf = ContinuedFractionEnclosure((1,), (2,))
    with pytest.raises(ValueError):
        BasisDescriptor((), ())
    with pytest.raises(ValueError):
        BasisDescriptor(("x",), (pt,))
    with pytest.raises(ValueError):
        BasisDescriptor(("1", "r", "r"), (pt, cf, cf))
    with pytest.raises(ValueError):
        BasisDescriptor(("1", "r"), (pt, pt))  # irrational slot with exact enclosure
    with pytest.raises(ValueError):
        BasisDescriptor(("1", " r"), (pt, cf))


def test_trivial_basis_roundtrip():
    x = TRIVIAL_BASIS.rational(Fraction(7, 3))
    assert x.is_rational
    assert x.as_fraction() == Fraction(7, 3)
    assert (x + x).as_fraction() == Fraction(14, 3)
    assert (x * 3).as_fraction() == 7
    assert (x / 7).as_fraction() == Fraction(1, 3)
    assert (-x).as_fraction() == Fraction(-7, 3)


def test_as_fraction_refuses_irrational(sq2):
    r = sq2.unit(1)
    assert not r.is_rational
    with pytest.raises(ValueError):
        r.as_fraction()


def test_basis_mismatch_raises(sq2):
    with pytest.raises(BasisMismatch):
        sq2.rational(1) + TRIVIAL_BASIS.rational(1)


def test_render_exact(sq2):
    assert render_exact(sq2.zero()) == "0"
    assert render_exact(sq2.rational(Fraction(1, 2))) == "1/2"
    assert render_exact(sq2.unit(1)) == "sqrt2"
    assert render_exact(sq2.element((1, Fraction(-1, 4)))) == "1 - 1/4*sqrt2"
    assert render_exact(sq2.element((Fraction(-2), Fraction(3)))) == "-2 + 3*sqrt2"


def test_compare_rational_fast_path_never_refines(monkeypatch):
    # the shortest interval list a basis takes (it reads levels 0 and 1),
    # with no closed form, and a source that fails once it is read
    source = NestedIntervalsEnclosure(
        ((Fraction(1), Fraction(2)), (Fraction(5, 4), Fraction(3, 2)))
    )
    basis = BasisDescriptor(("1", "r"), (PointEnclosure(Fraction(1)), source))

    def never(self, k):
        raise AssertionError(f"level {k} was read")

    monkeypatch.setattr(NestedIntervalsEnclosure, "interval", never)
    x = basis.rational(Fraction(3, 7))
    y = basis.rational(Fraction(2, 7))
    assert compare(x, y) == 1
    assert compare(y, x) == -1
    assert compare(x, x) == 0


def test_compare_certifies_sqrt2(sq2):
    r = sq2.unit(1)
    assert is_gt(r, Fraction(7, 5))
    assert is_lt(r, Fraction(3, 2))
    assert is_gt(r, Fraction(141421356, 100000000))
    assert is_lt(r, Fraction(141421357, 100000000))
    assert compare(r + r, sq2.element((0, 2))) == 0


def test_compare_exhausts_on_hidden_relation():
    # two names for the same real: their difference has no certifiable sign
    twin = BasisDescriptor(
        ("1", "a", "b"),
        (
            PointEnclosure(Fraction(1)),
            ContinuedFractionEnclosure((1,), (2,)),
            ContinuedFractionEnclosure((1,), (2,)),
        ),
    )
    with refinement_budget(12), pytest.raises(RefinementExhausted):
        compare(twin.unit(1), twin.unit(2))


def test_ordering_helpers(sq2):
    r = sq2.unit(1)
    one = sq2.rational(1)
    assert is_le(one, r) and is_ge(r, one)
    assert span_min([r, one, sq2.rational(2)]) == one


def test_floor_span(sq2):
    r = sq2.unit(1)
    assert floor_span(r) == 1
    assert floor_span(-r) == -2
    assert floor_span(r * 3) == 4
    assert floor_span(r + sq2.rational(1)) == 2
    assert floor_span(sq2.rational(Fraction(7, 2))) == 3
    assert floor_span(sq2.rational(Fraction(-7, 2))) == -4
    assert floor_span(sq2.rational(5)) == 5


def test_floor_of_finite_source_runs_dry():
    basis = BasisDescriptor(
        ("1", "r"),
        (
            PointEnclosure(Fraction(1)),
            # r is pinned between 1.9 and 2.1: the source exhausts first
            NestedIntervalsEnclosure(
                ((Fraction(1), Fraction(3)), (Fraction(19, 10), Fraction(21, 10)))
            ),
        ),
    )
    with refinement_budget(8), pytest.raises(RefinementExhausted):
        floor_span(basis.unit(1))


def test_floor_undecidable_on_tiny_budget(sq2):
    # level 0 of 3*sqrt2 is (3, 9/2), which straddles 4; sqrt2 is declared
    # by its levels here, so the floor must refine
    with refinement_budget(1), pytest.raises(FloorUndecidable):
        floor_span(declared(sq2).unit(1) * 3)


def test_floor_over_a_certified_basis_needs_no_budget(sq2):
    # the continued fraction of sqrt2 has a closed form, so one level will do
    with refinement_budget(1):
        assert floor_span(sq2.unit(1) * 3) == 4
        assert floor_span(sq2.unit(1) * -3) == -5
        assert floor_span(sq2.element((Fraction(1, 7), Fraction(-5, 3)))) == -3


def test_decimal_str(sq2):
    assert decimal_str(sq2.unit(1)) == "1.414213562373"
    assert decimal_str(sq2.rational(Fraction(3, 2))) == "1.500000000000"
    assert decimal_str(sq2.rational(Fraction(1, 3)), places=6) == "0.333333"
    assert decimal_str(sq2.rational(Fraction(-1, 3)), places=6) == "-0.333333"
    assert decimal_str(sq2.rational(0), places=3) == "0.000"
    # no places: an integer with no decimal point, certified or declared
    for basis in (sq2, declared(sq2)):
        assert decimal_str(basis.unit(1), 0) == "1"
        assert decimal_str(-basis.unit(1), 0) == "-1"
        assert decimal_str(basis.unit(1) * 2, 0) == "3"
        assert decimal_str(basis.unit(1) / 4, 0) == "0"
        assert decimal_str(-basis.unit(1) / 4, 0) == "0"
        assert decimal_str(-basis.unit(1) / 4, 1) == "-0.4"
    assert decimal_str(sq2.rational(Fraction(5, 2)), 0) == "2"
    assert decimal_str(sq2.rational(Fraction(7, 2)), 0) == "4"
    assert decimal_str(sq2.rational(Fraction(-5, 2)), 0) == "-2"
    for x in (sq2.unit(1), sq2.rational(Fraction(5, 2))):
        with pytest.raises(ValueError, match="decimal places must be nonnegative, got -1"):
            decimal_str(x, -1)


@given(fractions, fractions)
@settings(max_examples=100, deadline=None)
def test_compare_agrees_with_fraction_order(p, q):
    x = TRIVIAL_BASIS.rational(p)
    y = TRIVIAL_BASIS.rational(q)
    want = (p > q) - (p < q)
    assert compare(x, y) == want


@given(fractions)
@settings(max_examples=100, deadline=None)
def test_floor_agrees_with_fraction_floor(p):
    assert floor_span(TRIVIAL_BASIS.rational(p)) == p.numerator // p.denominator


def test_qlinear_identity(sq2):
    f = identity_map(sq2)
    x = sq2.element((Fraction(1, 2), Fraction(-3)))
    assert f.apply(x) == x
    assert f.fixes_one
    assert not f.is_rational_valued


def test_qlinear_apply_is_linear(sq2):
    # snap sqrt2 to 3/2
    f = QLinearMap(
        sq2, sq2, ((Fraction(1), Fraction(3, 2)), (Fraction(0), Fraction(0)))
    )
    assert f.fixes_one and f.is_rational_valued
    x = sq2.element((1, 2))
    y = sq2.element((0, Fraction(-1, 2)))
    assert f.apply(x + y) == f.apply(x) + f.apply(y)
    assert f.apply(x).as_fraction() == 4


def test_product_basis_symbols(sq2_sq3):
    pb = product_basis(sq2_sq3)
    assert pb.symbols == ("1", "sqrt2", "sqrt3", "sqrt2*sqrt3")
    lo, hi = pb.enclosures[3].interval(2)
    assert lo * lo < 6 < hi * hi


def test_product_basis_of_one_irrational_is_itself(sq2):
    assert product_basis(sq2) is sq2


def test_span_product_expands_exactly(sq2_sq3):
    pb = product_basis(sq2_sq3)
    one_plus_r2 = sq2_sq3.element((1, 1, 0))
    two_plus_r3 = sq2_sq3.element((2, 0, 1))
    got = span_product([one_plus_r2, two_plus_r3], pb)
    assert got.coords == (Fraction(2), Fraction(2), Fraction(1), Fraction(1))


def test_span_product_rejects_square(sq2_sq3):
    pb = product_basis(sq2_sq3)
    r2 = sq2_sq3.unit(1)
    with pytest.raises(ValueError):
        span_product([r2, r2], pb)
    mixed = sq2_sq3.element((0, 1, 1))
    with pytest.raises(ValueError):
        span_product([mixed], pb)


def test_partition_of_one_sqrt2_tenth(sq2):
    """The delta = 1/10 snap family around sqrt2 is frozen by hand.

    The first continued fraction interval with both endpoints within 1/10
    is [7/5, 3/2]; linear interpolation gives weights 15 - 10*sqrt2 and
    10*sqrt2 - 14.
    """
    part = partition_of_one(sq2, Fraction(1, 10))
    assert len(part.entries) == 2
    (w1, f1), (w2, f2) = part.entries
    assert f1.apply(sq2.unit(1)).as_fraction() == Fraction(7, 5)
    assert f2.apply(sq2.unit(1)).as_fraction() == Fraction(3, 2)
    assert w1.coords == (Fraction(15), Fraction(-10))
    assert w2.coords == (Fraction(-14), Fraction(10))
    assert weight_total(part) == sq2.rational(1)
    assert all(verify_partition(part).values())


def test_partition_trivial_basis_is_identity():
    part = partition_of_one(TRIVIAL_BASIS, Fraction(1, 1000))
    assert len(part.entries) == 1
    w, f = part.entries[0]
    assert w.as_fraction() == 1
    assert f.apply(TRIVIAL_BASIS.rational(Fraction(2, 7))).as_fraction() == Fraction(2, 7)
    assert part.checks == verify_partition(part)


def test_partition_two_irrationals(sq2_sq3):
    part = partition_of_one(sq2_sq3, Fraction(1, 1000))
    assert len(part.entries) == 4
    checks = verify_partition(part)
    assert checks == {
        "weights_sum_to_one": True,
        "weights_positive": True,
        "maps_fix_one": True,
        "combination_is_identity": True,
        "displacement_within_delta": True,
    }
    assert part.checks == checks  # the construction hands its verification on
    # snapped values are rationals within delta of each symbol
    for _, f in part.entries:
        for i in (1, 2):
            img = f.apply(sq2_sq3.unit(i))
            assert img.is_rational
            diff = img - sq2_sq3.unit(i)
            assert is_le(diff, Fraction(1, 1000)) and is_ge(diff, Fraction(-1, 1000))


def test_in_span(sq2):
    r2 = sq2.unit(1)
    gens = [sq2.rational(Fraction(1, 2)), r2 / 2]
    assert in_span(gens, sq2.element((Fraction(5, 2), Fraction(3, 2))))
    assert not in_span([sq2.rational(Fraction(1, 3))], r2)


def test_in_span_over_empty_repeated_and_dependent_generators(sq2_sq3):
    r2, r3 = sq2_sq3.unit(1), sq2_sq3.unit(2)
    zero = sq2_sq3.rational(0)
    # no generators span the rationals, and 0 lies in every span
    assert in_span([], sq2_sq3.rational(Fraction(-7, 3)))
    assert not in_span([], r2)
    assert in_span([], zero) and in_span([r2, r3], zero)
    # a repeated, a dependent and a zero generator add nothing
    five = sq2_sq3.rational(5)
    gens = [r2 / 3, r2 / 3, r2 * 2 + five, zero]
    assert in_span(gens, r2 * Fraction(7, 4) - five)
    assert not in_span(gens, r3) and not in_span(gens, r2 + r3)
    assert in_span([r2 + r3, r2 - r3], r3 * 5 + r2)


SPAN_BASIS = BasisDescriptor(
    ("1", "a", "b", "c"),
    (
        PointEnclosure(Fraction(1)),
        ContinuedFractionEnclosure((1,), (2,)),
        ContinuedFractionEnclosure((1,), (1, 2)),
        ContinuedFractionEnclosure((2,), (4,)),
    ),
)

# up to four generators with no coordinate past index k, for k in 0..2
small = st.integers(min_value=-6, max_value=6)
span_generators = st.integers(min_value=0, max_value=2).flatmap(
    lambda k: st.tuples(
        st.just(k), st.lists(st.lists(small, min_size=k + 1, max_size=k + 1), max_size=4)
    )
)


@given(span_generators, st.lists(fractions, min_size=4, max_size=4), fractions)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_in_span_holds_for_built_combinations(drawn, weights, r):
    k, rows = drawn
    gens = [SPAN_BASIS.element(row + [0] * (3 - k)) for row in rows]
    x = SPAN_BASIS.rational(r)
    for g, w in zip(gens, weights):
        x = x + g * w
    assert in_span(gens, x)
    # every generator is zero on unit k + 1, so no combination reaches it
    assert not in_span(gens, x + SPAN_BASIS.unit(k + 1))


# ---------------------------------------------------------------------------
# the one walk over enclosure levels, over declared bases

ONE = PointEnclosure(Fraction(1))
SQRT2 = ContinuedFractionEnclosure((1,), (2,))
SQRT3 = ContinuedFractionEnclosure((1,), (1, 2))
# declared by its levels, so every irrational decision refines
ONE_SYMBOL = declared(BasisDescriptor(("1", "sqrt2"), (ONE, SQRT2)))
# two names for one real, so no difference of them ever gets a sign
TWIN = BasisDescriptor(("1", "a", "b"), (ONE, SQRT2, ContinuedFractionEnclosure((1,), (2,))))


def _nested(*intervals):
    return BasisDescriptor(("1", "r"), (ONE, NestedIntervalsEnclosure(tuple(intervals))))


# six levels around 2 that straddle it until level 5, the last one
SETTLES_AT_5 = _nested(
    *[(2 - Fraction(1, 2 ** k), 2 + Fraction(1, 2 ** k)) for k in range(5)],
    (2 + Fraction(1, 64), 2 + Fraction(1, 32)),
)
NEVER_SETTLES = _nested(*[(2 - Fraction(1, 2 ** k), 2 + Fraction(1, 2 ** k)) for k in range(6)])


def outcome(f, *args):
    try:
        return ("value", f(*args))
    except GermkitError as e:
        return (type(e), str(e))


def test_schedule_matches_walk_on_finite_sources():
    # the walk stops at the budget, or where a finite source runs dry
    for source in (SETTLES_AT_5, NEVER_SETTLES):
        r = source.unit(1)
        with refinement_budget(5):
            with pytest.raises(RefinementExhausted, match=r"-2 \+ r undecided after 5 refinement"):
                compare(r, 2)
            with pytest.raises(FloorUndecidable, match="floor of r undecided after 5 refinement"):
                floor_span(r)
        # one place settles at level 0; three run dry first
        assert decimal_str(r, 1) == "2.0"
        with pytest.raises(RefinementExhausted, match="interval list has 6 levels, wanted 6"):
            decimal_str(r, 3)
    with refinement_budget(64):
        assert compare(SETTLES_AT_5.unit(1), 2) == 1
        assert floor_span(SETTLES_AT_5.unit(1)) == 2
        for decide in (lambda r: compare(r, 2), floor_span):
            with pytest.raises(RefinementExhausted, match="interval list has 6 levels, wanted 6"):
                decide(NEVER_SETTLES.unit(1))


def test_schedule_matches_walk_on_hidden_relation():
    # a - b is 0 under the hidden relation: its digits settle, its sign and floor never
    a, b = TWIN.unit(1), TWIN.unit(2)
    for budget in (1, 5, 64):
        with refinement_budget(budget):
            for x, y in ((a, b), (a - b, 0)):
                with pytest.raises(RefinementExhausted, match=f"a - b undecided after {budget} "):
                    compare(x, y)
            with pytest.raises(FloorUndecidable, match=f"a - b undecided after {budget} "):
                floor_span(a - b)
            assert floor_span(a) == 1
    assert decimal_str(a - b) == "0.000000000000"
    with refinement_budget(1):
        with pytest.raises(RefinementExhausted, match="12-place rendering of a - b undecided"):
            decimal_str(a - b)


class SpyEnclosure(ContinuedFractionEnclosure):
    """Records every level it is asked for."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "asked", [])

    def interval(self, k):
        self.asked.append(k)
        return super().interval(k)


class DeclaredSpy(SpyEnclosure):
    """A spy that withholds its closed form, so decisions over it refine."""

    @property
    def closed_form(self):
        return None


def test_decimal_str_visits_few_levels():
    spy = DeclaredSpy((1,), (2,))
    basis = BasisDescriptor(("1", "sqrt2"), (ONE, spy))
    spy.asked.clear()
    assert decimal_str(basis.unit(1)) == "1.414213562373"
    # the walk asks the levels 0..16 once each and stops at 16, which decides
    assert spy.asked == list(range(17))


def test_refined_compare_asks_each_level_once():
    spy = SpyEnclosure((1,), (2,))
    twin = SpyEnclosure((1,), (2,))
    basis = BasisDescriptor(("1", "sqrt2", "twin"), (ONE, spy, twin))
    r = basis.unit(1)
    for bound, deciding in (
        (Fraction(7, 5), 3),
        (Fraction(141421356, 10 ** 8), 11),
        (Fraction(141421357, 10 ** 8), 10),
    ):
        spy.asked.clear()
        compare(r, bound)
        assert spy.asked == list(range(deciding + 1))
    spy.asked.clear()
    with pytest.raises(RefinementExhausted):
        compare(r, basis.unit(2))
    # running out asks every level below the budget once
    assert spy.asked == list(range(DEFAULT_BUDGET))


# ---------------------------------------------------------------------------
# the exact path over certified bases

SQRT5 = ContinuedFractionEnclosure((2,), (4,))
SQRT6 = ContinuedFractionEnclosure((2,), (2, 4))
SQRT7 = ContinuedFractionEnclosure((2,), (1, 1, 1, 4))
SQRT11 = ContinuedFractionEnclosure((3,), (3, 6))
SQRT13 = ContinuedFractionEnclosure((3,), (1, 1, 1, 1, 6))
SQRT17 = ContinuedFractionEnclosure((4,), (8,))
SQRT19 = ContinuedFractionEnclosure((4,), (2, 1, 3, 1, 2, 8))
# the square roots of the first eight primes
PRIME_ROOTS = (SQRT2, SQRT3, SQRT5, SQRT7, SQRT11, SQRT13, SQRT17, SQRT19)
# continued fractions as acceptance criterion 6 draws them
DRAWN = (
    ContinuedFractionEnclosure((1, 3), (2, 5, 1)),
    ContinuedFractionEnclosure((4,), (1, 6)),
    ContinuedFractionEnclosure((2, 2), (3,)),
)


def _basis(*encs):
    names = ("1",) + tuple(f"r{i}" for i in range(1, len(encs) + 1))
    return BasisDescriptor(names, (ONE,) + encs)


# one continued fraction (sqrt2, then a drawn one), then two and three with
# their products
CERTIFIED = (
    _basis(SQRT2),
    _basis(DRAWN[0]),
    product_basis(_basis(SQRT2, DRAWN[1])),
    product_basis(_basis(SQRT3, DRAWN[2], SQRT5)),
)
# each certified basis beside a copy that is declared by the same levels
PAIRS = tuple((b, declared(b)) for b in CERTIFIED)
coordinate = st.one_of(st.just(Fraction(0)), fractions)


def test_certified_bases():
    assert all(b.certified for b in CERTIFIED)
    assert not any(d.certified for _, d in PAIRS)
    assert _basis(SQRT2, SQRT3, SQRT5, SQRT7).certified
    assert _basis(SQRT2, SQRT3, SQRT5, SQRT7, SQRT11).certified
    assert _basis(*PRIME_ROOTS[:MAX_PARTITION_SYMBOLS]).certified


def test_uncertified_bases(monkeypatch):
    # two names for one real
    assert not TWIN.certified
    # sqrt2 * sqrt3 * sqrt6 = 6, so sqrt6 is not independent of the others'
    # product, and product_basis(s236) holds both s2*s3 and s6
    s236 = _basis(SQRT2, SQRT3, SQRT6)
    pb = product_basis(s236)
    assert not s236.certified and not pb.certified
    assert pb.symbols[3:5] == ("r3", "r1*r2")
    with refinement_budget(12), pytest.raises(RefinementExhausted):
        compare(pb.unit(3), pb.unit(4))
    # intervals symbols are declared, alone or beside a continued fraction
    assert not ONE_SYMBOL.certified and not SETTLES_AT_5.certified
    mixed = BasisDescriptor(("1", "a", "b"), (ONE, SQRT2, ONE_SYMBOL.enclosures[1]))
    assert not mixed.certified
    # more radicands than MAX_PARTITION_SYMBOLS, the only reason here: with
    # the cap raised by one the same basis certifies
    assert not _basis(*PRIME_ROOTS[:MAX_PARTITION_SYMBOLS + 1]).certified
    monkeypatch.setattr(coefflattice, "MAX_PARTITION_SYMBOLS", MAX_PARTITION_SYMBOLS + 1)
    assert _basis(*PRIME_ROOTS[:MAX_PARTITION_SYMBOLS + 1]).certified


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_exact_path_matches_refinement(data):
    # an index, not the pair: hypothesis would label the draw by repr
    exact, refined = PAIRS[data.draw(st.integers(0, len(PAIRS) - 1))]
    cx = data.draw(st.tuples(*[coordinate] * exact.dim))
    cy = data.draw(st.tuples(*[coordinate] * exact.dim))
    q = data.draw(fractions)
    x, y = exact.element(cx), exact.element(cy)
    xr, yr = refined.element(cx), refined.element(cy)
    for f, args, refined_args in (
        (compare, (x, q), (xr, q)),
        (compare, (x, y), (xr, yr)),
        (floor_span, (x,), (xr,)),
        (floor_span, (x - y,), (xr - yr,)),
        (decimal_str, (x, 12), (xr, 12)),
    ):
        want = outcome(f, *refined_args)
        if want[0] == "value":  # wherever refinement decides
            assert outcome(f, *args) == want


def test_certified_decisions_ask_no_levels():
    spy = SpyEnclosure((1,), (2,))
    basis = BasisDescriptor(("1", "sqrt2"), (ONE, spy))
    assert basis.certified  # the certificate checks level 0 once
    spy.asked.clear()
    r = basis.unit(1)
    with refinement_budget(1):
        assert compare(r, Fraction(141421356, 10 ** 8)) == 1
        assert compare(r, Fraction(141421357, 10 ** 8)) == -1
        assert floor_span(r * 3) == 4
        assert decimal_str(r) == "1.414213562373"
        assert decimal_str(r * 10 ** 6, 0) == "1414214"
    assert spy.asked == []
    # two square roots and their product
    spy3 = SpyEnclosure((1,), (1, 2))
    pb = product_basis(BasisDescriptor(("1", "sqrt2", "sqrt3"), (ONE, spy, spy3)))
    assert pb.certified
    spy.asked.clear()
    spy3.asked.clear()
    r2, r3, r6 = pb.unit(1), pb.unit(2), pb.unit(3)
    with refinement_budget(1):
        assert floor_span(r2 + r3) == 3
        assert floor_span(r6 + r2) == 3
        assert decimal_str(r2 + r3) == "3.146264369942"
        assert decimal_str(r6 - r2 - r3, 6) == "-0.696775"
    assert spy.asked == spy3.asked == []
    # five square roots
    spies = tuple(SpyEnclosure(e.head, e.cycle) for e in PRIME_ROOTS[:5])
    five = _basis(*spies)
    assert five.certified
    for e in spies:
        e.asked.clear()
    total = five.element((0, 1, 1, 1, 1, 1))
    with refinement_budget(1):
        assert floor_span(total) == 11
        assert decimal_str(total) == "11.344708448862"
        assert compare(total, Fraction(11344708448861, 10 ** 12)) == 1
        assert compare(total, Fraction(11344708448862, 10 ** 12)) == -1
    assert all(e.asked == [] for e in spies)


def test_exact_floor_where_the_isqrt_window_straddles_an_integer():
    # isqrt floors each root alone: sqrt2 + sqrt3 = 3.146... lies in (2, 4)
    # and its negative in (-4, -2), so one sign picks the floor
    basis = _basis(SQRT2, SQRT3)
    x = basis.unit(1) + basis.unit(2)
    with refinement_budget(1):
        assert floor_span(x) == 3
        assert floor_span(-x) == -4
        assert decimal_str(-x, 2) == "-3.15"
    # four roots: 8.028... in (6, 10)
    four = _basis(SQRT2, SQRT3, SQRT5, SQRT7)
    y = four.element((0, 1, 1, 1, 1))
    with refinement_budget(1):
        assert floor_span(y) == 8
        assert floor_span(-y) == -9
        assert decimal_str(y, 4) == "8.0281"


# three and four radicands, alone and with their products
MANY_ROOTS = (
    _basis(SQRT2, SQRT3, SQRT5),
    _basis(SQRT2, SQRT3, SQRT5, SQRT7),
    product_basis(_basis(SQRT2, SQRT3, SQRT5)),
)
MANY_PAIRS = tuple((b, declared(b)) for b in MANY_ROOTS)


def test_enclosure_equals_the_fraction_sum_over_a_declared_product_basis():
    # the endpoints are summed as integers over a running denominator; the
    # interval is the sum of c * endpoint per symbol, the lower endpoint of
    # a symbol for c > 0 and its upper one for c < 0
    basis = product_basis(declared(_basis(*PRIME_ROOTS[:5])))
    assert basis.dim == 32 and not basis.certified
    rng = random.Random(5)
    for _ in range(30):
        den = rng.randrange(1, 60)
        x = basis.element([Fraction(rng.choice((0, rng.randrange(-9, 10))), den) for _ in range(32)])
        for level in range(6):
            lo = hi = x.coords[0]
            for c, enc in zip(x.coords[1:], basis.enclosures[1:]):
                a, b = enc.interval(level)
                lo, hi = (lo + c * a, hi + c * b) if c > 0 else (lo + c * b, hi + c * a)
            assert x.enclosure(level) == (lo, hi)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_floors_over_many_roots_match_refinement(data):
    exact, refined = MANY_PAIRS[data.draw(st.integers(0, len(MANY_PAIRS) - 1))]
    coords = data.draw(st.tuples(*[coordinate] * exact.dim))
    places = data.draw(st.integers(0, 12))
    x, xr = exact.element(coords), refined.element(coords)
    for f, args in ((floor_span, ()), (decimal_str, (places,))):
        want = outcome(f, xr, *args)
        if want[0] == "value":  # wherever refinement decides
            with refinement_budget(1):
                assert outcome(f, x, *args) == want


def test_zero_closed_form_of_a_nonzero_vector_is_a_defect(monkeypatch):
    # a certificate giving two symbols one form, which _certify never builds
    basis = _basis(SQRT2, SQRT5)
    bad = coefflattice._Certificate((1, 8), (((0, 2),), ((1, 1),), ((1, 1),)), 2)
    monkeypatch.setattr(coefflattice, "_certify", lambda b: bad)
    d = basis.unit(1) - basis.unit(2)
    with pytest.raises(InvariantViolated, match="certified basis"):
        compare(d, 0)
    with pytest.raises(InvariantViolated, match="rational closed form"):
        floor_span(d)


def test_a_zero_sum_of_roots_stops_at_the_separation_bound(monkeypatch):
    # roots holding a square (2 * 8 = 16), which _certify never admits, so
    # that 2*sqrt2 - sqrt8 = 0 and no isqrt bracket ever excludes 0
    basis = _basis(SQRT2, SQRT5)
    bad = coefflattice._Certificate((1, 2, 8, 16), (((0, 1),), ((1, 1),), ((2, 1),)), 1)
    monkeypatch.setattr(coefflattice, "_certify", lambda b: bad)
    brackets = []

    def counted(n):
        brackets.append(n)
        assert len(brackets) < 100, "the precision kept doubling"
        return isqrt(n)

    monkeypatch.setattr(coefflattice, "isqrt", counted)
    d = basis.unit(1) * 2 - basis.unit(2)
    start = time.perf_counter()
    with pytest.raises(InvariantViolated, match="separation bound"):
        compare(basis.unit(1) * 2, basis.unit(2))
    with pytest.raises(InvariantViolated, match="separation bound"):
        floor_span(d)
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# signs of integer sums of square roots against the recursive squaring that
# decided them before the isqrt bracket


def reference_square(p, roots):
    """The square of the sum of p[m] * sqrt(roots[m]), in the same form."""
    out = [0] * len(p)
    for a, pa in enumerate(p):
        if pa:
            out[0] += pa * pa * roots[a]
            for b in range(a + 1, len(p)):
                if p[b]:
                    out[a ^ b] += 2 * pa * p[b] * roots[a & b]
    return out


def reference_root_sign(a, b, d):
    """Exact sign of a + b*sqrt(d) for d > 0."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    t = a * a - b * b * d
    return sa * ((t > 0) - (t < 0))


def reference_poly_sign(p, roots):
    """Exact sign of the sum of p[m] * sqrt(roots[m]), by recursive squaring.

    Split off the highest square root: p = P + Q*sqrt(D), with P and Q over
    the lower ones.  When P and Q do not have opposite signs, p has the sign
    of the nonzero one; otherwise it has the sign of P exactly when
    P^2 > D*Q^2.
    """
    irrational = [m for m in range(1, len(p)) if p[m]]
    if not irrational:
        return (p[0] > 0) - (p[0] < 0)
    if len(irrational) == 1:
        m = irrational[0]
        return reference_root_sign(p[0], p[m], roots[m])
    half = 1 << (irrational[-1].bit_length() - 1)
    lo, hi = p[:half], p[half:2 * half]
    sp, sq = reference_poly_sign(lo, roots), reference_poly_sign(hi, roots)
    if sp == sq or not sq:
        return sp
    if not sp:
        return sq
    d = roots[half]
    diff = [a - d * b for a, b in zip(reference_square(lo, roots), reference_square(hi, roots))]
    return sp * reference_poly_sign(diff, roots)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _roots(r):
    """Products of the subsets of the first r primes, by bit mask."""
    roots = [1]
    for d in PRIMES[:r]:
        roots += [x * d for x in roots]
    return roots


def _rounded_irrational_part(p, roots):
    """The sum of p[m] * sqrt(roots[m]) over m >= 1, rounded to within one."""
    s = 0
    for c, d in zip(p[1:], roots[1:]):
        t = isqrt(c * c * d << 128)
        s += t if c > 0 else -t
    return (s + (1 << 63)) >> 64


@st.composite
def sign_problems(draw):
    roots = _roots(draw(st.integers(1, len(PRIMES))))
    p = [0] * len(roots)
    for m in draw(st.lists(st.integers(1, len(roots) - 1), max_size=8)):
        p[m] = draw(st.integers(-10 ** 6, 10 ** 6))
    if draw(st.booleans()):
        # x*sqrt(R) - y*sqrt(2R) = sqrt(R) * (x - y*sqrt2), below 2^-n in
        # size for the n-th solution of x^2 - 2y^2 = 1: bit 0 is sqrt2
        x, y = 3, 2
        for _ in range(draw(st.integers(0, 60))):
            x, y = 3 * x + 4 * y, 2 * x + 3 * y
        m = 2 * draw(st.integers(0, len(roots) // 2 - 1))
        sign = draw(st.sampled_from((1, -1)))
        p[m], p[m + 1] = sign * x, -sign * y
    constant = draw(st.sampled_from(("drawn", "zero", "nearly cancelling")))
    if constant == "zero":
        p[0] = 0
    elif constant == "nearly cancelling":
        p[0] = -_rounded_irrational_part(p, roots) + draw(st.integers(-2, 2))
    return p, roots


@given(sign_problems())
@settings(max_examples=300, deadline=None)
def test_poly_sign_matches_recursive_squaring(problem):
    p, roots = problem
    assert coefflattice._poly_sign(p, roots) == reference_poly_sign(p, roots)


def test_floats_are_refused():
    basis = _basis(SQRT2)
    x = basis.unit(1)
    for call in (
        lambda: basis.rational(0.1),
        lambda: basis.element((0.5, 1)),
        lambda: SpanElement(basis, (1, 0.5)),
        lambda: compare(x, 1.4142),
        lambda: x / 0.5,
        lambda: x * 0.5,
        lambda: partition_of_one(basis, 0.001),
    ):
        with pytest.raises(TypeError, match="float"):
            call()
    # exact inputs, strings among them, still work
    assert partition_of_one(basis, "1/1000").delta == Fraction(1, 1000)
    assert basis.rational("1/10") == basis.rational(Fraction(1, 10))


def test_library_strings_past_the_digit_limit_are_refused_at_once():
    # partition_of_one(basis, "1e-3000000") used to build its ten-million-bit
    # denominator and run on; every reader of a literal refuses it first
    basis = _basis(SQRT2)
    for call in (
        lambda: basis.rational("1e999999"),
        lambda: basis.element(("1e-999999", 0)),
        lambda: SpanElement(basis, (1, "-1e5000")),
        lambda: basis.unit(1) / "1e999999",
        lambda: partition_of_one(basis, "1e-3000000"),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^rational literal '.*' needs more than \d+ digits$"):
            call()
        assert time.perf_counter() - start < 1
    # a ratio is left to int(), which keeps each side to the limit itself
    with pytest.raises(ValueError, match="Exceeds the limit"):
        basis.rational("1/" + "9" * 5000)
    assert basis.rational("25e-2") == basis.rational(Fraction(1, 4))


def test_partition_over_the_cap_is_refused_at_once(monkeypatch):
    def fail(*args):
        raise AssertionError("the partition started")

    monkeypatch.setattr(coefflattice, "product_basis", fail)
    # [k; 2k, 2k, ...] = sqrt(k^2 + 1)
    n = MAX_PARTITION_SYMBOLS + 1
    basis = _basis(*(ContinuedFractionEnclosure((k,), (2 * k,)) for k in range(1, n + 1)))
    message = f"partition of one over {n} irrational symbols exceeds the cap of {MAX_PARTITION_SYMBOLS}"
    with pytest.raises(HypothesesUnmet, match=message):
        partition_of_one(basis, Fraction(1, 10))


# ---------------------------------------------------------------------------
# the partition verifier against the Fraction verifier it replaced


def _dot(row, coords):
    total = Fraction(0)
    for a, b in zip(row, coords):
        if a and b:
            total += a * b
    return total


def reference_apply(f, x):
    if x.basis != f.source:
        raise BasisMismatch("element not over the map's source basis")
    coords = tuple(
        _dot(row, x.coords) for row in f.matrix
    )
    return SpanElement(f.target, coords)


def reference_fixes_one(f):
    col0 = tuple(row[0] for row in f.matrix)
    want = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(f.target.dim))
    return col0 == want


def combined_matrix(part):
    """Sum of weight-by-value outer products, one row per product symbol."""
    rows = [[Fraction(0)] * part.basis.dim for _ in range(part.weights_basis.dim)]
    for w, f in part.entries:
        values = f.matrix[0]
        for i, wc in enumerate(w.coords):
            if wc == 0:
                continue
            for j, v in enumerate(values):
                if v:
                    rows[i][j] += wc * v
    return rows


def embedding_matrix(part):
    rows = [[Fraction(0)] * part.basis.dim for _ in range(part.weights_basis.dim)]
    for j in range(part.basis.dim):
        rows[j][j] = Fraction(1)
    return rows


def reference_verify(part):
    """verify_partition as it was on Fractions, kept as an independent oracle."""
    one = part.weights_basis.rational(1)
    checks = {}
    checks["weights_sum_to_one"] = weight_total(part) == one
    pos = True
    for w, _ in part.entries:
        if compare(w, 0) != GREATER:
            pos = False
            break
    checks["weights_positive"] = pos
    checks["maps_fix_one"] = all(
        reference_fixes_one(f) and f.is_rational_valued for _, f in part.entries
    )
    checks["combination_is_identity"] = combined_matrix(part) == embedding_matrix(part)
    disp = True
    dl = part.basis.rational(part.delta)
    for _, f in part.entries:
        for i in range(1, part.basis.dim):
            image = reference_apply(f, part.basis.unit(i))
            diff = image - part.basis.unit(i)
            if not (is_le(diff, dl) and is_ge(diff, -1 * dl)):
                disp = False
    checks["displacement_within_delta"] = disp
    return checks


def _with_entry(part, k, weight=None, matrix=None):
    """part with entry k given a new weight or snap matrix."""
    w, f = part.entries[k]
    if weight is not None:
        w = weight
    if matrix is not None:
        f = QLinearMap(f.source, f.target, matrix)
    entries = part.entries[:k] + ((w, f),) + part.entries[k + 1:]
    return dataclasses.replace(part, entries=entries, checks=None)


def _with_row0(part, k, row0):
    f = part.entries[k][1]
    return _with_entry(part, k, matrix=(tuple(row0),) + f.matrix[1:])


def tampered(part, kind, k=0, i=1):
    """part with one invariant broken at entry k (and symbol i), by kind."""
    w, f = part.entries[k]
    row0 = list(f.matrix[0])
    if kind == "negated":
        return _with_entry(part, k, weight=-w)
    if kind == "scaled":
        return _with_entry(part, k, weight=w * 2)
    if kind == "doubled":  # the irrational parts still cancel, the sum is 2
        entries = tuple((v * 2, g) for v, g in part.entries)
        return dataclasses.replace(part, entries=entries, checks=None)
    if kind == "far":  # the snap of symbol i moved 2 delta further away
        below = is_le(part.basis.rational(row0[i]), part.basis.unit(i))
        row0[i] += -2 * part.delta if below else 2 * part.delta
        return _with_row0(part, k, row0)
    if kind == "moves_one":
        row0[0] = Fraction(2)
        return _with_row0(part, k, row0)
    if kind == "not_rational":  # symbol i keeps a share of itself
        rows = [list(r) for r in f.matrix]
        rows[i][i] = Fraction(1, 2)
        return _with_entry(part, k, matrix=tuple(map(tuple, rows)))
    if kind == "swapped":  # the maps of entries k and k + 1 trade places
        (w1, f1), (w2, f2) = part.entries[k], part.entries[k + 1]
        entries = part.entries[:k] + ((w1, f2), (w2, f1)) + part.entries[k + 2:]
        return dataclasses.replace(part, entries=entries, checks=None)
    if kind == "shifted":  # weight moves from entry k + 1 to entry k along the
        # last product symbol, a row of the combination with no diagonal entry
        # once there are two symbols, so the sum and the diagonal stay right
        pb = part.weights_basis
        t = pb.unit(pb.dim - 1) * Fraction(1, 10**12)
        (w1, f1), (w2, f2) = part.entries[k], part.entries[k + 1]
        entries = part.entries[:k] + ((w1 + t, f1), (w2 - t, f2)) + part.entries[k + 2:]
        return dataclasses.replace(part, entries=entries, checks=None)
    raise ValueError(kind)


# the invariant each kind of tampering must break
BROKEN = {
    "negated": "weights_positive",
    "scaled": "weights_sum_to_one",
    "doubled": "weights_sum_to_one",
    "far": "displacement_within_delta",
    "moves_one": "maps_fix_one",
    "not_rational": "maps_fix_one",
    "swapped": "combination_is_identity",
    "shifted": "combination_is_identity",
}


@pytest.mark.parametrize("kind", sorted(BROKEN))
@pytest.mark.parametrize("exact", [True, False], ids=["certified", "declared"])
def test_verify_partition_sees_each_broken_invariant(kind, exact, sq2_sq3):
    basis = sq2_sq3 if exact else declared(sq2_sq3)
    part = partition_of_one(basis, Fraction(1, 1000))
    bad = tampered(part, kind)
    got = verify_partition(bad)
    assert got == reference_verify(bad)
    assert got[BROKEN[kind]] is False
    # the untouched partition still passes both
    assert verify_partition(part) == reference_verify(part) == part.checks
    assert all(part.checks.values())


def test_verify_partition_reads_no_recorded_checks(sq2_sq3):
    part = partition_of_one(sq2_sq3, Fraction(1, 10))
    forged = dict.fromkeys(part.checks, True)
    bad = dataclasses.replace(tampered(part, "swapped"), checks=forged)
    assert verify_partition(bad)["combination_is_identity"] is False
    # and keeps no verdict of its own: the repaired partition passes again
    assert all(verify_partition(dataclasses.replace(bad, entries=part.entries)).values())


def test_verify_partition_refuses_maps_over_another_basis(sq2, sq2_sq3):
    part = partition_of_one(sq2_sq3, Fraction(1, 10))
    w, f = part.entries[0]
    other = identity_map(sq2)
    for bad in (
        dataclasses.replace(part, entries=((w, other),) + part.entries[1:]),
        dataclasses.replace(part, entries=((sq2.rational(1), f),) + part.entries[1:]),
    ):
        with pytest.raises(BasisMismatch):
            reference_verify(bad)
        with pytest.raises(BasisMismatch):
            verify_partition(bad)


def test_verify_partition_refuses_a_foreign_map_behind_an_identical_column(sq2_sq3):
    # entry 1's columns repeat entry 0's, so no displacement of it is decided
    # again; the basis of its map is checked all the same
    part = partition_of_one(sq2_sq3, Fraction(1, 10))
    other = declared(sq2_sq3)
    matrix = part.entries[0][1].matrix
    w = part.entries[1][0]
    for f in (
        QLinearMap(other, other, matrix),
        QLinearMap(sq2_sq3, other, matrix),
        QLinearMap(other, sq2_sq3, matrix),
    ):
        bad = dataclasses.replace(part, entries=part.entries[:1] + ((w, f),) + part.entries[2:])
        with pytest.raises(BasisMismatch):
            reference_verify(bad)
        with pytest.raises(BasisMismatch):
            verify_partition(bad)


def test_verify_partition_decides_each_distinct_column_once(monkeypatch):
    # over sqrt2, sqrt3, sqrt5: 8 entries but 2 snaps per symbol, so 6
    # distinct (symbol, column) pairs of 2 signs each, and one sign per weight
    part = partition_of_one(_basis(SQRT2, SQRT3, SQRT5), Fraction(1, 1000))
    signs = []
    nums_sign = coefflattice._nums_sign

    def spy(basis, nums, den, *rest):
        signs.append(basis)
        return nums_sign(basis, nums, den, *rest)

    def refuse(*args):
        raise AssertionError("verify_partition applied a map")

    monkeypatch.setattr(coefflattice, "_nums_sign", spy)
    monkeypatch.setattr(QLinearMap, "apply", refuse)
    assert all(verify_partition(part).values())
    assert signs == [part.weights_basis] * 8 + [part.basis] * 12


def test_partition_level_search_refines_each_level_from_itself(sq2, monkeypatch):
    # each level's two tests refine from that level on, as the levels are
    # nested, and no factor sign is asked outside the verifier; the counts
    # cover the whole partition, verification included, where tests refined
    # from level 0 at every level would read 35, 78 and 158 intervals for the
    # same snaps, and factor signs refined from level 0 7, 13 and 21 more
    asked = []
    interval = NestedIntervalsEnclosure.interval

    def spy(self, k):
        asked.append(k)
        return interval(self, k)

    monkeypatch.setattr(NestedIntervalsEnclosure, "interval", spy)
    basis = declared(sq2, 40)
    for delta, reads, deepest in (
        (Fraction(1, 10), 26, 3),
        (Fraction(1, 1000), 49, 6),
        (Fraction(1, 10**6), 87, 10),
    ):
        asked.clear()
        part = partition_of_one(basis, delta)
        assert (len(asked), max(asked)) == (reads, deepest)
        snaps = [f.matrix for _, f in partition_of_one(sq2, delta).entries]
        assert [f.matrix for _, f in part.entries] == snaps


def test_partition_factor_signs_are_refused_as_weight_signs():
    # at a budget of 4 levels the snaps are found but not every factor's
    # sign; the verifier meets that sign as the sign of a weight over the
    # product basis, and names the weight
    basis = declared(_basis(SQRT2, SQRT3), 40)
    with refinement_budget(4), pytest.raises(RefinementExhausted) as info:
        partition_of_one(basis, Fraction(1, 10))
    assert str(info.value) == (
        "sign of 315 - 210*r1 - 180*r2 + 120*r1*r2 undecided after 4 refinement levels"
    )


# continued fractions from the pool acceptance criterion 6 draws from
POOL_CF = st.tuples(
    st.lists(st.integers(1, 6), min_size=1, max_size=2).map(tuple),
    st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
)


@given(
    cfs=st.lists(POOL_CF, min_size=1, max_size=3, unique=True),
    delta=st.sampled_from((Fraction(1, 10), Fraction(1, 1000))),
    exact=st.booleans(),
    kind=st.sampled_from((None,) + tuple(sorted(BROKEN))),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_verify_partition_matches_reference(cfs, delta, exact, kind, data):
    basis = _basis(*(ContinuedFractionEnclosure(h, c) for h, c in cfs))
    if not exact:
        basis = declared(basis)
    part = partition_of_one(basis, delta)
    if kind is not None:
        k = data.draw(st.integers(0, len(part.entries) - 2), label="entry")
        i = data.draw(st.integers(1, basis.dim - 1), label="symbol")
        part = tampered(part, kind, k, i)
    got = verify_partition(part)
    assert got == reference_verify(part)
    if kind is not None:
        assert got[BROKEN[kind]] is False
