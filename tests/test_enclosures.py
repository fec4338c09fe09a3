import random
from fractions import Fraction

import pytest

from germkit.enclosures import (
    ClosedForm,
    ContinuedFractionEnclosure,
    NestedIntervalsEnclosure,
    PointEnclosure,
    ProductEnclosure,
    positive_from_level,
    refinement_budget,
)
from germkit.errors import RefinementExhausted


def test_point_enclosure_is_degenerate_and_exact():
    e = PointEnclosure(Fraction(1))
    assert e.exact
    assert e.interval(0) == (1, 1)
    assert e.interval(17) == (1, 1)


def test_sqrt2_convergents():
    e = ContinuedFractionEnclosure((1,), (2,))
    assert e.interval(0) == (Fraction(1), Fraction(3, 2))
    assert e.interval(1) == (Fraction(7, 5), Fraction(3, 2))
    assert e.interval(2) == (Fraction(7, 5), Fraction(17, 12))
    # every level contains sqrt(2): lo^2 < 2 < hi^2, checked exactly
    for k in range(12):
        lo, hi = e.interval(k)
        assert lo * lo < 2 < hi * hi


def test_deep_level_on_a_fresh_enclosure():
    # convergents are built by iteration, so a deep first query cannot
    # exhaust the stack; (sqrt(13) - 1)/2 = [1; 3, 3, ...] is a root of x^2 + x - 3
    lo, hi = ContinuedFractionEnclosure((1,), (3,)).interval(3000)
    assert lo * lo + lo < 3 < hi * hi + hi


def test_cf_levels_nest_and_shrink():
    e = ContinuedFractionEnclosure((1,), (1, 2))  # sqrt(3)
    prev = e.interval(0)
    for k in range(1, 10):
        cur = e.interval(k)
        assert prev[0] <= cur[0] and cur[1] <= prev[1]
        assert cur[1] - cur[0] < prev[1] - prev[0]
        prev = cur


def test_finite_cf_runs_dry():
    # a finite continued fraction is a rational, which the symbol 1 spans;
    # it has no level past its last coefficient, so it is refused when built
    finite = "a finite continued fraction is rational, not a basis symbol; give a cycle"
    for args in (((0, 2),), ((1, 2, 2),), ((1, 2, 2), ())):
        with pytest.raises(ValueError) as info:
            ContinuedFractionEnclosure(*args)
        assert str(info.value) == finite


def test_cf_validation():
    with pytest.raises(ValueError):
        ContinuedFractionEnclosure((1,))
    with pytest.raises(ValueError):
        ContinuedFractionEnclosure((-1, 2))
    with pytest.raises(ValueError):
        ContinuedFractionEnclosure((1, 0, 2))
    with pytest.raises(ValueError):
        ContinuedFractionEnclosure((1,), (2, 0))


def test_nested_intervals_validation():
    NestedIntervalsEnclosure(((Fraction(1), Fraction(2)), (Fraction(5, 4), Fraction(3, 2))))
    with pytest.raises(ValueError, match="at least two levels, got 0"):
        NestedIntervalsEnclosure(())
    with pytest.raises(ValueError, match="at least two levels, got 1"):
        NestedIntervalsEnclosure(((Fraction(1), Fraction(2)),))
    with pytest.raises(ValueError, match="interval 0 is empty"):
        NestedIntervalsEnclosure(((Fraction(2), Fraction(1)), (Fraction(3, 2), Fraction(5, 4))))
    with pytest.raises(ValueError):
        # second interval escapes the first
        NestedIntervalsEnclosure(((Fraction(1), Fraction(2)), (Fraction(0), Fraction(3, 2))))
    with pytest.raises(ValueError):
        # nested but not strictly narrower
        NestedIntervalsEnclosure(((Fraction(1), Fraction(2)), (Fraction(1), Fraction(2))))


def test_nested_intervals_exhaust():
    e = NestedIntervalsEnclosure(((Fraction(1), Fraction(2)), (Fraction(5, 4), Fraction(3, 2))))
    assert e.interval(1) == (Fraction(5, 4), Fraction(3, 2))
    with pytest.raises(RefinementExhausted):
        e.interval(2)


def test_product_enclosure_brackets_the_product():
    sqrt2 = ContinuedFractionEnclosure((1,), (2,))
    sqrt3 = ContinuedFractionEnclosure((1,), (1, 2))
    prod = ProductEnclosure(sqrt2, sqrt3)
    for k in range(10):
        lo, hi = prod.interval(k)
        assert lo * lo < 6 < hi * hi


def test_cached_levels_leave_equality_alone():
    used = ContinuedFractionEnclosure((1,), (2,))
    used_prod = ProductEnclosure(used, ContinuedFractionEnclosure((1,), (1, 2)))
    for k in (0, 1, 2, 4, 8, 16, 32, 63):
        used.interval(k)
        used_prod.interval(k)
    assert used.interval(40) is used.interval(40)
    assert used_prod.interval(40) is used_prod.interval(40)
    fresh = ContinuedFractionEnclosure((1,), (2,))
    fresh_prod = ProductEnclosure(fresh, ContinuedFractionEnclosure((1,), (1, 2)))
    for a, b in ((used, fresh), (used_prod, fresh_prod)):
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_product_enclosure_rejects_nonpositive_factor():
    neg = NestedIntervalsEnclosure(((Fraction(-2), Fraction(2)), (Fraction(-1), Fraction(1, 2))))
    pos = ContinuedFractionEnclosure((1,), (2,))
    with pytest.raises(ValueError):
        ProductEnclosure(neg, pos).interval(0)


def test_positive_from_level():
    e = NestedIntervalsEnclosure(
        ((Fraction(-1), Fraction(2)), (Fraction(0), Fraction(3, 2)), (Fraction(1), Fraction(5, 4)))
    )
    assert positive_from_level(e) == 2
    sqrt2 = ContinuedFractionEnclosure((1,), (2,))
    assert positive_from_level(sqrt2) == 0
    # sqrt3 - 1 = [0; 1, 2, 1, 2, ...]: level 0 is [0, 1], level 1 is [1/2, 1]
    head_zero = ContinuedFractionEnclosure((0,), (1, 2))
    for budget in (2, 64):
        with refinement_budget(budget):
            assert positive_from_level(head_zero) == 1
    with refinement_budget(1), pytest.raises(RefinementExhausted, match="no level"):
        positive_from_level(head_zero)


def _sign(a, b, d):
    """Sign of a + b*sqrt(d), d > 0, from integer comparisons alone."""
    if (a >= 0 and b >= 0) or (a <= 0 and b <= 0):
        return (a > 0 or b > 0) - (a < 0 or b < 0)
    # opposite signs: a wins exactly when a^2 > b^2 * d
    return (1 if a > 0 else -1) * ((a * a > b * b * d) - (a * a < b * b * d))


def _inside(form, lo, hi):
    """lo <= form <= hi for a form (u + v*sqrt(D))/w, decided exactly."""
    terms = dict(form.terms)
    u = terms.pop((), 0)
    ((key, v),) = terms.items()
    (d,) = key
    w = form.den
    return (
        _sign(u * lo.denominator - lo.numerator * w, v * lo.denominator, d) >= 0
        and _sign(hi.numerator * w - u * hi.denominator, -v * hi.denominator, d) >= 0
    )


def test_closed_forms():
    assert ContinuedFractionEnclosure((1,), (2,)).closed_form == ClosedForm((((8,), 1),), 2)
    # [2; 1, 2, 1, 2, ...] = 1 + sqrt3, and sqrt12/2 = sqrt3
    assert ContinuedFractionEnclosure((), (2, 1)).closed_form == ClosedForm(
        (((), 2), ((12,), 1)), 2
    )
    # sqrt8 * sqrt12 / 4 = sqrt6
    product = ProductEnclosure(
        ContinuedFractionEnclosure((1,), (2,)), ContinuedFractionEnclosure((1,), (1, 2))
    )
    assert product.closed_form == ClosedForm((((8, 12), 1),), 4)
    # sqrt2 * sqrt2 = 2: a shared radicand multiplies out
    square = ProductEnclosure(
        ContinuedFractionEnclosure((1,), (2,)), ContinuedFractionEnclosure((1,), (2,))
    )
    assert square.closed_form == ClosedForm((((), 2),), 1)
    assert PointEnclosure(Fraction(3, 4)).closed_form == ClosedForm((((), 3),), 4)
    assert NestedIntervalsEnclosure(
        ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3, 2)))
    ).closed_form is None
    partial = ProductEnclosure(
        ContinuedFractionEnclosure((1,), (2,)),
        NestedIntervalsEnclosure(((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3, 2)))),
    )
    assert partial.closed_form is None


def test_pool_closed_forms_lie_in_levels_0_to_20():
    # periodic continued fractions drawn as in acceptance criterion 6
    rng = random.Random(6)
    for _ in range(200):
        head = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 3)))
        cycle = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 4)))
        e = ContinuedFractionEnclosure(head, cycle)
        form = e.closed_form
        assert form.den > 0
        for k in range(21):
            assert _inside(form, *e.interval(k)), (head, cycle, k)


def test_closed_form_leaves_equality_alone():
    e = ContinuedFractionEnclosure((1,), (2,))
    before = (hash(e), repr(e))
    assert e.closed_form is e.closed_form  # built once, then kept
    assert e == ContinuedFractionEnclosure((1,), (2,))
    assert (hash(e), repr(e)) == before
