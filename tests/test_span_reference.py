"""SpanElement against a reference that keeps one Fraction per coordinate.

The library stores integer numerators over one common denominator.  The
reference below is the plain representation: a tuple of Fractions, with
enclosures summed in Fractions and certified decisions made by walking every
refinement level.  Every operation must give the same value, the same
interval and the same decision, or fail the same way.  The bases declare
their symbols by the continued fraction levels of sqrt2 and sqrt3, so the
library refines as the reference does; over the continued fractions
themselves it decides exactly, which the last test compares.
``reference_render`` is the renderer that read those Fractions.
"""

import copy
import pickle
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import (
    BasisDescriptor,
    SpanElement,
    compare,
    decimal_str,
    floor_span,
    refinement_budget,
    render_exact,
)
from germkit.coefflattice import current_budget
from germkit.enclosures import ContinuedFractionEnclosure, PointEnclosure
from germkit.errors import FloorUndecidable, GermkitError, RefinementExhausted
from util import declared

ONE = PointEnclosure(Fraction(1))
CF_ONE_SYMBOL = BasisDescriptor(("1", "sqrt2"), (ONE, ContinuedFractionEnclosure((1,), (2,))))
CF_TWO_SYMBOLS = BasisDescriptor(
    ("1", "sqrt2", "sqrt3"),
    (ONE, ContinuedFractionEnclosure((1,), (2,)), ContinuedFractionEnclosure((1,), (1, 2))),
)
ONE_SYMBOL = declared(CF_ONE_SYMBOL)
TWO_SYMBOLS = declared(CF_TWO_SYMBOLS)


@dataclass(frozen=True)
class Ref:
    basis: BasisDescriptor
    coords: Tuple[Fraction, ...]

    def __add__(self, other):
        return Ref(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Ref(self.basis, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Ref(self.basis, tuple(-a for a in self.coords))

    def scale(self, s):
        return Ref(self.basis, tuple(a * s for a in self.coords))

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coords[1:])

    def enclosure(self, level):
        lo = hi = self.coords[0]
        for c, enc in zip(self.coords[1:], self.basis.enclosures[1:]):
            if c == 0:
                continue
            a, b = enc.interval(level)
            if c > 0:
                lo, hi = lo + c * a, hi + c * b
            else:
                lo, hi = lo + c * b, hi + c * a
        return (lo, hi)


def reference_render(x) -> str:
    """The renderer over ``coords`` Fractions that render_exact replaced, verbatim."""
    parts: List[str] = []
    for i, c in enumerate(x.coords):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif mag == 1:
            body = x.basis.symbols[i]
        else:
            body = f"{mag}*{x.basis.symbols[i]}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)


def ref_rational(basis: BasisDescriptor, q) -> Ref:
    return Ref(basis, (Fraction(q),) + (Fraction(0),) * (basis.dim - 1))


def ref_compare(x: Ref, y: Ref):
    d = x - y
    if d.is_rational:
        c = d.coords[0]
        return (c > 0) - (c < 0)
    budget = current_budget()
    for k in range(budget):
        lo, hi = d.enclosure(k)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise RefinementExhausted(
        f"sign of {reference_render(d)} undecided after {budget} refinement levels"
    )


def ref_floor(x: Ref):
    if x.is_rational:
        return floor(x.coords[0])
    budget = current_budget()
    for k in range(budget):
        lo, hi = x.enclosure(k)
        # an irrational value never attains an integer upper endpoint
        if floor(lo) == floor(hi) or (floor(hi) == floor(lo) + 1 and hi == floor(hi)):
            return floor(lo)
    raise FloorUndecidable(
        f"floor of {reference_render(x)} undecided after {budget} refinement levels"
    )


def ref_round(fr: Fraction, places: int) -> str:
    n = round(fr * 10 ** places)  # Fraction rounds half to even
    whole, frac = divmod(abs(n), 10 ** places)
    sign = "-" if n < 0 else ""
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


def ref_decimal(x: Ref, places: int):
    if x.is_rational:
        return ref_round(x.coords[0], places)
    for k in range(4 * current_budget()):
        lo, hi = x.enclosure(k)
        if ref_round(lo, places) == ref_round(hi, places):
            return ref_round(lo, places)
    raise RefinementExhausted(f"{places}-place rendering of {reference_render(x)} undecided")


def outcome(f, *args):
    try:
        return ("value", f(*args))
    except GermkitError as e:
        return (type(e), str(e))


def assert_lowest_terms(x: SpanElement):
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert all(isinstance(n, int) for n in x.nums)


coordinate = st.fractions(min_value=-40, max_value=40, max_denominator=60)
scalar = st.one_of(st.integers(min_value=-30, max_value=30), coordinate)
BASES = (ONE_SYMBOL, TWO_SYMBOLS)
CF_BASES = (CF_ONE_SYMBOL, CF_TWO_SYMBOLS)
# the index of a basis with one or two symbols and two coordinate vectors
# over it; an index, not the basis, as hypothesis would label it by repr
operands = st.sampled_from(range(len(BASES))).flatmap(
    lambda i: st.tuples(
        st.just(i),
        st.tuples(*[coordinate] * BASES[i].dim),
        st.tuples(*[coordinate] * BASES[i].dim),
    )
)


@given(operands, scalar, st.integers(min_value=0, max_value=12))
@settings(max_examples=150, deadline=None)
def test_span_matches_fraction_reference(ops, s, places):
    i, cx, cy = ops
    basis = BASES[i]
    x, y = SpanElement(basis, cx), basis.element(cy)
    rx, ry = Ref(basis, cx), Ref(basis, cy)
    assert_lowest_terms(x)
    assert x.coords == rx.coords and all(isinstance(c, Fraction) for c in x.coords)
    assert y.coords == ry.coords
    results = [
        (x + y, rx + ry),
        (x - y, rx - ry),
        (-x, -rx),
        (x * s, rx.scale(Fraction(s))),
        (s * x, rx.scale(Fraction(s))),
        (x * Fraction(s), rx.scale(Fraction(s))),
    ]
    if s != 0:
        results.append((x / s, rx.scale(1 / Fraction(s))))
    for got, want in results:
        assert_lowest_terms(got)
        assert got.coords == want.coords
        assert str(got) == render_exact(got) == reference_render(want)
        # the same value built another way is equal and hashes the same
        again = SpanElement(got.basis, want.coords)
        assert again == got and hash(again) == hash(got)
        assert (again.nums, again.den) == (got.nums, got.den)
    assert ((x + y) - y) == x and hash((x + y) - y) == hash(x)
    assert (x == y) == (rx == ry)
    assert (x != y) == (rx != ry)
    for level in (0, 1, 3, 7, 20):
        assert x.enclosure(level) == rx.enclosure(level)
        assert (x - y).enclosure(level) == (rx - ry).enclosure(level)
    q = ref_rational(basis, s)
    for budget in (1, 5, 64):
        with refinement_budget(budget):
            assert outcome(compare, x, y) == outcome(ref_compare, rx, ry)
            assert outcome(compare, x, Fraction(s)) == outcome(ref_compare, rx, q)
            assert outcome(compare, x, x) == ("value", 0)
            assert outcome(floor_span, x) == outcome(ref_floor, rx)
            assert outcome(floor_span, y - x) == outcome(ref_floor, ry - rx)
            assert outcome(decimal_str, x, places) == outcome(ref_decimal, rx, places)


# bases of one to four irrational symbols: sqrt2, sqrt3, sqrt5, sqrt7
RENDER_ENCLOSURES = (
    ContinuedFractionEnclosure((1,), (2,)),
    ContinuedFractionEnclosure((1,), (1, 2)),
    ContinuedFractionEnclosure((2,), (4,)),
    ContinuedFractionEnclosure((2,), (1, 1, 1, 4)),
)
RENDER_BASES = tuple(
    BasisDescriptor(
        ("1",) + tuple(f"sqrt{d}" for d in (2, 3, 5, 7)[:k]), (ONE,) + RENDER_ENCLOSURES[:k]
    )
    for k in range(1, 5)
)
# zero, +1 and -1 are printed specially; integers, small and large
# fractions of either sign are printed as numerator/denominator
render_coordinate = st.one_of(
    st.sampled_from((0, 1, -1)),
    st.integers(min_value=-10 ** 12, max_value=10 ** 12),
    st.fractions(min_value=-50, max_value=50, max_denominator=100),
    st.fractions(min_value=-10 ** 15, max_value=10 ** 15, max_denominator=10 ** 18),
)


@given(st.sampled_from(range(len(RENDER_BASES))).flatmap(
    lambda i: st.tuples(st.just(i), st.tuples(*[render_coordinate] * RENDER_BASES[i].dim))
))
@settings(max_examples=150, deadline=None)
def test_render_exact_matches_reference_renderer(case):
    i, coords = case
    basis = RENDER_BASES[i]
    x = basis.element(coords)
    want = reference_render(Ref(basis, tuple(Fraction(c) for c in coords)))
    assert render_exact(x) == str(x) == want


@given(st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_rational_elements_match_reference(q):
    for basis in (ONE_SYMBOL, TWO_SYMBOLS):
        x = basis.rational(q)
        assert_lowest_terms(x)
        assert x.is_rational and x.as_fraction() == q
        assert x == basis.rational(str(q)) == basis.element((q,) + (0,) * (basis.dim - 1))
        assert x.enclosure(0) == (q, q)
        assert floor_span(x) == ref_floor(ref_rational(basis, q))
        assert decimal_str(x, 5) == ref_round(q, 5)


def test_elements_are_immutable_and_copy_by_value():
    x = TWO_SYMBOLS.element((Fraction(1, 2), 3, Fraction(-2, 7)))
    for name in ("nums", "den", "basis", "coords"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    with pytest.raises(AttributeError):
        del x.den
    assert copy.deepcopy(x) == x and copy.copy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


def test_zero_has_one_form():
    zero = TWO_SYMBOLS.zero()
    assert (zero.nums, zero.den) == ((0, 0, 0), 1)
    x = TWO_SYMBOLS.element((Fraction(1, 6), Fraction(-3, 4), Fraction(5, 9)))
    assert (x - x) == zero and hash(x - x) == hash(zero)
    assert (x * 0).den == 1 and x * 0 == zero
    assert (x.nums, x.den) == ((6, -27, 20), 36)
    assert ((-x).nums, (-x).den) == ((-6, 27, -20), 36)
    assert ((x / Fraction(-1, 2)).nums, (x / Fraction(-1, 2)).den) == ((-6, 27, -20), 18)


@given(operands, scalar)
@settings(max_examples=60, deadline=None)
def test_continued_fraction_decisions_match_reference(ops, s):
    # the same spans over the continued fractions, a certified basis: the
    # library decides exactly at every budget, and agrees with the
    # reference wherever the reference decides
    i, cx, cy = ops
    cf = CF_BASES[i]
    x, y = cf.element(cx), cf.element(cy)
    rx, ry = Ref(cf, cx), Ref(cf, cy)
    for budget in (1, 64):
        with refinement_budget(budget):
            for got, want in (
                (outcome(compare, x, y), outcome(ref_compare, rx, ry)),
                (outcome(compare, x, Fraction(s)), outcome(ref_compare, rx, ref_rational(cf, s))),
                (outcome(floor_span, x), outcome(ref_floor, rx)),
                (outcome(decimal_str, x, 12), outcome(ref_decimal, rx, 12)),
            ):
                if want[0] == "value":
                    assert got == want
            assert outcome(compare, x, y)[0] == "value"
