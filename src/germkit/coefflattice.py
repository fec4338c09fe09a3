"""Exact arithmetic in a finite rational span of declared reals.

A value here is a rational vector over a basis (1, r_1, ..., r_n) where each
r_i comes with an interval enclosure.  Addition and rational scaling are
coordinate arithmetic.  Order queries, floors and decimals follow one rule:
rational values are decided in integers, values over a certified basis from
their closed forms, and values over a declared basis by refinement.

*Certified bases.*  When every symbol is known in closed form as a sum of
rational multiples of square roots (periodic continued fractions and their
products), at most MAX_PARTITION_SYMBOLS distinct radicands occur, no
product of a nonempty set of them is a perfect square, each symbol has its
own leading radical monomial and each form lies in its enclosure's level 0,
the basis is certified Q-linearly independent: the square roots of the
squarefree products of such radicands are independent over Q (A. S.
Besicovitch, J. London Math. Soc. 15, 1940).  The certificate is built from
integers, on the first irrational sign a basis needs.  Over a certified
basis the sign of a value is decided from its closed form by ``math.isqrt``
brackets of doubling precision, and its floor by ``math.isqrt`` on each
square root term plus a few such signs; neither reads the refinement budget.

*Declared bases.*  Otherwise (an ``intervals`` symbol, two names for one
real, a product basis whose radicands multiply to a square, more than
MAX_PARTITION_SYMBOLS radicands) the basis is only declared independent,
and enclosures are refined until the answer is certified, failing loudly
when the refinement budget runs out.

A vector is stored as integer numerators over one common positive
denominator, kept in lowest terms (the gcd of the denominator and all
numerators is 1), after FLINT's fmpq_poly.  An addition is then integer
arithmetic plus one gcd, where one Fraction per coordinate would normalize
each coordinate on its own; the lowest-terms form is unique, so equality
and hashing stay by value.  Rational inputs are ints, Fractions or strings;
a float is refused with TypeError, since its binary value is rarely the
number that was written.

The refinement budget is defined in ``enclosures``, with the levels it
counts.  ``_refine`` is the one walk over enclosure levels and reads it:
it asks the levels 0, 1, 2, ... in turn, up to the budget (four times it
for a decimal), stops at the first that decides and raises its caller's
refusal when none does.  Signs, floors and decimals over declared bases,
the level search of a partition of one and the threshold test of
``discrepancy.find_computing_path`` all go through it.
"""

from __future__ import annotations

import itertools
import re
import sys
from math import gcd, isqrt, lcm
from operator import add as _add, attrgetter, sub as _sub
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, cmp_to_key
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

from .enclosures import (
    DEFAULT_BUDGET,
    Enclosure,
    Interval,
    PointEnclosure,
    ProductEnclosure,
    current_budget,
    positive_from_level,
    refinement_budget,
)
from .errors import (
    BasisMismatch, DigitLimitExceeded, FloorUndecidable, HypothesesUnmet, InvariantViolated,
    LiteralTooLong, RefinementExhausted,
)
from .linalg import rref

T = TypeVar("T")

LESS = -1
EQUAL = 0
GREATER = 1

# Precision of the integer brackets of a certified basis's symbols, with
# which discrepancy._least filters the candidates it ranks.
BRACKET_BITS = 64


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _fraction(q) -> Fraction:
    """q as an exact Fraction; a float is refused, not read as its binary value.

    A decimal string is refused with LiteralTooLong, a ValueError, before it
    is built when its numerator or denominator could need more digits than
    ``sys.get_int_max_str_digits``: its length before the exponent plus the
    exponent bounds both.  int() keeps each side of a ratio to that limit
    itself.
    """
    if isinstance(q, Fraction):
        return q
    if isinstance(q, float):
        raise TypeError(f"{q!r} is a float; give an int, a Fraction or a string")
    if isinstance(q, str):
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        m = _EXPONENT.search(q)
        if "/" not in q and (m.start() + abs(int(m[1])) if m else len(q)) > limit:
            raise LiteralTooLong(f"rational literal {q!r} needs more than {limit} digits")
    return Fraction(q)


@dataclass(frozen=True)
class BasisDescriptor:
    """Basis (1, r_1, ..., r_n) with one enclosure per symbol.

    Symbol 0 is always the literal "1" with the exact point enclosure; the
    rest are positive reals, linearly independent over Q together with 1:
    certified when ``certified`` holds, declared otherwise.  Equality is by
    value, so parsing the same document twice gives interchangeable
    descriptors; the certificate, built on first use, is kept outside the
    fields and takes no part in equality, hashing or repr.
    """

    symbols: Tuple[str, ...]
    enclosures: Tuple[Enclosure, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("basis needs at least the symbol 1")
        if len(self.symbols) != len(self.enclosures):
            raise ValueError("one enclosure per symbol")
        if self.symbols[0] != "1":
            raise ValueError("first basis symbol must be 1")
        if not (self.enclosures[0].exact and self.enclosures[0].interval(0) == (1, 1)):
            raise ValueError("symbol 1 must carry the exact point enclosure at 1")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("basis symbols must be distinct")
        for name, enc in zip(self.symbols[1:], self.enclosures[1:]):
            if not name or name != name.strip():
                raise ValueError(f"bad symbol name {name!r}")
            if enc.exact:
                raise ValueError(f"symbol {name} declared irrational but enclosure is exact")
            lo0, hi0 = enc.interval(0)
            lo1, hi1 = enc.interval(1)
            # nested, so narrower exactly when an endpoint moved
            if not (lo0 <= lo1 and hi1 <= hi0 and (lo0 < lo1 or hi1 < hi0)):
                raise ValueError(f"enclosure for {name} is not nested and shrinking")

    @property
    def dim(self) -> int:
        return len(self.symbols)

    @cached_property
    def _certificate(self) -> Optional[_Certificate]:
        return _certify(self)

    @cached_property
    def _brackets(self) -> Optional[Tuple[Tuple[int, int], ...]]:
        """Integers lo <= 2^BRACKET_BITS * r_j <= hi for each symbol r_j.

        None over a declared basis.  Over a certified one, den * r_j is a
        sum of terms c * sqrt(roots[m]) (see _Certificate), which times
        2^BRACKET_BITS lies between the integers s and s + k of ``_bracket``,
        so 2^BRACKET_BITS * r_j lies between floor(s / den) and
        ceil((s + k) / den).
        """
        cert = self._certificate
        if cert is None:
            return None
        brackets = (_bracket(form, cert.roots, BRACKET_BITS) for form in cert.forms)
        return tuple((s // cert.den, -(-(s + k) // cert.den)) for s, k in brackets)

    @property
    def certified(self) -> bool:
        """Whether the closed forms of the symbols prove them independent."""
        return self._certificate is not None

    def rational(self, q) -> "SpanElement":
        if isinstance(q, int):
            num, den = q, 1
        else:
            q = _fraction(q)
            num, den = q.numerator, q.denominator
        return _span(self, (num,) + (0,) * (self.dim - 1), den)

    def unit(self, i: int) -> "SpanElement":
        nums = [0] * self.dim
        nums[i] = 1
        return _span(self, tuple(nums), 1)

    def element(self, coords: Sequence) -> "SpanElement":
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return SpanElement(self, coords)

    def zero(self) -> "SpanElement":
        return self.rational(0)


TRIVIAL_BASIS = BasisDescriptor(("1",), (PointEnclosure(Fraction(1)),))


class SpanElement:
    """A rational coordinate vector over a BasisDescriptor.

    Stored as integer numerators ``nums`` over one positive integer ``den``,
    in lowest terms: gcd(den, *nums) == 1, so zero is (0, ..., 0) over 1.
    Every value has exactly one such form, which is why equality and
    hashing compare the stored integers.  ``SpanElement(basis, coords)``
    accepts rational coordinates (a float is refused with TypeError) and
    ``coords`` gives them back as Fractions, built on each read.  Instances
    are immutable.
    """

    __slots__ = ("basis", "nums", "den")

    def __init__(self, basis: BasisDescriptor, coords: Sequence):
        fs = [c if isinstance(c, Fraction) else _fraction(c) for c in coords]
        if len(fs) != basis.dim:
            raise ValueError("coordinate count does not match basis")
        # every coordinate is in lowest terms, so over the lcm of their
        # denominators the vector is too
        den = lcm(*(f.denominator for f in fs))
        _set_basis(self, basis)
        _set_nums(self, tuple(f.numerator * (den // f.denominator) for f in fs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError(f"SpanElement is immutable; cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"SpanElement is immutable; cannot delete {name}")

    def __reduce__(self):
        return (_span, (self.basis, self.nums, self.den))

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpanElement):
            return NotImplemented
        return (
            self.den == other.den
            and self.nums == other.nums
            and (self.basis is other.basis or self.basis == other.basis)
        )

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def _check(self, other: "SpanElement"):
        if self.basis != other.basis:
            raise BasisMismatch("operands declared over different bases")

    def __add__(self, other: "SpanElement") -> "SpanElement":
        if other.basis is not self.basis:
            self._check(other)
        a, b = self.den, other.den
        if a == b:
            nums = tuple(map(_add, self.nums, other.nums))
        else:
            nums = tuple(x * b + y * a for x, y in zip(self.nums, other.nums))
            a *= b
        return _reduced(self.basis, nums, a)

    def __sub__(self, other: "SpanElement") -> "SpanElement":
        if other.basis is not self.basis:
            self._check(other)
        a, b = self.den, other.den
        if a == b:
            nums = tuple(map(_sub, self.nums, other.nums))
        else:
            nums = tuple(x * b - y * a for x, y in zip(self.nums, other.nums))
            a *= b
        return _reduced(self.basis, nums, a)

    def __neg__(self) -> "SpanElement":
        return _span(self.basis, tuple(-n for n in self.nums), self.den)

    def __mul__(self, scalar) -> "SpanElement":
        if isinstance(scalar, int):
            return _reduced(self.basis, tuple(n * scalar for n in self.nums), self.den)
        if not isinstance(scalar, Fraction):
            return NotImplemented
        p = scalar.numerator
        return _reduced(self.basis, tuple(n * p for n in self.nums), self.den * scalar.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SpanElement":
        s = scalar if isinstance(scalar, Fraction) else _fraction(scalar)
        p, q = s.numerator, s.denominator
        if p == 0:
            raise ZeroDivisionError(f"{self} / 0")
        if p < 0:
            p, q = -p, -q
        return _reduced(self.basis, tuple(n * q for n in self.nums), self.den * p)

    @property
    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} has irrational coordinates")
        return Fraction(self.nums[0], self.den)

    def enclosure(self, level: int) -> Interval:
        """Exact interval bound at the given refinement level.

        Each endpoint is summed as an integer numerator over a running
        integer denominator, and the two Fractions are built once at the
        end.  Symbols with zero coefficient are never queried, so unused
        finite sources cannot exhaust a computation that does not involve
        them.
        """
        nums = self.nums
        lo = hi = nums[0]
        lo_d = hi_d = 1
        for c, enc in zip(nums[1:], self.basis.enclosures[1:]):
            if not c:
                continue
            a, b = enc.interval(level)
            if c < 0:
                a, b = b, a
            q = a.denominator
            lo = lo * q + c * a.numerator * lo_d
            lo_d *= q
            q = b.denominator
            hi = hi * q + c * b.numerator * hi_d
            hi_d *= q
        return (Fraction(lo, lo_d * self.den), Fraction(hi, hi_d * self.den))

    def __str__(self) -> str:
        return render_exact(self)

    def __repr__(self) -> str:
        return f"<SpanElement {render_exact(self)}>"


# the slot descriptors write past the immutability guard in __setattr__
_set_basis = SpanElement.__dict__["basis"].__set__
_set_nums = SpanElement.__dict__["nums"].__set__
_set_den = SpanElement.__dict__["den"].__set__
_new = object.__new__


def _span(basis: BasisDescriptor, nums: Tuple[int, ...], den: int) -> SpanElement:
    """Element with the given numerators and denominator, already in lowest terms."""
    x = _new(SpanElement)
    _set_basis(x, basis)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _reduced(basis: BasisDescriptor, nums: Tuple[int, ...], den: int) -> SpanElement:
    """Element nums/den brought to lowest terms; den must be positive."""
    g = gcd(den, *nums)
    if g != 1:
        nums = tuple(n // g for n in nums)
        den //= g
    return _span(basis, nums, den)


def _over_lcm(xs: Sequence[SpanElement]) -> Tuple[List[Tuple[int, ...]], int]:
    """(rows, den): the values xs as integer numerator rows over the lcm of their denominators."""
    if any(x.basis is not xs[0].basis and x.basis != xs[0].basis for x in xs):
        raise BasisMismatch("operands declared over different bases")
    den = lcm(*(x.den for x in xs))
    return [x.nums if x.den == den else tuple(n * (den // x.den) for n in x.nums) for x in xs], den


def ratio_str(n: int, den: int) -> str:
    """n/den in lowest terms as str(Fraction(n, den)) prints it, den > 0."""
    g = gcd(n, den)
    n, den = n // g, den // g
    try:
        return str(n) if den == 1 else f"{n}/{den}"
    except ValueError:
        raise DigitLimitExceeded() from None


def render_exact(x: SpanElement) -> str:
    """Human-readable exact form, e.g. "1 - 1/4*sqrt2".

    Each nonzero coordinate n/den is printed by ratio_str.
    """
    parts: List[str] = []
    den = x.den
    symbols = x.basis.symbols
    for i, n in enumerate(x.nums):
        if not n:
            continue
        coeff = ratio_str(-n if n < 0 else n, den)
        if i == 0:
            body = coeff
        elif coeff == "1":
            body = symbols[i]
        else:
            body = f"{coeff}*{symbols[i]}"
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if n > 0 else f"- {body}")
    if not parts:
        return "0"
    return " ".join(parts)


class _Certificate(NamedTuple):
    """Closed forms of a certified basis as integer polynomials in square roots.

    Bit i of a monomial index m stands for sqrt(radicands[i]), and roots[m]
    is the product of the radicands in m, so sqrt(roots[a]) * sqrt(roots[b])
    = roots[a & b] * sqrt(roots[a ^ b]).  forms[j] lists the (monomial,
    coefficient) pairs with a nonzero coefficient in the closed form of
    symbol j, over the positive common denominator den.
    """

    roots: Tuple[int, ...]
    forms: Tuple[Tuple[Tuple[int, int], ...], ...]
    den: int

    def poly(self, nums: Sequence[int]) -> List[int]:
        """Monomial coefficients of den times the element with numerators nums."""
        out = [0] * len(self.roots)
        for n, form in zip(nums, self.forms):
            if n:
                for m, c in form:
                    out[m] += n * c
        return out


def _certify(basis: BasisDescriptor) -> Optional[_Certificate]:
    """The certificate of a basis, or None when the basis is only declared.

    Every symbol needs a closed form, at most MAX_PARTITION_SYMBOLS distinct
    radicands may occur (roots holds the product of each subset of them),
    and no product of a nonempty set of them may be a perfect square
    (``isqrt``, no factoring).  The square roots of the products of such
    radicands are then independent over Q (Besicovitch), so forms whose
    leading monomials differ are independent too; the leading monomials are
    compared, which for continued fractions says each has its own radicand.
    Last, each form must lie in its enclosure's level 0, one exact check
    that the form belongs to the enclosure.
    """
    forms = [enc.closed_form for enc in basis.enclosures]
    if None in forms:
        return None
    # bit i of a monomial index is the i-th radicand met
    bit: Dict[int, int] = {}
    masked = []
    for f in forms:
        terms = []
        for key, c in f.terms:
            m = 0
            for d in key:
                b = bit.get(d)
                if b is None:
                    b = bit[d] = 1 << len(bit)
                m |= b
            terms.append((m, c))
        masked.append(terms)
    leading = [max(m for m, _ in terms) for terms in masked]
    if len(bit) > MAX_PARTITION_SYMBOLS or len(set(leading)) != len(leading):
        return None
    roots = [1]
    for d in bit:
        roots += [r * d for r in roots]
    if any(isqrt(r) ** 2 == r for r in roots[1:]):
        return None
    den = lcm(*(f.den for f in forms))
    vectors: List[List[int]] = []
    for f, terms in zip(forms, masked):
        v = [0] * len(roots)
        scale = den // f.den
        for m, c in terms:
            v[m] = c * scale
        vectors.append(v)
    for v, enc in zip(vectors[1:], basis.enclosures[1:]):
        if not _inside(v, den, enc.interval(0), roots):
            return None
    sparse = tuple(tuple((m, c) for m, c in enumerate(v) if c) for v in vectors)
    return _Certificate(tuple(roots), sparse, den)


def _inside(v: List[int], den: int, interval: Interval, roots: Sequence[int]) -> bool:
    """Whether lo <= v/den <= hi for the closed form v over den."""
    lo, hi = interval
    above = [c * lo.denominator for c in v]
    above[0] -= lo.numerator * den
    below = [-c * hi.denominator for c in v]
    below[0] += hi.numerator * den
    return _poly_sign(above, roots) >= 0 and _poly_sign(below, roots) >= 0


def _bracket(terms: Iterable[Tuple[int, int]], roots: Sequence[int], bits: int) -> Tuple[int, int]:
    """(s, k) with s <= 2^bits * alpha <= s + k, alpha = the sum of c * sqrt(roots[m]).

    ``terms`` holds the pairs (m, c), roots[0] = 1, and k counts those with
    m > 0 and c != 0.  Times 2^bits the rational term is an integer, and
    each irrational one lies strictly between its ``isqrt`` bracket t and
    t + 1, since no roots[m] past the first is a perfect square; so both
    bounds are strict when k > 0, and s = 2^bits * alpha when k = 0.
    """
    s = k = 0
    for m, c in terms:
        if not m:
            s += c << bits
        elif c:
            t = isqrt(c * c * roots[m] << 2 * bits)
            s += t if c > 0 else -t - 1
            k += 1
    return s, k


def _poly_sign(p: Sequence[int], roots: Sequence[int]) -> int:
    """Exact sign of alpha = the sum of p[m] * sqrt(roots[m]), roots[0] = 1.

    One irrational term: a + b*sqrt(d) has the sign of b unless a has the
    other sign, and then the sign of a exactly when a^2 > b^2 * d.  k >= 2
    terms: 2^P * alpha lies strictly between the s and s + k that
    ``_bracket`` gives at precision P, and P = 64, 128, ... doubles until
    s >= 0 or s + k <= 0 decides.  A nonzero alpha is an algebraic
    integer of degree at most len(roots), its conjugates are at most
    H = sum of |p[m]| * sqrt(roots[m]) and its norm is a nonzero integer, so
    |alpha| >= H^-(len(roots) - 1) (the separation bound of Burnikel,
    Fleischer, Mehlhorn and Schirra, Algorithmica 27, 2000).  A bracket
    still open once 2^P times that bound exceeds k means alpha = 0, which
    contradicts the certificate and raises InvariantViolated.
    """
    a = p[0]
    irrational = [m for m in range(1, len(p)) if p[m]]
    if len(irrational) == 1:
        b = p[irrational[0]]
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sa == sb or not sa:
            return sb
        t = a * a - b * b * roots[irrational[0]]
        return sa * ((t > 0) - (t < 0))
    if not irrational:
        return (a > 0) - (a < 0)
    precision, bound = 64, None
    while True:
        s, k = _bracket(enumerate(p), roots, precision)
        if s >= 0:
            return GREATER
        if s + k <= 0:
            return LESS
        if bound is None:
            # 2^bound > k * H^(len(roots) - 1)
            height = abs(a) + sum(abs(p[m]) * (isqrt(roots[m]) + 1) for m in irrational)
            bound = (len(roots) - 1) * height.bit_length() + k.bit_length()
        if precision >= bound:
            raise InvariantViolated(
                f"sign of a certified closed form open at {precision} bits, past its "
                f"separation bound of {bound}: the form is 0"
            )
        precision *= 2


def _exact_floor(x: SpanElement, scale: int = 1) -> Optional[int]:
    """floor(scale * x) for irrational x over a certified basis, else None.

    Write scale * x * R = sum of p[m] * sqrt(roots[m]) with R > 0; the sum
    lies strictly between the s and s + k that ``_bracket`` gives at
    precision 0.  The floor of the sum over R is then one of a few
    integers, and a bisection on exact signs picks it.
    """
    cert = x.basis._certificate
    if cert is None:
        return None
    p = [scale * c for c in cert.poly(x.nums)]
    roots, r = cert.roots, cert.den * x.den
    s, k = _bracket(enumerate(p), roots, 0)
    if not k:
        raise InvariantViolated(
            f"{render_exact(x)} has irrational coordinates but a rational closed form"
        )
    # lo * r < scale * x * r < hi * r
    lo, hi = s // r, (s + k - 1) // r + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _poly_sign([p[0] - mid * r] + p[1:], roots) > 0:
            lo = mid
        else:
            hi = mid
    return lo


def _coerce(basis: BasisDescriptor, v) -> SpanElement:
    if isinstance(v, SpanElement):
        return v
    return basis.rational(v)


def _refine(
    x: SpanElement, decide: Callable[[Fraction, Fraction], Optional[T]],
    refusal: Callable[[int], Exception], scale: int = 1, start: int = 0,
) -> T:
    """First decision of ``decide(lo, hi)`` on the enclosures of x.

    Asks the levels start, start + 1, ..., scale * budget - 1 in turn, each
    once, and stops at the first where ``decide`` returns something other
    than None; when none does, raises ``refusal(budget)``.  This is the only
    walk over enclosure levels in the library.
    """
    budget = current_budget()
    for k in range(start, scale * budget):
        got = decide(*x.enclosure(k))
        if got is not None:
            return got
    raise refusal(budget)


def _sign(lo: Fraction, hi: Fraction) -> Optional[int]:
    if lo > 0:
        return GREATER
    if hi < 0:
        return LESS
    return None


def _nums_sign(basis: BasisDescriptor, nums: Tuple[int, ...], den: int, start: int = 0) -> int:
    """Certified sign (LESS, EQUAL or GREATER) of the element nums/den, den > 0.

    A rational vector is decided by the sign of its integer.  Over a
    certified basis any other vector is too, from its closed form by
    ``_poly_sign``, with no budget; a zero there would contradict the
    certificate and raises InvariantViolated.  Over a declared basis
    enclosures of the element are refined level by level from ``start``
    until its sign is certified; if level budget - 1 leaves it open,
    RefinementExhausted is raised rather than guessing.  Under the declared
    independence a nonzero element always has a sign, so exhaustion signals
    either a too-small budget or a hidden relation.
    """
    if not any(nums[1:]):
        c = nums[0]
        return (c > 0) - (c < 0)
    cert = basis._certificate
    if cert is not None:
        got = _poly_sign(cert.poly(nums), cert.roots)
        if not got:
            raise InvariantViolated(
                f"{render_exact(_reduced(basis, nums, den))} is nonzero over a certified "
                "basis but its closed form is 0"
            )
        return got
    x = _reduced(basis, nums, den)
    return _refine(x, _sign, lambda levels: RefinementExhausted(
        f"sign of {render_exact(x)} undecided after {levels} refinement levels"
    ), start=start)


def compare(x: SpanElement, y) -> int:
    """Certified three-way comparison: LESS, EQUAL or GREATER.

    The sign of x - y: exact when the difference is rational or the basis
    certified, else refined up to the current budget (RefinementExhausted
    when it stays open).
    """
    y = _coerce(x.basis, y)
    d = x - y
    return _nums_sign(d.basis, d.nums, d.den)


def is_le(x: SpanElement, y) -> bool:
    return compare(x, y) != GREATER


def is_lt(x: SpanElement, y) -> bool:
    return compare(x, y) == LESS


def is_ge(x: SpanElement, y) -> bool:
    return compare(x, y) != LESS


def is_gt(x: SpanElement, y) -> bool:
    return compare(x, y) == GREATER


# sort key for the certified order: sorted, min and max ask compare for
# each pair they need and nothing else.  compare is looked up per call, so
# a wrapped module compare sees every pair.
span_key = cmp_to_key(lambda x, y: compare(x, y))


def span_min(items: Iterable[SpanElement]) -> SpanElement:
    """Least item under compare, the first of equals; ValueError when empty."""
    best = min(items, key=span_key, default=None)
    if best is None:
        raise ValueError("span_min of empty sequence")
    return best


def _floor_of(lo: Fraction, hi: Fraction) -> Optional[int]:
    flo = lo.numerator // lo.denominator
    fhi = hi.numerator // hi.denominator
    if flo == fhi:
        return flo
    # the value itself is irrational, so an integer upper endpoint is
    # never attained and does not block the answer
    if fhi == flo + 1 and hi == fhi:
        return flo
    return None


def floor_span(x: SpanElement) -> int:
    """Exact floor.  Rational inputs never consult enclosures.

    Over a certified basis the floor comes from the closed form, by
    ``_exact_floor``, with no budget.  Over a declared basis enclosures are
    refined level by level until both endpoints share a floor, or the upper
    endpoint is the next integer (never attained by an irrational value).
    """
    if x.is_rational:
        return x.nums[0] // x.den
    got = _exact_floor(x)
    if got is not None:
        return got
    return _refine(x, _floor_of, lambda levels: FloorUndecidable(
        f"floor of {render_exact(x)} undecided after {levels} refinement levels"
    ))


def _fixed_point(scaled: int, places: int) -> str:
    """The integer scaled / 10^places written with exactly ``places`` decimals."""
    whole, frac = divmod(abs(scaled), 10 ** places)
    sign = "-" if scaled < 0 else ""
    try:
        return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"
    except ValueError:
        raise DigitLimitExceeded() from None


def _round_decimal(fr: Fraction, places: int) -> str:
    p, q = abs(fr.numerator), fr.denominator
    scaled, rem = divmod(p * 10 ** places, q)
    if 2 * rem > q or (2 * rem == q and scaled % 2 == 1):
        scaled += 1
    return _fixed_point(-scaled if fr < 0 else scaled, places)


def decimal_str(x: SpanElement, places: int = 12) -> str:
    """Correctly rounded fixed-point rendering (round half to even).

    With ``places`` 0 it is an integer with no decimal point; a negative
    ``places`` is refused with ValueError.  Over a certified basis an
    irrational value is rounded exactly with no budget: it is never a tie,
    so its rounding is (floor(2 * 10^places * x) + 1) // 2, a floor taken by
    ``_exact_floor``.  Over a declared basis enclosures are refined level by
    level until both endpoints round to the same string, which pins the
    digits of the value itself.  Rendering gets a deeper internal allowance
    (4 x the budget) than comparisons because agreement of rounded strings
    can need a few extra levels near a rounding boundary.
    """
    if places < 0:
        raise ValueError(f"decimal places must be nonnegative, got {places}")
    if x.is_rational:
        return _round_decimal(Fraction(x.nums[0], x.den), places)
    got = _exact_floor(x, 2 * 10 ** places)
    if got is not None:
        return _fixed_point((got + 1) // 2, places)

    def agreed(lo: Fraction, hi: Fraction) -> Optional[str]:
        slo = _round_decimal(lo, places)
        return slo if slo == _round_decimal(hi, places) else None

    return _refine(x, agreed, lambda _: RefinementExhausted(
        f"{places}-place rendering of {render_exact(x)} undecided"
    ), scale=4)


@dataclass(frozen=True)
class QLinearMap:
    """Q-linear map between spans, as an exact rational matrix.

    Column j holds the target coordinates of the image of source symbol j,
    so applying the map is matrix times coordinate vector.
    """

    source: BasisDescriptor
    target: BasisDescriptor
    matrix: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.target.dim:
            raise ValueError("matrix row count must equal target dimension")
        for row in self.matrix:
            if len(row) != self.source.dim:
                raise ValueError("matrix column count must equal source dimension")

    def apply(self, x: SpanElement) -> SpanElement:
        if x.basis != self.source:
            raise BasisMismatch("element not over the map's source basis")
        # the matrix over the lcm of its denominators, times x.nums over x.den
        den = lcm(*(c.denominator for row in self.matrix for c in row))
        nums = tuple(
            sum(c.numerator * (den // c.denominator) * n for c, n in zip(row, x.nums) if c)
            for row in self.matrix
        )
        return _reduced(self.target, nums, den * x.den)

    @property
    def fixes_one(self) -> bool:
        rows = self.matrix
        return rows[0][0] == 1 and all(row[0] == 0 for row in rows[1:])

    @property
    def is_rational_valued(self) -> bool:
        return not any(map(any, self.matrix[1:]))


def _monomial_subsets(n: int) -> List[Tuple[int, ...]]:
    # subsets of irrational symbol indices 1..n, ordered by size then lex
    out: List[Tuple[int, ...]] = [()]
    for size in range(1, n + 1):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


def product_basis(basis: BasisDescriptor) -> BasisDescriptor:
    """Span closed under squarefree products of the declared irrationals.

    Symbols are the monomials r_T = prod of r_i over T for every subset T,
    with interval products as enclosures.  For zero or one irrational symbol
    this is the original basis.  Requires every declared irrational to be
    enclosed away from zero, which the positive-real convention guarantees.
    """
    n = basis.dim - 1
    if n <= 1:
        return basis
    symbols: List[str] = []
    encs: List[Enclosure] = []
    for subset in _monomial_subsets(n):
        if not subset:
            symbols.append("1")
            encs.append(PointEnclosure(Fraction(1)))
        elif len(subset) == 1:
            symbols.append(basis.symbols[subset[0]])
            encs.append(basis.enclosures[subset[0]])
        else:
            symbols.append("*".join(basis.symbols[i] for i in subset))
            enc: Enclosure = basis.enclosures[subset[0]]
            for i in subset[1:]:
                right = basis.enclosures[i]
                start = max(positive_from_level(enc), positive_from_level(right))
                enc = ProductEnclosure(enc, right, start)
            encs.append(enc)
    return BasisDescriptor(tuple(symbols), tuple(encs))


def span_product(factors: Sequence[SpanElement], pb: BasisDescriptor) -> SpanElement:
    """Product of span elements, each affine in one distinct irrational symbol.

    Multiplying out never squares a symbol under that restriction, so the
    result has exact coordinates over the product basis.
    """
    if not factors:
        return pb.rational(1)
    basis = factors[0].basis
    syms: List[int] = []  # the irrational symbol of each factor, 0 for none
    for f in factors:
        if f.basis != basis:
            raise BasisMismatch("factors over different bases")
        nz = [i for i in range(1, basis.dim) if f.nums[i]]
        if len(nz) > 1:
            raise ValueError("factor involves more than one irrational symbol")
        if nz and nz[0] in syms:
            raise ValueError(f"two factors involve the symbol {basis.symbols[nz[0]]}")
        syms.append(nz[0] if nz else 0)
    # the expansion so far, keyed by the bit mask of the symbols multiplied
    # in, over the product of the denominators seen
    terms: Dict[int, int] = {0: 1}
    den = 1
    for f, sym in zip(factors, syms):
        c0 = f.nums[0]
        grown: Dict[int, int] = {}
        for mask, c in terms.items():
            if c0:
                grown[mask] = c * c0
            if sym:
                grown[mask | 1 << sym] = c * f.nums[sym]
        terms = grown
        den *= f.den
    nums = [0] * pb.dim
    for i, subset in enumerate(_monomial_subsets(basis.dim - 1)):
        nums[i] = terms.get(sum(1 << j for j in subset), 0)
    return _reduced(pb, tuple(nums), den)


@dataclass(frozen=True)
class PartitionOfOne:
    """Positive weights and rational-valued snap maps that average to the identity.

    Each map sends 1 to 1 and every declared irrational to a nearby rational
    (within delta), and the weighted combination reproduces every basis
    symbol exactly.  Weights live over the product extension of the basis
    because they are products of per-symbol interpolation factors.
    ``checks`` holds the verify_partition flags that partition_of_one
    certified; it takes no part in comparison.
    """

    basis: BasisDescriptor
    weights_basis: BasisDescriptor
    entries: Tuple[Tuple[SpanElement, QLinearMap], ...]
    delta: Fraction
    checks: Optional[Dict[str, bool]] = field(default=None, compare=False, repr=False)


# Most irrational symbols a partition of one takes, and most radicands a
# certificate admits.  A partition's 2^n entries each carry a weight over
# the 2^n product symbols, and a certificate holds the 2^r products of r
# radicands and checks each for a square.  Over the square roots of the
# first n primes at delta 1/1000, 5 symbols take 6-7 ms, 6 take 19-22 ms
# and 7 (128 entries) 70-77 ms and 21 MB of peak process RSS (Python
# 3.11, 2 shared cores).
MAX_PARTITION_SYMBOLS = 7


def partition_of_one(basis: BasisDescriptor, delta) -> PartitionOfOne:
    """Build the 2^n-entry rational snap family around the declared irrationals.

    For each irrational r_i the enclosure is refined to the first interval
    [q1, q2] whose endpoints are both certified within delta of r_i; the two
    snap values for that symbol are q1 and q2, weighted by the exact linear
    interpolation factors (q2 - r_i)/(q2 - q1) and (r_i - q1)/(q2 - q1).
    Entry sigma takes the product of its chosen factors as weight and snaps
    every symbol to its chosen endpoint.  The construction is verified
    before returning: weights positive and summing to one, every map fixing
    1, and the weighted combination equal to the identity matrix exactly;
    the flags are kept as ``checks`` on the result.  The snap values are
    the endpoints of the *first* level within delta, found by ``_refine``.
    A basis of more than MAX_PARTITION_SYMBOLS irrationals is refused with
    HypothesesUnmet before any work starts.

    No factor's sign is decided here, since the weights are positive
    exactly when every factor is: a product of positive factors is
    positive, and a factor u <= 0 of symbol i times a positive factor of
    every other symbol (one of its two is, as they sum to 1) is a weight
    that is not.  ``verify_partition`` decides the weights' signs.
    """
    delta = _fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    n = basis.dim - 1
    if n > MAX_PARTITION_SYMBOLS:
        raise HypothesesUnmet(
            f"partition of one over {n} irrational symbols exceeds the cap of "
            f"{MAX_PARTITION_SYMBOLS}"
        )
    pb = product_basis(basis)
    snaps: List[Tuple[Fraction, Fraction]] = []
    lowers: List[SpanElement] = []
    uppers: List[SpanElement] = []
    for i in range(1, basis.dim):
        r = basis.unit(i)
        levels = itertools.count()  # _refine asks the levels 0, 1, ... in turn

        def within(lo: Fraction, hi: Fraction) -> Optional[Interval]:
            # r - lo <= delta and hi - r <= delta, refined from this level k
            # on: levels are nested, so a level below k that decides, k does
            k = next(levels)
            a, b = r - basis.rational(lo + delta), basis.rational(hi - delta) - r
            if all(_nums_sign(basis, x.nums, x.den, k) != GREATER for x in (a, b)):
                return lo, hi
            return None

        q1, q2 = _refine(r, within, lambda levels: RefinementExhausted(
            f"no enclosure of {basis.symbols[i]} within {delta} in {levels} levels"
        ))
        w = q2 - q1
        snaps.append((q1, q2))
        lowers.append((basis.rational(q2) - r) / w)
        uppers.append((r - basis.rational(q1)) / w)
    entries: List[Tuple[SpanElement, QLinearMap]] = []
    for sigma in itertools.product((0, 1), repeat=n):
        factors = [uppers[i] if s else lowers[i] for i, s in enumerate(sigma)]
        weight = span_product(factors, pb)
        row0 = [Fraction(1)] + [
            snaps[i][1] if s else snaps[i][0] for i, s in enumerate(sigma)
        ]
        matrix = tuple(
            tuple(row0) if r == 0 else tuple(Fraction(0) for _ in range(basis.dim))
            for r in range(basis.dim)
        )
        entries.append((weight, QLinearMap(basis, basis, matrix)))
    part = PartitionOfOne(basis, pb, tuple(entries), delta)
    checks = verify_partition(part)
    bad = [k for k, ok in checks.items() if not ok]
    if bad:
        raise RefinementExhausted(f"partition verification failed: {', '.join(bad)}")
    return replace(part, checks=checks)


def verify_partition(part: PartitionOfOne) -> Dict[str, bool]:
    """Exact certification of every partition invariant.

    Returns a flag per invariant so callers can report which one broke;
    partition_of_one treats any False as a construction failure.  Nothing
    is taken from the construction: every flag is decided again, on integer
    rows over an lcm of denominators, once each weight is checked to lie over
    the weights basis and each map to send the basis to itself (BasisMismatch
    otherwise).  The image of symbol i under a map is column i of its matrix,
    so each distinct (symbol, column) pair is decided once: column - e_i
    against delta, then against -delta.
    """
    basis, pb, entries = part.basis, part.weights_basis, part.entries
    if any(w.basis != pb or f.source != basis or f.target != basis for w, f in entries):
        raise BasisMismatch("partition entry not over the partition's bases")
    # weights over wden, images over vden: total sums the weights, and
    # combined[i][j], the sum of weight i times image j, is to be scale * [i == j]
    weights, wden = _over_lcm([w for w, _ in entries])
    images = [f.matrix[0] for _, f in entries]
    vden = lcm(*(v.denominator for row in images for v in row))
    total = [0] * pb.dim
    combined = [[0] * basis.dim for _ in range(pb.dim)]
    for w, row in zip(weights, images):
        b = [v.numerator * (vden // v.denominator) for v in row]
        for i, n in enumerate(w):
            if n:
                total[i] += n
                combined[i] = [c + n * bj for c, bj in zip(combined[i], b)]
    scale = wden * vden
    checks: Dict[str, bool] = {}
    checks["weights_sum_to_one"] = total == [wden] + [0] * (pb.dim - 1)
    checks["weights_positive"] = all(_nums_sign(pb, w.nums, w.den) == GREATER for w, _ in entries)
    checks["maps_fix_one"] = all(f.fixes_one and f.is_rational_valued for _, f in entries)
    checks["combination_is_identity"] = all(
        c == (scale if i == j else 0)
        for i, out in enumerate(combined) for j, c in enumerate(out)
    )
    # d = column - e_i, delta = p/q: sign(d - delta) <= 0, then sign(d + delta)
    # >= 0; all columns are decided, so one whose sign stays open is refused
    p, q = part.delta.numerator, part.delta.denominator
    ratio = attrgetter("numerator", "denominator")
    disp = True
    for i, column in dict.fromkeys(
        (i, tuple(map(ratio, col)))
        for _, f in entries for i, col in enumerate(zip(*f.matrix)) if i
    ):
        den = lcm(*(b for _, b in column)) * q
        d = [a * (den // b) for a, b in column]
        d[i] -= den
        shift = p * (den // q)
        minus, plus = (d[0] - shift, *d[1:]), (d[0] + shift, *d[1:])
        disp &= _nums_sign(basis, minus, den) != GREATER and _nums_sign(basis, plus, den) != LESS
    checks["displacement_within_delta"] = disp
    return checks


def in_span(generators: Sequence[SpanElement], x: SpanElement) -> bool:
    """Whether x lies in Q-span(1, generators): adding it keeps the rank."""
    rows = [x.basis.rational(1).nums] + [g.nums for g in generators]
    return len(rref(rows + [x.nums])) == len(rref(rows))
