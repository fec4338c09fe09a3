"""Nested rational interval sources for basis reals.

Every irrational the engine touches comes with an enclosure: a source of
nested, strictly shrinking closed rational intervals.  Comparisons over a
declared basis refine these intervals; nothing in the engine ever invents
digits beyond what a source can certify, so a finite source that runs dry
raises RefinementExhausted instead of guessing.

Some sources also know their value in closed form: a periodic continued
fraction is a quadratic irrational (u + v*sqrt(D))/w (Lagrange), and a
product of such sources is a sum of rational multiples of square roots.
``closed_form`` gives that form, exactly and in integers; coefflattice
decides signs from it when every symbol of a basis has one.

The refinement budget, how many levels a refined decision may ask, is one
value per run: ``refinement_budget(levels)`` sets it for a block (the
command line wraps every subcommand in it).  Two walks read it, through
``current_budget()``: ``coefflattice._refine``, behind every refined
decision, and ``positive_from_level``, for the factors of a product basis.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .errors import RefinementExhausted

Interval = Tuple[Fraction, Fraction]
Radicands = Tuple[int, ...]

DEFAULT_BUDGET = 64

_budget: ContextVar[int] = ContextVar("refinement_budget", default=DEFAULT_BUDGET)


def current_budget() -> int:
    """Refinement levels a certified decision may use in the current context."""
    return _budget.get()


@contextmanager
def refinement_budget(levels: int) -> Iterator[None]:
    """Run the enclosed block with ``levels`` as the refinement budget."""
    token = _budget.set(levels)
    try:
        yield
    finally:
        _budget.reset(token)


class ClosedForm(NamedTuple):
    """The real number sum(c * sqrt(product of radicands)) / den, in integers.

    ``terms`` pairs each radical monomial, written as the sorted tuple of
    the radicands under its square root (() for the rational part), with a
    nonzero integer coefficient, in increasing order of monomial; ``den`` is
    positive and shares no factor with every coefficient.  ``times``
    expands a product with sqrt(D) * sqrt(D) = D.
    """

    terms: Tuple[Tuple[Radicands, int], ...]
    den: int

    def times(self, other: "ClosedForm") -> "ClosedForm":
        acc: Dict[Radicands, int] = {}
        for k1, c1 in self.terms:
            for k2, c2 in other.terms:
                c = c1 * c2
                for d in set(k1).intersection(k2):
                    c *= d
                key = tuple(sorted(set(k1).symmetric_difference(k2)))
                acc[key] = acc.get(key, 0) + c
        den = self.den * other.den
        g = gcd(den, *acc.values())
        return ClosedForm(tuple(sorted((k, c // g) for k, c in acc.items() if c)), den // g)


class Enclosure:
    """Interface: interval(k) is the k-th enclosure level, k = 0, 1, 2, ...

    Levels must be nested (interval(k+1) inside interval(k)) and strictly
    shrinking in width, except for exact points which are degenerate at
    every level.  A refined decision reads one level and holds because the
    value lies in every level; the nesting makes each deeper level decide
    whenever a shallower one does, so a larger budget never loses an answer.
    """

    def interval(self, k: int) -> Interval:
        raise NotImplementedError

    @property
    def exact(self) -> bool:
        return False

    @property
    def closed_form(self) -> Optional[ClosedForm]:
        """The enclosed value in closed form, or None when it is not known."""
        return None


@dataclass(frozen=True)
class PointEnclosure(Enclosure):
    """Degenerate enclosure of a known rational, used for the basis symbol 1."""

    value: Fraction

    def interval(self, k: int) -> Interval:
        return (self.value, self.value)

    @property
    def exact(self) -> bool:
        return True

    @property
    def closed_form(self) -> ClosedForm:
        num = self.value.numerator
        return ClosedForm((((), num),) if num else (), self.value.denominator)


def _cf_coefficient(head: tuple, cycle: tuple, i: int) -> int:
    if i < len(head):
        return head[i]
    return cycle[(i - len(head)) % len(cycle)]


def _moebius(coeffs: Tuple[int, ...]) -> Tuple[int, int, int, int]:
    """(p, p', q, q') with [a_1; ..., a_k, y] = (p*y + p')/(q*y + q')."""
    p, p1, q, q1 = 1, 0, 0, 1
    for a in coeffs:
        p, p1, q, q1 = a * p + p1, p, a * q + q1, q
    return p, p1, q, q1


def _periodic_closed_form(head: Tuple[int, ...], cycle: Tuple[int, ...]) -> ClosedForm:
    """[head; cycle, cycle, ...] as (u + v*sqrt(D))/w, in integers only.

    The tail y = [cycle; y] is a fixed point of the cycle's Moebius map, so
    q*y^2 + (q' - p)*y - p' = 0; p' and q are positive, so the roots have
    opposite signs and y = (s + sqrt(D))/t with s = p - q', D = s^2 + 4*q*p'
    and t = 2*q.  The head maps y to (alpha + beta*sqrt(D))/(gamma +
    delta*sqrt(D)), and multiplying by the conjugate of the denominator
    leaves a rational one.
    """
    p, p1, q, q1 = _moebius(cycle)
    s, disc, t = p - q1, (p - q1) ** 2 + 4 * q * p1, 2 * q
    hp, hp1, hq, hq1 = _moebius(head)
    alpha, beta = hp * s + hp1 * t, hp
    gamma, delta = hq * s + hq1 * t, hq
    u, v = alpha * gamma - beta * delta * disc, beta * gamma - alpha * delta
    w = gamma * gamma - delta * delta * disc
    g = gcd(u, v, w) if w > 0 else -gcd(u, v, w)
    u, v, w = u // g, v // g, w // g
    return ClosedForm(((((), u),) if u else ()) + (((disc,), v),), w)


@dataclass(frozen=True)
class ContinuedFractionEnclosure(Enclosure):
    """Enclosure from continued fraction coefficients.

    ``head`` is the initial coefficient list and ``cycle``, never empty,
    repeats forever after it (so sqrt(2) is head=(1,), cycle=(2,)).  Level k
    is the interval spanned by convergents k and k+1; consecutive convergents
    straddle the value, so the levels nest and the widths 1/(q_k q_{k+1})
    strictly decrease.  The value has a closed form (u + v*sqrt(D))/w.
    Convergents, levels and closed form are built on first use and kept
    outside the fields, so equality, hashing and repr ignore them.
    """

    head: Tuple[int, ...]
    cycle: Tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = list(self.head) + list(self.cycle)
        if len(coeffs) < 2:
            raise ValueError("need at least two continued fraction coefficients")
        if not all(isinstance(a, int) for a in coeffs):
            raise ValueError("continued fraction coefficients must be integers")
        if self.head and self.head[0] < 0:
            raise ValueError("leading coefficient must be nonnegative")
        rest = list(self.head[1:]) + list(self.cycle)
        if any(a < 1 for a in rest):
            raise ValueError("continued fraction coefficients past the first must be >= 1")
        if not self.cycle:
            raise ValueError(
                "a finite continued fraction is rational, not a basis symbol; give a cycle"
            )

    @cached_property
    def _convergents(self) -> List[Tuple[int, int]]:
        """(p_k, q_k) for k = -2, -1, 0, ..., as far as built so far."""
        return [(0, 1), (1, 0)]

    @cached_property
    def _levels(self) -> Dict[int, Interval]:
        return {}

    @cached_property
    def closed_form(self) -> ClosedForm:
        """(u + v*sqrt(D))/w, from the head and the cycle."""
        return _periodic_closed_form(self.head, self.cycle)

    def interval(self, k: int) -> Interval:
        hit = self._levels.get(k)
        if hit is not None:
            return hit
        if k < 0:
            raise ValueError("level must be nonnegative")
        conv = self._convergents
        while len(conv) < k + 4:
            a = _cf_coefficient(self.head, self.cycle, len(conv) - 2)
            (p2, q2), (p1, q1) = conv[-2:]
            conv.append((a * p1 + p2, a * q1 + q2))
        pa, qa = conv[k + 2]
        pb, qb = conv[k + 3]
        ca = Fraction(pa, qa)
        cb = Fraction(pb, qb)
        level = (ca, cb) if ca <= cb else (cb, ca)
        self._levels[k] = level
        return level


@dataclass(frozen=True)
class NestedIntervalsEnclosure(Enclosure):
    """Enclosure from an explicit finite list of intervals.

    The list is validated up front: it holds at least two levels, since a
    basis checks that level 1 shrinks level 0, and each interval must sit
    inside the previous one and be strictly narrower.  Queries past the end
    raise RefinementExhausted.
    """

    intervals: Tuple[Interval, ...]

    def __post_init__(self):
        if len(self.intervals) < 2:
            raise ValueError(
                f"an enclosure needs at least two levels, got {len(self.intervals)}"
            )
        prev = None
        for i, (lo, hi) in enumerate(self.intervals):
            if lo >= hi:
                raise ValueError(f"interval {i} is empty or degenerate")
            if prev is not None:
                plo, phi = prev
                if lo < plo or hi > phi:
                    raise ValueError(f"interval {i} is not nested in interval {i - 1}")
                if hi - lo >= phi - plo:
                    raise ValueError(f"interval {i} does not shrink")
            prev = (lo, hi)

    def interval(self, k: int) -> Interval:
        if k < 0:
            raise ValueError("level must be nonnegative")
        if k >= len(self.intervals):
            raise RefinementExhausted(
                f"interval list has {len(self.intervals)} levels, wanted {k}"
            )
        return self.intervals[k]


@dataclass(frozen=True)
class ProductEnclosure(Enclosure):
    """Interval product of two enclosures of positive reals.

    ``start`` offsets both factors so that every queried level has positive
    lower endpoints; with that, endpoint products give nested strictly
    shrinking intervals around the product.  Its closed form is the product
    of its factors' forms, when both have one.
    """

    left: Enclosure
    right: Enclosure
    start: int = 0

    @cached_property
    def _levels(self) -> Dict[int, Interval]:
        return {}

    @cached_property
    def closed_form(self) -> Optional[ClosedForm]:
        left, right = self.left.closed_form, self.right.closed_form
        return None if left is None or right is None else left.times(right)

    def interval(self, k: int) -> Interval:
        hit = self._levels.get(k)
        if hit is not None:
            return hit
        la, ha = self.left.interval(k + self.start)
        lb, hb = self.right.interval(k + self.start)
        if la <= 0 or lb <= 0:
            raise ValueError("product enclosure requires positive factors")
        level = (la * lb, ha * hb)
        self._levels[k] = level
        return level


def positive_from_level(e: Enclosure) -> int:
    """Smallest level within the budget whose lower endpoint is positive."""
    for k in range(current_budget()):
        try:
            lo, _ = e.interval(k)
        except RefinementExhausted:
            break
        if lo > 0:
            return k
    raise RefinementExhausted("no level with a positive lower endpoint")

