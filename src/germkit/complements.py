"""Bounded-complement coefficient arithmetic.

Checks the integrality and rounding inequalities that a complement of
index n imposes on boundary coefficients and nef loads, entirely in exact
arithmetic.  The germ-side classification threshold reuses the mld engine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .coefflattice import (
    BasisDescriptor,
    SpanElement,
    compare,
    floor_span,
    is_ge,
    is_gt,
    is_lt,
    LESS,
)
from .discrepancy import DiscrepancyProfile, SurfaceGermModel, mld_point
from .errors import ModelError


@dataclass(frozen=True)
class ComplementPart:
    """One summand of a decomposed boundary: its own b+ and optional loads."""

    bplus: Tuple[SpanElement, ...]
    loads: Optional[Tuple[SpanElement, ...]] = None


@dataclass(frozen=True)
class Decomposition:
    weights: Tuple[SpanElement, ...]
    parts: Tuple[ComplementPart, ...]


@dataclass(frozen=True)
class ComplementDatum:
    """Coefficient data for an index-n complement question.

    ``b`` are the boundary coefficients, ``bplus`` the candidate complement
    coefficients (indexed alike), ``loads`` the nef multiplicities.
    """

    n: int
    basis: BasisDescriptor
    b: Tuple[SpanElement, ...]
    bplus: Tuple[SpanElement, ...]
    loads: Tuple[SpanElement, ...] = ()
    decomposition: Optional[Decomposition] = None

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("index n must be a positive integer", "n")
        if len(self.b) != len(self.bplus):
            raise ModelError("b and bplus must have equal length", "Bplus")
        for label, seq in (("B", self.b), ("Bplus", self.bplus), ("m", self.loads)):
            for i, x in enumerate(seq):
                if x.basis != self.basis:
                    raise ModelError("coefficient over a foreign basis", f"{label}[{i}]")
                if is_lt(x, 0):
                    raise ModelError("coefficient must be >= 0", f"{label}[{i}]")
        if self.decomposition is not None:
            d = self.decomposition
            if len(d.weights) != len(d.parts):
                raise ModelError("one weight per part", "decomposition.weights")
            for k, part in enumerate(d.parts):
                if len(part.bplus) != len(self.bplus):
                    raise ModelError(
                        "part coefficient count must match Bplus",
                        f"decomposition.parts[{k}].Bplus",
                    )


def _n_times_is_integer(x: SpanElement, n: int) -> bool:
    if not x.is_rational:
        return False
    return (n * x.coords[0]).denominator == 1


@dataclass(frozen=True)
class CoefficientRow:
    index: int
    threshold: Fraction  # the rounding floor that n*bplus must reach, divided by n
    integral: bool
    meets_threshold: bool


@dataclass(frozen=True)
class CoefficientCheck:
    rows: Tuple[CoefficientRow, ...]
    loads_integral: Tuple[bool, ...]

    @property
    def ok(self) -> bool:
        return all(r.integral and r.meets_threshold for r in self.rows) and all(
            self.loads_integral
        )


def check_n_complement_coeffs(datum: ComplementDatum) -> CoefficientCheck:
    """Index-n coefficient test, one row per boundary index.

    Row i passes when n*bplus[i] is an integer at least
    n*floor(b[i]) + floor((n+1)*(b[i] - floor(b[i]))), and every load times n
    must be an integer as well.  Irrational bplus entries fail integrality
    by definition; irrational b entries are floored through their
    enclosures, which stays exact.
    """
    rows: List[CoefficientRow] = []
    for i, (b, bp) in enumerate(zip(datum.b, datum.bplus)):
        whole = floor_span(b)
        frac = b - b.basis.rational(whole)
        target = datum.n * whole + floor_span(frac * (datum.n + 1))
        integral = _n_times_is_integer(bp, datum.n)
        meets = compare(bp * datum.n, Fraction(target)) != LESS
        rows.append(CoefficientRow(i, Fraction(target, datum.n), integral, meets))
    loads = tuple(_n_times_is_integer(mu, datum.n) for mu in datum.loads)
    return CoefficientCheck(tuple(rows), loads)


@dataclass(frozen=True)
class StrongAutoReport:
    hypothesis_ok: bool
    coeffs_ok: Optional[bool]  # None when the hypothesis fails

    @property
    def ok(self) -> bool:
        return (not self.hypothesis_ok) or bool(self.coeffs_ok)


def check_strong_auto(datum: ComplementDatum) -> StrongAutoReport:
    """Monotone complements pass the coefficient test automatically.

    Hypothesis: every bplus[i] >= b[i], and n*bplus[i] and n*m[j] are all
    integers.  Under it the rounding inequality follows from integrality,
    so a failing coefficient check would expose an arithmetic bug; the
    report carries both facts so fuzzing can assert the implication.
    """
    hyp = all(_n_times_is_integer(bp, datum.n) for bp in datum.bplus) and all(
        _n_times_is_integer(mu, datum.n) for mu in datum.loads
    )
    if hyp:
        for b, bp in zip(datum.b, datum.bplus):
            if not is_ge(bp, b):
                hyp = False
                break
    if not hyp:
        return StrongAutoReport(False, None)
    return StrongAutoReport(True, check_n_complement_coeffs(datum).ok)


@dataclass(frozen=True)
class DecompositionReport:
    weights_positive: bool
    weights_sum_to_one: bool
    mixes_back: bool
    part_checks: Tuple[CoefficientCheck, ...]

    @property
    def ok(self) -> bool:
        return (
            self.weights_positive
            and self.weights_sum_to_one
            and self.mixes_back
            and all(p.ok for p in self.part_checks)
        )


def _scaled(weight: SpanElement, value: SpanElement) -> SpanElement:
    # span elements only multiply through a rational factor
    if weight.is_rational:
        return value * weight.as_fraction()
    if value.is_rational:
        return weight * value.as_fraction()
    raise ModelError(
        "decomposition products need a rational weight or a rational coefficient"
    )


def check_decomposable(datum: ComplementDatum) -> DecompositionReport:
    """Verify a convex decomposition of the complement boundary.

    Weights must be positive and sum to 1 exactly, the weighted parts must
    mix back to bplus coefficientwise, and each part must pass the index-n
    coefficient test on its own (with the part as both boundary and
    complement, inheriting the datum loads unless it carries its own).
    """
    if datum.decomposition is None:
        raise ModelError("datum has no decomposition", "decomposition")
    d = datum.decomposition
    pos = all(is_gt(w, 0) for w in d.weights)
    total = datum.basis.zero()
    for w in d.weights:
        total = total + w
    sums = total == datum.basis.rational(1)
    mixes = True
    for i in range(len(datum.bplus)):
        acc = datum.basis.zero()
        for w, part in zip(d.weights, d.parts):
            acc = acc + _scaled(w, part.bplus[i])
        if acc != datum.bplus[i]:
            mixes = False
    checks = []
    for part in d.parts:
        sub = ComplementDatum(
            datum.n,
            datum.basis,
            part.bplus,
            part.bplus,
            part.loads if part.loads is not None else datum.loads,
        )
        checks.append(check_n_complement_coeffs(sub))
    return DecompositionReport(pos, sums, mixes, tuple(checks))


def epsilon_tag(
    model: SurfaceGermModel, epsilon: SpanElement
) -> Tuple[str, DiscrepancyProfile]:
    """Classification of a germ against an explicit positivity threshold.

    Re-tags the model with the given epsilon and reads the classification
    off the mld profile; returns the tag together with the full profile.
    """
    tagged = dataclasses.replace(model, epsilon=epsilon)
    profile = mld_point(tagged)
    return profile.classification, profile
