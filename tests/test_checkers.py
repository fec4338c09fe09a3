"""The lemma checkers against their span-arithmetic references.

Each checker decides its inequalities on integer rows over one denominator;
tests/util.py keeps the same checks written with is_gt, is_lt and span_min.
Both run on real profiles and on profiles whose log discrepancies or mld
were moved, so that every kind of violation is reached without patching
the library.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from math import gcd

from germkit import (
    BasisDescriptor, BasisMismatch, Branch, HypothesesUnmet, ModelError, TRIVIAL_BASIS, mld_point,
)
from germkit.corpus import coefficient_pool, corpus, decorate, random_nd_tree, sqrt2_basis
from germkit.discrepancy import (
    check_convexity,
    check_empty_graph_value,
    check_smooth_threshold,
    check_vertex_window,
)
from germkit.dualgraph import hj_graph
from germkit.enclosures import ContinuedFractionEnclosure, PointEnclosure

from util import (
    EMPTY,
    declared,
    germ,
    moved,
    reference_convexity,
    reference_empty_graph_value,
    reference_smooth_threshold,
    reference_vertex_window,
)

PAIRS = (
    (check_convexity, reference_convexity),
    (check_smooth_threshold, reference_smooth_threshold),
    (check_vertex_window, reference_vertex_window),
    (check_empty_graph_value, reference_empty_graph_value),
)

MIXED = "operands declared over different bases"

KINDS = {
    "midpoint", "weight-bound", "gap", "smooth-threshold", "vertex-window",
    "smooth-center-value",
}


def outcome(check, model, profile):
    """The violations a checker finds, or the text of its refusal."""
    try:
        return check(model, profile)
    except (BasisMismatch, HypothesesUnmet) as e:
        return f"{type(e).__name__}: {e}"


def rational_models(rng, count):
    """Decorated chains and trees over the rational basis, some with an epsilon."""
    pool = coefficient_pool(TRIVIAL_BASIS)
    out = []
    for k in range(count):
        if k % 2:
            g = random_nd_tree(rng, rng.randrange(1, 8))
        else:
            n = rng.randrange(2, 20)
            g = hj_graph(n, rng.choice([q for q in range(1, n) if gcd(q, n) == 1]))
        out.append(decorate(rng, g, TRIVIAL_BASIS, pool))
    return out


def empty_graph_models(basis):
    """Free branches at the smooth centre, of total at most and above 1."""
    pool = coefficient_pool(basis)
    return [
        germ(EMPTY, [Branch(None, x) for x in xs], basis=basis)
        for xs in ([pool[1]], [pool[2], pool[1]], [pool[-1]], [pool[3], pool[4]], [])
    ]


def eps_lc(model):
    """The model with a small epsilon, so that its lc profile is eps-lc."""
    return dataclasses.replace(model, epsilon=model.basis.rational(Fraction(1, 100)))


def moves(basis):
    """Shifts and replacement values for a's and the mld, over ``basis``."""
    one = basis.rational(1)
    shifts = [basis.rational(q) for q in (Fraction(1, 7), Fraction(-1, 9), Fraction(1, 40))]
    values = [basis.rational(q) for q in (Fraction(99, 100), Fraction(101, 100), Fraction(7, 10))]
    if basis.dim > 1:
        r = basis.unit(1)
        shifts += [r / 20, r / 7 - basis.rational(Fraction(1, 5))]
        values += [one - r / 100, one + r / 300, r / 2]
    return shifts, values


def perturbed(profile, rng, basis):
    """Copies of an lc profile with one a, or the mld, shifted or replaced."""
    shifts, values = moves(basis)
    out = []
    a = list(profile.a)
    for _ in range(3):
        if a and rng.random() < 0.6:
            i = rng.randrange(len(a))
            vid, x = a[i]
            y = x + rng.choice(shifts) if rng.random() < 0.5 else rng.choice(values)
            out.append(dataclasses.replace(profile, a=tuple(a[:i] + [(vid, y)] + a[i + 1:])))
        else:
            mld = profile.mld
            y = mld + rng.choice(shifts) if rng.random() < 0.5 else rng.choice(values)
            out.append(dataclasses.replace(profile, mld=y))
    return out


def run_differential(models, rng):
    """Compare every checker with its reference; return the kinds that fired."""
    fired = Counter()
    for m in models:
        profile = mld_point(m)
        cases = [profile] + (perturbed(profile, rng, m.basis) if profile.is_lc else [])
        for p in cases:
            for check, reference in PAIRS:
                got = outcome(check, m, p)
                assert got == outcome(reference, m, p), (check.__name__, m, p)
                if not isinstance(got, str):
                    fired.update(v.check for v in got)
    return fired


def test_checkers_match_references_over_the_rational_basis():
    rng = random.Random(7)
    models = rational_models(rng, 120)
    models += [eps_lc(m) for m in models] + empty_graph_models(TRIVIAL_BASIS)
    assert {m.basis.dim for m in models} == {1}
    fired = run_differential(models, rng)
    assert KINDS <= set(fired), fired


def test_checkers_match_references_over_certified_sqrt2():
    rng = random.Random(11)
    models = corpus(3, 150)
    models += [eps_lc(m) for m in models] + empty_graph_models(sqrt2_basis())
    assert models[0].basis.certified
    fired = run_differential(models, rng)
    assert KINDS <= set(fired), fired


def test_checkers_match_references_over_a_declared_basis():
    # an intervals copy of sqrt2 has no closed form, so every irrational
    # sign is certified by refinement
    rng = random.Random(13)
    basis = declared(sqrt2_basis())
    models = [moved(m, basis) for m in corpus(5, 70)]
    models += [eps_lc(m) for m in models] + empty_graph_models(basis)
    assert not basis.certified
    fired = run_differential(models, rng)
    assert KINDS <= set(fired), fired


def test_unmoved_profiles_are_clean():
    # the lemmas hold on real profiles: only the moved ones violate them
    models = corpus(0, 60) + [eps_lc(m) for m in corpus(1, 30)]
    models += empty_graph_models(sqrt2_basis())
    for m in models:
        profile = mld_point(m)
        for check, _ in PAIRS:
            got = outcome(check, m, profile)
            assert isinstance(got, str) or got == (), (check.__name__, m)


def test_checkers_match_references_on_a_profile_over_another_basis():
    # a model over sqrt2 handed the profile of its copy over 1/sqrt50: each
    # checker signs the profile's values over their own basis, as span
    # arithmetic did, and refuses with BasisMismatch where it combines them
    # with the model's epsilon or positive inputs.  check_convexity puts
    # the epsilon over one denominator with the a's before any sign, so on
    # an eps-lc profile it refuses even when no gap is asked
    # 1/sqrt50 = [0; 7, 14, 14, ...] lies far from sqrt2, so that signing
    # its rows over sqrt2 would often give another verdict
    other = BasisDescriptor(
        ("1", "r"), (PointEnclosure(Fraction(1)), ContinuedFractionEnclosure((0, 7), (14,)))
    )
    models = corpus(3, 150)
    models += [eps_lc(m) for m in models]
    kinds = Counter()
    for m in models:
        try:
            profile = mld_point(moved(m, other))
        except ModelError:
            continue
        for check, reference in PAIRS:
            got, want = outcome(check, m, profile), outcome(reference, m, profile)
            if check is check_convexity and profile.classification == "eps-lc":
                want = want if isinstance(want, str) else f"BasisMismatch: {MIXED}"
            assert got == want, (check.__name__, m)
            kinds[got.split(":")[0] if isinstance(got, str) else "verdict"] += 1
    assert kinds["BasisMismatch"] and kinds["verdict"], kinds
