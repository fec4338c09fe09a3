"""Seeded model generators shared by the scanners and the test suite.

Everything here is deterministic in the seed: the same seed yields the
same model list, which the report layer turns into byte-stable output.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from .coefflattice import BasisDescriptor, SpanElement, TRIVIAL_BASIS
from .discrepancy import Branch, SurfaceGermModel
from .dualgraph import WeightedDualGraph, hj_graph, is_negative_definite
from .enclosures import ContinuedFractionEnclosure, PointEnclosure


def sqrt2_basis() -> BasisDescriptor:
    return BasisDescriptor(
        ("1", "sqrt2"),
        (PointEnclosure(Fraction(1)), ContinuedFractionEnclosure((1,), (2,))),
    )


def coefficient_pool(basis: BasisDescriptor) -> List[SpanElement]:
    """The standard boundary coefficient set used by generated models."""
    pool = [
        basis.rational(0),
        basis.rational(Fraction(1, 3)),
        basis.rational(Fraction(1, 2)),
        basis.rational(Fraction(2, 3)),
        basis.rational(Fraction(5, 6)),
        basis.rational(1),
    ]
    if basis.dim > 1:
        half_sqrt2 = [Fraction(0)] * basis.dim
        half_sqrt2[1] = Fraction(1, 2)
        pool.append(basis.element(half_sqrt2))
    return pool


def _prufer_tree(rng: random.Random, size: int) -> List[Tuple[int, int]]:
    if size < 2:
        return []
    if size == 2:
        return [(0, 1)]
    seq = [rng.randrange(size) for _ in range(size - 2)]
    degree = [1] * size
    for s in seq:
        degree[s] += 1
    edges = []
    leaves = sorted(v for v in range(size) if degree[v] == 1)
    for s in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            # re-insert keeping the pool sorted so the walk stays deterministic
            lo = 0
            while lo < len(leaves) and leaves[lo] < s:
                lo += 1
            leaves.insert(lo, s)
    a, b = leaves
    edges.append((min(a, b), max(a, b)))
    return edges


def random_nd_tree(rng: random.Random, size: int) -> WeightedDualGraph:
    """Random tree with weights in [-5, -2], resampled until negative definite.

    Star shapes with shallow weights can fail the definiteness test; after a
    bounded number of draws the shape falls back to a chain, which always
    passes with weights at most -2.
    """
    for _ in range(200):
        edges = _prufer_tree(rng, size)
        vertices = tuple((v, rng.randint(-5, -2)) for v in range(size))
        g = WeightedDualGraph(vertices, tuple(edges))
        if is_negative_definite(g):
            return g
    vertices = tuple((v, rng.randint(-5, -2)) for v in range(size))
    edges = tuple((i, i + 1) for i in range(size - 1))
    return WeightedDualGraph(vertices, edges)


def decorate(
    rng: random.Random,
    g: WeightedDualGraph,
    basis: BasisDescriptor,
    pool: Sequence[SpanElement],
) -> SurfaceGermModel:
    """Attach random branches, loads and sometimes a threshold to a graph."""
    branches: List[Branch] = []
    loads: List[Tuple[int, SpanElement]] = []
    for v in g.ids():
        r = rng.random()
        count = 2 if r > 0.92 else (1 if r > 0.65 else 0)
        for _ in range(count):
            branches.append(Branch(v, rng.choice(list(pool))))
        if rng.random() < 0.25:
            # raw pool values overwhelm long chains, so damp by the order
            loads.append((v, rng.choice(list(pool)) / (2 * g.order)))
    eps: Optional[SpanElement] = None
    r = rng.random()
    if r > 0.85:
        eps = basis.rational(Fraction(1, 3))
    elif r > 0.7:
        eps = basis.rational(Fraction(1, 6))
    return SurfaceGermModel(g, tuple(branches), tuple(loads), eps, basis)


def corpus(seed: int, size: int = 200) -> List[SurfaceGermModel]:
    """Mixed deterministic corpus: decorated quotient chains and random trees.

    Models are distinct (duplicates are redrawn) so downstream reports keyed
    by digest cover exactly ``size`` instances.  Models are frozen and hash
    and compare by value, so the set of those drawn so far is the test.
    """
    rng = random.Random(seed)
    basis = sqrt2_basis()
    pool = coefficient_pool(basis)
    models: List[SurfaceGermModel] = []
    seen = set()
    want_chain = True
    while len(models) < size:
        if want_chain:
            n = rng.randrange(2, 31)
            qs = [q for q in range(1, n) if math.gcd(q, n) == 1]
            g = hj_graph(n, rng.choice(qs))
        else:
            g = random_nd_tree(rng, rng.randrange(1, 9))
        m = decorate(rng, g, basis, pool)
        if m in seen:
            continue
        seen.add(m)
        models.append(m)
        want_chain = not want_chain
    return models


def family_an(n_max: int) -> Iterator[SurfaceGermModel]:
    """Chains of (-2)-curves of every length up to n_max, bare, built one at a time."""
    for k in range(1, n_max + 1):
        yield SurfaceGermModel(hj_graph(k + 1, k), (), (), None, TRIVIAL_BASIS)


def family_cyclic_one_one(n_max: int) -> Iterator[SurfaceGermModel]:
    """Single vertices of weight -n for n = 2..n_max (the 1/n(1,1) points), one at a time."""
    for n in range(2, n_max + 1):
        yield SurfaceGermModel(hj_graph(n, 1), (), (), None, TRIVIAL_BASIS)


def hj_with_reduced_branch(n: int, q: int) -> SurfaceGermModel:
    """Quotient chain with one coefficient-1 branch through the first curve."""
    g = hj_graph(n, q)
    return SurfaceGermModel(
        g, (Branch(0, TRIVIAL_BASIS.rational(1)),), (), None, TRIVIAL_BASIS
    )
