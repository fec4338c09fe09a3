"""Exact linear algebra against sympy as an independent oracle.

The factor runs on integer pairs and the solve on integer rows,
numerators over one denominator; they are also compared with
``reference_factor_form`` and ``reference_solve``, the Fraction
elimination and solve they replaced.
"""

import math
import random
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import WeightedDualGraph, hj_graph, intersection_matrix
from germkit.corpus import random_nd_tree
from germkit.errors import NotNegativeDefinite
from germkit.linalg import (
    SymmetricFactor,
    determinant,
    factor_form,
    is_negative_definite,
    rref,
    solve_exact,
)

ints = st.integers(min_value=-6, max_value=6)
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)

int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)
)
frac_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(fractions, min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def to_sympy(m):
    return sympy.Matrix(
        [[sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in row] for row in m]
    )


def factor_dense(m):
    n = len(m)
    off = [(i, j, m[i][j]) for i in range(n) for j in range(i + 1, n) if m[i][j]]
    return factor_form([m[i][i] for i in range(n)], off)


def to_rows(m):
    """Rows of rationals as (numerators, denominator) in lowest terms."""
    out = []
    for row in m:
        fs = [Fraction(c) for c in row]
        den = lcm(*(f.denominator for f in fs))
        out.append((tuple(f.numerator * (den // f.denominator) for f in fs), den))
    return out


def from_rows(rows):
    return [[Fraction(n, den) for n in nums] for nums, den in rows]


def assert_lowest_terms(rows):
    for nums, den in rows:
        assert type(den) is int and den > 0
        assert all(type(n) is int for n in nums)
        assert gcd(den, *nums) == 1


def reference_factor_form(diagonal, off_diagonal):
    """The factor over Fraction that the pair factor replaced, verbatim."""
    diag = list(diagonal)
    coupled = [{} for _ in diag]
    for i, j, v in off_diagonal:
        coupled[i][j] = v
        coupled[j][i] = v
    leaves = [k for k, row in enumerate(coupled) if len(row) <= 1]
    steps = []
    while len(steps) < len(diag):
        if leaves:
            k = leaves.pop()
        else:
            k = min((len(row), k) for k, row in enumerate(coupled) if row is not None)[1]
        d = diag[k]
        if d >= 0:
            break
        row, coupled[k] = coupled[k], None
        col = tuple((i, Fraction(v, d)) for i, v in row.items())
        for i, li in col:
            near = coupled[i]
            del near[k]
            diag[i] -= li * row[i]
            for j, _ in col:
                if j != i:
                    near[j] = near.get(j, 0) - li * row[j]
            if len(near) == 1:
                leaves.append(i)
        steps.append((k, d, col))
    return SymmetricFactor(len(diag), tuple(steps))


def steps_as_fractions(f):
    """The steps of a pair factor with every pair read as a Fraction.

    Each pair must be ints in lowest terms with a positive denominator.
    """

    def frac(pair):
        p, q = pair
        assert type(p) is int and type(q) is int and q > 0 and gcd(p, q) == 1
        return Fraction(p, q)

    return tuple(
        (k, frac(d), tuple((i, frac(li)) for i, li in col)) for k, d, col in f.steps
    )


def reference_solve(f, rows):
    """The solve over Fraction that the integer solve replaced, verbatim.

    It reads the Fraction steps of ``reference_factor_form``.
    """
    if not is_negative_definite(f):
        raise NotNegativeDefinite("the form was not fully eliminated")
    x = [[Fraction(v) for v in row] for row in rows]
    for k, _, col in f.steps:
        xk = x[k]
        for i, li in col:
            x[i] = [a - li * b for a, b in zip(x[i], xk)]
    for k, d, _ in f.steps:
        x[k] = [a / d for a in x[k]]
    for k, _, col in reversed(f.steps):
        xk = x[k]
        for i, li in col:
            xk = [a - li * b for a, b in zip(xk, x[i])]
        x[k] = xk
    return x


def cyclic_graph(seed, size, extra):
    """Random tree plus ``extra`` chords; weight -deg - 1 or -deg - 2 keeps it definite."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, size)}
    for _ in range(extra):
        a, b = sorted(rng.sample(range(size), 2))
        edges.add((a, b))
    degree = [sum(v in e for e in edges) for v in range(size)]
    vertices = tuple((v, -degree[v] - rng.randint(1, 2)) for v in range(size))
    return WeightedDualGraph(vertices, tuple(edges))


# the graphs the engine factors: quotient chains, corpus trees, graphs with cycles
graphs = st.one_of(
    st.integers(min_value=2, max_value=60).flatmap(
        lambda n: st.integers(min_value=1, max_value=n - 1)
        .filter(lambda q: sympy.igcd(n, q) == 1)
        .map(lambda q: hj_graph(n, q))
    ),
    st.tuples(st.integers(0, 10**6), st.integers(1, 12)).map(
        lambda t: random_nd_tree(random.Random(t[0]), t[1])
    ),
    st.tuples(st.integers(0, 10**6), st.integers(3, 12), st.integers(1, 6)).map(
        lambda t: cyclic_graph(*t)
    ),
)


@given(graphs)
@settings(max_examples=80, deadline=None)
def test_determinant_matches_sympy(g):
    assert is_negative_definite(g.factor)
    assert determinant(g.factor) == to_sympy(intersection_matrix(g)).det()


def test_determinant_of_empty_matrix_is_one():
    assert determinant(factor_form([], [])) == 1


@given(graphs, st.integers(min_value=1, max_value=3), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_solve_matches_sympy(g, width, seed):
    rng = random.Random(seed)
    rhs = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(width)] for _ in g.ids()]
    got = solve_exact(g.factor, to_rows(rhs))
    want = to_sympy(intersection_matrix(g)).solve(to_sympy(rhs))
    assert to_sympy(from_rows(got)) == want


@given(int_matrices, st.integers(min_value=0, max_value=30))
@settings(max_examples=80, deadline=None)
def test_negative_definiteness_matches_sympy(m, shift):
    n = len(m)
    sym = [[m[i][j] + m[j][i] - (shift if i == j else 0) for j in range(n)] for i in range(n)]
    got = is_negative_definite(factor_dense(sym))
    want = (-to_sympy(sym)).is_positive_definite
    assert got == want


def test_leading_minors_known():
    # A_3 chain, eliminated leaf by leaf from one end; the running pivot
    # products are the leading minors in that order
    f = factor_dense([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert [k for k, _, _ in f.steps] == [2, 1, 0]
    assert [d for _, d, _ in f.steps] == [(-2, 1), (-3, 2), (-4, 3)]
    assert list(accumulate((Fraction(*d) for _, d, _ in f.steps), mul)) == [-2, 3, -4]
    assert [col for _, _, col in f.steps] == [((1, (-1, 2)),), ((0, (-2, 3)),), ()]
    assert is_negative_definite(f)
    assert determinant(f) == -4


def test_not_negative_definite_cases():
    assert not is_negative_definite(factor_dense([[-1, 2], [2, -1]]))
    assert not is_negative_definite(factor_dense([[0]]))
    assert is_negative_definite(factor_dense([]))
    with pytest.raises(NotNegativeDefinite):
        solve_exact(factor_dense([[-1, 2], [2, -1]]), [((1,), 1), ((1,), 1)])
    with pytest.raises(NotNegativeDefinite):
        determinant(factor_dense([[0]]))


@given(frac_matrices)
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent_and_certifies_membership(m):
    reduced = rref([row[:] for row in m])
    assert rref([row[:] for row in reduced]) == reduced
    want, pivots = sympy.Matrix(m).rref()
    assert reduced == [[Fraction(str(x)) for x in want.row(i)] for i in range(len(pivots))]
    # membership is a rank test: a row of the span keeps the rank, and a
    # unit vector keeps it exactly when it is a row of the reduced form
    rank = len(reduced)
    for row in m:
        assert len(rref(reduced + [row[:]])) == rank
    width = len(m[0])
    for j in range(width):
        unit = [Fraction(int(i == j)) for i in range(width)]
        inside = any(r == unit for r in reduced)
        assert (len(rref(reduced + [unit])) == rank) == inside


def test_row_space_coordinates_outside():
    # a vector outside the row space raises the rank of the reduced form
    reduced = rref([[Fraction(1), Fraction(0)]])
    assert len(rref(reduced + [[Fraction(0), Fraction(1)]])) == len(reduced) + 1
    assert len(rref(reduced + [[Fraction(3), Fraction(0)]])) == len(reduced)


def test_solve_multiple_columns():
    f = factor_dense([[-2, 0], [0, -4]])
    got = solve_exact(f, [((1, 0), 1), ((0, 1), 1)])
    assert from_rows(got) == [[Fraction(-1, 2), Fraction(0)], [Fraction(0), Fraction(-1, 4)]]
    assert got == [((-1, 0), 2), ((0, -1), 4)]


def _form(draw_seed, kind, size):
    """(diagonal, couplings) of a random negative definite form.

    A tree, a tree plus one edge, or a dense form coupling every pair, so
    that no leaf is left and the least-degree branch and fill-in run.
    Couplings range over -3..3 without 0; each diagonal entry lies below
    minus its row's absolute sum, which makes the form definite.
    """
    rng = random.Random(draw_seed)
    if kind == "dense":
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    else:
        pairs = [(rng.randrange(v), v) for v in range(1, size)]
        if kind == "cycle":
            present = set(pairs)
            missing = [(i, j) for i in range(size) for j in range(i + 1, size) if (i, j) not in present]
            if missing:
                pairs.append(rng.choice(missing))
    off = [(i, j, rng.choice((-3, -2, -1, 1, 2, 3))) for i, j in pairs]
    row_sum = [0] * size
    for i, j, v in off:
        row_sum[i] += abs(v)
        row_sum[j] += abs(v)
    return [-row_sum[i] - rng.randint(1, 3) for i in range(size)], off


forms = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(("tree", "cycle", "dense")),
    st.integers(1, 14),
)


@given(
    st.tuples(
        st.integers(0, 10**6),
        st.sampled_from(("tree", "cycle", "dense")),
        st.integers(0, 14),
    ),
    st.sampled_from((0, 0, 1, 3, 8)),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_pair_factor_matches_fraction_reference(form, shift):
    # random trees, one-cycle graphs and dense forms, of size 0 upwards; a
    # positive shift raises diagonal entries, so the form may stop being
    # definite at any step and elimination stops there
    seed, kind, size = form
    diag, off = _form(seed, kind, size)
    rng = random.Random(-1 - seed)
    diag = [w + rng.randint(0, shift) for w in diag]
    f = factor_form(diag, off)
    ref = reference_factor_form(diag, off)
    assert f.size == ref.size == size
    assert steps_as_fractions(f) == ref.steps  # order, pivots, multipliers, stop
    assert is_negative_definite(f) == (len(ref.steps) == size)
    if is_negative_definite(f):
        assert determinant(f) == math.prod(d for _, d, _ in ref.steps)
    else:
        with pytest.raises(NotNegativeDefinite):
            determinant(f)


@given(graphs)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pair_factor_of_graphs_matches_fraction_reference(g):
    # the forms the engine factors: quotient chains, corpus trees, cycles
    diag = [w for _, w in g.vertices]
    pos = {v: i for i, v in enumerate(g.ids())}
    off = [(pos[a], pos[b], 1) for a, b in g.edges]
    ref = reference_factor_form(diag, off)
    assert steps_as_fractions(g.factor) == ref.steps
    assert determinant(g.factor) == math.prod(d for _, d, _ in ref.steps)


@given(forms, st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_integer_solve_matches_fraction_reference(form, width):
    seed, kind, size = form
    if kind == "dense":
        size = max(size, 3)  # every position then has degree at least 2
    diag, off = _form(seed, kind, size)
    f = factor_form(diag, off)
    ref = reference_factor_form(diag, off)
    assert is_negative_definite(f)
    assert steps_as_fractions(f) == ref.steps
    if kind == "dense":
        # no leaf at the start: the first pivot is coupled to every other position
        assert len(f.steps[0][2]) == size - 1
    # mixed denominators, so rows reduce by different gcds; some entries zero
    rng = random.Random(10**7 + seed)
    rhs = [
        [Fraction(rng.randint(-30, 30) * rng.randint(0, 1), rng.randint(1, 40)) for _ in range(width)]
        for _ in range(size)
    ]
    got = solve_exact(f, to_rows(rhs))
    assert_lowest_terms(got)
    assert from_rows(got) == reference_solve(ref, rhs)


@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_integer_solve_refuses_what_the_reference_refuses(seed, size, width):
    # a positive diagonal entry stops the elimination short of the last position
    rng = random.Random(seed)
    diag, off = _form(seed, rng.choice(("tree", "cycle", "dense")), size)
    diag[rng.randrange(size)] = rng.randint(0, 5)
    f = factor_form(diag, off)
    assert not is_negative_definite(f)
    rows = [(tuple(rng.randint(-5, 5) for _ in range(width)), 1) for _ in range(size)]
    with pytest.raises(NotNegativeDefinite):
        reference_solve(reference_factor_form(diag, off), [list(nums) for nums, _ in rows])
    with pytest.raises(NotNegativeDefinite):
        solve_exact(f, rows)
