"""Exact linear algebra against sympy as an independent oracle."""

import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from germkit import WeightedDualGraph, hj_graph, intersection_matrix
from germkit.corpus import random_nd_tree
from germkit.errors import NotNegativeDefinite
from germkit.linalg import (
    determinant,
    factor_form,
    is_negative_definite,
    pivot_columns,
    row_space_coordinates,
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
    got = solve_exact(g.factor, rhs)
    want = to_sympy(intersection_matrix(g)).solve(to_sympy(rhs))
    assert to_sympy(got) == want


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
    assert list(accumulate((d for _, d, _ in f.steps), mul)) == [-2, 3, -4]
    assert is_negative_definite(f)


def test_not_negative_definite_cases():
    assert not is_negative_definite(factor_dense([[-1, 2], [2, -1]]))
    assert not is_negative_definite(factor_dense([[0]]))
    assert is_negative_definite(factor_dense([]))
    with pytest.raises(NotNegativeDefinite):
        solve_exact(factor_dense([[-1, 2], [2, -1]]), [[1], [1]])
    with pytest.raises(NotNegativeDefinite):
        determinant(factor_dense([[0]]))


@given(frac_matrices)
@settings(max_examples=40, deadline=None)
def test_rref_is_idempotent_and_certifies_membership(m):
    reduced = rref([row[:] for row in m])
    assert rref([row[:] for row in reduced]) == reduced
    pivots = pivot_columns(reduced)
    assert len(pivots) == len(reduced)
    # every original row lies in the row space and reconstructs exactly
    for row in m:
        coords = row_space_coordinates(reduced, row[:])
        assert coords is not None
        rebuilt = [Fraction(0)] * len(row)
        for c, rrow in zip(coords, reduced):
            for j, v in enumerate(rrow):
                rebuilt[j] += c * v
        assert rebuilt == [Fraction(x) for x in row]


def test_row_space_coordinates_outside():
    reduced = rref([[Fraction(1), Fraction(0)]])
    assert row_space_coordinates(reduced, [Fraction(0), Fraction(1)]) is None


def test_solve_multiple_columns():
    f = factor_dense([[-2, 0], [0, -4]])
    got = solve_exact(f, [[1, 0], [0, 1]])
    assert got == [[Fraction(-1, 2), Fraction(0)], [Fraction(0), Fraction(-1, 4)]]
