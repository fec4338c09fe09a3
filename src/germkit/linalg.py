"""Exact linear algebra over the integers and rationals.

One elimination serves the intersection form: ``factor_form`` takes a
sparse symmetric form and computes P M P^T = L D L^T on integers, each
entry a (numerator, denominator) pair in lowest terms, leaves first,
stopping at the first pivot that is not negative.  The definiteness
verdict, the determinant and every solve are read from that factor.  A
solve runs on integers too: each right-hand side row is a tuple of
numerators over one positive denominator in lowest terms, the form
``SpanElement`` stores, and stays so through every step.  ``rref``, over
Fraction, serves the span-closure check of ``scan --coeff`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import InvariantViolated, NotNegativeDefinite

# a rational p/q as (p, q) with q > 0 and gcd(p, q) == 1
Pair = Tuple[int, int]


@dataclass(frozen=True)
class SymmetricFactor:
    """P M P^T = L D L^T of a symmetric form of the given size.

    Each step is (position, pivot, column): the column lists the (position,
    multiplier) pairs of L below that pivot, i.e. the positions eliminated
    later that were coupled to it.  Every pivot and multiplier is a
    ``Pair``.  Elimination stops before the first pivot that is not
    negative, so the form is negative definite exactly when every position
    was eliminated.
    """

    size: int
    steps: Tuple[Tuple[int, Pair, Tuple[Tuple[int, Pair], ...]], ...]


def _minus_product(a: Pair, p: int, q: int, b: Pair) -> Pair:
    """a - (p/q) * b in lowest terms; every denominator is positive."""
    an, ad = a
    bn, bd = b
    den = q * bd
    num = an * den - p * bn * ad
    den *= ad
    g = gcd(num, den)
    return num // g, den // g


def factor_form(
    diagonal: Sequence[int], off_diagonal: Iterable[Tuple[int, int, int]]
) -> SymmetricFactor:
    """Eliminate the symmetric form with this diagonal and these couplings.

    ``off_diagonal`` names each nonzero entry off the diagonal once, as
    (i, j, value).  Leaves (positions of degree at most 1) go first, and
    when none is left, a position of least degree, the smallest on ties.
    A leaf creates no new nonzero (Parter 1961, Rose 1970), so on a tree
    each step costs O(1): the pivot of v is w_v - sum 1/d_c over its
    children c already eliminated, a continued fraction whose numerators
    are the determinants of the subtrees below v (their continuants).
    Every entry is a ``Pair`` and each update costs one gcd.
    """
    diag: List[Pair] = [(w, 1) for w in diagonal]
    coupled: List[Dict[int, Pair]] = [{} for _ in diag]
    for i, j, v in off_diagonal:
        coupled[i][j] = coupled[j][i] = (v, 1)
    # each position enters at most once: at the start, or when its degree drops to 1
    leaves = [k for k, row in enumerate(coupled) if len(row) <= 1]
    steps = []
    while len(steps) < len(diag):
        if leaves:
            k = leaves.pop()
        else:
            k = min((len(row), k) for k, row in enumerate(coupled) if row is not None)[1]
        d = diag[k]
        dn, dd = d
        if dn >= 0:
            break
        row, coupled[k] = coupled[k], None
        col = []
        for i, (vn, vd) in row.items():
            # v/d = (vn dd) / (vd dn), with both signs flipped since dn < 0
            p, q = -vn * dd, -vd * dn
            g = gcd(p, q)
            col.append((i, (p // g, q // g)))
        for i, (p, q) in col:
            near = coupled[i]
            del near[k]
            diag[i] = _minus_product(diag[i], p, q, row[i])
            for j, _ in col:
                if j != i:
                    near[j] = _minus_product(near.get(j, (0, 1)), p, q, row[j])
            if len(near) == 1:
                leaves.append(i)
        steps.append((k, d, tuple(col)))
    return SymmetricFactor(len(diag), tuple(steps))


def is_negative_definite(f: SymmetricFactor) -> bool:
    """Sylvester's criterion on the factor: every pivot is negative."""
    return len(f.steps) == f.size


def determinant(f: SymmetricFactor) -> int:
    """Determinant of a negative definite form: the product of its pivots.

    The product of the first pivots is the leading minor of the positions
    eliminated so far, an integer, so each step divides exactly.
    """
    if not is_negative_definite(f):
        raise NotNegativeDefinite("the form was not fully eliminated")
    det = 1
    for k, (p, q), _ in f.steps:
        det, r = divmod(det * p, q)
        if r:
            raise InvariantViolated(f"a leading minor of an integer form is not an integer at {k}")
    return det


# integer numerators over one positive denominator, in lowest terms
Row = Tuple[Tuple[int, ...], int]


def _lowest(nums: Tuple[int, ...], den: int) -> Row:
    """nums/den in lowest terms; den must be positive."""
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple([a // g for a in nums]), den // g


def _sub_scaled(row: Row, p: int, q: int, nk: Tuple[int, ...], dk: int) -> Row:
    """row - (p/q) * nk/dk, over the product of the denominators, reduced."""
    ni, di = row
    m = q * dk
    t = p * di
    return _lowest(tuple([a * m - t * b for a, b in zip(ni, nk)]), di * m)


def solve_exact(f: SymmetricFactor, rows: Sequence[Row]) -> List[Row]:
    """Solve M X = B on the factor, all right-hand sides at once.

    B has one row per position and one column per right-hand side; each
    row is (numerators, denominator) in lowest terms with a positive
    denominator, and X is returned the same way.  Forward substitution
    through L, division by D, back substitution through L^T: each step
    takes a row x_i to x_i - (p/q) x_k for a multiplier p/q of the factor,
    or x_k to x_k / d for its pivot d, as one integer update and one gcd.
    A zero x_k is skipped.
    """
    if not is_negative_definite(f):
        raise NotNegativeDefinite("the form was not fully eliminated")
    x = list(rows)
    for k, _, col in f.steps:
        nk, dk = x[k]
        if any(nk):
            for i, (p, q) in col:
                x[i] = _sub_scaled(x[i], p, q, nk, dk)
    for k, d, _ in f.steps:
        # d = p/q < 0, so x_k / d = (-q x_k) / (-p)
        p, q = d
        nk, dk = x[k]
        x[k] = _lowest(tuple([-q * a for a in nk]), -p * dk)
    for k, _, col in reversed(f.steps):
        xk = x[k]
        for i, (p, q) in col:
            ni, di = x[i]
            if any(ni):
                xk = _sub_scaled(xk, p, q, ni, di)
        x[k] = xk
    return x


def rref(rows: Sequence[Sequence[Fraction]]) -> List[List[Fraction]]:
    """Reduced row echelon form with zero rows dropped."""
    if not rows:
        return []
    w = len(rows[0])
    mat = [[Fraction(x) for x in row] for row in rows]
    for row in mat:
        if len(row) != w:
            raise ValueError("ragged rows")
    lead = 0
    r = 0
    nrows = len(mat)
    while r < nrows and lead < w:
        piv = None
        for i in range(r, nrows):
            if mat[i][lead] != 0:
                piv = i
                break
        if piv is None:
            lead += 1
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        f = mat[r][lead]
        mat[r] = [x / f for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][lead] != 0:
                g = mat[i][lead]
                mat[i] = [x - g * y for x, y in zip(mat[i], mat[r])]
        r += 1
        lead += 1
    return mat[:r]

