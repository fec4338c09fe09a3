"""Exact arithmetic that the benchmark checks germkit's outputs with.

Nothing here imports germkit.  Every expected value is recomputed from the
workload's own documents, so a fault in germkit cannot hide in its check.

Numbers over a basis of quadratic irrationals are kept as multilinear
polynomials in square roots: a dict from a bit mask to a Fraction, where
bit i stands for sqrt(d_i) and d_i is a squarefree integer.  The sign of
such a number is decided exactly by recursive squaring.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Dict, List, Sequence, Tuple

Poly = Dict[int, Fraction]


def squarefree_split(n: int) -> Tuple[int, int]:
    """Write n > 0 as k*k*d with d squarefree; returns (k, d)."""
    if n < 1:
        raise ValueError("need a positive integer")
    k, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        k *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1
    return k, d * n


def cf_closed_form(head: Sequence[int], cycle: Sequence[int]) -> Tuple[Fraction, Fraction, int]:
    """Value of [head; cycle, cycle, ...] as a + b*sqrt(d), d squarefree > 1.

    The purely periodic tail y = [c1; ..., ck, y] is a fixed point of the
    Moebius map of its convergent matrix [[p, p'], [q, q']], so
    q*y^2 + (q' - p)*y - p' = 0 and y is the positive root.  The head then
    maps y to x = (P*y + P')/(Q*y + Q'), which is rationalized.
    """
    if not cycle or any(c < 1 for c in cycle):
        raise ValueError("need a nonempty cycle of positive coefficients")
    p, pp, q, qp = 1, 0, 0, 1
    for c in cycle:
        p, pp, q, qp = c * p + pp, p, c * q + qp, q
    s, disc, t = p - qp, (p - qp) ** 2 + 4 * q * pp, 2 * q  # y = (s + sqrt(disc))/t
    P, Pp, Q, Qp = 1, 0, 0, 1
    for h in head:
        P, Pp, Q, Qp = h * P + Pp, P, h * Q + Qp, Q
    # x = (alpha + beta*sqrt(disc)) / (gamma + delta*sqrt(disc))
    alpha, beta = P * s + Pp * t, P
    gamma, delta = Q * s + Qp * t, Q
    den = gamma * gamma - delta * delta * disc
    k, d = squarefree_split(disc)
    if d == 1:
        raise ValueError("periodic continued fraction with a rational value")
    a = Fraction(alpha * gamma - beta * delta * disc, den)
    b = Fraction((beta * gamma - alpha * delta) * k, den)
    return a, b, d


def poly_add(x: Poly, y: Poly, scale: Fraction = Fraction(1)) -> Poly:
    out = dict(x)
    for m, c in y.items():
        out[m] = out.get(m, Fraction(0)) + scale * c
    return {m: c for m, c in out.items() if c}


def poly_mul(x: Poly, y: Poly, radicands: Sequence[int]) -> Poly:
    out: Poly = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            c = c1 * c2
            both = m1 & m2
            i = 0
            while both:
                if both & 1:
                    c *= radicands[i]
                both >>= 1
                i += 1
            m = m1 ^ m2
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def _sgn(c) -> int:
    return (c > 0) - (c < 0)


def poly_sign(x: Poly, radicands: Sequence[int]) -> int:
    """Exact sign of sum c_m * prod_{i in m} sqrt(d_i).

    Split off the highest square root: x = P + Q*sqrt(d).  When P and Q
    have opposite signs, x has the sign of P exactly when P^2 > d*Q^2.
    """
    x = {m: c for m, c in x.items() if c}
    if not x:
        return 0
    top = max(x).bit_length() - 1
    if top < 0:
        return _sgn(x[0])
    bit = 1 << top
    lo = {m: c for m, c in x.items() if not m & bit}
    hi = {m ^ bit: c for m, c in x.items() if m & bit}
    sp, sq = poly_sign(lo, radicands), poly_sign(hi, radicands)
    if sq == 0 or sp == sq:
        return sp
    if sp == 0:
        return sq
    diff = poly_add(
        poly_mul(lo, lo, radicands),
        poly_mul(hi, hi, radicands),
        Fraction(-radicands[top]),
    )
    return sp * poly_sign(diff, radicands)


class QuadraticBasis:
    """The basis (1, r_1, ..., r_k) of periodic continued fractions, in closed form.

    Each r_i = a_i + b_i*sqrt(d_i).  The radicands must be distinct
    squarefree integers; bit i of a polynomial mask is sqrt(d_i).
    """

    def __init__(self, cfs: Sequence[Tuple[Sequence[int], Sequence[int]]]):
        forms = [cf_closed_form(h, c) for h, c in cfs]
        self.radicands = tuple(d for _, _, d in forms)
        if len(set(self.radicands)) != len(self.radicands):
            raise ValueError("two symbols share a squarefree radicand")
        self.symbols: List[Poly] = [{0: Fraction(1)}]
        for i, (a, b, _) in enumerate(forms):
            self.symbols.append(poly_add({0: a}, {1 << i: b}))

    def value(self, coords: Sequence[Fraction]) -> Poly:
        out: Poly = {}
        for c, sym in zip(coords, self.symbols):
            if c:
                out = poly_add(out, sym, Fraction(c))
        return out

    def monomial(self, indices: Sequence[int]) -> Poly:
        """Product of the symbols r_i over the given 1-based indices."""
        out: Poly = {0: Fraction(1)}
        for i in indices:
            out = poly_mul(out, self.symbols[i], self.radicands)
        return out

    def sign(self, x: Poly) -> int:
        return poly_sign(x, self.radicands)

    def floor(self, x: Poly) -> int:
        """Exact floor, from a rational guess corrected by sign tests."""
        guess = Fraction(x.get(0, 0))
        for m, c in x.items():
            if m:
                root = Fraction(1)
                for i, d in enumerate(self.radicands):
                    if m >> i & 1:
                        root *= Fraction(isqrt(d * 10**12), 10**6)
                guess += c * root
        f = guess.numerator // guess.denominator
        while self.sign(poly_add(x, {0: Fraction(-f)})) < 0:
            f -= 1
        while self.sign(poly_add(x, {0: Fraction(-f - 1)})) >= 0:
            f += 1
        return f


SQRT2 = QuadraticBasis([((1,), (2,))])


def round_half_even(x: Fraction, places: int) -> str:
    """Fixed-point rendering of a rational, ties to even."""
    neg = x < 0
    p, q = abs(x).numerator, abs(x).denominator
    scaled, rem = divmod(p * 10**places, q)
    if 2 * rem > q or (2 * rem == q and scaled % 2):
        scaled += 1
    whole, frac = divmod(scaled, 10**places)
    return f"{'-' if neg and scaled else ''}{whole}.{frac:0{places}d}"


def decimal_ok(basis: QuadraticBasis, x: Poly, text: str, places: int = 12) -> bool:
    """Is ``text`` the correctly rounded fixed-point value of x?"""
    if not any(x.keys() - {0}):
        return text == round_half_even(Fraction(x.get(0, 0)), places)
    try:
        shown = Fraction(text)
    except ValueError:
        return False
    if text != round_half_even(shown, places):
        return False  # not a fixed-point string with that many places
    half = Fraction(1, 2 * 10**places)
    # an irrational value never sits on a rounding tie
    return (
        basis.sign(poly_add(x, {0: half - shown})) > 0
        and basis.sign(poly_add(x, {0: -half - shown})) < 0
    )


def parse_exact(text: str, symbols: Sequence[str]) -> List[Fraction]:
    """Coordinates of an exact rendering such as "1/2 - 1/4*sqrt2"."""
    coords = [Fraction(0)] * len(symbols)
    if text == "0":
        return coords
    tokens = text.split(" ")
    sign = 1
    if tokens[0].startswith("-"):
        sign, tokens[0] = -1, tokens[0][1:]
    pending = [(sign, tokens[0])]
    for op, term in zip(tokens[1::2], tokens[2::2]):
        if op not in "+-":
            raise ValueError(f"bad operator {op!r} in {text!r}")
        pending.append((1 if op == "+" else -1, term))
    for s, term in pending:
        if term in symbols[1:]:
            coeff, name = "1", term
        else:
            coeff, star, name = term.partition("*")
            if not star:
                name = "1"
        i = list(symbols).index(name)
        if coords[i]:
            raise ValueError(f"symbol {name} appears twice in {text!r}")
        coords[i] = s * Fraction(coeff)
    return coords


def hj_weights(n: int, q: int) -> List[int]:
    """Self-intersections of the n/q quotient chain by ceiling division."""
    out = []
    while q > 0:
        b = -(-n // q)
        out.append(-b)
        n, q = q, b * q - n
    return out


def continuant(weights: Sequence[int]) -> int:
    """|det| of the intersection matrix of a chain with these weights.

    K() = 1, K(b1) = b1, K(b1..bk) = bk*K(b1..bk-1) - K(b1..bk-2) with
    b_i = -w_i; for the n/q chain this is n.
    """
    prev, cur = 0, 1
    for w in weights:
        prev, cur = cur, -w * cur - prev
    return cur


def tree_pivots(
    n: int, weights: Sequence[int], edges: Sequence[Tuple[int, int]]
) -> List[Fraction] | None:
    """Pivots of leaf-first elimination on the intersection matrix of a tree.

    Vertex v's pivot is w_v minus the sum of 1/pivot over its children.  The
    matrix is negative definite exactly when every pivot is negative; the
    pivots are returned then, and None otherwise.  |det| is the absolute
    product of the pivots.
    """
    if n == 0:
        return []
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order, parent = [0], [-1] * n
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    if len(order) != n or len(edges) != n - 1:
        raise ValueError("not a tree")
    piv = [Fraction(w) for w in weights]
    for v in reversed(order):
        if piv[v] >= 0:
            return None
        if parent[v] >= 0:
            piv[parent[v]] -= 1 / piv[v]
    return piv


def abs_det(pivots: Sequence[Fraction]) -> Fraction:
    out = Fraction(1)
    for p in pivots:
        out *= p
    return abs(out)


def tree_solve(
    n: int, weights: Sequence[int], edges: Sequence[Tuple[int, int]], rhs: Sequence[Sequence[Fraction]]
) -> List[List[Fraction]]:
    """Solve M x = rhs on a tree by leaf-first elimination and back-substitution.

    ``rhs`` holds one coordinate vector per vertex; so does the result.
    The matrix must be negative definite.
    """
    if n == 0:
        return []
    adj: List[List[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    order, parent = [0], [-1] * n
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    piv = [Fraction(w) for w in weights]
    r = [[Fraction(c) for c in row] for row in rhs]
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            piv[p] -= 1 / piv[v]
            r[p] = [x - y / piv[v] for x, y in zip(r[p], r[v])]
    x: List[List[Fraction]] = [[]] * n
    for v in order:
        p = parent[v]
        rest = r[v] if p < 0 else [y - z for y, z in zip(r[v], x[p])]
        x[v] = [y / piv[v] for y in rest]
    return x
