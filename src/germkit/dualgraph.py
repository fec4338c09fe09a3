"""Weighted dual graphs of exceptional curve configurations.

Vertices are integer-weighted curves (self-intersections), edges are
transverse meetings.  Graphs are simple and connected; the empty graph is
allowed and stands for the germ of a smooth point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Tuple

from .errors import HypothesesUnmet
from .linalg import SymmetricFactor, determinant, factor_form
from .linalg import is_negative_definite as _factor_nd


@dataclass(frozen=True)
class WeightedDualGraph:
    """Simple connected graph with integer vertex weights <= -1.

    ``vertices`` is a tuple of (id, weight) pairs and ``edges`` a tuple of
    id pairs; both are normalized to sorted order so equal graphs compare
    equal regardless of input order.
    """

    vertices: Tuple[Tuple[int, int], ...]
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        ids = [v for v, _ in self.vertices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate vertex ids")
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        idset = set(ids)
        norm = set()
        for e in self.edges:
            a, b = e
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if a not in idset or b not in idset:
                raise ValueError(f"edge {e} references a missing vertex")
            key = (min(a, b), max(a, b))
            if key in norm:
                raise ValueError(f"duplicate edge {key}")
            norm.add(key)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        for v, w in self.vertices:
            if not isinstance(w, int) or w > -1:
                raise ValueError(f"vertex {v} weight must be an integer <= -1")
        if self.vertices and len(_components(frozenset(idset), self.adjacency())) != 1:
            raise ValueError("graph must be connected")

    @cached_property
    def factor(self) -> SymmetricFactor:
        """The intersection form's one elimination, positions in sorted id order.

        Built on first use; not a dataclass field, so equality ignores it.
        """
        pos = {v: i for i, (v, _) in enumerate(self.vertices)}
        return factor_form(
            [w for _, w in self.vertices], [(pos[a], pos[b], 1) for a, b in self.edges]
        )

    def ids(self) -> Tuple[int, ...]:
        return tuple(v for v, _ in self.vertices)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def weight(self, vid: int) -> int:
        for v, w in self.vertices:
            if v == vid:
                return w
        raise KeyError(f"no vertex {vid}")

    def adjacency(self) -> Dict[int, List[int]]:
        adj: Dict[int, List[int]] = {v: [] for v, _ in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        for v in adj:
            adj[v].sort()
        return adj

    def degree(self, vid: int) -> int:
        return len(self.adjacency()[vid])

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def induced(self, keep: FrozenSet[int]) -> "WeightedDualGraph":
        vs = tuple((v, w) for v, w in self.vertices if v in keep)
        es = tuple(e for e in self.edges if e[0] in keep and e[1] in keep)
        return WeightedDualGraph(vs, es)


@dataclass(frozen=True)
class MarkedVertexPath:
    """A simple path recorded as its vertex id sequence."""

    vertex_ids: Tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertex_ids)) != len(self.vertex_ids):
            raise ValueError("path revisits a vertex")


def intersection_matrix(g: WeightedDualGraph) -> List[List[int]]:
    """Symmetric matrix with weights on the diagonal, 1 per edge, 0 otherwise.

    Rows and columns follow sorted vertex id order.
    """
    ids = g.ids()
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    m = [[0] * n for _ in range(n)]
    for i, (_, w) in enumerate(g.vertices):
        m[i][i] = w
    for a, b in g.edges:
        m[pos[a]][pos[b]] = 1
        m[pos[b]][pos[a]] = 1
    return m


def is_negative_definite(g: WeightedDualGraph) -> bool:
    return _factor_nd(g.factor)


def graph_determinant_abs(g: WeightedDualGraph) -> int:
    """|det| of a negative definite intersection form, from its pivots."""
    return abs(determinant(g.factor))


# Longest quotient chain hj_weights builds.  Its length is not bounded by
# the size of n/q: 10^9/(10^9 - 1) expands into 10^9 - 1 curves.  germkit
# mld on a chain of 10,000 (-2)-curves with one branch takes 0.8 s and
# 44 MB; on 10,000 (-3)-curves (n of about 4,200 digits, and log
# discrepancies as long) 52 s and 330 MB (Python 3.11, 2 cores).
MAX_CHAIN_CURVES = 10_000


def hj_weights(n: int, q: int) -> List[int]:
    """Ceiling-division expansion of n/q into chain weights -b_1, ..., -b_s.

    Each step takes b = ceil(n/q) and continues with (q, b*q - n); every b
    is at least 2, so the chain is a string of curves of self-intersection
    at most -2.  A chain longer than MAX_CHAIN_CURVES raises HypothesesUnmet
    as soon as the expansion passes it.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0 < q < n):
        raise ValueError("q must satisfy 0 < q < n")
    if math.gcd(n, q) != 1:
        raise ValueError("n and q must be coprime")
    out: List[int] = []
    while q > 0:
        if len(out) == MAX_CHAIN_CURVES:
            raise HypothesesUnmet(f"quotient chain exceeds the cap of {MAX_CHAIN_CURVES} curves")
        b = -(-n // q)
        out.append(-b)
        n, q = q, b * q - n
    return out


def hj_graph(n: int, q: int) -> WeightedDualGraph:
    """Chain dual graph of the cyclic quotient singularity of type (n, q)."""
    ws = hj_weights(n, q)
    vertices = tuple((i, w) for i, w in enumerate(ws))
    edges = tuple((i, i + 1) for i in range(len(ws) - 1))
    return WeightedDualGraph(vertices, edges)


@dataclass(frozen=True)
class ForkCensus:
    is_tree: bool
    forks: Tuple[Tuple[int, int], ...]  # (vertex id, degree) for degree >= 3


def fork_census(g: WeightedDualGraph) -> ForkCensus:
    is_tree = g.order > 0 and len(g.edges) == g.order - 1
    adj = g.adjacency()
    forks = tuple((v, len(adj[v])) for v in g.ids() if len(adj[v]) >= 3)
    return ForkCensus(is_tree, forks)


def split_at_edge(
    g: WeightedDualGraph, edge: Tuple[int, int]
) -> Tuple[WeightedDualGraph, WeightedDualGraph]:
    """Remove one tree edge and return the two sides, endpoint-first.

    The first component contains edge[0], the second edge[1].  Splitting a
    non-tree graph (or a non-edge) is refused because the sides would not
    be well defined.
    """
    a, b = edge
    if not g.has_edge(a, b):
        raise ValueError(f"no edge {edge}")
    if not fork_census(g).is_tree:
        raise ValueError("splitting requires a tree")
    # in a tree, a's side of the edge is a's component once b is removed
    alive = frozenset(g.ids())
    side = next(c for c in _components(alive - {b}, g.adjacency()) if a in c)
    return g.induced(side), g.induced(alive - side)


def find_chain(g: WeightedDualGraph, start: int, length: int) -> MarkedVertexPath:
    """Grow a simple path of the given edge length out of ``start``.

    Needs every degree at most 4, the start vertex degree at most 3, and
    order strictly greater than (3^length - 1)/2.  The greedy step removes
    the current vertex and descends into the largest remaining component
    through that component's smallest-id neighbor; the size bound guarantees
    the walk never starves.  Ties between components of equal size go to the
    one containing the smallest vertex id.
    """
    if length < 1:
        raise ValueError("length must be positive")
    if start not in set(g.ids()):
        raise KeyError(f"no vertex {start}")
    adj = g.adjacency()
    if any(len(adj[v]) > 4 for v in g.ids()):
        raise HypothesesUnmet("a vertex has degree above 4")
    if len(adj[start]) > 3:
        raise HypothesesUnmet("start vertex has degree above 3")
    if 2 * g.order <= 3 ** length - 1:
        raise HypothesesUnmet(
            f"order {g.order} is not above (3^{length} - 1)/2"
        )

    alive = frozenset(g.ids())
    path = [start]
    for _ in range(length):
        v = path[-1]
        rest = alive - {v}
        neigh = {u for u in adj[v] if u in rest}
        comps = [c for c in _components(rest, adj) if c & neigh]
        alive = min(comps, key=lambda c: (-len(c), min(c)))
        path.append(min(alive & neigh))
    return MarkedVertexPath(tuple(path))


def _components(alive: FrozenSet[int], adj: Dict[int, List[int]]) -> List[FrozenSet[int]]:
    """Components of the subgraph on ``alive``, by least vertex id.

    The one graph walk of the module: connectedness, tree splits and the
    chain growth of find_chain all read it.
    """
    remaining = set(alive)
    out: List[FrozenSet[int]] = []
    while remaining:
        root = min(remaining)
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u in seen or u not in remaining:
                    continue
                seen.add(u)
                stack.append(u)
        out.append(frozenset(seen))
        remaining -= seen
    return out
