import pytest

from germkit import (
    MAX_CHAIN_CURVES,
    MarkedVertexPath,
    WeightedDualGraph,
    find_chain,
    fork_census,
    graph_determinant_abs,
    hj_graph,
    hj_weights,
    intersection_matrix,
    is_negative_definite,
    split_at_edge,
)
from germkit.errors import HypothesesUnmet

from util import chain, is_path_in, path_length


def test_graph_validation():
    with pytest.raises(ValueError):
        WeightedDualGraph(((0, -2), (0, -3)), ())  # duplicate id
    with pytest.raises(ValueError):
        WeightedDualGraph(((0, -2),), ((0, 0),))  # loop
    with pytest.raises(ValueError):
        WeightedDualGraph(((0, -2), (1, -2)), ((0, 1), (1, 0)))  # duplicate edge
    with pytest.raises(ValueError):
        WeightedDualGraph(((0, 0),), ())  # weight must be <= -1
    with pytest.raises(ValueError):
        WeightedDualGraph(((0, -2), (1, -2)), ())  # disconnected
    with pytest.raises(ValueError):
        WeightedDualGraph(((0, -2), (1, -2)), ((0, 2),))  # edge to nowhere


def test_graph_normalization_and_queries():
    g = WeightedDualGraph(((1, -3), (0, -2)), ((1, 0),))
    assert g.vertices == ((0, -2), (1, -3))
    assert g.edges == ((0, 1),)
    assert g.ids() == (0, 1)
    assert g.order == 2
    assert g.weight(1) == -3
    assert g.has_edge(1, 0)
    assert g.degree(0) == 1
    sub = g.induced(frozenset({1}))
    assert sub.vertices == ((1, -3),) and sub.edges == ()


def test_intersection_matrix_chain():
    assert intersection_matrix(chain(-2, -2, -2)) == [
        [-2, 1, 0],
        [1, -2, 1],
        [0, 1, -2],
    ]


def test_negative_definiteness_of_families():
    for n in range(1, 12):
        assert is_negative_definite(chain(*([-2] * n)))
    # a (-1)-chain of length 2 fails: det = 0
    assert not is_negative_definite(chain(-1, -1))


def test_an_determinant():
    for n in range(1, 12):
        assert graph_determinant_abs(chain(*([-2] * n))) == n + 1


def test_hj_weights_known():
    assert hj_weights(7, 3) == [-3, -2, -2]
    assert hj_weights(5, 1) == [-5]
    assert hj_weights(5, 4) == [-2, -2, -2, -2]
    assert hj_weights(12, 5) == [-3, -2, -3]


def test_hj_weights_validation():
    with pytest.raises(ValueError):
        hj_weights(4, 2)  # not coprime
    with pytest.raises(ValueError):
        hj_weights(3, 3)
    with pytest.raises(ValueError):
        hj_weights(1, 1)


def test_hj_weights_stop_at_the_curve_cap():
    # n/(n - 1) expands into n - 1 (-2)-curves
    assert hj_weights(MAX_CHAIN_CURVES + 1, MAX_CHAIN_CURVES) == [-2] * MAX_CHAIN_CURVES
    for n in (MAX_CHAIN_CURVES + 2, 10**9, 10**100):
        # the check runs inside the expansion, so 10^100 curves stop at the cap
        with pytest.raises(HypothesesUnmet, match="exceeds the cap of 10000 curves"):
            hj_graph(n, n - 1)


def test_hj_graph_determinant_recovers_n():
    for n in range(2, 20):
        for q in range(1, n):
            import math

            if math.gcd(n, q) != 1:
                continue
            g = hj_graph(n, q)
            assert is_negative_definite(g)
            assert graph_determinant_abs(g) == n


def test_fork_census():
    assert fork_census(chain(-2, -2, -2)) == fork_census(chain(-2, -2, -2))
    c = fork_census(chain(-2, -2))
    assert c.is_tree and c.forks == ()
    star = WeightedDualGraph(
        ((0, -2), (1, -2), (2, -2), (3, -2)), ((0, 1), (0, 2), (0, 3))
    )
    c = fork_census(star)
    assert c.is_tree and c.forks == ((0, 3),)
    triangle = WeightedDualGraph(
        ((0, -3), (1, -3), (2, -3)), ((0, 1), (1, 2), (0, 2))
    )
    assert not fork_census(triangle).is_tree


def test_split_at_edge():
    g = chain(-2, -3, -4)
    left, right = split_at_edge(g, (1, 2))
    assert [v for v, _ in left.vertices] == [0, 1]
    assert [v for v, _ in right.vertices] == [2]
    # endpoint order decides which side comes first
    right2, left2 = split_at_edge(g, (2, 1))
    assert [v for v, _ in right2.vertices] == [2]
    with pytest.raises(ValueError):
        split_at_edge(g, (0, 2))
    triangle = WeightedDualGraph(((0, -3), (1, -3), (2, -3)), ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError):
        split_at_edge(triangle, (0, 1))


def test_marked_path():
    p = MarkedVertexPath((0, 1, 2))
    assert path_length(p) == 2
    assert is_path_in(p, chain(-2, -2, -2))
    assert not is_path_in(p, chain(-2, -2))
    with pytest.raises(ValueError):
        MarkedVertexPath((0, 1, 0))


def test_find_chain_descends_into_largest_component():
    # start 0 has arms {1,2,3}, {4,5}, {6}; the longest arm wins
    g = WeightedDualGraph(
        tuple((i, -2) for i in range(7)),
        ((0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6)),
    )
    assert find_chain(g, 0, 2).vertex_ids == (0, 1, 2)
    assert find_chain(g, 0, 1).vertex_ids == (0, 1)


def test_find_chain_tie_breaks_by_smallest_id():
    g = WeightedDualGraph(
        tuple((i, -2) for i in range(5)), ((2, 1), (2, 3), (1, 0), (3, 4))
    )
    # both sides of 2 have size 2: the component holding vertex 0 wins
    assert find_chain(g, 2, 1).vertex_ids == (2, 1)


def test_find_chain_result_is_a_path():
    g = hj_graph(23, 22)
    p = find_chain(g, 0, 2)
    assert is_path_in(p, g)
    assert path_length(p) == 2
    assert p.vertex_ids[0] == 0


def test_find_chain_hypotheses():
    big = WeightedDualGraph(
        tuple((i, -2) for i in range(6)), ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5))
    )
    with pytest.raises(HypothesesUnmet):
        find_chain(big, 1, 1)  # a degree-5 vertex exists
    star4 = WeightedDualGraph(
        tuple((i, -2) for i in range(5)), ((0, 1), (0, 2), (0, 3), (0, 4))
    )
    with pytest.raises(HypothesesUnmet):
        find_chain(star4, 0, 1)  # start degree 4
    with pytest.raises(HypothesesUnmet):
        find_chain(chain(-2, -2, -2, -2), 0, 2)  # order 4 not above (9-1)/2
    with pytest.raises(ValueError):
        find_chain(chain(-2, -2), 0, 0)
    with pytest.raises(KeyError):
        find_chain(chain(-2, -2), 9, 1)
