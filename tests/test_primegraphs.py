import math

import networkx as nx
import numpy as np
import pytest

from primelab import primegraphs as pg
from primelab import ratkernel as rk
from primelab.planarith import GaussianInt, is_gaussian_prime


def _edge_labels(g):
    """The edges as a set of label pairs; a (V, 2) label becomes a tuple."""
    return {tuple(tuple(x) if isinstance(x, list) else x for x in e)
            for e in g.vertices[g.edges].tolist()}


def test_gaussian_graph_n4():
    g = pg.gaussian_graph(4)
    assert sorted(_edge_labels(g)) == [(2, 3), (2, 5), (4, 5)]
    assert g.V - g.E == 1
    assert pg.is_bipartite(g)


def test_gaussian_graph_bipartite_up_to_120():
    for n in range(2, 121, 7):
        assert pg.is_bipartite(pg.gaussian_graph(n))


def test_gaussian_graph_edges_match_primality():
    g = pg.gaussian_graph(20)
    edges = _edge_labels(g)
    for a in range(2, 22):
        for b in range(a + 1, 22):
            want = is_gaussian_prime(GaussianInt(a, b))
            assert ((a, b) in edges) == want


def test_chi_two_ways():
    for n in range(2, 301):
        g = pg.gaussian_graph(n)
        a, b = pg.gaussian_graph_chi_two_ways(n)
        assert a == g.V - g.E == b, n


def test_chi_two_ways_builds_one_mask(monkeypatch):
    calls = []
    real = pg.gaussian_prime_mask

    def counting(*box):
        calls.append(box)
        return real(*box)

    monkeypatch.setattr(pg, "gaussian_prime_mask", counting)
    for n in (2, 9, 40):
        calls.clear()
        a, b = pg.gaussian_graph_chi_two_ways(n)
        assert a == b
        assert calls == [(2, n + 1, 2, n + 1)]


def test_quaternion_graphs():
    h = pg.lipschitz_graph(4)
    edges = _edge_labels(h)
    # (1,1)-(1,1)? no self loop; (1,1)-(1,2): 1+1+1+4=7 prime
    assert (((1, 1), (1, 2)) in edges) or (((1, 2), (1, 1)) in edges)
    for (a, b), (c, d) in edges:
        assert rk.is_prime(a * a + b * b + c * c + d * d)
    hw = pg.hurwitz_graph(5)
    for (a, b), (c, d) in _edge_labels(hw):
        assert a % 2 and b % 2 and c % 2 and d % 2
        assert rk.is_prime((a * a + b * b + c * c + d * d) // 4)


def test_quaternion_graphs_match_pair_loop():
    verts = [(a, b) for a in range(1, 6) for b in range(1, 6)]
    pairs = [(x, y) for i, x in enumerate(verts) for y in verts[i + 1:]]
    norm = {(x, y): x[0] ** 2 + x[1] ** 2 + y[0] ** 2 + y[1] ** 2
            for x, y in pairs}
    assert _edge_labels(pg.lipschitz_graph(5)) == {
        e for e in pairs if rk.is_prime(norm[e])}
    assert _edge_labels(pg.hurwitz_graph(5)) == {
        e for e in pairs if all(c % 2 for c in e[0] + e[1])
        and rk.is_prime(norm[e] // 4)}


def test_gcd_graph_structure():
    edges = _edge_labels(pg.gcd_graph(12))
    assert ((2, 4) in edges)
    assert ((3, 9) in edges)
    assert not any(1 in e for e in edges)


def test_gcd_graph_matches_euclid():
    # edges read off the gcd table against numpy's elementwise Euclid
    for n in range(3, 201):
        idx = np.arange(1, n + 1)
        want = np.argwhere(np.triu(np.gcd.outer(idx, idx) > 1, 1))
        g = pg.gcd_graph(n)
        assert np.array_equal(g.vertices, idx)
        assert g.edges.dtype == np.int64 and np.array_equal(g.edges, want), n


def test_gcd_components_formula():
    for n in [*range(4, 1001, 37), 10**5]:
        assert pg.gcd_components(n) == pg.gcd_components_formula(n)


def test_gcd_counts_match_the_built_graph():
    # prime stars and the gcd table's flags against the whole edge list
    for n in range(3, 421):
        g = pg.gcd_graph(n)
        assert pg.gcd_components(n) == pg.component_count(g), n
        assert pg.gcd_edge_count(n) == g.E, n


def test_gcd_prime_stars_refused_by_bytes(monkeypatch, traced_peak):
    # 256 808 star edges at n = 10⁵
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**7)
    _, peak = traced_peak(pg.gcd_components, 10**5,
                          refused="gcd prime stars n=100000 needs about "
                                  "20544640 B")
    assert peak < 2**20


def test_gcd_components_formula_needs_a_blob():
    # below n = 4 the formula's one blob is empty: gcd_components(3) is 3
    assert pg.gcd_components(3) == 3
    for n in (3, 2, 1, 0):
        with pytest.raises(ValueError, match="n >= 4 required"):
            pg.gcd_components_formula(n)


def test_gcd_edge_count_formula():
    for n in range(3, 1001, 53):
        assert pg.gcd_edge_count(n) == pg.gcd_edge_count_formula(n)


def test_gcd_degrees_paper_fixtures():
    assert pg.gcd_vertex_degree(2, 30) == 14
    assert pg.gcd_vertex_degree(3, 30) == 9
    assert pg.gcd_vertex_degree(6, 30) == 19


def _gcd_degree_scan(v, n):
    return sum(1 for k in range(1, n + 1) if k != v and math.gcd(k, v) > 1)


def test_gcd_degree_inclusion_exclusion_consistency():
    for n in (1, 2, 30, 100):
        for v in range(1, n + 1):
            assert pg.gcd_vertex_degree(v, n) == _gcd_degree_scan(v, n), (v, n)


def test_component_count_union_find():
    g = pg.Graph(np.arange(1, 6), np.array([[0, 1], [1, 2]]))
    assert pg.component_count(g) == 3


def test_clique_euler_characteristic_triangle_free():
    # bipartite graphs have no triangles: chi = V - E
    g = pg.gaussian_graph(10)
    assert pg.clique_euler_characteristic(g) == g.V - g.E


def test_clique_euler_characteristic_with_triangle():
    g = pg.Graph(np.arange(1, 4), np.array([[0, 1], [0, 2], [1, 2]]))
    # 3 vertices - 3 edges + 1 triangle
    assert pg.clique_euler_characteristic(g) == 1


def _networkx_clique_chi(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.V))
    h.add_edges_from(g.edges.tolist())
    return sum(1 if len(c) % 2 else -1 for c in nx.enumerate_all_cliques(h))


def test_clique_chi_of_gcd_graphs_is_a_prime_count():
    # the paper's Euler characteristic / prime counting link: for 4 <= n <=
    # 200 the clique complex of the gcd graph has χ = 2 + π(n) − π(n/2), its
    # component count, but for 143 = 11·13 <= n <= 153, where it is one more
    excess = {n: pg.clique_euler_characteristic(pg.gcd_graph(n))
              - pg.gcd_components_formula(n) for n in range(4, 201)}
    assert {n: e for n, e in excess.items() if e} == dict.fromkeys(
        range(143, 154), 1)
    assert pg.clique_euler_characteristic(pg.gcd_graph(143)) == 17
    assert pg.gcd_components_formula(143) == 16
    # networkx's clique enumeration is the oracle
    g = pg.hurwitz_graph(8)
    assert g.V == 64
    assert pg.clique_euler_characteristic(g) == _networkx_clique_chi(g) == 49
    rng = np.random.default_rng(16)
    for _ in range(300):
        n = int(rng.integers(0, 26))
        adj = rng.random((n, n)) < rng.uniform(0, 0.75)
        g = pg.Graph(np.arange(n), np.argwhere(np.triu(adj, 1)))
        assert pg.clique_euler_characteristic(g) == _networkx_clique_chi(g)


def test_clique_chi_memo_refused_by_bytes(monkeypatch, traced_peak):
    g = pg.gcd_graph(400)
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**6)
    _, peak = traced_peak(pg.clique_euler_characteristic, g,
                          refused="clique complex memo")
    assert peak < 2 * 10**6


@pytest.mark.parametrize("n", [100, 150, 200, 299])
def test_clique_chi_memo_check_bounds_its_traced_peak(monkeypatch,
                                                      traced_peak, n):
    """The last memo check is at least the traced peak, up to 4 kB of fixed
    slack; gcd_graph(200) and (299) end right after the memo dict doubles,
    where the peak per entry is highest (299 with a 4 B dict index).  The
    memo is checked once per entry, so the spy keeps only the last estimate:
    a list of every estimate would add to the peak it bounds."""
    g = pg.gcd_graph(n)
    last = {}
    monkeypatch.setattr(rk, "check_budget",
                        lambda nbytes, what: last.update(nbytes=nbytes))
    _, peak = traced_peak(pg.clique_euler_characteristic, g)
    assert peak <= last["nbytes"] + 4096


def test_adjacency_symmetric():
    a = pg.gaussian_graph(12).adjacency()
    assert (a == a.T).all()


def test_is_bipartite_false_on_triangle():
    # 2, 4 and 6 share the factor 2: a triangle, so no 2-colouring
    assert not pg.is_bipartite(pg.gcd_graph(12))


def test_component_count_matches_networkx():
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 30, 100):
        for m in (0, n // 2, n, 2 * n):
            pairs = rng.integers(0, n, size=(m, 2))
            edges = np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges.tolist())
            g = pg.Graph(np.arange(n), edges)
            assert pg.component_count(g) == nx.number_connected_components(h)


def test_component_labels_match_csgraph():
    # scipy is the oracle here only; the library's routine is numpy
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(15)
    cases = [(1, np.zeros((0, 2), dtype=np.int64)),
             (1, np.array([[0, 0]])),
             (6, np.zeros((0, 2), dtype=np.int64)),
             (5, np.array([[3, 1], [1, 3], [3, 1], [2, 2], [4, 0]]))]
    for _ in range(300):
        n = int(rng.integers(1, 120))
        cases.append((n, rng.integers(0, n, size=(int(rng.integers(0, 2 * n)),
                                                  2))))
    for n, edges in cases:
        m = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                       shape=(n, n))
        want_count, want_labels = connected_components(m, directed=False)
        count, labels = rk.component_labels(n, edges)
        assert count == want_count, (n, edges)
        assert np.array_equal(labels, want_labels), (n, edges)


def test_edges_are_sorted_index_pairs():
    for g in (pg.gaussian_graph(30), pg.gcd_graph(30), pg.hurwitz_graph(5)):
        assert g.edges.dtype == np.int64 and g.edges.shape == (g.E, 2)
        assert (g.edges[:, 0] < g.edges[:, 1]).all()
        assert g.edges.tolist() == sorted(g.edges.tolist())


def test_gcd_graph_capacity_refused_before_allocation():
    with pytest.raises(rk.CapacityError):
        pg.gcd_graph(10**6)
    with pytest.raises(rk.CapacityError, match="gcd edge count n=1000000"):
        pg.gcd_edge_count(10**6)
    with pytest.raises(rk.CapacityError):
        pg.lipschitz_graph(10**3)


def test_quaternion_graph_capacity_refused_before_the_mask(monkeypatch):
    def no_mask(axes):
        raise AssertionError("mask built for a refused graph")

    monkeypatch.setattr(pg, "prime_mask", no_mask)
    for build in (pg.lipschitz_graph, pg.hurwitz_graph):
        with pytest.raises(rk.CapacityError, match="quaternion graph n=130"):
            build(130)
