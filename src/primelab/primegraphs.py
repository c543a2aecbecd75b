"""Graphs defined by primes.

Gaussian graphs G(n): vertices {2..n+1}, edge a~b iff a+ib is a Gaussian
prime (symmetric since b+ia = i·conj(a+ib)); they are bipartite with the
odd/even vertex classes, so triangle-free and χ = |V| − |E|.

Quaternion graphs on vertices {a+ib : 1 <= a,b <= n}: H(n) joins two vertices
when a²+b²+c²+d² is prime; L(n) joins them when all four coordinates are odd
and (a²+b²+c²+d²)/4 is prime.  Both read their edges from
hyperarith.prime_mask, the one builder of quaternion prime flags.

GCD graphs on {1..n}: a~b iff gcd(a,b) > 1.  Components are 2 + π(n) − π(n/2)
and edges n(n−1)/2 − Φ(n) + 1 with Φ the totient summatory function; both are
counted without the edge list, the components on the prime stars (each prime
p <= n/2 joined to its multiples), which span a subgraph with the same ones.
The clique complex's Euler characteristic equals the component count for
4 <= n <= 200 except at 143 = 11·13 <= n <= 153, where it is one more, so the
giant component's clique complex is not always contractible; for n <= 420 the
excess is 0, 1 or 2 and nonzero for 174 of the 417 values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ratkernel as rk
from .hyperarith import prime_mask
from .planarith import gaussian_prime_mask

@dataclass
class Graph:
    vertices: np.ndarray  # labels: (V,), or (V, 2) for quaternion graphs
    edges: np.ndarray  # int64 (E, 2) vertex indices, u < v, rows sorted

    @property
    def V(self):
        return len(self.vertices)

    @property
    def E(self):
        return len(self.edges)

    def adjacency(self):
        a = np.zeros((self.V, self.V), dtype=np.int64)
        a[self.edges, self.edges[:, ::-1]] = 1
        return a


def component_labels(n, edges):
    """(count, labels) of the connected components of the undirected graph on
    vertices 0..n-1 with the (E, 2) index array `edges`, numbered 0..count-1
    in the order of their smallest vertex.

    Hook-and-jump connectivity (Shiloach & Vishkin, J. Algorithms 3, 1982):
    every round hooks each edge's larger root to its smaller one, then jumps
    pointers until every vertex points at a root, and drops the edges whose
    ends now share a root.  Parents only ever decrease, so each root is its
    component's smallest vertex.
    """
    lab = np.arange(n)
    u, v = np.asarray(edges, dtype=np.int64).T
    while u.size:
        ru, rv = lab[u], lab[v]
        np.minimum.at(lab, np.maximum(ru, rv), np.minimum(ru, rv))
        up = lab[lab]
        while not np.array_equal(up, lab):
            lab, up = up, up[up]
        live = lab[u] != lab[v]
        u, v = u[live], v[live]
    roots = lab == np.arange(n)
    return int(np.count_nonzero(roots)), (np.cumsum(roots) - 1)[lab]


def component_count(g):
    return component_labels(g.V, g.edges)[0]


def is_bipartite(g):
    """G is bipartite iff its bipartite double cover (vertex v in two copies,
    edge u~v joining opposite copies) has twice as many components as G."""
    shift = np.array([0, g.V])
    cover = np.concatenate([g.edges + shift, g.edges + shift[::-1]])
    return component_labels(2 * g.V, cover)[0] == 2 * component_count(g)


@dataclass
class GraphStats:
    V: int
    E: int
    components: int
    bipartite: bool
    chi: int


def stats(g):
    return GraphStats(g.V, g.E, component_count(g), is_bipartite(g),
                      g.V - g.E)


def gaussian_graph(n):
    """G(n): vertices {2..n+1}, a~b iff a+ib Gaussian prime."""
    if n < 2:
        raise ValueError("n >= 2 required")
    mask = gaussian_prime_mask(2, n + 1, 2, n + 1)
    return Graph(np.arange(2, n + 2), np.argwhere(np.triu(mask, 1)))


def gaussian_graph_chi_two_ways(n):
    """χ(G(n)) = V − E from one prime mask over 2 <= a, b <= n+1, with E as
    its flags above the diagonal and as half its off-diagonal prime count."""
    if n < 2:
        raise ValueError("n >= 2 required")
    mask = gaussian_prime_mask(2, n + 1, 2, n + 1)
    box_primes = int(mask.sum()) - int(np.trace(mask))  # a=b never prime here
    return n - int(np.count_nonzero(np.triu(mask, 1))), n - box_primes // 2


def lipschitz_graph(n):
    """H(n): vertices (a,b) in [1,n]², edge when a²+b²+c²+d² is prime."""
    return _quat_graph(n, hurwitz=False)


def hurwitz_graph(n):
    """Half-integer variant: edge when all of a,b,c,d are odd and the norm of
    the half-coordinate quaternion (a+ib+jc+kd)/2, i.e. (a²+b²+c²+d²)/4, is
    prime."""
    return _quat_graph(n, hurwitz=True)


def _quat_graph(n, hurwitz):
    if n < 1:
        raise ValueError("n >= 1 required")
    # per vertex pair: the mask build, then the mask, its triu copy and the
    # edge array; tracemalloc peaks at 9.0 B (Lipschitz), 3.0 B (Hurwitz)
    rk.check_budget(10 * n**4, f"quaternion graph n={n}")
    verts = np.stack(np.divmod(np.arange(n * n), n), axis=1) + 1
    side = np.arange(1, n + 1)
    if hurwitz:
        # labels (a, b), (c, d) all odd are themselves doubled coordinates
        mask = np.zeros((n,) * 4, dtype=bool)
        mask[::2, ::2, ::2, ::2] = prime_mask([side[::2]] * 4)
    else:
        mask = prime_mask([2 * side] * 4)
    return Graph(verts, np.argwhere(np.triu(mask.reshape(n * n, n * n), 1)))


def gcd_graph(n):
    """Vertices {1..n}, a~b iff gcd(a,b) > 1."""
    if n < 3:
        raise ValueError("n >= 3 required")
    # the int64 gcd table, two bool masks, and the int64 (E, 2) edge array
    # with E ≈ 0.2·n²
    rk.check_budget(13 * n * n, f"gcd graph n={n}")
    return Graph(np.arange(1, n + 1, dtype=np.int64),
                 np.argwhere(np.triu(rk.gcd_table(n) > 1, 1)))


def gcd_components(n):
    """Components of the gcd graph, counted on its prime stars (each prime
    p <= n/2 joined to 2p, 3p, ... <= n): a spanning subgraph with the same
    components, since two vertices that share a prime p both join p."""
    if n < 3:
        raise ValueError("n >= 3 required")
    primes = rk.sieve(n).primes()
    arms = n // primes - 1  # none above n/2
    # the hub and multiple arrays, the (E, 2) edges and component_labels'
    # copies of them: 77-79 B per edge (tracemalloc, n = 10³-10⁶)
    rk.check_budget(80 * int(arms.sum()), f"gcd prime stars n={n}")
    hub = np.repeat(primes, arms)
    edges = np.stack([hub, rk.concat_ranges(2, arms) * hub], axis=1)
    return component_labels(n, edges - 1)[0]


def gcd_components_formula(n):
    """2 + π(n) − π(n/2): the isolated 1, the isolated primes in (n/2, n] and
    the one blob, which is nonempty from n = 4 on."""
    if n < 4:
        raise ValueError("n >= 4 required")
    s = rk.sieve(n)
    return 2 + s.pi(n) - s.pi(n // 2)


def gcd_edge_count(n):
    """Edges of the gcd graph: the gcd table's off-diagonal cells above 1
    (gcd(v, v) = v > 1 for v >= 2), halved."""
    rk.check_budget(9 * n * n, f"gcd edge count n={n}")  # table and mask
    return (int(np.count_nonzero(rk.gcd_table(n) > 1)) - (n - 1)) // 2


def gcd_edge_count_formula(n):
    return n * (n - 1) // 2 - rk.totient_summatory(n) + 1


def gcd_vertex_degree(v, n):
    """Degree of v in the gcd graph: #{k <= n, k != v : gcd(k, v) > 1}, by
    inclusion-exclusion over the prime radical of v."""
    if not 1 <= v <= n:
        raise ValueError("vertex out of range")
    primes = [p for p, _e in rk.factorize(v)] if v > 1 else []
    coprime = 0
    for mask in range(1 << len(primes)):
        d = 1
        bits = 0
        for i, p in enumerate(primes):
            if mask & (1 << i):
                d *= p
                bits += 1
        coprime += (-1) ** bits * (n // d)
    return n - coprime - (1 if v > 1 else 0)


def clique_euler_characteristic(g):
    """Σ_k (−1)^(k+1) · #K_k over complete subgraphs, exactly.

    χ(S) = χ(S − v) + 1 − χ(N(v) ∩ (S − v)) for the lowest vertex v of S:
    the cliques through v are v itself and v joined to the cliques of its
    link N(v) ∩ (S − v).  Vertex sets are int bitsets; a memo dict
    computes each χ once and an explicit stack replaces V-deep recursion.
    The memo is refused above the byte budget as it grows (about
    100 + V/8 B per entry, traced).
    """
    bits = np.zeros((g.V, (g.V + 7) // 8), dtype=np.uint8)
    for u, v in (g.edges.T, g.edges.T[::-1]):
        np.bitwise_or.at(bits, (u, v // 8), (1 << v % 8).astype(np.uint8))
    nbr = [int.from_bytes(row.tobytes(), "little") for row in bits]
    entry = 100 + g.V // 8
    full = (1 << g.V) - 1
    memo = {0: 0}
    stack = [full]
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        low = s & -s
        rest = s ^ low
        link = nbr[low.bit_length() - 1] & rest
        a, b = memo.get(rest), memo.get(link)
        if a is None or b is None:
            stack.extend(t for t, c in ((rest, a), (link, b)) if c is None)
            continue
        memo[s] = a + 1 - b
        rk.check_budget(entry * len(memo),
                        f"clique complex memo of {g.V} vertices")
    return memo[full]
