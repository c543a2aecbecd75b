"""Quaternion and octonion integer lattices.

Elements are stored in DOUBLED coordinates d = 2·(a, b, c, ...), and QuatInt
and OctInt share one element class: the parity word of d (the bits dᵢ mod 2,
d₀ highest) lies in the order's code (Conway & Smith, On Quaternions and
Octonions, 2003).  Quaternions use {0000, 1111}: Lipschitz integers have
all-even d, Hurwitz all-odd.  Octonions multiply by the Cayley–Dickson
doubling (z,w)·(u,v) = (zu − v*w, vz + wu*) and use the [8,4] extended
Hamming code with basis {11110000, 00111100, 00001111, 01010110}, whose last
word (not 01010101) makes the Octavians closed under this product: every
product of two of the 240 units is a unit (Coxeter, Duke Math. J. 13, 1946).
Gravesian integers have word 0, Kleinian 0 or 11111111, Octavian (an E₈
lattice) any codeword.  The norm N = (Σ dᵢ²)/4 is an integer, since every
codeword has weight 0, 4 or 8.  Point sets are lexicographically sorted int64
(M, 4) / (M, 8) arrays of doubled coordinates, one row per element.

An element is prime in its order iff its norm is a rational prime.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import ratkernel as rk
from .planarith import norm_count_table


def _hamilton(p, q):
    """Hamilton product on raw 4-vectors (doubled coords multiply to 2×doubled)."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _quat_conj_raw(p):
    return (p[0], -p[1], -p[2], -p[3])


def _cayley_dickson(x, y):
    """(z,w)·(u,v) = (zu − v*w, vz + wu*) on raw 8-vectors."""
    z, w = x[:4], x[4:]
    u, v = y[:4], y[4:]
    first = tuple(a - b for a, b in
                  zip(_hamilton(z, u), _hamilton(_quat_conj_raw(v), w)))
    second = tuple(a + b for a, b in
                   zip(_hamilton(v, z), _hamilton(w, _quat_conj_raw(u))))
    return first + second


def _parity_word(d):
    return sum((x & 1) << (len(d) - 1 - i) for i, x in enumerate(d))


# the [8,4] extended Hamming code: the sums of subsets of its basis
_HAMMING_CODE = frozenset(
    (0b11110000 * a) ^ (0b00111100 * b) ^ (0b00001111 * c) ^ (0b01010110 * d)
    for a, b, c, d in itertools.product((0, 1), repeat=4))


@dataclass(frozen=True)
class _OrderInt:
    """An element of an order in doubled coordinates d; a subclass sets the
    dimension `dim`, the parity `code` and the raw `_product` of d-vectors."""
    d: tuple

    def __post_init__(self):
        if len(self.d) != self.dim:
            raise ValueError(f"{self.dim} coordinates required")
        if _parity_word(self.d) not in self.code:
            raise ValueError(f"doubled coordinates {self.d} outside the order")

    @classmethod
    def from_ints(cls, *coords):
        return cls(tuple(2 * x for x in coords))

    def norm(self):
        q, r = divmod(sum(x * x for x in self.d), 4)
        if r:
            raise ArithmeticError(f"doubled coordinates {self.d}: square sum "
                                  f"not a multiple of 4")
        return q

    def conj(self):
        return type(self)((self.d[0],) + tuple(-x for x in self.d[1:]))

    def __add__(self, other):
        return type(self)(tuple(x + y for x, y in zip(self.d, other.d)))

    def __sub__(self, other):
        return type(self)(tuple(x - y for x, y in zip(self.d, other.d)))

    def __neg__(self):
        return type(self)(tuple(-x for x in self.d))

    def __mul__(self, other):
        prod = self._product(self.d, other.d)
        if any(x & 1 for x in prod):
            raise ValueError("product leaves the doubled lattice")
        return type(self)(tuple(x // 2 for x in prod))


class QuatInt(_OrderInt):
    dim, code, _product = 4, frozenset({0, 0b1111}), staticmethod(_hamilton)

    @property
    def parity(self):
        return "hurwitz" if self.d[0] & 1 else "lipschitz"


class OctInt(_OrderInt):
    dim, code, _product = 8, _HAMMING_CODE, staticmethod(_cayley_dickson)

    @property
    def oct_class(self):
        return {0: "gravesian", 0xFF: "kleinian"}.get(_parity_word(self.d),
                                                      "octavian")


def quat_units():
    """The 24 units: 8 Lipschitz (±1, ±i, ±j, ±k) and 16 Hurwitz (±1±i±j±k)/2,
    as a lexicographically sorted (24, 4) array of doubled coordinates."""
    return lattice_points_norm(1)


def is_quat_prime(z):
    return rk.is_prime(z.norm())


def prime_mask(axes):
    """Boolean mask over the product of the doubled-coordinate axes, True
    where the norm Σ xᵢ²/4 is a rational prime.  Condition: all coordinates
    of a cell share one parity, and odd ones come in a multiple of 4 (4 or 8
    axes), so each axis is all even or all odd."""
    axes = [np.asarray(rk._exact_integers(x), dtype=np.int64) for x in axes]
    odd = [int(x[:1].sum()) & 1 for x in axes]
    if any(((x & 1) != o).any() for x, o in zip(axes, odd)) or sum(odd) % 4:
        raise ValueError("each axis must be all even or all odd, and the "
                         "odd axes a multiple of 4")
    shape = tuple(map(len, axes))
    # Σ ⌊xᵢ²/4⌋ per axis, plus a quarter per odd axis
    quarters = [x * x // 4 for x in axes]
    quarters[0] += sum(odd) // 4
    limit = sum(int(q.max(initial=0)) for q in quarters)
    # the int64 norms and the mask, 9 B per cell (tracemalloc), the int64
    # partial sum over all but the last axis, and the sieve's bytes
    rk.check_budget(9 * math.prod(shape) + 8 * math.prod(shape[:-1])
                    + rk._sieve_bytes(limit),
                    f"doubled-coordinate prime mask over {shape}")
    norm = functools.reduce(np.add.outer, quarters)
    return rk.sieve(limit).flags[norm]


def rotate_vector(axis, angle, v):
    """Rotate v about a unit axis by `angle` via r·v·r* with r = e^{axis·θ/2}."""
    ax = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(ax) - 1.0) > 1e-9:
        raise ValueError("axis must be a unit vector")
    h = angle / 2.0
    r = np.array([math.cos(h), *(math.sin(h) * ax)])
    q = np.array([0.0, *np.asarray(v, dtype=float)])
    rc = r * np.array([1.0, -1.0, -1.0, -1.0])
    return np.array(_hamilton(_hamilton(r, q), rc))[1:]


def _sphere_points(dim, total):
    """All integer vectors v of even length dim with Σ vᵢ² = total, as a
    lexicographically sorted int64 (M, dim) array.

    Each vector is split into two halves of length dim/2.  The half vectors
    with square sum <= total (the ball) are enumerated in lexicographic
    order, and every half is joined with the halves whose square sum makes
    up the rest, found by searchsorted in the stable square-sum order and
    mapped back through it.  Lefts come in lexicographic order and so do the
    partners of each left, so the vectors come out sorted, each exactly once.
    """
    m = math.isqrt(total)
    half = dim // 2
    # the ball, its square sums, their sorted copy, the order and the two
    # searchsorted arrays: (4·dim + 40) B per half vector (tracemalloc)
    rk.check_budget((4 * dim + 40) * (2 * m + 1) ** half,
                    f"norm-{total} sphere")
    # stacking the meshgrid's broadcast views allocates only the ball
    ball = np.stack(
        np.meshgrid(*[np.arange(-m, m + 1, dtype=np.int64)] * half,
                    indexing="ij", copy=False), axis=-1).reshape(-1, half)
    sq = np.sum(ball * ball, axis=1)
    order = np.argsort(sq, kind="stable")
    ssq = sq[order]
    rest = np.subtract(total, sq, out=sq)  # the last read of sq
    lo = np.searchsorted(ssq, rest, side="left")
    cnt = np.searchsorted(ssq, rest, side="right")
    cnt -= lo
    del sq, ssq, rest
    size = int(cnt.sum())
    # the (4·dim + 24) B per half vector still held, then the indices, their
    # row gathers and the joined rows: 16·(dim + 1) B per point (tracemalloc)
    rk.check_budget((4 * dim + 24) * len(ball) + 16 * (dim + 1) * size,
                    f"norm-{total} sphere join of {size} points")
    left = np.repeat(np.arange(len(ball)), cnt)
    right = order[rk.concat_ranges(lo, cnt)]  # partners of each left half
    return np.concatenate([ball[left], ball[right]], axis=1)


def lattice_points_norm(p):
    """Doubled coordinates of all Lipschitz and Hurwitz elements with norm p,
    as a lexicographically sorted int64 (M, 4) array.

    These are the integer 4-vectors with Σ dᵢ² = 4p; four squares summing to
    0 mod 4 have 0 or 4 odd terms, so the coordinates share one parity.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    return _sphere_points(4, 4 * p)


@functools.cache
def _unit_matrix():
    """(4, 4, 24) int64 U with U[:, i, j] = eᵢ·uⱼ, uⱼ the doubled units: z·u
    is linear in z, so pts @ U holds z·uⱼ for each row z of pts."""
    e = np.eye(4, dtype=np.int64)[:, :, None]  # (4, 4, 1) against (4, 1, 24)
    table = np.stack(_hamilton(e, lattice_points_norm(1).T[:, None, :]))
    table.setflags(write=False)
    return table


def classes_above(p):
    """Number of right-unit-multiplication orbits on S = {N(z) = p}: |S|/24,
    since the 24 units act freely (z·u = z ≠ 0 forces u = 1; Conway & Smith,
    On Quaternions and Octonions, 2003).  A doubled-coordinate z of norm p
    is a pair of Gaussian integers whose norms sum to 4p, so |S| is
    Σₖ r₂(k)·r₂(4p − k), read off the Gaussian norm count table with
    r₂(0) = 1; no point is built."""
    if not rk.is_prime(p):
        raise ValueError("prime required")
    r2 = norm_count_table(4 * p)
    r2[0] = 1
    size = int(r2 @ r2[::-1])
    if size % 24:
        raise ArithmeticError(f"{size} norm-{p} points, not whole unit orbits")
    return size // 24


def _class_keys(pts, p):
    """Key of the class of each row of the (M, 4) norm-p array pts: its
    sorted |coordinates|, the positively ordered representative, offset by
    m = isqrt(4p) into [0, 2m] and read as base-(2m+1) digits (so key order
    is lexicographic order)."""
    m = math.isqrt(4 * p)
    rep = np.abs(pts.T)
    rep.sort(axis=0)
    place = np.array([(2 * m + 1) ** k for k in (3, 2, 1, 0)])
    key = place @ rep
    key += m * place.sum()
    return key


def positively_ordered_reps(p):
    """One representative per S₄×sign orbit: sorted nonnegative coordinates,
    as a lexicographically sorted int64 (M, 4) array of doubled coordinates.
    """
    if not rk.is_prime(p):
        raise ValueError("prime required")
    pts = lattice_points_norm(p)
    # the first point of each class, in key order; asking for the indices
    # also keeps np.unique off its numpy.ma check
    first = np.unique(_class_keys(pts, p), return_index=True)[1]
    return np.sort(np.abs(pts[first]), axis=1)


# Row of ω = (−1+i+j+k)/2, doubled (−1, 1, 1, 1), in lattice_points_norm(1)
_OMEGA = 8


def u_orbit_lengths(p):
    """Lengths of unit-action orbits on the positively ordered representatives.

    Two representatives are linked when some concrete elements differ by a
    right unit factor; lengths come out in {2, 3} in the tested range.

    The 8 Lipschitz units Q₈ = {±1, ±i, ±j, ±k} permute the doubled
    coordinates of z and flip their signs, so z·q has the class of z.  Q₈ is
    normal of index 3 in the 24 units 2T, whose cosets are Q₈, ωQ₈ and ω²Q₈
    (Conway & Smith, On Quaternions and Octonions, 2003).  So z·u has the
    class of z·ωᵃ for u in ωᵃQ₈, and z·ω² = (z·ω)·ω: the edges z ~ z·ω over
    all points z already join every class to the classes of all 24 products.
    """
    if p == 2 or not rk.is_prime(p):
        raise ValueError("odd prime required")
    pts = lattice_points_norm(p)
    # the points held, the products z·ω, their |coordinates| and keys (104 B
    # per point at the first key), then the keys, class numbers and edge
    # pairs held through component_labels: 106 B per point (tracemalloc)
    rk.check_budget(106 * len(pts),
                    f"unit-orbit class graph of {len(pts)} norm-{p} points")
    # number each point z and its product z·ω by its class, the rank of its
    # key among the representatives' keys
    kw = _class_keys(pts @ _unit_matrix()[:, :, _OMEGA].T // 2, p)
    reps, zc = np.unique(_class_keys(pts, p), return_inverse=True)
    wc = np.searchsorted(reps, kw)
    labels = rk.component_labels(len(reps), np.stack([zc, wc], axis=1))[1]
    return sorted(np.bincount(labels).tolist())


# ---------------------------------------------------------------------------
# Octonions
# ---------------------------------------------------------------------------

def _order_words(which):
    """Parity words of the order `which`; every OctInt is Octavian."""
    words = {"gravesian": (0,), "kleinian": (0, 0xFF),
             "octavian": tuple(_HAMMING_CODE)}.get(which)
    if words is None:
        raise ValueError(f"unknown class {which!r}")
    return words


def is_octavian(e):
    """Membership of a raw doubled-coordinate 8-vector in the Octavian lattice."""
    return len(e) == OctInt.dim and _parity_word(e) in OctInt.code


def oct_units(which="octavian"):
    """Norm-1 elements of the given order, as a lexicographically sorted
    int64 (M, 8) array of doubled coordinates.

    Gravesian and Kleinian: the 16 vectors ±2eᵢ (doubled).  Octavian: 240
    (E₈ roots), the norm-1 vectors whose parity word is a codeword.
    """
    words = _order_words(which)
    pts = _sphere_points(8, 4)
    parity = (pts & 1) @ (1 << np.arange(7, -1, -1))
    return pts[np.isin(parity, words)]


def is_oct_prime(z, which=None):
    """Prime in the order `which` (default: its own): z lies in that order
    and has prime norm (units are excluded automatically)."""
    if which is not None and _parity_word(z.d) not in _order_words(which):
        return False
    return rk.is_prime(z.norm())
