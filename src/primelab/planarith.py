"""Gaussian and Eisenstein integer rings.

Both are Z[u] with u² = t·u − 1, so conj(u) = t − u and N = a² + t·ab + b²:
u = i with t = 0, and u = ω = (1+√−3)/2 (Im ω > 0) with t = 1.  One element
class, `_PlanarInt`, holds the arithmetic of `GaussianInt` and `EisensteinInt`.

Primality, one rule for both rings (Ireland & Rosen, Ch. 1 §4 and Ch. 9 §1):
z is prime iff N(z) is a rational prime, or N(z) = r² for a rational prime
r ≡ −1 mod q (q = 4 in Z[i], 3 in Z[ω]): such an r stays prime in the ring,
so the elements of norm r² are exactly its unit multiples.  `_is_prime_norm`
and the prime-norm table of `_prime_norms` are the only two forms of it.

Canonical representatives, one rule for both rings: the least image under
units × conjugation (8 or 12 maps) with a ≥ b ≥ 0.  The prime above a split
p is x + y·√−d = (x − t·y) + (1 + t)·y·u from one Cornacchia Euclid on
p = x² + d·y², d = 1 + 2t, and the root √−d mod p of ratkernel's one root
kernel for both rings.
Euler's composite test finds a factor of n from two two-square
representations by one Z[i] gcd on `GaussianInt`.
The prime twins come as one sorted int64 array, not as pairs of elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, attrgetter, index, neg, sub

import numpy as np

from . import ratkernel as rk

PI8 = math.pi / 8


# per ring: (units, character modulus q, t in the norm form a² + t·ab + b²)
_NORM_FORMS = {"gaussian": (4, 4, 0), "eisenstein": (6, 3, 1)}


class _PlanarInt:
    """a + b·u (module docstring) in the ring `ring`; a subclass is a frozen
    dataclass of the two coordinates, which `coords` reads in order."""

    def __init_subclass__(cls, ring, letter):
        cls.ring, cls._t, cls._letter = ring, _NORM_FORMS[ring][2], letter

    def __add__(self, other):
        return type(self)(*map(add, self.coords, other.coords))

    def __sub__(self, other):
        return type(self)(*map(sub, self.coords, other.coords))

    def __mul__(self, other):
        (a, b), (c, d) = self.coords, other.coords
        return type(self)(a * c - b * d, a * d + b * c + self._t * b * d)

    def __neg__(self):
        return type(self)(*map(neg, self.coords))

    def conj(self):
        a, b = self.coords
        return type(self)(a + self._t * b, -b)

    def norm(self):
        a, b = self.coords
        return a * a + self._t * a * b + b * b

    def __repr__(self):
        return "({}{:+d}{})".format(*self.coords, self._letter)


@dataclass(frozen=True, repr=False)
class GaussianInt(_PlanarInt, ring="gaussian", letter="i"):
    re: int
    im: int
    coords = property(attrgetter("re", "im"))


@dataclass(frozen=True, repr=False)
class EisensteinInt(_PlanarInt, ring="eisenstein", letter="w"):
    a: int
    b: int
    coords = property(attrgetter("a", "b"))

    def complex_value(self):
        return complex(self.a + self.b / 2, self.b * math.sqrt(3) / 2)


GAUSSIAN_UNITS = (GaussianInt(1, 0), GaussianInt(0, 1),
                  GaussianInt(-1, 0), GaussianInt(0, -1))

EISENSTEIN_UNITS = tuple(EisensteinInt(a, b) for a, b in
                         ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))


def _is_prime_norm(n, ring):
    """Whether the elements of norm n are prime (module docstring)."""
    _units, q, _t = _norm_form(ring)
    r = math.isqrt(n)
    return rk.is_prime(n) or r * r == n and r % q == q - 1 and rk.is_prime(r)


def is_gaussian_prime(z):
    return _is_prime_norm(z.norm(), "gaussian")


def is_eisenstein_prime(z):
    return _is_prime_norm(z.norm(), "eisenstein")


def _sector_rep(z, units, name):
    """The least image of z under units × conjugation with a >= b >= 0."""
    if z.coords == (0, 0):
        raise ValueError(f"{name} undefined at 0")
    return type(z)(*min((a, b) for u in units for w in (z * u, z.conj() * u)
                        for a, b in (w.coords,) if a >= b >= 0))


def octant_rep(z):
    """Canonical orbit representative with 0 <= arg <= π/4 (a >= b >= 0)."""
    return _sector_rep(z, GAUSSIAN_UNITS, "octant_rep")


def hexant_rep(z):
    """Canonical representative in the 30° Eisenstein sector (a >= b >= 0)."""
    return _sector_rep(z, EISENSTEIN_UNITS, "hexant_rep")


def prime_above(p, ring="gaussian"):
    """Canonical prime above a rational prime p, a split p <= 3037000499
    (module docstring): p itself when inert, 1 + u when ramified (p | q)."""
    if not rk.is_prime(p):
        raise ValueError(f"{p} is not prime")
    _units, q, t = _norm_form(ring)
    units = GAUSSIAN_UNITS if ring == "gaussian" else EISENSTEIN_UNITS
    cls = type(units[0])
    if p % q == q - 1:
        return cls(p, 0)
    if q % p == 0:  # 2 = −i·(1 + i)², 3 = −ω²·(1 + ω)²
        return cls(1, 1)
    ps = np.array([p])  # proven above; the kernel refuses p > _EXACT_P
    (x,), (y,) = rk._cornacchia(ps, rk._split_root(ps, q), 1 + 2 * t)
    return _sector_rep(cls(int(x - t * y), int((1 + t) * y)), units,
                       "prime_above")


def euler_composite_factor(n, rep1, rep2):
    """A nontrivial factor of n from two distinct two-square representations.

    Two essentially different a²+b² = c²+d² = n force n composite; the factor
    is the norm of gcd(a + bi, c ± di) in Z[i], by Euclid with the quotient
    z·conj(w)/N(w) rounded to the nearest lattice point.  Integers only.
    """
    n, (a, b), (c, d) = index(n), map(index, rep1), map(index, rep2)
    if a * a + b * b != n or c * c + d * d != n:
        raise ValueError("representations do not equal n")
    if (abs(c), abs(d)) in {(abs(a), abs(b)), (abs(b), abs(a))}:
        raise ValueError("representations equivalent under sign/swap")
    for w in (GaussianInt(c, d), GaussianInt(c, -d)):
        z = GaussianInt(a, b)
        while w.coords != (0, 0):
            m = w.norm()
            x, y = (z * w.conj()).coords
            z, w = w, z - GaussianInt((2 * x + m) // (2 * m),
                                      (2 * y + m) // (2 * m)) * w
        f = z.norm()
        if 1 < f < n:
            return min(f, n // f)
    raise ValueError("gcd derivation failed to produce a proper factor")


def theta_sequence(count):
    """(p, θ): the first `count` primes p ≡ 1 mod 4 (int64) and their angles
    θ = arg(a+ib) − π/8 (float64).

    Each such prime p has exactly one Gaussian prime a + bi of norm p in the
    open octant a > b > 0, so θ ∈ (−π/8, π/8): with the dihedral symmetry
    factored out, the angles are indexed by the rational primes, and a, b
    come from Cornacchia on `rk._split_root` of the sieve's primes.
    """
    if count < 1:
        raise ValueError("count >= 1 required")
    # above the m-th prime for m >= 6 (Rosser 1939); a sieve to 4.8·10⁸ puts
    # it >= 5 % above the count-th prime ≡ 1 mod 4 for all counts <= 1.2·10⁷
    m = 2 * count + 6
    limit = int(m * (math.log(m) + math.log(math.log(m))))
    # tracemalloc peak: the sieve's bytes, 64.4 B per angle and one √−1
    # kernel block of 2¹³ primes (10³ to 2·10⁶)
    rk.check_budget(rk._sieve_bytes(limit) + 65 * count + 2**19,
                    f"{count} prime angles")
    ps = rk.sieve(limit).primes()
    ps = ps[ps % 4 == 1][:count]
    a, b = rk._cornacchia(ps, rk._split_root(ps, 4), 1)
    # math.atan2, not np.arctan2: the two differ in the last ulp
    return ps, np.fromiter(map(math.atan2, b, a), float, count) - PI8


def _pi_G_tables(xmax):
    """(enumerated, formula) for 0 <= x <= xmax: the number of Gaussian primes
    with N(z) <= x, and 4 + 8·π₁(x) + 4·π₃(√x) from the sieve's primes."""
    counts = norm_count_table(xmax)
    counts *= _prime_norms(xmax, "gaussian")
    formula = np.zeros(xmax + 1, dtype=np.int64)
    ps = rk.sieve(xmax).primes()
    # the four primes ±1±i, eight above each p ≡ 1 mod 4, four of norm p²
    formula[2] = 4
    formula[ps[ps % 4 == 1]] = 8
    inert = ps[(ps % 4 == 3) & (ps * ps <= xmax)]
    formula[inert * inert] = 4
    return np.cumsum(counts), np.cumsum(formula)


def pi_G(x):
    """Count of Gaussian primes with N(z) <= x (all associates/conjugates).

    Returns (count, identity_residual) against 4 + 8·π₁(x) + 4·π₃(√x).
    """
    if x < 2:
        raise ValueError("x >= 2 required")
    count, formula = (int(t[-1]) for t in _pi_G_tables(int(x)))
    return count, count - formula


def pi_G_identity_check(xmax):
    """Max |enumeration − formula| of the counting functions over 2 <= x <= xmax."""
    if xmax < 2:
        raise ValueError(f"xmax >= 2 required, got {xmax}")
    enumerated, formula = _pi_G_tables(int(xmax))
    return int(np.abs(enumerated - formula)[2:].max())


def _gaussian_prime_disk(r):
    """(mask, m): Gaussian primes with |z| <= r on the box [-m, m]², m = int(r);
    mask[i, j] is the point (i − m) + (j − m)i."""
    m = int(r)
    mask = gaussian_prime_mask(-m, m, -m, m)  # its check precedes the disk
    a = np.arange(-m, m + 1, dtype=np.int64)
    return mask & (a[:, None] ** 2 + a[None, :] ** 2 <= int(r * r)), m


def sector_count(r, alpha, beta):
    """Exact count of Gaussian primes with arg ∈ [α, β], |z| <= r.

    The interval is closed so that reflection symmetries (conjugation,
    multiplication by i) map sectors to sectors of equal count; arg is
    normalized to [0, 2π), so β = 2π closes the full circle without
    double-counting the positive real axis.
    """
    if not 0 <= alpha < beta <= 2 * math.pi:
        raise ValueError("need 0 <= alpha < beta <= 2π")
    mask, m = _gaussian_prime_disk(r)
    A, B = np.nonzero(mask)
    args = np.arctan2(B - m, A - m) % (2 * math.pi)
    return int(np.count_nonzero((args >= alpha) & (args <= beta)))


def kubilius_expected(r, alpha, beta):
    """4 · (β−α)/(2π) · ∫₂^{r²} dx/log x.

    The factor 4 accounts for the unit orbit: π_G(x) ~ 4 Li(x) when every
    associate is counted, and sector_count counts all associates.
    """
    if r * r < 2:
        return 0.0
    return 4 * (beta - alpha) / (2 * math.pi) * rk.li(r * r)


def gaussian_moebius(z):
    """μ_G: 0 on non-squarefree, else (−1)^(#distinct Gaussian prime factors).

    Units get μ_G = 1 (empty factorization).  Read off N(z) = ∏ pᵉ: 1 + i
    divides z e times and an inert p e/2 times; a split p = ππ̄ divides z
    as πᵃπ̄ᵇ with a + b = e, where a = b = 1 exactly when p | z.
    """
    n = z.norm()
    if n == 0:
        raise ValueError("μ_G undefined at 0")
    omega = 0
    for p, e in rk.factorize(n):
        mult = e // 2 if p % 4 == 3 else e
        if mult > 2 or mult == 2 and (p % 4 != 1 or z.re % p or z.im % p):
            return 0
        omega += mult
    return -1 if omega % 2 else 1


def _h_table(n):
    """h(0..n): multiplicative, Σ_{N(z)=m} μ_G(z) = 4·h(m); h(0) = 0.

    Local factors of Π_classes (1 − N(π)^{−s}):
      p = 2       → h(2) = −1, higher powers 0
      p ≡ 1 mod 4 → h(p) = −2, h(p²) = 1, higher powers 0
      p ≡ 3 mod 4 → h(p²) = −1, all other powers 0
    """
    return rk.multiplicative_table(n, lambda p, e: np.select(
        [(p == 2) & (e == 1), (p % 4 == 1) & (e == 1), (p % 4 == 1) & (e == 2),
         (p % 4 == 3) & (e == 2)], [-1, -2, 1, -1]))


def gaussian_mertens(x):
    """M_G(x) = Σ_{0<N(z)<=x} μ_G(z), over all nonzero Gaussian integers."""
    x = int(x)
    if x < 1:
        raise ValueError("x >= 1 required")
    return int(gaussian_mertens_series(x)[x])


def gaussian_mertens_series(nmax):
    """M_G(0..nmax) as an int64 array (M_G(0) = 0)."""
    return 4 * np.cumsum(_h_table(int(nmax)))


def _norm_form(ring):
    if ring not in _NORM_FORMS:
        raise ValueError(f"unknown ring {ring!r}")
    return _NORM_FORMS[ring]


def norm_count(n, ring="gaussian"):
    """#{z : N(z) = n} = units · (d₁(n) − d₋₁(n)), d_k(n) counting the
    divisors ≡ k mod q: 4(d₁ − d₃) in Z[i] (Hardy & Wright, Thm 278) and
    6(d₁ − d₂) in Z[ω]."""
    if n < 1:
        raise ValueError("n >= 1 required")
    units, q, _t = _norm_form(ring)
    return units * (rk.divisors_mod_count(n, 1, q)
                    - rk.divisors_mod_count(n, q - 1, q))


def _norm_grid(t, a, b):
    """N[i, j] = a[i]² + t·a[i]·b[j] + b[j]², int64, summed in place."""
    N = np.multiply.outer(a, t * b)
    N += (a * a)[:, None]
    N += b * b
    return N


def norm_count_table(nmax, ring="gaussian"):
    """counts[n] = #{z : N(z) = n} for all n <= nmax.  Every nonzero z has
    exactly one associate a + b·i (a + b·ω) with a >= 1, b >= 0, the sector
    0 <= arg < π/2 (π/3), so the counts are the units times a bincount of the
    norms over [1..m]×[0..m], m = isqrt(nmax).  Primality depends on the norm
    alone, so the prime counts are this table times `_prime_norms`."""
    units, _q, t = _norm_form(ring)
    nmax = int(nmax)
    # peak per n (tracemalloc, n >= 10⁵): 15.3 B Gaussian, 13.9 B Eisenstein
    rk.check_budget(24 * nmax, f"{ring.title()} norm count table to {nmax}")
    m = math.isqrt(nmax)
    N = _norm_grid(t, np.arange(1, m + 1, dtype=np.int64),
                   np.arange(0, m + 1, dtype=np.int64))
    N = N[N <= nmax]
    counts = np.bincount(N, minlength=nmax + 1)
    counts *= units
    return counts


def twins(r):
    """Unordered Gaussian prime pairs at distance √2, both inside |z| <= r,
    as an int64 (M, 2, 2) array of rows [[a, b], [a + 1, d]]: the
    lexicographically smaller member first, rows in lexicographic order."""
    if r < 2:
        raise ValueError("r >= 2 required")
    mask, m = _gaussian_prime_disk(r)
    # partners one step up-right, (a, b)–(a+1, b+1), and down-right,
    # (a, b+1)–(a+1, b); the left member is the lexicographically smaller
    up = mask[:-1, :-1] & mask[1:, 1:]
    down = mask[:-1, 1:] & mask[1:, :-1]
    count = int(np.count_nonzero(up)) + int(np.count_nonzero(down))
    # index rows, shifted and sorted copies, order: 72 B/pair (tracemalloc)
    rk.check_budget(80 * count, f"{count} Gaussian prime twins, |z| <= {r}")
    rows = np.concatenate([np.argwhere(up)[:, [0, 1, 0, 1]] + (0, 0, 1, 1),
                           np.argwhere(down)[:, [0, 1, 0, 1]] + (0, 1, 1, 0)])
    rows -= m
    return rows[np.lexsort(rows.T[::-1])].reshape(-1, 2, 2)


def _prime_norms(limit, ring):
    """table[n] for 0 <= n <= limit: whether n is the norm of a prime of the
    ring, i.e. a rational prime or the square of an inert one, 1 B per norm."""
    _units, q, _t = _norm_form(ring)
    table = rk.sieve(limit).flags.copy()
    r = np.flatnonzero(table[:math.isqrt(limit) + 1])
    r = r[r % q == q - 1]
    table[r * r] = True
    return table


def planar_prime_mask(ring, a_lo, a_hi, b_lo, b_hi):
    """Boolean mask of the primes a + b·i (a + b·ω) over the box
    [a_lo..a_hi]×[b_lo..b_hi] (inclusive): the prime-norm table read at
    every cell's norm, its integer bounds read by operator.index."""
    a_lo, a_hi, b_lo, b_hi = map(index, (a_lo, a_hi, b_lo, b_hi))
    _units, _q, t = _norm_form(ring)
    cells = max(a_hi - a_lo + 1, 0) * max(b_hi - b_lo + 1, 0)
    # a positive definite form has the table's limit, the largest norm, at a
    # corner; 9 B per cell (norms, mask), 1 B per norm (table), sieve bytes
    limit = max(a * a + t * a * b + b * b
                for a in (a_lo, a_hi) for b in (b_lo, b_hi))
    rk.check_budget(9 * cells + limit + 1 + rk._sieve_bytes(limit),
                    f"{ring.title()} prime mask of {cells} cells")
    N = _norm_grid(t, np.arange(a_lo, a_hi + 1, dtype=np.int64),
                   np.arange(b_lo, b_hi + 1, dtype=np.int64))
    return _prime_norms(limit, ring)[N]


def gaussian_prime_mask(re_lo, re_hi, im_lo, im_hi):
    """Boolean mask over the box [re_lo..re_hi]×[im_lo..im_hi] (inclusive)."""
    return planar_prime_mask("gaussian", re_lo, re_hi, im_lo, im_hi)


def _row_bytes(n, limit, rows=1):
    """Bytes of `rows` prime rows to n sieved by primes up to `limit`: per row
    its flags and 2 KiB of objects; per call the sieve's bytes, 24 B per
    sieving prime, with π(x) < 1.25506·x/ln x (Rosser–Schoenfeld), and 1 MiB
    for one √−1 kernel block."""
    return (rows * (n + 2050) + rk._sieve_bytes(limit)
            + 24 * int(1.25506 * limit / math.log(limit) + 1) + 2**20)


def prime_rows(ks, n):
    """Bool (len(ks), n) array, row i flagging j + kᵢ·i Gaussian prime for
    1 <= j <= n (every k >= 1), sieved by the progressions of the primes
    that strike each row — no primality tests.

    A composite j² + k² has a prime factor p <= L = √(n² + k²), and
    p | j² + k² iff p = 2 and j ≡ k mod 2, or p | k and p | j, or p ≡ 1 mod 4
    and j ≡ ±k·√−1 mod p; all rows share one sieve and one root search.  A
    struck j² + k² <= L may be the striking prime itself; those few j are
    read off the sieve.

    The rows do not go through gaussian_prime_mask: their norms reach
    n² + k² (10¹⁴ for the a² + 1 ratio at n = 10⁷), far beyond a flag sieve,
    while the sieving primes here only reach √(n² + k²).
    """
    if not ks or min(ks) < 1:
        raise ValueError("k >= 1 required")
    if n < 0:
        raise ValueError("n >= 0 required")
    limit = max(math.isqrt(n * n + max(ks) ** 2), 2)
    rk.check_budget(_row_bytes(n, limit, len(ks)),
                    f"{len(ks)} Gaussian prime rows to {n}")
    s = rk.sieve(limit)
    split = s.primes()
    split = split[split % 4 == 1]
    root = rk._split_root(split, 4)
    rows = np.ones((len(ks), n + 1), dtype=bool)
    for flags, k in zip(rows, ks):
        flags[2 - k % 2 :: 2] = False
        for p, _e in rk.factorize(k):  # p | k strikes j ≡ 0
            flags[::p] = False
        for p, r in zip(map(int, split), map(int, root * k % split)):
            flags[r::p] = False  # a split p strikes j ≡ ±k·√−1
            flags[p - r :: p] = False
        j = np.arange(1, min(n, math.isqrt(max(limit - k * k, 0))) + 1)
        flags[j] = s.flags[j * j + k * k]
    return rows[:, 1:]
