"""Gaussian and Eisenstein integer rings.

Z[i] elements are a + b·i with norm N = a² + b²; Eisenstein elements are
a + b·ω with ω = (1+√−3)/2 (positive imaginary part), norm N = a² + ab + b².

Primality, one rule for both rings (Ireland & Rosen, Ch. 1 §4 and Ch. 9 §1):
z is prime iff N(z) is a rational prime, or N(z) = r² for a rational prime
r ≡ −1 mod q (q = 4 in Z[i], 3 in Z[ω]): such an r stays prime in the ring,
so the elements of norm r² are exactly its unit multiples.  `_is_prime_norm`
and the prime-norm table of `_prime_norms` are the only two forms of it.

Canonical representatives: the unit×conjugation symmetry group of Z[i] is
dihedral of order 8, with fundamental octant 0 ≤ arg ≤ π/4, i.e. a ≥ b ≥ 0;
for the Eisenstein hexant (order-12 symmetry, 30°) the sector is likewise
a ≥ b ≥ 0 in ω-coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ratkernel as rk

PI8 = math.pi / 8


@dataclass(frozen=True)
class GaussianInt:
    re: int
    im: int

    def __add__(self, other):
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianInt(a * c - b * d, a * d + b * c)

    def __neg__(self):
        return GaussianInt(-self.re, -self.im)

    def conj(self):
        return GaussianInt(self.re, -self.im)

    def norm(self):
        return self.re * self.re + self.im * self.im

    def __repr__(self):
        return f"({self.re}{self.im:+d}i)"


@dataclass(frozen=True)
class EisensteinInt:
    a: int
    b: int

    def __add__(self, other):
        return EisensteinInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        # ω² = ω − 1, so (a+bω)(c+dω) = (ac − bd) + (ad + bc + bd)ω
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c + b * d)

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def conj(self):
        # conj(ω) = 1 − ω
        return EisensteinInt(self.a + self.b, -self.b)

    def norm(self):
        return self.a * self.a + self.a * self.b + self.b * self.b

    def complex_value(self):
        return complex(self.a + self.b / 2, self.b * math.sqrt(3) / 2)

    def __repr__(self):
        return f"({self.a}{self.b:+d}w)"


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


def octant_rep(z):
    """Canonical orbit representative with 0 <= arg <= π/4 (a >= b >= 0)."""
    if z.re == 0 and z.im == 0:
        raise ValueError("octant_rep undefined at 0")
    a, b = abs(z.re), abs(z.im)
    return GaussianInt(max(a, b), min(a, b))


def hexant_rep(z):
    """Canonical representative in the 30° Eisenstein sector (a >= b >= 0)."""
    if z.a == 0 and z.b == 0:
        raise ValueError("hexant_rep undefined at 0")
    return EisensteinInt(*min((w.a, w.b) for u in EISENSTEIN_UNITS for w in
                              (z * u, z.conj() * u) if w.a >= w.b >= 0))


def prime_above(p, ring="gaussian"):
    """Canonical prime representative above a rational prime p."""
    if not rk.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if ring == "gaussian":
        if p % 4 == 3:
            return GaussianInt(p, 0)
        (a,), (b,) = rk.two_square(np.array([p]))
        return GaussianInt(int(a), int(b))
    if ring == "eisenstein":
        if p % 3 == 2:
            return EisensteinInt(p, 0)
        # split case: 4p = (2a + b)² + 3b² with a >= b >= 1, so r >= 3b
        for b in range(1, math.isqrt(p) + 1):
            r = math.isqrt(4 * p - 3 * b * b)
            if r * r == 4 * p - 3 * b * b and (r - b) % 2 == 0 and r >= 3 * b:
                return hexant_rep(EisensteinInt((r - b) // 2, b))
        raise ValueError(f"no split representation found for {p}")
    raise ValueError(f"unknown ring {ring!r}")


def theta_sequence(count):
    """(p, θ): the first `count` primes p ≡ 1 mod 4 (int64) and their angles
    θ = arg(a+ib) − π/8 (float64).

    Each such prime p has exactly one Gaussian prime a + bi of norm p in the
    open octant a > b > 0, so θ ∈ (−π/8, π/8): with the dihedral symmetry
    factored out, the angles are indexed by the rational primes, and a, b
    come from `rk.two_square` on the sieve's primes.
    """
    if count < 1:
        raise ValueError("count >= 1 required")
    # above the m-th prime for m >= 6 (Rosser 1939); a sieve to 4.8·10⁸ puts
    # it >= 5 % above the count-th prime ≡ 1 mod 4 for all counts <= 1.2·10⁷
    m = 2 * count + 6
    limit = int(m * (math.log(m) + math.log(math.log(m))))
    # tracemalloc peak: the sieve's flags, 64.4 B per angle and one √−1
    # kernel block of 2¹³ primes (10³ to 2·10⁶)
    rk.check_budget(limit + 65 * count + 2**19, f"{count} prime angles")
    ps = rk.sieve(limit).primes()
    ps = ps[ps % 4 == 1][:count]
    a, b = rk.two_square(ps)
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
    enumerated, formula = _pi_G_tables(int(xmax))
    return int(np.abs(enumerated - formula)[2:].max())


def _gaussian_prime_disk(r):
    """(mask, m): Gaussian primes with |z| <= r on the box [-m, m]², m = int(r);
    mask[i, j] is the point (i − m) + (j − m)i."""
    m = int(r)
    a = np.arange(-m, m + 1, dtype=np.int64)
    disk = a[:, None] ** 2 + a[None, :] ** 2 <= int(r * r)
    return gaussian_prime_mask(-m, m, -m, m) & disk, m


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


# per ring: (units, character modulus q, t in the norm form a² + t·ab + b²)
_NORM_FORMS = {"gaussian": (4, 4, 0), "eisenstein": (6, 3, 1)}


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
    """Unordered Gaussian prime pairs at distance √2, both inside |z| <= r.

    Deterministic order: sorted by the lexicographically smaller member.
    """
    if r < 2:
        raise ValueError("r >= 2 required")
    mask, m = _gaussian_prime_disk(r)
    # partners one step up-right, (a, b)–(a+1, b+1), and down-right,
    # (a, b+1)–(a+1, b); the left member is the lexicographically smaller
    ua, ub = np.nonzero(mask[:-1, :-1] & mask[1:, 1:])
    da, db = np.nonzero(mask[:-1, 1:] & mask[1:, :-1])
    a = np.concatenate([ua, da]) - m
    b = np.concatenate([ub, db + 1]) - m
    d = np.concatenate([ub + 1, db]) - m
    order = np.lexsort((d, b, a))
    return [(GaussianInt(x, y), GaussianInt(x + 1, z)) for x, y, z in
            zip(a[order].tolist(), b[order].tolist(), d[order].tolist())]


def _prime_norms(limit, ring):
    """table[n] for 0 <= n <= limit: whether n is the norm of a prime of the
    ring, i.e. a rational prime or the square of an inert one, 1 B per norm."""
    _units, q, _t = _norm_form(ring)
    flags = rk.sieve(max(limit, 4)).flags
    table = flags[:limit + 1].copy()
    r = np.flatnonzero(flags[:math.isqrt(limit) + 1])
    r = r[r % q == q - 1]
    table[r * r] = True
    return table


def planar_prime_mask(ring, a_lo, a_hi, b_lo, b_hi):
    """Boolean mask of the primes a + b·i (a + b·ω) over the box
    [a_lo..a_hi]×[b_lo..b_hi] (inclusive): the prime-norm table read at
    every cell's norm."""
    _units, _q, t = _norm_form(ring)
    cells = max(a_hi - a_lo + 1, 0) * max(b_hi - b_lo + 1, 0)
    # the form is positive definite, so the table's limit, the box's largest
    # norm, is at a corner; 9 B per cell (int64 norms, mask) plus 1 B per
    # norm each for the table and, when the sieve is cold, its flags
    limit = max(a * a + t * a * b + b * b
                for a in (a_lo, a_hi) for b in (b_lo, b_hi))
    rk.check_budget(9 * cells + 2 * (limit + 1),
                    f"{ring.title()} prime mask of {cells} cells")
    N = _norm_grid(t, np.arange(a_lo, a_hi + 1, dtype=np.int64),
                   np.arange(b_lo, b_hi + 1, dtype=np.int64))
    return _prime_norms(limit, ring)[N]


def gaussian_prime_mask(re_lo, re_hi, im_lo, im_hi):
    """Boolean mask over the box [re_lo..re_hi]×[im_lo..im_hi] (inclusive)."""
    return planar_prime_mask("gaussian", re_lo, re_hi, im_lo, im_hi)


def _row_bytes(n, limit, rows=1):
    """Bytes of `rows` prime rows to n sieved by primes up to `limit`: per row
    its flags and 2 KiB of objects; per call a cold sieve, 24 B per sieving
    prime, with π(x) < 1.25506·x/ln x (Rosser–Schoenfeld), and 1 MiB for one
    √−1 kernel block."""
    return (rows * (n + 2050) + limit
            + 24 * int(1.25506 * limit / math.log(limit) + 1) + 2**20)


def prime_row_flags(k, n):
    """flags[j-1] for j + k·i Gaussian prime, 1 <= j <= n (k >= 1), sieved by
    the progressions of the primes that strike the row — no primality tests.

    A composite j² + k² has a prime factor p <= L = √(n² + k²), and
    p | j² + k² iff p = 2 and j ≡ k mod 2, or p | k and p | j, or p ≡ 1 mod 4
    and j ≡ ±k·√−1 mod p.  A struck j² + k² <= L may be the striking prime
    itself; those few j are read off the sieve.

    This row does not go through gaussian_prime_mask: the row's norms reach
    n² + k² (10¹⁴ for the a² + 1 ratio at n = 10⁷), far beyond a flag sieve,
    while the sieving primes here only reach √(n² + k²).
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    return next(_prime_rows([k], n))


def _prime_rows(ks, n):
    """Yield prime_row_flags(k, n) for each k of ks, from one sieve to
    L = √(n² + max k²) and one set of √−1 roots: a sieving prime that divides
    j² + k² proves it composite unless it equals it, and those j are read off
    the sieve."""
    limit = max(math.isqrt(n * n + max(ks) ** 2), 2)
    rk.check_budget(_row_bytes(n, limit, len(ks)),
                    f"{len(ks)} Gaussian prime rows to {n}")
    s = rk.sieve(limit)
    split = s.primes()
    split = split[split % 4 == 1]
    root = rk.sqrt_minus_one_mod(split)
    for k in ks:
        flags = np.ones(n + 1, dtype=bool)
        flags[2 - k % 2 :: 2] = False
        for p, _e in rk.factorize(k):  # p | k strikes j ≡ 0
            flags[::p] = False
        for p, r in zip(map(int, split), map(int, root * k % split)):
            flags[r::p] = False  # a split p strikes j ≡ ±k·√−1
            flags[p - r :: p] = False
        j = np.arange(1, min(n, math.isqrt(max(limit - k * k, 0))) + 1)
        flags[j] = s.flags[j * j + k * k]
        yield flags[1:]
