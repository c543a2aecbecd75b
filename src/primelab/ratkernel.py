"""Rational-integer number theory kernel.

Sieving, deterministic 64-bit primality, prime counting in residue classes,
the logarithmic integral li(x) = ∫₂ˣ dt/log t, Jordan totients
J_s(n) = n^s ∏_{p|n} (1 - p^{-s}), `multiplicative_table` (the one table
behind μ, φ and planarith's Gaussian h, strided over the primes <= √n of the
one sieve), concatenated ranges, the gcd table gcd(i, j) for 1 <= i, j <= n,
the Jacobi symbol, one array kernel for √−1 mod p, Cornacchia's Euclid for
p = x² + d·y² (two squares at d = 1), Euler's composite-detection identity,
and divisor-class counts d_k(n; m) = #{d | n : d ≡ k mod m}.

Everything here is exact integer arithmetic except li().
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np


class CapacityError(Exception):
    """A requested computation exceeds the configured resource budget."""


_BYTE_BUDGET = 2_200_000_000  # ~2 GB for one computation's arrays


def check_budget(nbytes, what):
    """Raise CapacityError before allocating an estimated `nbytes` for `what`
    when that is above the byte budget."""
    if nbytes > _BYTE_BUDGET:
        raise CapacityError(f"{what} needs about {nbytes} B, above the "
                            f"{_BYTE_BUDGET} B budget")


class PrimeSieve:
    """Primality flags for 0..limit with O(1) queries.

    Immutable after construction; safe to share read-only across workers.
    """

    def __init__(self, limit):
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        check_budget(limit + 1, f"sieve limit {limit}")
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = False
        self.limit = limit
        self.flags = flags
        self.flags.setflags(write=False)

    def is_prime(self, n):
        if n < 0 or n > self.limit:
            raise ValueError(f"{n} outside sieve range 0..{self.limit}")
        return bool(self.flags[n])

    def primes(self):
        """All primes <= limit as an int64 array."""
        return np.nonzero(self.flags)[0].astype(np.int64)

    def pi(self, x):
        """#{p <= x}."""
        if x < 0:
            return 0
        if x > self.limit:
            raise ValueError(f"{x} outside sieve range")
        return int(np.count_nonzero(self.flags[: int(x) + 1]))


# one sieve is kept: each cached sieve holds its limit's bytes of flags, and
# eight at the byte budget would not fit in memory together
@lru_cache(maxsize=1)
def sieve(limit):
    return PrimeSieve(limit)


_SMALL_PRIMES = tuple(int(p) for p in PrimeSieve(1000).primes())

# Deterministic Miller-Rabin witness set for n < 3.3·10^24 (covers 64-bit).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Exact primality for any nonnegative integer (deterministic < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 1_000_000:
        # trial division already covered sqrt(1e6) = 1000
        return True
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n − 1 = d·2ʳ, d odd
    d = (n - 1) >> r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def pi_mod(x, r, m):
    """#{p <= x prime : p ≡ r mod m}."""
    if not 0 <= r < m:
        raise ValueError("need 0 <= r < m")
    s = sieve(max(int(x), 2))
    ps = s.primes()
    ps = ps[ps <= x]
    return int(np.count_nonzero(ps % m == r))


def li(x):
    """∫₂ˣ dt/log t, mpmath's offset logarithmic integral Li(x) − Li(2).

    Evaluated at a pinned 30 digits, so the float returned does not depend
    on the caller's (or zetafun's) global mpmath precision.  mpmath is
    imported on the first call, so importing this module loads none.
    """
    if x < 2:
        raise ValueError("li defined for x >= 2")
    import mpmath
    with mpmath.workdps(30):
        return float(mpmath.li(x, offset=True))


def factorize(n):
    """Factorization as a list of (prime, exponent), primes increasing.

    Trial division plus Miller-Rabin certification of the final cofactor;
    intended for the moderate n this laboratory sweeps, not cryptographic sizes.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    p = 1009
    while n > 1:
        if is_prime(n):
            out.append((n, 1))
            break
        while n % p:
            p += 2
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def jordan_totient(n, s=1):
    """J_s(n) = n^s ∏_{p|n}(1 - p^{-s}).

    Exact integer for integer s >= 1, complex float otherwise.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if isinstance(s, int) and s >= 1:
        out = 1
        for p, e in factorize(n):
            out *= p ** ((e - 1) * s) * (p**s - 1)
        return out
    out = complex(n) ** s
    for p, _e in factorize(n):
        out *= 1 - complex(p) ** (-s)
    return out


def totient(n):
    return jordan_totient(n, 1)


def moebius(n):
    if n < 1:
        raise ValueError("n >= 1 required")
    mu = 1
    for _p, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def multiplicative_table(n, local):
    """f(0..n) as int64 for the multiplicative f with f(pᵉ) = local(p, e).

    `local` is evaluated with numpy broadcasting: for each prime p <= √n of
    `sieve` on the exponents of p in p, 2p, 3p, …, counted by one strided
    pass per power of p, then with e = 1 on the one prime above √n left of
    each k once its primes <= √n are divided out.  f(0) = 0.
    """
    # peak per n (tracemalloc, n = 10⁶): 27.5 B μ, 35.4 B h, 38.0 B φ
    check_budget(48 * (n + 1), f"multiplicative table to {n}")
    f = np.zeros(n + 1, dtype=np.int64)
    f[1:] = 1
    rest = np.arange(n + 1)
    for p in sieve(max(math.isqrt(n), 2)).primes().tolist():
        e = np.zeros(n // p, dtype=np.int64)
        q = p
        while q <= n:
            e[q // p - 1 :: q // p] += 1
            rest[q::q] //= p
            q *= p
        f[p::p] *= local(p, e)
    big = rest > 1
    f[big] *= local(rest[big], 1)
    return f


def moebius_table(n):
    """μ(1..n) as an int8 array (index 0 unused)."""
    return multiplicative_table(
        n, lambda p, e: np.where(e == 1, -1, 0)).astype(np.int8)


def concat_ranges(lo, k):
    """lo[0], ..., lo[0] + k[0] − 1, lo[1], ...: ranges of int64 lengths k."""
    return np.arange(k.sum()) - np.repeat(np.cumsum(k) - k - lo, k)


def gcd_table(n):
    """gcd(i, j) for 1 <= i, j <= n as an int64 (n, n) array (entry [i-1, j-1]).

    gcd(i, j) = ∏ p^min(vₚ(i), vₚ(j)), so the table is the product, over the
    prime powers q = pᵏ <= n, of a factor p on the cells where q divides both
    i and j: the strided block [q-1::q, q-1::q].  Primes are taken in
    increasing order, each with all its powers, so the diagonal entry of p is
    still 1 when p is reached exactly when p is prime.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    check_budget(8 * n * n, f"gcd table n={n}")
    g = np.ones((n, n), dtype=np.int64)
    for p in range(2, n + 1):
        if g[p - 1, p - 1] == 1:
            q = p
            while q <= n:
                g[q - 1 :: q, q - 1 :: q] *= p
                q *= p
    return g


def mertens(n):
    """M(n) = Σ_{k<=n} μ(k)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return int(moebius_table(n)[1:].sum())


def jacobi(a, n):
    """Jacobi symbol (a|n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd n >= 1")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# int64 products of two residues mod p are exact while p² < 2⁶³
_EXACT_P = 3_037_000_499
# base a: ψ, the least composite passing the strong test to a and all smaller
# bases (Pomerance, Selfridge & Wagstaff, Math. Comp. 35 (1980)); ψ > _EXACT_P
_SPRP_PSI = {2: 2047, 3: 1_373_653, 5: 25_326_001, 7: 3_215_031_751}


def _powmod(a, e, p):
    """a^e mod p elementwise for an int a >= 2 and int64 arrays e, p: left to
    right by w-bit windows of e, every multiplier aʲ (j < 2ʷ) <= _EXACT_P."""
    w = max(w for w in range(1, 6) if a ** (2**w - 1) <= _EXACT_P)
    powers = a ** np.arange(2**w, dtype=np.int64)
    c = np.ones_like(p)
    for k in range((int(e.max(initial=0)).bit_length() - 1) // w * w, -1, -w):
        for _ in range(w):
            np.remainder(c * c, p, out=c)
        np.remainder(c * powers[e >> k & 2**w - 1], p, out=c)
    return c


def sqrt_minus_one_mod(ps):
    """r with r² ≡ −1 mod p for each p of an int64 array of primes p = 2 or
    p ≡ 1 mod 4 at most _EXACT_P: r = a^((p−1)/4) mod p for the least
    non-residue a, tried a = 2, 3, 5, … on the entries still without a root.

    Each a computes the strong test's chain yᵢ = a^(d·2ⁱ), p − 1 = d·2ˢ with
    d odd, up to y_(s−2) = a^((p−1)/4); the bases of _SPRP_PSI that the
    largest entry needs run on every entry and prove it prime, so the search
    ends.  Any other entry raises ValueError.
    """
    p = np.asarray(ps, dtype=np.int64)
    if p.size > 2**13:  # blocks that stay in cache, and bound the memory
        return np.concatenate([sqrt_minus_one_mod(p[i:i + 2**13])
                               for i in range(0, p.size, 2**13)])
    bad = (p < 2) | (p > _EXACT_P) | (p % 4 != 1) & (p != 2)
    bases = [a for a, below in zip(_SPRP_PSI, (0, *_SPRP_PSI.values()))
             if below <= p.max(initial=0)]
    e = (p - 1) >> 2
    low = np.maximum(e & -e, 1)  # 2^(s−2), and 1 for p = 2
    r = np.zeros_like(p)
    for a in filter(is_prime, itertools.count(2)):
        if bad.any():
            raise ValueError(f"{p[bad][0]} is not 2 or a prime ≡ 1 mod 4 "
                             f"at most {_EXACT_P}")
        on = np.flatnonzero((r == 0) | (a in bases))
        if not on.size:
            return r
        q, lo = p[on], low[on]
        y = _powmod(a, e[on] // lo, q)
        prp, up = y == 1, np.flatnonzero(lo > 1)
        for i in range(int(lo.max(initial=1)).bit_length() - 1):
            prp[up] |= y[up] == q[up] - 1
            up = up[lo[up] > 1 << i]
            y[up] = y[up] * y[up] % q[up]
        y2 = y * y % q
        prp |= (y == q - 1) | (y2 == q - 1)
        bad[on] |= ~prp & (q != a)
        r[on] = np.where((r[on] == 0) & (y2 == q - 1), y, r[on])


def _cornacchia(p, r, d):
    """(x, y) with x² + d·y² = p for int64 arrays of primes p <= _EXACT_P and
    roots r² ≡ −d mod p: Euclid on (p, r mod p) stops at the first remainder
    x < √p (Cornacchia; Brillhart, Math. Comp. 26 (1972), for d = 1)."""
    if (p > _EXACT_P).any():
        raise ValueError(f"{p.max()} is above {_EXACT_P}")
    x, y = p.copy(), r % p
    on = np.flatnonzero(y * y >= p)
    while on.size:
        x[on], y[on] = y[on], x[on] % y[on]
        on = on[y[on] * y[on] >= p[on]]
    x, y = y, np.sqrt((p - y * y) // d).astype(np.int64)
    if (x * x + d * y * y != p).any():
        raise ArithmeticError(f"a root of −{d} gave no x² + {d}·y² = p")
    return x, y


def two_square(ps):
    """(a, b) int64 arrays with a² + b² = p, a > b > 0 ((1, 1) for p = 2), for
    primes as in sqrt_minus_one_mod: _cornacchia on (p, √−1 mod p), d = 1."""
    p = np.asarray(ps, dtype=np.int64)
    return _cornacchia(p, sqrt_minus_one_mod(p), 1)


def _gauss_gcd(z, w):
    """gcd in Z[i] on (re, im) pairs, via nearest-integer division."""
    while w != (0, 0):
        a, b = z
        c, d = w
        n = c * c + d * d
        # z / w = (z * conj(w)) / N(w), rounded to the nearest lattice point
        xr = a * c + b * d
        xi = b * c - a * d
        qr = (2 * xr + n) // (2 * n)
        qi = (2 * xi + n) // (2 * n)
        z, w = w, (a - (qr * c - qi * d), b - (qr * d + qi * c))
    return z


def euler_composite_factor(n, rep1, rep2):
    """A nontrivial factor of n from two distinct two-square representations.

    Two essentially different a²+b² = c²+d² = n force n composite; the factor
    comes out of a Z[i] gcd of the two representations.
    """
    a, b = rep1
    c, d = rep2
    if a * a + b * b != n or c * c + d * d != n:
        raise ValueError("representations do not equal n")
    set1 = {(abs(a), abs(b)), (abs(b), abs(a))}
    if (abs(c), abs(d)) in set1:
        raise ValueError("representations equivalent under sign/swap")
    for w in ((c, d), (c, -d)):
        g = _gauss_gcd((a, b), w)
        f = g[0] * g[0] + g[1] * g[1]
        if 1 < f < n:
            return min(f, n // f)
    raise ValueError("gcd derivation failed to produce a proper factor")


def divisors_mod_count(n, k, m):
    """#{d | n : d ≡ k mod m}."""
    if n < 1:
        raise ValueError("n >= 1 required")
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            if d % m == k:
                count += 1
            e = n // d
            if e != d and e % m == k:
                count += 1
        d += 1
    return count


def totient_summatory(n):
    """Φ(n) = Σ_{k<=n} φ(k); grows like (3/π²) n²."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return int(multiplicative_table(
        n, lambda p, e: p ** (e - 1) * (p - 1)).sum())
