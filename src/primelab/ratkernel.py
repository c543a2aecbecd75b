"""Rational-integer number theory kernel.

Sieving, deterministic 64-bit primality, prime counting in residue classes,
the logarithmic integral li(x) = ∫₂ˣ dt/log t, Jordan totients
J_s(n) = n^s ∏_{p|n} (1 - p^{-s}), `multiplicative_table` (the one table
behind μ, φ and planarith's Gaussian h, strided over the primes <= √n of the
one sieve), concatenated ranges, connected-component labels, Horner's rule,
the gcd table gcd(i, j) for 1 <= i, j <= n, the Jacobi symbol, one root kernel
for √−1 and √−3 mod p, Cornacchia's Euclid for p = x² + d·y² (two squares
at d = 1), and divisor-class counts d_k(n; m) = #{d | n : d ≡ k mod m}.

Everything here is exact integer arithmetic except li().
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from . import CapacityError

_BYTE_BUDGET = 2_200_000_000  # ~2 GB for one computation's arrays


def check_budget(nbytes, what):
    """Raise CapacityError before allocating an estimated `nbytes` for `what`
    when that is above the byte budget."""
    if nbytes > _BYTE_BUDGET:
        raise CapacityError(f"{what} needs about {nbytes} B, above the "
                            f"{_BYTE_BUDGET} B budget")


def _exact_integers(a):
    """a as an array of exact integers: an int64 or uint64 array unchanged,
    a bool or narrower one as int64 (no product wraps; refused by bytes
    before the copy), anything else as Python ints of an object array
    through operator.index, so a sequence never passes through float64 and
    np.int64 entries never wrap in products; a float, complex or Fraction
    entry, or a float or complex array, raises TypeError."""
    if isinstance(a, np.ndarray) and a.dtype.kind != "O":
        if a.dtype.kind in "biu":
            if a.itemsize == 8:
                return a
            check_budget(8 * a.size, f"int64 copy of a {a.dtype} array")
            return a.astype(np.int64)
        raise TypeError(f"integer entries required, got {a.dtype}")
    return np.asarray(np.frompyfunc(operator.index, 1, 1)(
        np.asarray(a, dtype=object)), dtype=object)


class PrimeSieve:
    """Primality flags for 0..limit, any limit >= 0, read as `flags` and
    `primes()`; limits 0 and 1 have no primes, a negative one raises
    ValueError.  Immutable; safe to share read-only across workers."""

    def __init__(self, limit):
        if limit < 0:
            raise ValueError("sieve limit must be >= 0")
        check_budget(limit + 1, f"sieve limit {limit}")
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        flags[4::2] = False
        # the odd primes up to √limit strike their odd multiples from p²
        root = math.isqrt(limit)
        if root >= 3:  # none below 3, and PrimeSieve(1) would recurse
            for p in PrimeSieve(root).primes()[1:].tolist():
                flags[p * p :: 2 * p] = False
        self.limit = limit
        self.flags = flags
        self.flags.setflags(write=False)

    def primes(self):
        """All primes <= limit as an int64 array."""
        return np.nonzero(self.flags)[0].astype(np.int64)


_kept = None  # the one kept PrimeSieve, None until the first sieve() call


def sieve(limit):
    """PrimeSieve for 0..limit >= 0, read off the one kept sieve.

    A limit at or below the kept sieve's end gets a read-only view of its
    flags; a limit past it rebuilds the kept sieve to max(limit, 2·end), or
    to exactly limit when the doubled flags would pass the byte budget.  So
    a run of rising limits costs O(log) builds and the kernel keeps one
    flag array; a fresh process builds exactly its first limit.
    """
    global _kept
    if limit < 0:
        raise ValueError("sieve limit must be >= 0")
    if _kept is None or limit > _kept.limit:
        grown = limit if _kept is None else max(limit, 2 * _kept.limit)
        _kept = PrimeSieve(grown if grown < _BYTE_BUDGET else limit)
    if limit == _kept.limit:
        return _kept
    view = object.__new__(PrimeSieve)
    view.limit, view.flags = limit, _kept.flags[:limit + 1]
    return view


def _sieve_bytes(limit):
    """Bytes of a sieve(limit) call, 2 B per norm: the flags of a kept sieve
    grown to at most twice the limit, whatever sieve is kept now."""
    return 2 * (limit + 1)


_SMALL_PRIMES = tuple(int(p) for p in PrimeSieve(1000).primes())
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)

# Deterministic Miller-Rabin witness set for n < 3.3·10^24 (covers 64-bit).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Exact primality for any nonnegative integer (deterministic < 3.3e24)."""
    n = operator.index(n)
    if n < 1000:
        return n in _SMALL_PRIMES
    # one gcd is the trial division by every prime below 1000
    if math.gcd(n, _SMALL_PRIMORIAL) > 1:
        return False
    if n < 1_000_000:  # 1009² > 10⁶
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
    return int(np.count_nonzero(sieve(int(x)).primes() % m == r))


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
    n = operator.index(n)
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


def _exact_exponent(s):
    """s as a Python int if operator.index reads an integer >= 1, else None."""
    try:
        s = operator.index(s)
    except TypeError:
        return None
    return s if s >= 1 else None


def jordan_totient(n, s=1):
    """J_s(n) = n^s ∏_{p|n}(1 - p^{-s}).

    Exact integer for integer s >= 1, complex float otherwise.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if k := _exact_exponent(s):
        out = 1
        for p, e in factorize(n):
            out *= p ** ((e - 1) * k) * (p**k - 1)
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
    for p in sieve(math.isqrt(n)).primes().tolist():
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


def _poly_eval(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def gcd_table(n):
    """gcd(i, j) for 1 <= i, j <= n as an int64 (n, n) array (entry [i-1, j-1]).

    gcd(i, j) = ∏ p^min(vₚ(i), vₚ(j)), so the table is the product, over the
    prime powers q = pᵏ <= n of the primes of `sieve`, of a factor p on the
    cells where q divides both i and j: the strided block [q-1::q, q-1::q].
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    check_budget(8 * n * n, f"gcd table n={n}")
    g = np.ones((n, n), dtype=np.int64)
    for p in sieve(n).primes().tolist():
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
    a, n = operator.index(a), operator.index(n)
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


def _split_root(p, q):
    """r, r² ≡ −1 (q = 4) or −3 (q = 3) mod p, for an int64 array of primes
    the caller has proven: y or 2y + 1 mod p for the least a = 2, 3, 5, …
    whose y = a^((p−1)/q) mod p is a primitive q-th root of 1.  An entry is
    admitted iff 2 <= p <= _EXACT_P and p ≡ 1 mod q, or p = 2 at q = 4; the
    first other entry raises ValueError, so a prime without a root is never
    called composite.  An admitted composite fails Euler's y² ≡ ±1 or
    Fermat's y³ ≡ 1, raising ArithmeticError, or gets a false root (3277
    gets 128 at q = 4): callers prove primality."""
    if p.size > 2**13:  # blocks that stay in cache, and bound the memory
        return np.concatenate([_split_root(p[i:i + 2**13], q)
                               for i in range(0, p.size, 2**13)])
    bad = (p < 2) | (p > _EXACT_P) | (p % q != 1) & ((p != 2) | (q != 4))
    if bad.any():
        raise ValueError(f"{p[bad][0]} is below 2, above {_EXACT_P} "
                         f"or ≢ 1 mod {q}")
    r = np.zeros_like(p)
    for a in filter(is_prime, itertools.count(2)):
        on = np.flatnonzero(r == 0)
        if not on.size:
            return r
        s = p[on]
        y = _powmod(a, s // q, s)
        y2 = y * y % s
        if q == 4:  # y² = a^((p−1)/2) is ±1 for a prime
            ok, law = (y2 == 1) | (y2 == s - 1), "^((p−1)/2) ≢ ±1"
            r[on] = np.where(y2 == s - 1, y, 0)
        else:  # y³ = a^(p−1) is 1 for a prime; r < p keeps r² exact
            ok, law = y2 * y % s == 1, "^(p−1) ≢ 1"
            r[on] = np.where(y != 1, (2 * y + 1) % s, 0)
        if not ok.all():
            raise ArithmeticError(f"{s[~ok][0]} is composite: {a}{law} mod p")


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


def divisors_mod_count(n, k, m):
    """#{d | n : d ≡ k mod m} for a residue 0 <= k < m."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if not 0 <= k < m:
        raise ValueError("need 0 <= k < m")
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sum(d % m == k for d in set(small) | {n // d for d in small})


def totient_summatory(n):
    """Φ(n) = Σ_{k<=n} φ(k); grows like (3/π²) n²."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return int(multiplicative_table(
        n, lambda p, e: p ** (e - 1) * (p - 1)).sum())
