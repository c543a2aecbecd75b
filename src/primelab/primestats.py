"""Hardy–Littlewood / Bateman–Horn constants and empirical prime densities.

The quadratic constant C_a = ∏_{p odd} (1 − (−a|p)/(p − 1)) governs the
density of primes n² + a against the baseline of primes ≡ 3 mod 4; Western's
rearrangement

    C = (3/2) · ζ(6)/(β(2)ζ(3)) · ∏_{p ≡ 1 mod 4} (1 + 2/(p³−1))(1 − 2/(p(p−1)²))

converges fast enough for 8 decimals at p ≤ 1000.  Bateman–Horn generalizes to
∏_p (1 − ω_f(p)/p)/(1 − 1/p) with ω_f(p) the number of roots of f mod p; for
f = x² + a it is C_a: p − ω_f(p) = p − 1 − (−a|p) at odd p ∤ a, else p − 1.

empirical_ratio counts #{a ≤ n : a²+1 prime} against #{p ≤ n : p ≡ 3 mod 4};
the numerator is the Gaussian prime row a + i of planarith.prime_rows,
sieved by the progressions a ≡ ±√−1 mod p with no per-value primality test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ratkernel as rk
from .hyperarith import prime_mask
from .planarith import prime_rows


@dataclass
class RatioSeries:
    checkpoints: list  # (n, numerator, denominator, ratio)

    def __post_init__(self):
        ns = [c[0] for c in self.checkpoints]
        if ns != sorted(set(ns)):
            raise ValueError("checkpoint n values must be strictly increasing")

    def csv_lines(self):
        yield "n,numerator,denominator,ratio"
        for n, num, den, ratio in self.checkpoints:
            yield f"{n},{num},{den},{ratio!r}"


def hl_C_naive(a, P):
    """C_a cut at p <= P: the Bateman–Horn product of x² + a."""
    if a == 0:
        raise ValueError("a != 0 required: n² + 0 is never prime")
    if a < 0 and math.isqrt(-a) ** 2 == -a:
        raise ValueError(f"a = {a} = -k² refused: n² - k² = (n - k)(n + k) "
                         "is prime at most once")
    if P < 3:
        raise ValueError("P >= 3 required")
    return bateman_horn_C((a, 0, 1), P)


def hl_C_western(P):
    """Western's accelerated product for C = C_1, cut at p <= P.

    The zeta/beta constants come from the analytic evaluators in zetafun.
    """
    if P < 5:
        raise ValueError("P >= 5 required")
    from . import zetafun
    zeta6 = float(zetafun.zeta(6).real)
    zeta3 = float(zetafun.zeta(3).real)
    beta2 = float(zetafun.beta(2).real)
    # prefactor 3/2: the 3/4 sometimes quoted is off by exactly 2 against
    # both the naive product and Shanks' value 1.37281346
    out = 1.5 * zeta6 / (beta2 * zeta3)
    for p in rk.sieve(int(P)).primes().tolist():
        if p % 4 == 1:
            out *= (1 + 2 / (p**3 - 1)) * (1 - 2 / (p * (p - 1) ** 2))
    return out


def _omega_poly_mod(coeffs, p):
    """#roots of f mod p: 1 + (disc | p) for a quadratic at an odd p that does
    not divide its leading coefficient, p where f ≡ 0 mod p, else
    deg gcd(f mod p, xᵖ − x), since xᵖ − x is the product of x − r over the
    residues r."""
    if len(coeffs) == 3 and p > 2 and coeffs[2] % p:
        c, b, a = coeffs
        return 1 + rk.jacobi(b * b - 4 * a * c, p)
    g = _monic_mod(coeffs, p)
    if not g:
        return p
    # xᵖ mod (g, p) by square-and-multiply over the bits of p
    r = [1]
    for bit in bin(p)[2:]:
        r = _mul_mod(r, r, g, p)
        if bit == "1":
            r = _rem_mod([0] + r, g, p)
    r += [0] * (2 - len(r))
    r[1] -= 1
    h = _rem_mod(r, g, p)  # xᵖ − x mod g
    while True:  # Euclid: (g, h) -> (h, g mod h)
        h = _monic_mod(h, p)
        if not h:
            return len(g) - 1
        g, h = h, _rem_mod(g, h, p)


def _monic_mod(a, p):
    """a mod p, leading zeros stripped, scaled to leading coefficient 1;
    [] for the zero polynomial.  Coefficients ascend, as everywhere here."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _rem_mod(a, g, p):
    """a mod (g, p) for a monic g: the deg g low coefficients."""
    a = [c % p for c in a]
    d = len(g) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * g[j]) % p
    return a[:d]


def _mul_mod(a, b, g, p):
    """a·b mod (g, p) for a monic g."""
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _rem_mod(prod, g, p)


def bunyakovsky_admissible(f):
    """(admissible, reason) for an integer polynomial (ascending coeffs).

    Checks: nonconstant, positive leading coefficient, fixed divisor of the
    value sequence equal to 1; irreducibility certified for degree <= 2 via
    the discriminant.
    """
    deg = len(f) - 1
    while deg > 0 and f[deg] == 0:
        deg -= 1
    if deg < 1:
        return False, "constant polynomial"
    if f[deg] <= 0:
        return False, "leading coefficient not positive"
    content = 0
    for x in range(deg + 2):
        content = math.gcd(content, abs(rk._poly_eval(f, x)))
    if content != 1:
        return False, f"all values divisible by {content}"
    if deg == 2:
        a, b, c = f[2], f[1], f[0]
        disc = b * b - 4 * a * c
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            return False, "reducible (discriminant is a perfect square)"
    return True, "admissible"


def bateman_horn_C(f, P):
    """∏_{p <= P} (1 − ω_f(p)/p)/(1 − 1/p) = ∏ (p − ω_f(p))/(p − 1)."""
    ok, reason = bunyakovsky_admissible(f)
    if not ok:
        raise ValueError(f"inadmissible polynomial: {reason}")
    out = 1.0
    for p in rk.sieve(int(P)).primes().tolist():
        omega = _omega_poly_mod(f, p)
        if omega == p:
            raise ValueError(f"ω_f({p}) = {p}: inadmissible polynomial")
        out *= (p - omega) / (p - 1)
    return out


def empirical_ratio(n, checkpoints=None):
    """RatioSeries of #{a <= x : a²+1 prime} / #{p <= x : p ≡ 3 mod 4}."""
    n = int(n)
    if n < 2:
        raise ValueError("n >= 2 required")
    if checkpoints is None:
        checkpoints = [n]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if checkpoints[-1] != n:
        raise ValueError("largest checkpoint must equal n")
    if checkpoints[0] < 2:
        raise ValueError(f"checkpoints >= 2 required, got {checkpoints[0]}")
    # the row, the sieve, the int64 primes and one block of the row's √−1
    # kernel: 3.4-3.8 B per n traced at n = 10⁶..10⁷
    rk.check_budget(6 * n + 2**20, f"empirical ratio to {n}")
    # row[a-1]: a + i is a Gaussian prime iff a² + 1 is prime (a >= 1)
    row = prime_rows([1], n)[0]
    ps = rk.sieve(n).primes()
    ps = ps[ps % 4 == 3]
    rows = []
    for c in checkpoints:
        num = int(np.count_nonzero(row[:c]))
        den = int(np.searchsorted(ps, c, side="right"))
        rows.append((c, num, den, num / den if den else math.inf))
    return RatioSeries(rows)


def error_envelope(series, C):
    """(n, |ratio − C|·√n/log²n) per checkpoint."""
    out = []
    for n, _num, _den, ratio in series.checkpoints:
        out.append((n, abs(ratio - C) * math.sqrt(n) / math.log(n) ** 2))
    return out


@dataclass
class ThetaStats:
    ks_uniform: float
    autocorr: float
    split_corr: float
    walk: np.ndarray = field(repr=False)


def _pearson(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        raise ValueError("degenerate (constant) input: correlation undefined")
    return float(((x - x.mean()) * (y - y.mean())).mean() / (sx * sy))


def theta_statistics(thetas):
    """KS distance vs uniform(−π/8, π/8), lag-1 autocorrelation, even/odd
    split correlation, and the random-walk partial sums S(n) = Σ θ of an
    array of angles, such as planarith.theta_sequence's.  Four angles are
    the least that give both correlations two pairs."""
    x = np.asarray(thetas, dtype=float)
    n = len(x)
    if n < 4:
        raise ValueError(f"at least 4 angles required, got {n}")
    lo, hi = -math.pi / 8, math.pi / 8
    u = np.clip((np.sort(x) - lo) / (hi - lo), 0.0, 1.0)
    grid = np.arange(1, n + 1) / n
    ks = float(np.maximum(np.abs(u - grid), np.abs(u - (grid - 1 / n))).max())
    auto = _pearson(x[:-1], x[1:])
    split = _pearson(x[0::2][: (n // 2)], x[1::2][: (n // 2)])
    return ThetaStats(ks, auto, split, np.cumsum(x))


def frogger_min_x(a):
    """Least x >= 1 with x² + a² prime; loud not-found report at the cap."""
    if a < 1:
        raise ValueError("a >= 1 required")
    a2 = a * a
    for x in range(1, 10**6 + 1):
        if rk.is_prime(x * x + a2):
            return x
    raise RuntimeError(f"no x <= 10⁶ with x²+{a}² prime — notable artifact")


def hurwitz_frogger(a, half=False):
    """Lexicographically least nonneg (x,y,z) (within [0, 1000]³) making
    a² + x² + y² + z² prime (integer form) or the half-integer norm
    a² + x² + y² + z² + a + x + y + z + 1 prime.
    """
    if a < 0:
        raise ValueError("a >= 0 required")
    side = range(1001)
    for x in side:
        for y in side:
            for z in side:
                v = a * a + x * x + y * y + z * z
                if rk.is_prime(v + (a + x + y + z + 1 if half else 0)):
                    return (x, y, z)
    raise RuntimeError(f"no triple within cap 1000 for a={a}")


def hyperplane_prime_count(a, n):
    """#{(x,y,z) ∈ [1,n]³ : a² + x² + y² + z² prime}."""
    if n < 1:
        raise ValueError("n >= 1 required")
    side = 2 * np.arange(1, n + 1)  # doubled coordinates of 1..n
    return int(np.count_nonzero(prime_mask([[2 * a], side, side, side])))


def hyperplane_normalized(a, n):
    """(count, count / (n log n)²) for n >= 2, where the normalizer is > 0."""
    if n < 2:
        raise ValueError("n >= 2 required")
    c = hyperplane_prime_count(a, n)
    return c, c / (n * math.log(n)) ** 2
