"""Hardy–Littlewood / Bateman–Horn constants and empirical prime densities.

The quadratic constant C_a = ∏_{p odd} (1 − (−a|p)/(p − 1)) governs the
density of primes n² + a² against the baseline of primes ≡ 3 mod 4; Western's
rearrangement

    C = (3/2) · ζ(6)/(β(2)ζ(3)) · ∏_{p ≡ 1 mod 4} (1 + 2/(p³−1))(1 − 2/(p(p−1)²))

converges fast enough for 8 decimals at p ≤ 1000.  Bateman–Horn generalizes to
∏_p (1 − ω_f(p)/p)/(1 − 1/p) with ω_f(p) the number of roots of f mod p.

empirical_ratio counts #{a ≤ n : a²+1 prime} against #{p ≤ n : p ≡ 3 mod 4};
the numerator is the Gaussian prime row a + i of planarith.prime_row_flags,
sieved by the progressions a ≡ ±√−1 mod p with no per-value primality test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ratkernel as rk
from .hyperarith import prime_mask
from .planarith import prime_row_flags, theta_sequence


@dataclass
class RatioSeries:
    checkpoints: list  # (n, numerator, denominator, ratio)
    target: float | None = None

    def __post_init__(self):
        ns = [c[0] for c in self.checkpoints]
        if ns != sorted(set(ns)):
            raise ValueError("checkpoint n values must be strictly increasing")

    def csv_lines(self):
        yield "n,numerator,denominator,ratio"
        for n, num, den, ratio in self.checkpoints:
            yield f"{n},{num},{den},{ratio!r}"


def hl_C_naive(a, P):
    """Truncated ∏_{odd p <= P} (1 − (−a|p)/(p−1)); factor 1 when p | a."""
    if a == 0:
        raise ValueError("a != 0 required: n² + 0 is never prime")
    if a < 0 and math.isqrt(-a) ** 2 == -a:
        raise ValueError(f"a = {a} = -k² refused: n² - k² = (n - k)(n + k) "
                         "is prime at most once")
    if P < 3:
        raise ValueError("P >= 3 required")
    out = 1.0
    for p in rk.sieve(int(P)).primes()[1:]:
        p = int(p)
        if a % p == 0:
            continue
        jac = rk.jacobi(-a % p, p)
        out *= (p - 1 - jac) / (p - 1)
    return out


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
    for p in rk.sieve(int(P)).primes():
        p = int(p)
        if p % 4 == 1:
            out *= (1 + 2 / (p**3 - 1)) * (1 - 2 / (p * (p - 1) ** 2))
    return out


def _omega_poly_mod(coeffs, p):
    """#roots of f mod p by exhaustive evaluation."""
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        vals = (vals * xs + c) % p
    return int(np.count_nonzero(vals == 0))


def _poly_eval(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


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
        content = math.gcd(content, abs(_poly_eval(f, x)))
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
    for p in rk.sieve(int(P)).primes():
        p = int(p)
        omega = _omega_poly_mod(f, p)
        if omega == p:
            raise ValueError(f"ω_f({p}) = {p}: inadmissible polynomial")
        if p == 2:
            out *= (2 - omega) / 1
        else:
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
    # the row and the sieve, 1 B per n each, and the int64 primes with their
    # residue temporaries; 5.2-5.8 B per n traced at n = 10⁶..10⁷
    rk.check_budget(6 * n, f"empirical ratio to {n}")
    # row[a-1]: a + i is a Gaussian prime iff a² + 1 is prime (a >= 1)
    row = prime_row_flags(1, n)
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


def theta_statistics(thetas, lag=1):
    """KS distance vs uniform(−π/8, π/8), lag autocorrelation, even/odd
    split correlation, and the random-walk partial sums S(n) = Σ θ.

    `thetas` may be an integer N (first N prime angles) or an array.
    """
    if isinstance(thetas, int):
        if thetas < 10:
            raise ValueError("N >= 10 required")
        thetas = np.array([pa.theta for pa in theta_sequence(thetas)])
    x = np.asarray(thetas, dtype=float)
    n = len(x)
    lo, hi = -math.pi / 8, math.pi / 8
    u = np.clip((np.sort(x) - lo) / (hi - lo), 0.0, 1.0)
    grid = np.arange(1, n + 1) / n
    ks = float(np.maximum(np.abs(u - grid), np.abs(u - (grid - 1 / n))).max())
    auto = _pearson(x[:-lag], x[lag:])
    split = _pearson(x[0::2][: (n // 2)], x[1::2][: (n // 2)])
    return ThetaStats(ks, auto, split, np.cumsum(x))


def frogger_min_x(a, cap=10**6):
    """Least x >= 1 with x² + a² prime; loud not-found report at the cap."""
    if a < 1:
        raise ValueError("a >= 1 required")
    a2 = a * a
    for x in range(1, cap + 1):
        if rk.is_prime(x * x + a2):
            return x
    raise RuntimeError(f"no x <= {cap} with x²+{a}² prime — notable artifact")


def hurwitz_frogger(a, half=False, cap=1000):
    """Lexicographically least nonneg (x,y,z) (within the cap box) making
    a² + x² + y² + z² prime (integer form) or the half-integer norm
    a² + x² + y² + z² + a + x + y + z + 1 prime.
    """
    if a < 0:
        raise ValueError("a >= 0 required")
    for x in range(cap + 1):
        for y in range(cap + 1):
            for z in range(cap + 1):
                if half:
                    v = (a * a + x * x + y * y + z * z
                         + a + x + y + z + 1)
                else:
                    v = a * a + x * x + y * y + z * z
                if rk.is_prime(v):
                    return (x, y, z)
    raise RuntimeError(f"no triple within cap {cap} for a={a}")


def hyperplane_prime_count(a, n):
    """#{(x,y,z) ∈ [1,n]³ : a² + x² + y² + z² prime}."""
    if n < 1:
        raise ValueError("n >= 1 required")
    side = 2 * np.arange(1, n + 1)  # doubled coordinates of 1..n
    return int(np.count_nonzero(prime_mask([[2 * a], side, side, side])))


def hyperplane_normalized(a, n):
    """Count with the (n log n)² normalizer."""
    c = hyperplane_prime_count(a, n)
    return c, c / (n * math.log(n)) ** 2 if n > 1 else math.inf
