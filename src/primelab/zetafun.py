"""Zeta and L-functions for the Gaussian and Eisenstein lattices.

ζ_G(s) = 4 ζ(s) β(s) counts Gaussian lattice points by norm (with the unit
factor 4); ζ_E(s) = 6 ζ(s) L₃(s) is the Eisenstein analogue.  β and L₃ are
expressed through the Hurwitz zeta so mpmath handles analytic continuation:

    β(s)  = 4^(−s) (ζ(s, 1/4) − ζ(s, 3/4))
    L₃(s) = 3^(−s) (ζ(s, 1/3) − ζ(s, 2/3))

chebyshev_psi / explicit_psi implement both sides of the explicit formula

    ψ(x) = x − Σ_w 2 Re(x^w / w) − log 2π − ½ log(1 − x^(−2)),

with w = 1/2 + iγ running over the first K ordinate values from a zero table.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath as mp
import numpy as np

from . import ratkernel as rk
from . import planarith


# each mpmath evaluation pins its own 30 digits, as rk.li does, so the
# caller's global mpmath precision is neither read nor changed
@mp.workdps(30)
def zeta(s):
    return complex(mp.zeta(s))


@mp.workdps(30)
def _hurwitz_diff(s, q, a1, a2):
    """q^(−s) (ζ(s, a1/q) − ζ(s, a2/q)); at s=1 the Hurwitz poles cancel
    and the value is the digamma difference."""
    s = mp.mpmathify(s)
    if s == 1:
        return (mp.digamma(mp.mpf(a2) / q) - mp.digamma(mp.mpf(a1) / q)) / q
    return mp.mpf(q) ** (-s) * (mp.zeta(s, mp.mpf(a1) / q)
                                - mp.zeta(s, mp.mpf(a2) / q))


def beta(s):
    """Dirichlet beta (L of the nontrivial character mod 4)."""
    return complex(_hurwitz_diff(s, 4, 1, 3))


def l3(s):
    """L of the nontrivial character mod 3."""
    return complex(_hurwitz_diff(s, 3, 1, 2))


def zeta_G(s):
    """Gaussian lattice zeta: Σ_{z≠0} N(z)^(−s) = 4 ζ(s) β(s)."""
    return 4 * zeta(s) * beta(s)


def zeta_E(s):
    """Eisenstein lattice zeta: 6 ζ(s) L₃(s)."""
    return 6 * zeta(s) * l3(s)


def lattice_zeta(ring, s, X):
    """Truncated Σ_{0 < N(z) <= X} N(z)^(−s) by direct lattice count."""
    X = int(X)
    if X < 1:
        raise ValueError("X >= 1 required")
    cplx = np.iscomplexobj(s)
    # tracemalloc peak: int64 counts, float (complex) terms, a cast buffer
    rk.check_budget((24 if cplx else 16) * X + 2**18,
                    f"{ring.title()} norm count table to {X} and lattice "
                    "zeta's terms")
    counts = planarith.norm_count_table(X, ring)
    terms = np.arange(1, X + 1, dtype=complex if cplx else float)
    np.power(terms, -s if cplx else -float(s), out=terms)
    terms *= counts[1:]
    return complex(terms.sum())


@mp.workdps(30)
def functional_eq_residual(which, s):
    """|lhs − rhs| of the completed functional equation at s.

    which ∈ {"zeta", "beta", "zeta_G", "xi_G"}:
      ζ(1−s)  = 2 (2π)^(−s) cos(πs/2) Γ(s) ζ(s)
      β(1−s)  = 2^s π^(−s) sin(πs/2) Γ(s) β(s)
      ζ_G(1−s)= sin(πs) Γ(s)² π^(−2s) ζ_G(s)
      ξ_G(s)  = π^(−s) Γ(s) ζ_G(s) = ξ_G(1−s)
    """
    s = mp.mpmathify(s)
    if which == "zeta":
        lhs = mp.zeta(1 - s)
        rhs = 2 * (2 * mp.pi) ** (-s) * mp.cos(mp.pi * s / 2) \
            * mp.gamma(s) * mp.zeta(s)
    elif which == "beta":
        lhs = mp.mpmathify(beta(complex(1 - s)))
        rhs = 2 ** s * mp.pi ** (-s) * mp.sin(mp.pi * s / 2) \
            * mp.gamma(s) * mp.mpmathify(beta(complex(s)))
    elif which == "zeta_G":
        lhs = mp.mpmathify(zeta_G(complex(1 - s)))
        rhs = mp.sin(mp.pi * s) * mp.gamma(s) ** 2 * mp.pi ** (-2 * s) \
            * mp.mpmathify(zeta_G(complex(s)))
    elif which == "xi_G":
        lhs = mp.pi ** (-s) * mp.gamma(s) * mp.mpmathify(zeta_G(complex(s)))
        rhs = mp.pi ** (-(1 - s)) * mp.gamma(1 - s) \
            * mp.mpmathify(zeta_G(complex(1 - s)))
    else:
        raise ValueError(f"unknown functional equation {which!r}")
    return float(abs(lhs - rhs))


def mangoldt(n):
    """Λ(n): log p at prime powers, else 0."""
    if n < 1:
        raise ValueError("n >= 1 required")
    fac = rk.factorize(n)
    if len(fac) == 1:
        return math.log(fac[0][0])
    return 0.0


def chebyshev_psi(x):
    """ψ(x) = Σ_{p^k <= x} log p."""
    x = float(x)
    if x < 1:
        raise ValueError("x >= 1 required")
    n = int(x)
    s = rk.sieve(max(n, 4))
    total = 0.0
    for p in s.primes()[:s.pi(n)].tolist():
        lp = math.log(p)
        q = p
        while q <= n:
            total += lp
            q *= p
    return total


class ZeroTable:
    """Ordinates γ of nontrivial zeta zeros, read one per line, ascending."""

    def __init__(self, gammas):
        g = [float(v) for v in gammas]
        if not g:
            raise ValueError("empty zero table")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("zero ordinates must be strictly increasing")
        if abs(g[0] - 14.134725) > 0.01:
            raise ValueError(f"first ordinate {g[0]} looks wrong")
        self.gammas = g

    @classmethod
    def load(cls, path):
        lines = Path(path).read_text().split()
        return cls([float(v) for v in lines])

    def __len__(self):
        return len(self.gammas)


def explicit_psi(x, zeros, K):
    """Right side of the explicit formula truncated to the first K zeros of
    the ZeroTable `zeros`."""
    x = float(x)
    if x <= 1:
        raise ValueError("x > 1 required")
    if not 0 <= K <= len(zeros):
        raise ValueError(f"K must be in 0..{len(zeros)}, got {K}")
    total = x
    lx = math.log(x)
    sq = math.sqrt(x)
    for gamma in zeros.gammas[:K]:
        w = complex(0.5, gamma)
        # x^w / w = sqrt(x) e^{iγ log x} / w
        total -= 2 * (sq * complex(math.cos(gamma * lx),
                                   math.sin(gamma * lx)) / w).real
    total -= math.log(2 * math.pi)
    total -= 0.5 * math.log(1 - x ** -2)
    return total


@mp.workdps(30)
def hurwitz_class_zeta(s, P):
    """1/2^s + Σ_{odd p <= P} (p+1)/p^s over rational primes: the truncated
    Dirichlet series of prime classes in the Hurwitz order (p+1 classes above
    each odd p, one above 2)."""
    s = mp.mpmathify(s)
    out = mp.mpf(2) ** (-s)
    for p in rk.sieve(int(P)).primes()[1:].tolist():
        out += (p + 1) * mp.mpf(p) ** (-s)
    return float(out) if mp.im(s) == 0 else complex(out)


def gaussian_mertens_growth(nmax):
    """(x, M_G(x) / x^(1/2+ε)) checkpoints on a doubling ladder, ε = 0.05."""
    series = planarith.gaussian_mertens_series(nmax)
    out = []
    x = 16
    while x <= nmax:
        out.append((x, int(series[x]) / x ** 0.55))
        x *= 2
    return out
