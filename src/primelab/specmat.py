"""Matrix experiments on primes.

Prime matrices: A(z0, n)_{kl} = 1 iff z0 + k + i·l is a Gaussian prime
(indices 1..n).  Measured statements: invertibility beyond a threshold,
trace against li(n), circular-law-style eigenvalue statistics under the
√(log n / n) scaling, the characteristic-polynomial function
f_n(x) = log|p_[nx]| / log|det|, QR column means, and row covariance signs.

Smith matrices A_{ij} = gcd(i,j)^s with det = ∏_k J_s(k) and the exact
factorization A = E·diag(J_s)·Eᵀ, E_{ij} = [j | i] (lower unitriangular,
E⁻¹_{ij} = μ(i/j)).

Almost-periodic matrices A_{km} = cos(kmα + mβ) = Re B_{km} with
B_{km} = exp(i(kmα + mβ)); |det B| is a van der Monde product.

One fraction-free (Bareiss) pass over the big integers gives every leading
minor det A[:n, :n] (`leading_minors`): `det_exact`, the invertibility scan's
confirmations and determinant growth all read it.  Residual norms are max-abs
entry norms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ratkernel as rk
from .planarith import GaussianInt, gaussian_prime_mask, prime_row_flags


def _as_gaussian(z0):
    if isinstance(z0, GaussianInt):
        return z0
    if isinstance(z0, complex):
        return GaussianInt(int(z0.real), int(z0.imag))
    return GaussianInt(int(z0), 0)


def build_prime_matrix(z0, n):
    """0/1 matrix with A[k-1, l-1] = 1 iff z0 + k + i·l is a Gaussian prime."""
    if n < 1:
        raise ValueError("n >= 1 required")
    z = _as_gaussian(z0)
    return gaussian_prime_mask(z.re + 1, z.re + n,
                               z.im + 1, z.im + n).astype(np.int64)


def leading_minors(m):
    """[det m[:n, :n] for n = 1..N] from one fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968), whose pivot e is the minor of order e+1.
    Pivot e is sought only in rows e..n-1 of the block m[:n, :n], so a zero
    minor stalls the pass until a later row brings a nonzero in column e."""
    m = np.asarray(m)
    a = m.tolist()
    if m.dtype.kind not in "biu":
        # Python ints throughout: np.int64 entries of an object array would
        # wrap in the products below
        a = [list(map(int, row)) for row in a]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ValueError("square matrix required")
    minors = []
    sign = 1
    prev = 1
    e = 0  # pivots taken so far
    for n in range(1, size + 1):
        while e < n:
            if a[e][e] == 0:
                for r in range(e + 1, n):
                    if a[r][e] != 0:
                        a[e], a[r] = a[r], a[e]
                        sign = -sign
                        break
                else:
                    break  # stalled: det m[:n, :n] = 0
            pkk = a[e][e]
            row_e = a[e]
            for r in range(e + 1, size):
                ark = a[r][e]
                row_r = a[r]
                for c in range(e + 1, size):
                    row_r[c] = (pkk * row_r[c] - ark * row_e[c]) // prev
                row_r[e] = 0
            prev = pkk
            e += 1
        minors.append(sign * prev if e == n else 0)
    return minors


def det_exact(m):
    """Exact determinant: the last of leading_minors(m), 1 for 0×0."""
    return (leading_minors(m) or [1])[-1]


def check_exact_pass(n, entry_bits=0):
    """Raise CapacityError before leading_minors runs on an n×n matrix with
    entries below 2**entry_bits: n² list pointers, and n²/2 minors below
    n^(n/2)·2^(n·entry_bits) (Hadamard's bound) on and above the diagonal."""
    n = max(n, 0)
    bits = n * (math.log2(max(n, 1)) / 2 + entry_bits)
    rk.check_budget(int(n * n * (8 + (28 + bits / 8) / 2)),
                    f"exact pass over a {n}x{n} matrix")


_RANK_PRIME = 2**31 - 1


def _leading_ranks_mod(m, p):
    """ranks[n-1] = rank of m[:n, :n] mod p for every n, from one row-echelon
    pass without row swaps: rank m[:i, :j] = #{k < i : lead[k] < j}, with
    lead[k] the leading column of reduced row k, n for a zero row (Dumas,
    Pernet & Sultan, "Computing the rank profile matrix", ISSAC 2015).
    Works over int64: p < 2^31 keeps every product below 2^62."""
    a = np.array(m, dtype=np.int64) % p
    n = a.shape[0]
    lead = np.full(n, n, dtype=np.int64)
    for k in range(n):
        nz = np.flatnonzero(a[k])
        if nz.size == 0:
            continue
        c = lead[k] = nz[0]
        inv = pow(int(a[k, c]), p - 2, p)
        below = a[k + 1:, c:]
        below -= (below[:, 0] * inv % p)[:, None] * a[k, c:]
        below %= p
    return np.cumsum(np.bincount(np.maximum(np.arange(n), lead),
                                 minlength=n + 1))[:n]


def is_singular_exact(m):
    """Exact singularity test: full rank mod p proves invertibility; a rank
    drop mod p is confirmed or refuted by the exact pass."""
    n = len(m)
    if n and _leading_ranks_mod(m, _RANK_PRIME)[-1] == n:
        return False
    return det_exact(m) == 0


def invertibility_scan(z0, nmax):
    """{singular_ns, threshold}: all singular n <= nmax, and the least n0 with
    every n0 < n <= nmax invertible.  One rank pass mod p gives the rank of
    every leading block, and full rank proves n invertible; one exact pass
    over the block of the last rank drop confirms or refutes every drop."""
    # int64 matrix, mod-p copy, update block, sieve: ~27 B/cell (tracemalloc)
    rk.check_budget(27 * max(nmax, 0) ** 2, f"invertibility scan to n={nmax}")
    full = build_prime_matrix(z0, nmax)
    ranks = _leading_ranks_mod(full, _RANK_PRIME)
    drops = [n for n in range(1, nmax + 1) if ranks[n - 1] < n]
    singular = []
    if drops:
        check_exact_pass(drops[-1])
        minors = leading_minors(full[:drops[-1], :drops[-1]])
        singular = [n for n in drops if minors[n - 1] == 0]
    return {"singular_ns": singular, "threshold": max(singular, default=0)}


def commutator_residuals(z0, n):
    """(‖PA+AP‖_max, ‖PA−AP‖_max) with P = diag((−1)^j), j = 1..n."""
    z = _as_gaussian(z0)
    if z.re < 0 or z.im < 0 or (z.re + z.im) % 2 or z.re + z.im == 0:
        raise ValueError("z0 needs nonnegative coordinates with even sum > 0")
    a = build_prime_matrix(z0, n)
    signs = np.array([(-1) ** j for j in range(1, n + 1)], dtype=np.int64)
    pa = signs[:, None] * a
    ap = a * signs[None, :]
    return (int(np.abs(pa + ap).max()), int(np.abs(pa - ap).max()))


def anticommutator_residual(z0, n):
    """‖PA + AP‖_max — exactly 0 for admissible even z0."""
    return commutator_residuals(z0, n)[0]


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    residual_bound: float


# Largest matrix order spectrum() accepts; callers that build the matrix
# call check_solver_cap first, so a refused size is never allocated.
SOLVER_CAP = 4000


def check_solver_cap(n):
    """Raise CapacityError when an n×n matrix is above SOLVER_CAP."""
    if n > SOLVER_CAP:
        raise rk.CapacityError(f"matrix size {n} above solver cap {SOLVER_CAP}")


def spectrum(m):
    """Eigenvalues with a measured residual bound max‖Av − λv‖₂/‖A‖_max·n."""
    n = np.shape(m)[0]
    check_solver_cap(n)
    a = np.asarray(m, dtype=float)
    w, v = np.linalg.eig(a)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    res = np.linalg.norm(a @ v - v * w[None, :], axis=0)
    res /= np.maximum(np.linalg.norm(v, axis=0), 1e-300) * scale
    return Spectrum(w, float(res.max()))


def spectral_symmetry_residual(s):
    """Hausdorff distance between σ(A) and −σ(A)."""
    w = np.asarray(s.eigenvalues)
    d = np.abs(w[:, None] + w[None, :])
    return float(max(d.min(axis=0).max(), d.min(axis=1).max()))


_CHAR_POLY_EXACT_CAP = 64


def char_poly(m):
    """Coefficients of det(xI − A), descending (leading 1).

    Exact integers via Faddeev–LeVerrier up to order _CHAR_POLY_EXACT_CAP,
    float beyond.
    """
    a = np.asarray(m)
    n = a.shape[0]
    if n <= _CHAR_POLY_EXACT_CAP:
        A = np.array([[int(x) for x in row] for row in a], dtype=object)
        M = np.eye(n, dtype=object)
        coeffs = [1]
        for k in range(1, n + 1):
            N = A @ M
            ck = -sum(N[i, i] for i in range(n))
            assert ck % k == 0
            ck //= k
            coeffs.append(ck)
            M = N + ck * np.eye(n, dtype=object)
        return coeffs
    w = np.linalg.eigvals(a.astype(float))
    return list(np.poly(w))


def char_poly_function(m, x):
    """f_n(x) = log|p_[nx]| / log|det A| on x ∈ [0,1]; f_n(1) = 1."""
    coeffs = char_poly(m)
    n = len(coeffs) - 1
    det = coeffs[-1]  # |constant term| = |det|
    if det == 0:
        raise ValueError("determinant zero: normalization undefined")
    j = min(int(n * x), n)
    p = coeffs[j]
    if p == 0:
        return -math.inf
    return math.log(abs(p)) / math.log(abs(det))


@dataclass
class SpectralStats:
    radial_cdf: np.ndarray  # (r, F(r)) pairs on scaled radii
    angular_cdf: np.ndarray  # (φ, F(φ)) pairs
    nn_distance: np.ndarray
    scaled_radius: float


def spectral_stats(s, n):
    """Circular-law-style statistics under the √(log n / n) scaling."""
    w = np.asarray(s.eigenvalues)
    scale = math.sqrt(math.log(max(n, 3)) / n)
    z = w * scale
    r = np.sort(np.abs(z))
    phi = np.sort(np.angle(z) % (2 * math.pi))
    k = len(z)
    radial = np.column_stack([r, np.arange(1, k + 1) / k])
    angular = np.column_stack([phi, np.arange(1, k + 1) / k])
    d = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(d, np.inf)
    return SpectralStats(radial, angular, d.min(axis=1), float(r[-1]))


def row_cov_sign_table(K, n):
    """Sign matrix of Cov(R_k, R_l) for 1 <= k,l <= K, exactly.

    n²·Cov(R_k, R_l) = n·|R_k ∧ R_l| − |R_k|·|R_l| on the 0/1 rows, so each
    sign is read from Python ints and a covariance of exactly 0 gives 0.
    """
    rows = [prime_row_flags(k, n) for k in range(1, K + 1)]
    both = [[int(np.count_nonzero(x & y)) for y in rows] for x in rows]
    table = np.zeros((K, K), dtype=np.int64)
    for i, j in np.ndindex(K, K):
        cov = n * both[i][j] - both[i][i] * both[j][j]
        table[i, j] = (cov > 0) - (cov < 0)
    return table


def qr_column_means(m):
    """Column means of Q in the QR factorization."""
    q, _r = np.linalg.qr(np.asarray(m, dtype=float))
    return q.mean(axis=0)


def trace_vs_li(z0, n):
    """(trace, trace/li(n)) — the diagonal prime count against li(n)."""
    a = build_prime_matrix(z0, n)
    tr = int(np.trace(a))
    return tr, tr / rk.li(max(n, 3))


# ---------------------------------------------------------------------------
# Smith / GCD matrices
# ---------------------------------------------------------------------------

def build_smith(n, s=1):
    """A_{ij} = gcd(i,j)^s, 1 <= i,j <= n; exact for integer s >= 1."""
    exact = isinstance(s, int) and s >= 1
    # int64 gcds, then an object array of their ints and its power, ints
    # below n^s (exact), or a complex copy and its power
    per_cell = 8 + (44 + s * math.log2(max(n, 1)) / 8 if exact else 32)
    rk.check_budget(int(per_cell * max(n, 0) ** 2), f"gcd matrix n={n}")
    g = rk.gcd_table(n)
    if exact:
        return g.astype(object) ** s
    return np.power(g.astype(complex), s)


def smith_divisor_factor(n):
    """E with E_{ij} = 1 iff j | i (lower unitriangular)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    idx = np.arange(1, n + 1, dtype=np.int64)
    return (idx[:, None] % idx[None, :] == 0).astype(np.int64)


def smith_det(n, s=1):
    """∏_{k<=n} J_s(k) = det(gcd^s matrix); exact for integer s >= 1."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return math.prod(rk.jordan_totient(k, s) for k in range(1, n + 1))


def smith_det_residual(n, s=1):
    """det(gcd^s matrix) − ∏_{k<=n} J_s(k); exact 0 for integer s."""
    return _smith_det_and_residual(n, s)[1]


def _smith_det_and_residual(n, s=1):
    """(∏_{k<=n} J_s(k), smith_det_residual(n, s)) from one product."""
    if n < 1:
        raise ValueError("n >= 1 required")
    exact = isinstance(s, int) and s >= 1
    if exact:
        check_exact_pass(n, s * math.log2(n))
    a = build_smith(n, s)
    target = smith_det(n, s)
    if exact:
        return target, det_exact(a) - target
    # relative residual: the determinant magnitude explodes with n
    return target, (complex(np.linalg.det(a)) - target) / max(1.0, abs(target))


def smith_factorization_check(n, s=1):
    """Exact check A = E · diag(J_s(1..n)) · Eᵀ for integer s."""
    if not (isinstance(s, int) and s >= 1):
        raise ValueError("exact factorization check needs integer s >= 1")
    e = smith_divisor_factor(n).astype(object)
    d = np.diag([rk.jordan_totient(k, s) for k in range(1, n + 1)])
    return bool(np.array_equal(e @ d @ e.T, build_smith(n, s)))


def smith_inverse_moebius_check(n):
    """E⁻¹_{ij} = μ(i/j) on divisor pairs (0 elsewhere)."""
    e = smith_divisor_factor(n)
    idx = np.arange(1, n + 1)
    inv = e * rk.moebius_table(n)[idx[:, None] // idx[None, :]]
    return bool(np.array_equal(e @ inv, np.eye(n, dtype=np.int64)))


# ---------------------------------------------------------------------------
# Almost-periodic / van der Monde matrices
# ---------------------------------------------------------------------------

GOLDEN = (math.sqrt(5) - 1) / 2


def check_almost_period(n):
    """Raise CapacityError before build_almost_period(n) allocates: it peaks
    at 16 B per entry (tracemalloc, n = 500-2000), two float n×n arrays."""
    rk.check_budget(16 * max(n, 0) ** 2, f"almost-periodic matrix, order {n}")


def build_almost_period(n, alpha, beta, theta=0.0):
    """A_{km} = cos(kmα + mβ + θ), k,m = 1..n."""
    check_almost_period(n)
    k = np.arange(1, n + 1, dtype=float)
    return np.cos(np.outer(k, k) * alpha + k[None, :] * beta + theta)


def build_vdm(n, alpha, beta):
    """B_{km} = exp(i(kmα + mβ)), k,m = 1..n."""
    k = np.arange(1, n + 1, dtype=float)
    return np.exp(1j * (np.outer(k, k) * alpha + k[None, :] * beta))


def vdm_product_modulus(n, alpha, beta):
    """|∏_{k<l}(z^l − z^k)|·|w|^{n(n+1)/2}·… — the exact |det B| via the
    van der Monde structure B_{km} = w^m (z^k)^m with z=e^{iα}, w=e^{iβ}."""
    z = np.exp(1j * alpha)
    nodes = z ** np.arange(1, n + 1)
    out = 1.0
    for k in range(n):
        for l in range(k + 1, n):
            out *= abs(nodes[l] - nodes[k])
    return out * abs(np.prod(nodes)) * 1.0  # |w|=1 and |∏ z^k| = 1 anyway


def vdm_det_growth(nmax, alpha=GOLDEN, beta=0.0):
    """Series log|det B(n)| / log(2ⁿ·n!) for n = 2..nmax."""
    out = []
    for n in range(2, nmax + 1):
        b = build_vdm(n, alpha, beta)
        _sign, logdet = np.linalg.slogdet(b)
        out.append((n, float(logdet / math.log(2**n * math.factorial(n)))))
    return out
