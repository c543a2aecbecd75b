"""Matrix experiments on primes.

Prime matrices: A(z0, n)_{kl} = 1 iff z0 + k + i·l is a Gaussian prime
(indices 1..n).  Measured statements: invertibility beyond a threshold,
trace against li(n), circular-law-style eigenvalue statistics under the
√(log n / n) scaling, the characteristic-polynomial function
f_n(x) = log|p_[nx]| / log|det|, QR column means, and row covariance signs.

Smith matrices A_{ij} = gcd(i,j)^s with det = ∏_k J_s(k) and the exact
factorization A = E·diag(J_s)·Eᵀ, E_{ij} = [j | i] (lower unitriangular,
E⁻¹_{ij} = μ(i/j)), whose cells are the divisor sums Σ_{d|gcd(i,j)} J_s(d).
Both identities read one exact gcd^s matrix, in int64 while n^s < 2⁶³; the
determinant is read off the leading minors of gcd^s(N), N >= n, kept per
exponent across calls.

Almost-periodic matrices A_{km} = cos(kmα + mβ) = Re B_{km} with
B_{km} = exp(i(kmα + mβ)); |det B| is a van der Monde product.

One fraction-free (Bareiss) pass over the big integers gives every leading
minor det A[:n, :n] of an integer matrix (`leading_minors`); a row whose
pivot-column entry is 0 is not updated until it is, then straight from the
step t it is stored at, dividing by p_(t−1).  A symmetric block, such as a
gcd^s matrix, runs the pass on its upper triangle and falls back to the
general pass (with row exchanges) at a zero pivot.  The scan and
`is_singular_exact` prove full-rank leading blocks by a rank pass mod p and
confirm the drops by one Bareiss pass.  A prime matrix splits by index
parity into two half-size blocks B and C (Gaussian primes of even
coordinate sum are associates of 1 + i): for odd-sum z0 it is block
diagonal, det A_n = det B_⌈n/2⌉ · det C_⌊n/2⌋; for even-sum z0 block
anti-diagonal, det A_n = (−1)^(n/2) · det B_(n/2) · det C_(n/2) for even n
and 0 for odd n.  One split-and-join serves the minors, the scan and the
singularity test.  Its entries, and char_poly's, pass one integer intake
(rk._exact_integers: int64 and uint64 arrays as they are, bool and narrower
integer arrays as int64, anything else as Python ints, a float or complex
entry raising TypeError), and one byte
check, check_exact_pass in _eliminate, refuses each pass from the order and
largest |entry| of its block before it copies anything.
The commutator residuals are max-abs entry norms; spectrum's residual_bound
divides each eigenpair's ‖Av − λv‖₂ by ‖v‖₂·‖A‖_F, ‖A‖_F the Frobenius norm.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import check_solver_cap
from . import ratkernel as rk
from .planarith import GaussianInt, gaussian_prime_mask, prime_rows


def _as_gaussian(z0):
    """z0 as a GaussianInt: an int is z0 + 0i; a float or complex raises."""
    if isinstance(z0, GaussianInt):
        return z0
    return GaussianInt(operator.index(z0), 0)


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
    minor stalls the pass until a later row brings a nonzero in column e.

    Step k of Bareiss maps a row with a[r][k] = 0 to p_k·a[r] / p_(k-1), with
    p_k the pivot of step k and p_(-1) = 1.  Over steps t..e-1 that skip the
    row the factors telescope to a^(e)[r] = a^(t)[r] · p_(e-1) / p_(t-1), so
    a row is stored as of step t[r] and left alone while its pivot-column
    entry is 0.  Step e then updates it straight from its stored entries:

        a^(e+1)[r] = (p_e·a^(t)[r] − a^(t)[r][e]·a^(e)[e]) / p_(t-1),

    an exact division, since every Bareiss entry is a minor (prevs[k+1] = p_k,
    so p_(t-1) = prevs[t]).  Only a pivot row stored at an older step is
    rescaled first, by p_(e-1) / p_(t-1), since its pivot is the minor.

    A symmetric block (m = mᵀ) runs on its upper triangle: the step-e entry
    a^(e)[i][j] is the bordered minor det m[[0..e-1, i], [0..e-1, j]],
    symmetric in i and j, so row r keeps its columns c >= r, reads its
    pivot-column entry off the pivot row, and half of each step's updates
    go (_symmetric_pass).  That pass takes no row exchange: at a zero pivot
    before the last step it stops, and the general pass runs from the start
    on the untouched list copy.  A gcd^s matrix, E·diag(J_s)·Eᵀ, is positive definite for integer
    s >= 1 and never falls back.
    The pass runs on each parity block when m splits (_by_blocks).
    Entries must be integers: a float or complex matrix raises TypeError."""
    return _by_blocks(m, _eliminate)


def _by_blocks(m, per_block):
    """per_block(m), a list whose x_n stands for det m[:n, :n] (a minor or a
    nonzero flag), for square m.  When m splits (_parity_blocks) per_block
    runs on B and C, joined as minors: x_n = b_⌈n/2⌉ · c_⌊n/2⌋ ("diag"), or
    (−1)^(n/2) · b_(n/2) · c_(n/2) for even n, 0 for odd n ("anti").
    Entries are read by the one integer intake, rk._exact_integers."""
    m = rk._exact_integers(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    split = _parity_blocks(m)
    if split is None:
        return per_block(m)
    kind, b, c = split
    pb, pc = [1] + per_block(b), [1] + per_block(c)
    size = len(m)
    if kind == "diag":
        return [pb[(n + 1) // 2] * pc[n // 2] for n in range(1, size + 1)]
    return [0 if n % 2 else (-1) ** (n // 2) * pb[n // 2] * pc[n // 2]
            for n in range(1, size + 1)]


def _parity_blocks(m):
    """(kind, B, C) when the square array m of order N >= 2 splits by index
    parity, else None.  Ordered by parity (even indices first), m is
    "diag": [[B, 0], [0, C]], B = m[0::2, 0::2], C = m[1::2, 1::2], orders
    ⌈N/2⌉ and ⌊N/2⌋; or "anti": [[0, B], [C, 0]], B = m[0::2, 1::2] and
    C = m[1::2, 0::2], both cut to order ⌊N/2⌋ (no even leading block reads
    the rest).  The permutation acts on rows and columns alike, so it keeps
    every determinant."""
    n = len(m)
    if n < 2:
        return None
    if not (m[0::2, 1::2].any() or m[1::2, 0::2].any()):
        return "diag", m[0::2, 0::2], m[1::2, 1::2]
    if not (m[0::2, 0::2].any() or m[1::2, 1::2].any()):
        h = n // 2
        return "anti", m[0:2 * h:2, 1::2], m[1::2, 0:2 * h:2]
    return None


def _eliminate(m):
    """leading_minors of the square integer array m, unsplit: the symmetric
    pass when m equals its transpose, and the general pass on the untouched
    list copy unless that pass ran to its end; refused by check_exact_pass,
    from m's order and largest |entry|, before it copies anything."""
    top = max(int(m.max()), -int(m.min()), 1) if m.size else 1
    check_exact_pass(len(m), math.log2(top))
    symmetric = np.array_equal(m, m.T)
    a = m.tolist()
    minors = _symmetric_pass(a) if symmetric else None
    return _general_pass(a) if minors is None else minors


def _symmetric_pass(a):
    """leading_minors of the symmetric list matrix a, or None at the first
    zero pivot before the last step (where the general pass would exchange
    rows); a is left as it is.  Row r keeps its columns c >= r only.  Every step's entries are
    minors symmetric in row and column, so the pivot-column entry of row r
    at step e is the pivot row's y = a^(e)[e][r], and the row, stored as of
    step t, holds a^(t)[r][e] = y·p_(t-1) / p_(e-1), an exact division."""
    size = len(a)
    rows = [row[r:] for r, row in enumerate(a)]
    prevs = [1]  # prevs[k+1] = pivot of step k
    t = [0] * size  # row r holds its entries as of step t[r]
    for e in range(size):
        row_e = rows[e]
        prev = prevs[e]
        if t[e] < e:
            q = prevs[t[e]]
            row_e = [x * prev // q for x in row_e]
        pkk = row_e[0]
        if pkk == 0:
            # no row is left to exchange in after the last step
            return prevs[1:] + [0] if e == size - 1 else None
        # a row with y = 0 is left alone: p_e·a[r] / p_(e-1), folded into t[r]
        for r in compress(range(e + 1, size), row_e[1:]):
            y = row_e[r - e]
            q = prevs[t[r]]
            ark = y if t[r] == e else y * q // prev
            rows[r] = [(pkk * x - ark * z) // q
                       for x, z in zip(rows[r], row_e[r - e:])]
            t[r] = e + 1
        rows[e] = None  # the pivot row is read no more
        prevs.append(pkk)
    return prevs[1:]


def _general_pass(a):
    """leading_minors of the square list matrix a, with row exchanges below
    a zero pivot; updates a in place."""
    size = len(a)
    minors = []
    sign = 1
    prevs = [1]  # prevs[k+1] = pivot of step k
    t = [0] * size  # row r holds its entries as of step t[r]
    e = 0  # pivots taken so far
    for n in range(1, size + 1):
        while e < n:
            if a[e][e] == 0:
                for r in range(e + 1, n):
                    if a[r][e] != 0:
                        a[e], a[r] = a[r], a[e]
                        t[e], t[r] = t[r], t[e]
                        sign = -sign
                        break
                else:
                    break  # stalled: det m[:n, :n] = 0
            row_e = a[e]
            if t[e] < e:
                prev, q = prevs[e], prevs[t[e]]
                row_e[e:] = [x * prev // q for x in row_e[e:]]
            pkk = row_e[e]
            tail_e = row_e[e + 1:]
            for r in range(e + 1, size):
                row_r = a[r]
                ark = row_r[e]
                if ark == 0:
                    continue  # p_e·a[r] / p_(e-1): folded into t[r]
                q = prevs[t[r]]
                row_r[e + 1:] = [(pkk * x - ark * y) // q
                                 for x, y in zip(row_r[e + 1:], tail_e)]
                row_r[e] = 0
                t[r] = e + 1
            prevs.append(pkk)
            e += 1
        minors.append(sign * prevs[e] if e == n else 0)
    return minors


def det_exact(m):
    """Exact determinant: the last of leading_minors(m), 1 for 0×0."""
    return (leading_minors(m) or [1])[-1]


def check_exact_pass(n, entry_bits=0):
    """Raise CapacityError before leading_minors runs on an n×n matrix with
    |entries| <= 2**entry_bits: n² list pointers, and n²/2 minors below
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
    Works over int64: p < 2^31 keeps every product below 2^62.  The Python
    ints of an object array (rk._exact_integers) are reduced mod p before
    the cast, so any size fits; refused before that copy."""
    n = len(m)
    # int64 copy, one step's product of the rows below: 16 B per cell, and
    # 32 B more for an object block's residues (tracemalloc, n = 50 to 600)
    rk.check_budget((48 if m.dtype == object else 16) * n * n + 64 * n,
                    f"rank pass over a {n}x{n} matrix")
    a = (m % p).astype(np.int64, copy=False)
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


def _nonsingular(b):
    """[det b[:n, :n] != 0 for n = 1..N]: full rank mod p proves n, and one
    exact pass over the block of the last rank drop confirms or refutes
    every drop."""
    flags = (_leading_ranks_mod(b, _RANK_PRIME)
             == np.arange(1, len(b) + 1)).tolist()
    if all(flags):
        return flags
    d = len(flags) - flags[::-1].index(False)
    return [x != 0 for x in _eliminate(b[:d, :d])] + flags[d:]


def is_singular_exact(m):
    """det m == 0, exactly: the last flag of _by_blocks over _nonsingular,
    as in invertibility_scan."""
    flags = _by_blocks(m, _nonsingular)
    return bool(flags) and not flags[-1]


def invertibility_scan(z0, nmax):
    """{singular_ns, threshold}: all singular n <= nmax, and the least n0 with
    every n0 < n <= nmax invertible, from the flags of _by_blocks over
    _nonsingular.  For even-sum z0 every odd n is singular by counting."""
    # int64 matrix, mod-p copy, update block, sieve: ~27 B/cell (tracemalloc)
    rk.check_budget(27 * max(nmax, 0) ** 2, f"invertibility scan to n={nmax}")
    flags = _by_blocks(build_prime_matrix(z0, nmax), _nonsingular)
    singular = [n for n, x in enumerate(flags, 1) if not x]
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


@dataclass
class Spectrum:
    eigenvalues: np.ndarray
    residual_bound: float


def spectrum(m):
    """Eigenvalues, residual bound max ‖Av − λv‖₂/(‖v‖₂·‖A‖_F) (Frobenius)."""
    n = np.shape(m)[0]
    check_solver_cap(n)
    a = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
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
    float beyond, both refused above SOLVER_CAP before any copy.  Entries
    are read by rk._exact_integers: a float or complex matrix raises
    TypeError.
    """
    n = np.shape(m)[0]
    check_solver_cap(n)
    A = np.asarray(rk._exact_integers(m), dtype=object)
    if n <= _CHAR_POLY_EXACT_CAP:
        M = np.eye(n, dtype=object)
        coeffs = [1]
        for k in range(1, n + 1):
            N = A @ M
            ck, r = divmod(-sum(N[i, i] for i in range(n)), k)
            if r:
                raise ArithmeticError(f"Faddeev–LeVerrier: c_{k} is not an "
                                      f"integer")
            coeffs.append(ck)
            M = N + ck * np.eye(n, dtype=object)
        return coeffs
    w = np.linalg.eigvals(A.astype(float))
    return list(np.poly(w))


def char_poly_function(m, x):
    """f_n(x) = log|p_[nx]| / log|det A| on x ∈ [0,1]; f_n(1) = 1.  An x
    outside [0, 1] or NaN, or |det A| <= 1, raises ValueError."""
    if not 0 <= x <= 1:
        raise ValueError(f"x in [0, 1] required, got {x}")
    coeffs = char_poly(m)
    n = len(coeffs) - 1
    det = coeffs[-1]  # |constant term| = |det|
    if abs(det) <= 1:
        raise ValueError(f"determinant {det}: normalization undefined")
    j = int(n * x)
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
    sign is read from int64 counts (exact while n² < 2⁶³) and a covariance of
    exactly 0 gives 0.
    """
    if K < 1 or n < 1:
        raise ValueError("K >= 1 and n >= 1 required")
    rows = prime_rows(range(1, K + 1), n)
    both = np.array([[np.count_nonzero(x & y) for y in rows] for x in rows],
                    dtype=np.int64)
    return np.sign(n * both - np.outer(both.diagonal(), both.diagonal()))


def qr_column_means(m):
    """Column means of Q in the QR factorization."""
    check_solver_cap(np.shape(m)[0])
    a = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    q, _r = np.linalg.qr(a)
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
    k = rk._exact_exponent(s)
    # int64 gcds, then an object array of their ints and its power, ints
    # below n^s (exact), or a complex copy and its power
    per_cell = 8 + (44 + k * math.log2(max(n, 1)) / 8 if k else 32)
    rk.check_budget(int(per_cell * max(n, 0) ** 2), f"gcd matrix n={n}")
    g = rk.gcd_table(n)
    if k:
        return g.astype(object) ** k
    return np.power(g.astype(complex), s)


def smith_divisor_factor(n):
    """E with E_{ij} = 1 iff j | i (lower unitriangular)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    # the int64 E and the bool mask it is cast from (tracemalloc)
    rk.check_budget(9 * n * n, f"Smith divisor factor n={n}")
    idx = np.arange(1, n + 1, dtype=np.int64)
    return (idx[:, None] % idx[None, :] == 0).astype(np.int64)


def smith_det(n, s=1):
    """∏_{k<=n} J_s(k) = det(gcd^s matrix); exact for integer s >= 1."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return math.prod(rk.jordan_totient(k, s) for k in range(1, n + 1))


def smith_det_residual(n, s=1):
    """det(gcd^s matrix) − ∏_{k<=n} J_s(k); exact 0 for integer s, whose
    determinant is read off the kept leading minors of gcd^s (_smith_minor)."""
    return _smith_det_and_residual(n, s)[1]


def _gcd_power(n, s):
    """gcd(i, j)^s, 1 <= i, j <= n, for integer s >= 1: the int64 gcd table's
    power when n^s < 2⁶³ bounds every entry, else build_smith's Python ints."""
    if n ** s < 2**63:
        return rk.gcd_table(n) ** s
    return build_smith(n, s)


# Leading minors of gcd^s(N) per integer exponent s, least recently used
# first: gcd^s(n) is the leading n×n block of gcd^s(N), so minors[n − 1] is
# det gcd^s(n) for every n <= N.  A table is the N minors its pass returned,
# at most 2/N of the N²/2 minors check_exact_pass admitted for that pass:
# 0.5 MB at (N, s) = (1000, 1), 0.36 MB at (500, 3).  8 exponents keep the
# tables of a scan over a few s and bound how many are kept whatever s the
# calls bring.
_KEPT_EXPONENTS = 8
_kept_minors = {}


def _smith_minor(n, s):
    """det gcd^s(n) for integer s >= 1, read off the kept minors of s.  A
    miss runs leading_minors(_gcd_power(order, s)) once: order n for an
    exponent not kept, else max(n, 2·kept order), or n again when
    check_exact_pass refuses that.  A refused n raises and leaves the kept
    tables as they were."""
    minors = _kept_minors.get(s)
    if minors is None or n > len(minors):
        order = n if minors is None else max(n, 2 * len(minors))
        try:  # the pass's >= 22 B per cell cover _gcd_power's int64 arrays
            check_exact_pass(order, s * math.log2(order))
        except rk.CapacityError:
            if order == n:
                raise
            order = n
            check_exact_pass(n, s * math.log2(n))
        minors = leading_minors(_gcd_power(order, s))
    _kept_minors.pop(s, None)
    _kept_minors[s] = minors  # now the most recently used
    if len(_kept_minors) > _KEPT_EXPONENTS:
        del _kept_minors[next(iter(_kept_minors))]
    return minors[n - 1]


def _smith_det_and_residual(n, s=1):
    """(∏_{k<=n} J_s(k), smith_det_residual(n, s)) from one product, the
    determinant read off the kept minors of gcd^s (_smith_minor) for
    integer s, else numpy's of build_smith(n, s)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    k = rk._exact_exponent(s)
    if not k:
        check_solver_cap(n)
    det = (_smith_minor(n, k) if k
           else complex(np.linalg.det(build_smith(n, s))))
    target = smith_det(n, s)
    if k:
        return target, det - target
    # relative residual: the determinant magnitude explodes with n
    return target, (det - target) / max(1.0, abs(target))


def smith_factorization_check(n, s=1):
    """Exact check A = E·diag(J_s)·Eᵀ for integer s, E_{ij} = [j | i], as the
    divisor sums Σ_{d|gcd(i,j)} J_s(d): J_s(d) is added to the cells
    [d−1::d, d−1::d], d = 1..n, in _gcd_power's dtype, whose rule bounds
    every partial sum, since each is at most gcd(i, j)^s <= n^s."""
    if (s := rk._exact_exponent(s)) is None:
        raise ValueError("exact factorization check needs integer s >= 1")
    # int64: the table and its power, then the power, the sums and their
    # equality mask, 17-21 B per cell (tracemalloc, n = 50-400); Python ints
    # add two arrays' ints, which s·log₂(n)/2 bounds (42-48 B in all); the
    # 30 keeps it at least build_smith's check, which runs second
    per_cell = 30 + s * math.log2(max(n, 1)) / 2
    rk.check_budget(int(per_cell * max(n, 0) ** 2),
                    f"Smith factorization check n={n}")
    a = _gcd_power(n, s)
    sums = np.zeros_like(a)
    for d in range(1, n + 1):
        sums[d - 1::d, d - 1::d] += rk.jordan_totient(d, s)
    return bool(np.array_equal(sums, a))


def smith_inverse_moebius_check(n):
    """E⁻¹_{ij} = μ(i/j) on divisor pairs (0 elsewhere)."""
    # E, the quotients, E⁻¹, E·E⁻¹ and I: 33 B per cell (tracemalloc)
    rk.check_budget(34 * max(n, 0) ** 2, f"Smith Moebius check n={n}")
    e = smith_divisor_factor(n)
    idx = np.arange(1, n + 1)
    inv = e * rk.moebius_table(n)[idx[:, None] // idx[None, :]]
    return bool(np.array_equal(e @ inv, np.eye(n, dtype=np.int64)))


# ---------------------------------------------------------------------------
# Almost-periodic / van der Monde matrices
# ---------------------------------------------------------------------------

GOLDEN = (math.sqrt(5) - 1) / 2


def build_almost_period(n, alpha, beta, theta=0.0):
    """A_{km} = cos(kmα + mβ + θ), k,m = 1..n; refused before it allocates
    the 16 B per entry it peaks at (tracemalloc, n = 500-2000), two float
    n×n arrays."""
    rk.check_budget(16 * max(n, 0) ** 2, f"almost-periodic matrix, order {n}")
    k = np.arange(1, n + 1, dtype=float)
    return np.cos(np.outer(k, k) * alpha + k[None, :] * beta + theta)


def almost_period_log_dets(nmax, alpha, beta, theta):
    """[(sign, log|det A(n)|) for n = 1..nmax], numpy's slogdet of each
    leading block of build_almost_period(nmax, α, β, θ): A(n) is the leading
    n×n block of A(nmax)."""
    check_solver_cap(nmax)
    a = build_almost_period(nmax, alpha, beta, theta)
    return [(int(round(sign)), float(log_abs)) for sign, log_abs in
            (np.linalg.slogdet(a[:n, :n]) for n in range(1, nmax + 1))]


def build_vdm(n, alpha, beta):
    """B_{km} = exp(i(kmα + mβ)), k,m = 1..n; refused before it allocates
    the 32 B per entry it peaks at (tracemalloc), two complex n×n arrays."""
    rk.check_budget(32 * max(n, 0) ** 2, f"van der Monde matrix, order {n}")
    k = np.arange(1, n + 1, dtype=float)
    return np.exp(1j * (np.outer(k, k) * alpha + k[None, :] * beta))


def vdm_log_det(nmax, alpha):
    """out[n] = log|det B(n)| for 0 <= n <= nmax (float64).  B is van der
    Monde in the nodes z^k, z = e^{iα} (α in radians: the rotation number is
    α/2π; β and |w| = 1 leave the modulus unchanged), so |det B(n)| =
    ∏_{m<n} |(z; z)_m| is a product of Sudler products: the first cumulative
    sum of log|2 sin(dα/2)| is log|(z; z)_m|, and the second is out[n]."""
    if nmax < 0:
        raise ValueError("nmax >= 0 required")
    # tracemalloc peak: the output and two work arrays, 8 B per n each
    rk.check_budget(24 * (nmax + 1), f"van der Monde log|det| to n={nmax}")
    out = np.zeros(nmax + 1)
    with np.errstate(divide="ignore"):  # a repeated node: det = 0, log −inf
        log_sin = np.log(np.abs(2 * np.sin(np.arange(1.0, nmax) * alpha / 2)))
    np.cumsum(np.cumsum(log_sin), out=out[2:])
    return out


def vdm_product_modulus(n, alpha, beta):
    """|det B(n)| = exp(vdm_log_det(n, α)[n]), β aside; ArithmeticError where
    it lies outside the normal floats, rather than 0.0 or inf."""
    log_det = float(vdm_log_det(n, alpha)[n])
    lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
    if log_det != -math.inf and not lo <= log_det <= hi:
        raise ArithmeticError(f"|det B({n})| = e^{log_det:.6g} is outside the "
                              f"float range; read log|det| off vdm_log_det")
    return math.exp(log_det)


def vdm_det_growth(nmax, alpha=GOLDEN):
    """[(n, log|det B(n)| / log(2ⁿ·n!)) for n = 2..nmax] off vdm_log_det."""
    n = np.arange(2, nmax + 1)
    log_bound = n * math.log(2) + np.cumsum(np.log(n))
    ratio = vdm_log_det(nmax, alpha)[2:] / log_bound
    return list(zip(n.tolist(), ratio.tolist()))
