import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy

from primelab import ratkernel as rk
from primelab import specmat as sm
from primelab.planarith import GaussianInt, is_gaussian_prime


def _bareiss_det(m):
    """Exact determinant by its own fraction-free Bareiss elimination, with
    row swaps anywhere below the pivot (oracle for leading_minors)."""
    a = [[int(x) for x in row] for row in np.asarray(m)]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = a[k][k]
        for r in range(k + 1, n):
            ark = a[r][k]
            row_r = a[r]
            row_k = a[k]
            for c in range(k + 1, n):
                row_r[c] = (pkk * row_r[c] - ark * row_k[c]) // prev
            row_r[k] = 0
        prev = pkk
    return sign * a[n - 1][n - 1]


def test_build_prime_matrix_entries():
    a = sm.build_prime_matrix(1, 5)
    from primelab.planarith import is_gaussian_prime
    for k in range(1, 6):
        for l in range(1, 6):
            want = is_gaussian_prime(GaussianInt(1 + k, l))
            assert a[k - 1, l - 1] == want


def test_det_exact_vs_minor_expansion(det_minor_expansion):
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 8))
        m = rng.integers(0, 2, size=(n, n))
        assert sm.det_exact(m) == det_minor_expansion(m)


def test_leading_minors_match_per_block_bareiss():
    rng = np.random.default_rng(5)
    stalled = 0
    for n in range(9):
        for _ in range(60):
            r = int(rng.integers(0, n + 1))
            zero_first = rng.integers(0, 2, size=(n, n))
            zero_first[:, :1] = 0
            for m in (rng.integers(0, 2, size=(n, n)),
                      rng.integers(-3, 4, size=(n, n))
                      * (rng.random((n, n)) < 0.3),
                      rng.integers(-2, 3, size=(n, r))
                      @ rng.integers(-2, 3, size=(r, n)),
                      zero_first):
                want = [_bareiss_det(m[:k, :k]) for k in range(1, n + 1)]
                assert sm.leading_minors(m) == want
                assert sm.det_exact(m) == _bareiss_det(m)
                stalled += want[:-1].count(0)
    assert stalled > 1000  # the zero-minor path is exercised
    assert sm.leading_minors(np.zeros((0, 0), dtype=np.int64)) == []
    assert sm.det_exact(np.zeros((0, 0), dtype=np.int64)) == 1
    for shape in ((2, 3), (3, 2), (3, 0)):
        with pytest.raises(ValueError):
            sm.leading_minors(np.ones(shape, dtype=np.int64))
        with pytest.raises(ValueError):
            sm.det_exact(np.ones(shape, dtype=np.int64))


def test_det_exact_vs_float():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.integers(-5, 6, size=(6, 6))
        assert sm.det_exact(m) == round(np.linalg.det(m.astype(float)))


def test_invertibility_scan_threshold():
    res = sm.invertibility_scan(1, 60)
    assert res["threshold"] == 28
    assert 28 in res["singular_ns"]
    assert 29 not in res["singular_ns"]


def test_singularity_matches_exact_det():
    mask = sm.build_prime_matrix(1, 35)
    for n in range(1, 36):
        d = sm.det_exact(mask[:n, :n])
        assert sm.is_singular_exact(mask[:n, :n]) == (d == 0)


@pytest.mark.parametrize("z0", [1, 2, 3, GaussianInt(2, 2)])
def test_scan_matches_bareiss_on_every_leading_block(z0):
    full = sm.build_prime_matrix(z0, 60)
    want = [n for n in range(1, 61) if _bareiss_det(full[:n, :n]) == 0]
    assert sm.invertibility_scan(z0, 60)["singular_ns"] == want


@pytest.mark.parametrize("z0,nmax,blocks",
                         [(1, 60, [28]), (2, 60, [59]), (1, 4, [])])
def test_scan_runs_one_exact_pass(monkeypatch, z0, nmax, blocks):
    """One leading_minors call over the block of the last rank drop, none
    when no leading block drops rank mod p (z0 = 1 up to n = 4)."""
    passes = []
    real = sm.leading_minors

    def counting(m):
        passes.append(len(m))
        return real(m)

    monkeypatch.setattr(sm, "leading_minors", counting)
    res = sm.invertibility_scan(z0, nmax)
    assert passes == blocks
    assert res["threshold"] == (blocks[0] if blocks else 0)


def test_leading_ranks_mod_vs_sympy():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        r = int(rng.integers(0, n + 1))
        low = rng.integers(-3, 4, size=(n, r)) @ rng.integers(-3, 4,
                                                             size=(r, n))
        for m in (low, rng.integers(0, 2, size=(n, n))):
            ranks = sm._leading_ranks_mod(m, sm._RANK_PRIME)
            want = [sympy.Matrix(m[:k, :k].tolist()).rank()
                    for k in range(1, n + 1)]
            assert ranks.tolist() == want


def test_scan_refused_before_build(tmp_path, monkeypatch, capsys):
    from primelab import cli

    def build(*_args):
        raise AssertionError("the refused matrix was built")

    monkeypatch.setattr(sm, "build_prime_matrix", build)
    assert cli.main(["--out", str(tmp_path / "cap"), "matrix",
                     "--scan", "15000"]) == 3
    assert ("capacity error: invertibility scan to n=15000"
            in capsys.readouterr().err)


def test_anticommutator_even_z0():
    for z0 in (2, 4, GaussianInt(1, 1), GaussianInt(2, 2)):
        assert sm.anticommutator_residual(z0, 20) == 0


def test_commutator_rejects_odd_z0():
    with pytest.raises(ValueError):
        sm.commutator_residuals(1, 10)


def test_spectrum_residual_bound():
    a = sm.build_prime_matrix(1, 40)
    s = sm.spectrum(a)
    assert s.residual_bound < 1e-10
    assert len(s.eigenvalues) == 40
    # eigenvalue product = det
    d = sm.det_exact(a)
    assert abs(np.prod(s.eigenvalues) - d) <= 1e-6 * max(1, abs(d))


def test_spectrum_capacity(monkeypatch):
    monkeypatch.setattr(sm, "SOLVER_CAP", 5)
    with pytest.raises(rk.CapacityError):
        sm.spectrum(np.eye(10))


def test_spectral_symmetry_even_z0():
    a = sm.build_prime_matrix(GaussianInt(1, 1), 100)
    s = sm.spectrum(a)
    assert sm.spectral_symmetry_residual(s) < 1e-6


def test_char_poly_consistency():
    a = sm.build_prime_matrix(1, 5)
    coeffs = sm.char_poly(a)
    assert coeffs[0] == 1
    det = sm.det_exact(a)
    assert coeffs[-1] == (-1) ** 5 * det
    # compare against sympy charpoly
    M = sympy.Matrix(a.astype(int).tolist())
    want = [int(c) for c in M.charpoly().all_coeffs()]
    assert coeffs == want


def test_char_poly_2x2_symbolic():
    a, b, x = sympy.symbols("a b x")
    m = np.array([[sympy.Integer(1), sympy.Integer(1)], [a, b]], dtype=object)
    # Faddeev-LeVerrier over symbolic entries
    A = m
    M = np.eye(2, dtype=object)
    coeffs = [sympy.Integer(1)]
    for k in range(1, 3):
        N = A @ M
        ck = -(N[0, 0] + N[1, 1]) / k
        ck = sympy.expand(ck)
        coeffs.append(ck)
        M = N + ck * np.eye(2, dtype=object)
    poly = sympy.expand(x**2 + coeffs[1] * x + coeffs[2])
    assert sympy.simplify(poly - (x**2 - (1 + b) * x + (b - a))) == 0


def test_char_poly_function_normalization():
    a = sm.build_prime_matrix(1, 30)
    assert sm.char_poly_function(a, 1.0) == 1.0


def test_prime_row_flags_sieved_matches_direct():
    from primelab.planarith import is_gaussian_prime
    for k in (1, 2, 3, 6):
        flags = sm.prime_row_flags(k, 20001)
        for j in range(1, 2000):
            assert flags[j - 1] == is_gaussian_prime(GaussianInt(j, k)), (j, k)
    # a row longer than k²: composites j² + k² with every prime factor above
    # n need sieving primes up to √(n² + k²), e.g. 6674² + k² = 20593·21589
    k = 20001
    flags = sm.prime_row_flags(k, 20001)
    for j in range(1, 20002):
        assert flags[j - 1] == rk.is_prime(j * j + k * k), (j, k)


def test_row_cov_sign_table_small():
    t = sm.row_cov_sign_table(4, 10**5)
    want = np.array([[(-1) ** (k - l) for l in range(4)] for k in range(4)])
    assert (t == want).mean() >= 0.9


def test_row_cov_sign_table_is_exact():
    # n³·Cov(R_k, R_l) = Σ (n·x − Σx)(n·y − Σy) over the rows' 0/1 entries
    rows = [[int(is_gaussian_prime(GaussianInt(j, k))) for j in range(1, 400)]
            for k in range(1, 7)]
    zeros = 0
    for n in range(1, 400):
        want = np.zeros((6, 6), dtype=np.int64)
        for k, l in np.ndindex(6, 6):
            x, y = rows[k][:n], rows[l][:n]
            sx, sy = sum(x), sum(y)
            cov = Fraction(sum((n * a - sx) * (n * b - sy)
                               for a, b in zip(x, y)), n**3)
            want[k, l] = (cov > 0) - (cov < 0)
        zeros += int(np.count_nonzero(want == 0))
        for K in range(1, 7):
            assert sm.row_cov_sign_table(K, n).tolist() == \
                want[:K, :K].tolist(), (K, n)
    assert zeros > 0
    assert sm.row_cov_sign_table(4, 52)[1, 3] == 0
    assert sm.row_cov_sign_table(6, 35)[1, 5] == 0


def test_trace_vs_li():
    tr, ratio = sm.trace_vs_li(1, 100)
    from primelab.planarith import is_gaussian_prime
    want = sum(1 for k in range(1, 101)
               if is_gaussian_prime(GaussianInt(1 + k, k)))
    assert tr == want


def test_smith_det_exact():
    for n in range(1, 51):
        for s in (1, 2, 3):
            assert sm.smith_det_residual(n, s) == 0


def test_build_smith_entries_are_python_ints():
    cases = [(n, s) for n in range(1, 41) for s in (1, 2, 3)] + [(50, 12)]
    for n, s in cases:
        a = sm.build_smith(n, s)
        want = [[int(x) ** s for x in row] for row in rk.gcd_table(n)]
        assert a.dtype == object and a.shape == (n, n)
        assert all(type(x) is int for x in a.flat)
        assert a.tolist() == want
    assert sm.build_smith(50, 12)[49, 49] == 50**12 > 2**63


def test_leading_minors_of_int64_objects_do_not_wrap():
    ints = sm.build_smith(12, 3)
    int64s = np.empty(ints.shape, dtype=object)
    for ij in np.ndindex(ints.shape):
        int64s[ij] = np.int64(ints[ij])
    assert type(int64s[0, 0]) is np.int64
    want = sm.leading_minors(ints)
    assert abs(want[-1]) > 2**63
    assert sm.leading_minors(int64s) == want
    assert all(type(x) is int for x in want)
    # bool and unsigned matrices read through tolist
    m = np.random.default_rng(3).integers(0, 2, size=(9, 9))
    want = sm.leading_minors(m)
    assert sm.leading_minors(m.astype(bool)) == want
    assert sm.leading_minors(m.astype(np.uint8)) == want


def test_smith_refused_before_build():
    for call in (lambda: sm.build_smith(20000),
                 lambda: sm.build_smith(20000, 0.5),
                 lambda: sm.smith_det_residual(20000),
                 lambda: sm.smith_det_residual(20000, 0.5)):
        tracemalloc.start()
        try:
            with pytest.raises(rk.CapacityError):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6


def test_smith_det_192():
    a = sm.build_smith(7, 1)
    assert sm.det_exact(a) == 192
    assert sm.smith_det(7, 1) == 192


def test_smith_factorization():
    for n in (5, 10, 20):
        assert sm.smith_factorization_check(n, 1)
        assert sm.smith_factorization_check(n, 2)
        assert sm.smith_inverse_moebius_check(n)


def test_smith_refuses_n_below_one():
    for n in (0, -3):
        for call in (sm.build_smith, sm.smith_divisor_factor,
                     sm.smith_factorization_check,
                     sm.smith_inverse_moebius_check):
            with pytest.raises(ValueError, match="n >= 1 required"):
                call(n)


def test_smith_complex_s():
    r = sm.smith_det_residual(20, 1.5 + 0.5j)
    assert abs(r) < 1e-8


def test_almost_period_matches_re_vdm():
    n = 12
    a = sm.build_almost_period(n, sm.GOLDEN, 0.3)
    b = sm.build_vdm(n, sm.GOLDEN, 0.3)
    assert np.max(np.abs(a - b.real)) < 1e-15


def test_almost_period_norm_bound():
    for n in (5, 20, 60):
        a = sm.build_almost_period(n, sm.GOLDEN, 0.1)
        assert np.linalg.norm(a, 2) <= n + 1e-9


def test_vdm_det_is_vandermonde_product():
    for n in (3, 10, 30, 50):
        b = sm.build_vdm(n, sm.GOLDEN, 0.7)
        got = abs(np.linalg.det(b))
        want = sm.vdm_product_modulus(n, sm.GOLDEN, 0.7)
        assert abs(got - want) < 1e-8 * max(1.0, want)


def test_vdm_growth_bounded():
    series = sm.vdm_det_growth(100)
    for n, v in series:
        assert v <= 1.0 + 1e-12


def test_vdm_rational_alpha_degenerate():
    b = sm.build_vdm(8, 2 * math.pi / 3, 0.0)
    assert abs(np.linalg.det(b)) < 1e-8


def test_qr_column_means_shape():
    a = sm.build_prime_matrix(1, 30)
    q = sm.qr_column_means(a)
    assert q.shape == (30,)


def test_spectral_stats_uniform_disk():
    rng = np.random.default_rng(0)
    n = 4000
    r = np.sqrt(rng.uniform(0, 1, n))
    phi = rng.uniform(0, 2 * math.pi, n)
    z = r * np.exp(1j * phi)
    # undo the scaling the stats apply
    scale = math.sqrt(math.log(n) / n)
    s = sm.Spectrum(z / scale, 0.0)
    stats = sm.spectral_stats(s, n)
    rr, fr = stats.radial_cdf[:, 0], stats.radial_cdf[:, 1]
    assert np.max(np.abs(fr - rr**2)) < 0.05
