import math

import numpy as np
import pytest

from primelab import primestats as ps
from primelab import ratkernel as rk
from primelab.planarith import prime_rows, theta_sequence


def test_hl_naive_single_factor():
    assert ps.hl_C_naive(1, 3) == 1.5


def test_hl_naive_converges():
    assert abs(ps.hl_C_naive(1, 10**6) - 1.3728) < 1e-3


def test_hl_western_fixtures():
    # truncation at p=17 gives a bit over 4 decimals (measured 1.8e-5)
    assert abs(ps.hl_C_western(17) - 1.37281346) < 2e-5
    assert abs(ps.hl_C_western(1000) - 1.37281346) < 1e-8


def test_bateman_horn_matches_naive_bitwise():
    for P in (100, 1000, 10**4):
        assert ps.bateman_horn_C([1, 0, 1], P) == ps.hl_C_naive(1, P)


def _jacobi_product(a, P):
    """∏_{odd p <= P, p ∤ a} (p − 1 − (−a|p))/(p − 1), the Hardy–Littlewood
    product by its own loop."""
    out = 1.0
    for p in rk.sieve(P).primes()[1:].tolist():
        if a % p:
            out *= (p - 1 - rk.jacobi(-a % p, p)) / (p - 1)
    return out


@pytest.mark.parametrize("a", [1, 2, 3, 5, 6, 7, 10, 12, -2, -3, -5])
def test_hl_naive_is_the_jacobi_product_bitwise(a):
    for P in (3, 1000, 10**5):
        assert ps.hl_C_naive(a, P).hex() == _jacobi_product(a, P).hex()


def test_omega_of_a_quadratic_matches_the_scan():
    def scan(f, p):
        return sum(1 for x in range(p) if rk._poly_eval(f, x) % p == 0)

    for f in ((1, 0, 1), (1, 1, 1), (7, 3, 5), (-6, 1, 1), (0, 0, 3),
              (4, 4, 1), (1, 2, 2)):
        for p in rk.sieve(200).primes().tolist():
            assert ps._omega_poly_mod(f, p) == scan(f, p), (f, p)


def _omega_scan(f, p):
    """#roots of f mod p by evaluating f at every residue."""
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in reversed(f):
        vals = (vals * xs + c) % p
    return int(np.count_nonzero(vals == 0))


HIGHER = [(2, 0, 0, 1), (-2, 0, 0, 1), (1, 1, 0, 1), (3, -1, 2, 5),
          (7, 0, 0, 2), (6, 11, 6, 1), (0, -1, 0, 1), (1, 0, 0, 0, 1),
          (2, 0, 0, 0, 1), (1, 1, 1, 1, 1), (3, 1, 0, 0, 2), (4, 0, 0, 0, 1)]


def test_omega_of_higher_degree_matches_the_scan():
    # cubics and quartics, split, irreducible and with leading coefficients
    # 2 and 5, which some p divide; x³ − x vanishes at every residue mod 2, 3
    for f in HIGHER:
        for p in rk.sieve(2000).primes().tolist():
            assert ps._omega_poly_mod(f, p) == _omega_scan(f, p), (f, p)
    for f in ((1, 2), (2, 3), (1, 0, 1), (0, 0, 3), (1, 2, 2), (2, 0, 0)):
        for p in (2, 3, 5, 7):
            assert ps._omega_poly_mod(f, p) == _omega_scan(f, p), (f, p)


def _scan_product(f, P):
    out = 1.0
    for p in rk.sieve(P).primes().tolist():
        out *= (p - _omega_scan(f, p)) / (p - 1)
    return out


@pytest.mark.parametrize("f", [(2, 0, 0, 1), (3, -1, 2, 5), (1, 1, 1, 1, 1)])
def test_bateman_horn_of_higher_degree_is_the_scan_product_bitwise(f):
    for P in (1000, 2 * 10**4):
        assert ps.bateman_horn_C(f, P).hex() == _scan_product(f, P).hex()


def test_bateman_horn_rejects_inadmissible():
    with pytest.raises(ValueError):
        ps.bateman_horn_C([2, 1, 1], 100)  # x²+x+2 always even


def test_bateman_horn_below_two_is_the_empty_product():
    for P in (0, 1):
        assert ps.bateman_horn_C([1, 0, 1], P) == 1.0
    # ω(2) = 1 and ω(3) = 0 for x² + 1: (2 − 1)/(2 − 1) · 3/2
    assert ps.bateman_horn_C([1, 0, 1], 3) == 1.5


def test_empirical_ratio_matches_brute_force():
    n = 10**5
    series = ps.empirical_ratio(n, [n])
    _, num, den, ratio = series.checkpoints[-1]
    want_num = sum(1 for a in range(1, n + 1) if rk.is_prime(a * a + 1))
    want_den = sum(1 for p in (int(q) for q in rk.sieve(n).primes())
                   if p % 4 == 3)
    assert (num, den) == (want_num, want_den)
    assert ratio == num / den


def _cumsum_ratio_rows(n, checkpoints):
    """The checkpoint rows from cumulative sums of both flag arrays, padded
    to index a directly."""
    num_flags = np.zeros(n + 1, dtype=bool)
    num_flags[1:] = prime_rows([1], n)[0]
    ps_ = rk.sieve(n).primes()
    den_flags = np.zeros(n + 1, dtype=bool)
    den_flags[ps_[ps_ % 4 == 3]] = True
    num_cum, den_cum = np.cumsum(num_flags), np.cumsum(den_flags)
    rows = []
    for c in checkpoints:
        num, den = int(num_cum[c]), int(den_cum[c])
        rows.append((c, num, den, num / den if den else math.inf))
    return rows


def test_empirical_ratio_matches_cumsum_oracle():
    checkpoints = [2, 3, 10, 99, 100, 10**4, 65537, 10**6]
    series = ps.empirical_ratio(10**6, checkpoints)
    assert series.checkpoints == _cumsum_ratio_rows(10**6, checkpoints)


@pytest.mark.parametrize("checkpoints", [[-5, 100], [0, 1, 100], [1, 100]])
def test_empirical_ratio_refuses_checkpoints_below_two(checkpoints):
    # row[:c] counts from the end for c < 0; error_envelope divides by log² c
    with pytest.raises(ValueError, match="checkpoints >= 2"):
        ps.empirical_ratio(100, checkpoints)


@pytest.mark.parametrize("ns", [[100, 10], [10, 10]])
def test_ratio_series_refuses_non_increasing_checkpoints(ns):
    with pytest.raises(ValueError, match="strictly increasing"):
        ps.RatioSeries([(n, 1, 1, 1.0) for n in ns])


@pytest.mark.parametrize("f,reason", [
    ([5], "constant polynomial"),
    ([3, 0, 0], "constant polynomial"),
    ([1, -1], "leading coefficient not positive"),
    ([1, 2, 0, -1], "leading coefficient not positive"),
    ([-1, 0, 1], "reducible"),  # x² − 1 = (x − 1)(x + 1)
    ([-5, 2, 3], "reducible"),  # 3x² + 2x − 5 = (x − 1)(3x + 5)
])
def test_bunyakovsky_refusals(f, reason):
    ok, why = ps.bunyakovsky_admissible(f)
    assert not ok and why.startswith(reason)


def test_ratio_series_csv():
    series = ps.empirical_ratio(1000, [100, 1000])
    lines = list(series.csv_lines())
    assert lines[0] == "n,numerator,denominator,ratio"
    assert lines[1].startswith("100,")


def test_error_envelope_shrinks():
    series = ps.empirical_ratio(10**6, [10**4, 10**5, 10**6])
    C = ps.hl_C_western(1000)
    env = ps.error_envelope(series, C)
    for n, e in env:
        assert e < 5.0


def test_frogger_fixtures():
    assert ps.frogger_min_x(1) == 1
    assert ps.frogger_min_x(2) == 1
    assert ps.frogger_min_x(5) == 2
    for a in range(1, 200):
        x = ps.frogger_min_x(a)
        assert rk.is_prime(x * x + a * a)


def test_hurwitz_frogger():
    t = ps.hurwitz_frogger(1)
    x, y, z = t
    assert rk.is_prime(1 + x * x + y * y + z * z)
    # lexicographic minimality within cap
    for cand in [(0, 0, 0)]:
        assert not rk.is_prime(1 + sum(c * c for c in cand))
    th = ps.hurwitz_frogger(1, half=True)
    x, y, z = th
    assert rk.is_prime(1 + x * x + y * y + z * z + 1 + x + y + z + 1)


def test_theta_statistics():
    st = ps.theta_statistics(theta_sequence(2000)[1])
    assert 0 <= st.ks_uniform <= 1
    assert -1 <= st.autocorr <= 1
    assert -1 <= st.split_corr <= 1
    assert len(st.walk) == 2000


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_theta_statistics_refuses_fewer_than_4_angles(n):
    with pytest.raises(ValueError, match=f"at least 4 angles required, "
                                         f"got {n}$"):
        ps.theta_statistics(theta_sequence(10)[1][:n])


def test_theta_statistics_at_4_angles():
    st = ps.theta_statistics(theta_sequence(4)[1])
    assert np.isfinite([st.ks_uniform, st.autocorr, st.split_corr]).all()


def test_theta_statistics_rejects_constant():
    with pytest.raises(ValueError):
        ps.theta_statistics(np.zeros(100))


def test_theta_uniformity_ks():
    # 99% KS threshold for the uniform null: 1.628/sqrt(N)
    n = 10**4
    st = ps.theta_statistics(theta_sequence(n)[1])
    assert st.ks_uniform < 1.628 / math.sqrt(n)


def test_hyperplane_counts():
    # brute force for small case
    a, n = 1, 8
    want = sum(1 for x in range(1, n + 1) for y in range(1, n + 1)
               for z in range(1, n + 1)
               if rk.is_prime(a * a + x * x + y * y + z * z))
    assert ps.hyperplane_prime_count(a, n) == want
    c, norm = ps.hyperplane_normalized(2, 30)
    assert c == ps.hyperplane_prime_count(2, 30)
    assert norm == c / (30 * math.log(30)) ** 2
    # (n log n)² is 0 at n = 1, where the count itself is defined
    assert ps.hyperplane_prime_count(2, 1) == 1  # 4 + 1 + 1 + 1 = 7
    for n in (1, 0, -2):
        with pytest.raises(ValueError, match="n >= 2 required"):
            ps.hyperplane_normalized(1, n)
