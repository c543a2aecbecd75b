import math

import numpy as np
import pytest

from primelab import primestats as ps
from primelab import ratkernel as rk
from primelab.planarith import prime_row_flags


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


def test_bateman_horn_rejects_inadmissible():
    with pytest.raises(ValueError):
        ps.bateman_horn_C([2, 1, 1], 100)  # x²+x+2 always even


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
    num_flags[1:] = prime_row_flags(1, n)
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
    st = ps.theta_statistics(2000)
    assert 0 <= st.ks_uniform <= 1
    assert -1 <= st.autocorr <= 1
    assert -1 <= st.split_corr <= 1
    assert len(st.walk) == 2000


def test_theta_statistics_rejects_constant():
    with pytest.raises(ValueError):
        ps.theta_statistics(np.zeros(100))


def test_theta_uniformity_ks():
    # 99% KS threshold for the uniform null: 1.628/sqrt(N)
    n = 10**4
    st = ps.theta_statistics(n)
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
