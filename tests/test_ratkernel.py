import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from primelab import planarith as pa
from primelab import ratkernel as rk


def _trial_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


def test_sieve_pi_100():
    assert rk.sieve(100).pi(100) == 25


def test_sieve_matches_trial_division():
    s = rk.sieve(2000)
    for n in range(2001):
        assert s.is_prime(n) == _trial_is_prime(n)


def test_is_prime_agrees_with_sieve():
    s = rk.sieve(10**5)
    for n in range(0, 10**5 + 1, 7):
        assert rk.is_prime(n) == s.is_prime(n)


def test_is_prime_large():
    assert rk.is_prime(2**61 - 1)
    assert not rk.is_prime(2**61 + 1)
    assert rk.is_prime(1000000007)


def test_sieve_flags_immutable():
    s = rk.sieve(50)
    with pytest.raises((ValueError, RuntimeError)):
        s.flags[4] = True


def test_moebius_fixtures():
    assert rk.moebius(4) == 0
    assert rk.moebius(6) == 1
    assert rk.moebius(30) == -1
    assert rk.mertens(5) == -2
    assert rk.mertens(1) == 1
    assert rk.mertens(2) == 0


def test_moebius_divisor_sum():
    # Σ_{d|n} μ(d) = [n == 1]
    for n in range(1, 10**4 + 1, 13):
        total = sum(rk.moebius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0)


def test_spf_table_matches_factorize():
    spf = rk.spf_table(5000)
    assert spf[0] == spf[1] == 0
    for n in range(2, 5001):
        assert spf[n] == rk.factorize(n)[0][0], n


def test_moebius_table_matches_pointwise():
    tab = rk.moebius_table(3000)
    for n in range(1, 3001):
        assert tab[n] == rk.moebius(n)


def test_totient_summatory_matches_pointwise():
    # Φ(n) − Φ(n − 1) is the φ-table entry at n
    phi = [rk.totient(n) for n in range(1, 3001)]
    assert ([rk.totient_summatory(n) for n in range(1, 3001)]
            == list(itertools.accumulate(phi)))


def test_gcd_table_matches_euclid():
    # the prime-power table against numpy's elementwise Euclid
    for n in [*range(1, 61), 143, 400, 1000]:
        idx = np.arange(1, n + 1, dtype=np.int64)
        g = rk.gcd_table(n)
        assert g.dtype == np.int64
        assert np.array_equal(g, np.gcd.outer(idx, idx)), n


def test_gcd_table_refuses_empty_and_oversized():
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1 required"):
            rk.gcd_table(n)
    tracemalloc.start()
    try:
        with pytest.raises(rk.CapacityError):
            rk.gcd_table(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_multiplicative_tables_refused_before_allocation():
    for call in (rk.mertens, pa.gaussian_mertens, rk.totient_summatory):
        tracemalloc.start()
        try:
            with pytest.raises(rk.CapacityError):
                call(10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6


def test_jordan_totient():
    assert rk.jordan_totient(4, 2) == 12
    for n in range(1, 2000):
        assert rk.jordan_totient(n, 1) == rk.totient(n)


@given(st.integers(2, 200), st.integers(2, 200), st.integers(1, 3))
def test_jordan_multiplicative(n, m, s):
    if math.gcd(n, m) == 1:
        assert (rk.jordan_totient(n * m, s)
                == rk.jordan_totient(n, s) * rk.jordan_totient(m, s))


def test_jacobi_euler_criterion():
    for p in rk.sieve(997).primes():
        p = int(p)
        if p == 2:
            continue
        for a in range(p):
            e = pow(a, (p - 1) // 2, p)
            e = -1 if e == p - 1 else e
            assert rk.jacobi(a, p) == e


def test_jacobi_fixtures():
    assert rk.jacobi(-1, 5) == 1
    assert rk.jacobi(-1, 7) == -1
    assert rk.jacobi(2, 15) == 1
    with pytest.raises(ValueError):
        rk.jacobi(3, 4)


def test_two_square_reconstructs():
    s = rk.sieve(10**6)
    for p in s.primes():
        p = int(p)
        if p != 2 and p % 4 != 1:
            continue
        a, b = rk.two_square(p)
        assert a * a + b * b == p and a >= b >= 0


def test_two_square_fixtures():
    assert rk.two_square(2) == (1, 1)
    assert rk.two_square(5) == (2, 1)
    assert rk.two_square(13) == (3, 2)


def test_factorize_roundtrip():
    for n in range(2, 5000, 17):
        prod = 1
        for p, e in rk.factorize(n):
            assert rk.is_prime(p)
            prod *= p**e
        assert prod == n


def test_totient_summatory():
    assert rk.totient_summatory(1) == 1
    assert rk.totient_summatory(2) == 2
    assert rk.totient_summatory(10) == 32
    # trend toward 3/pi^2
    assert abs(rk.totient_summatory(10**4) / 10**8 - 3 / math.pi**2) < 1e-3


def test_divisors_mod_count():
    # d1(5)=2 (1 and 5), d3(5)=0
    assert rk.divisors_mod_count(5, 1, 4) == 2
    assert rk.divisors_mod_count(5, 3, 4) == 0
    assert rk.divisors_mod_count(9, 3, 4) == 1
    assert rk.divisors_mod_count(1, 1, 4) == 1


def test_li_value():
    # li(2) = 0 with the lower-limit-2 convention
    assert abs(rk.li(2)) < 1e-12
    assert abs(rk.li(10**6) - 78626.503996) < 1e-2
    assert rk.li(3) > 0
    for x in (1.5, 0):
        with pytest.raises(ValueError):
            rk.li(x)
    # tabulated li(10¹²) from 0 is 37607950280.80; li(2) = 1.0451637801
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(rk.li(10**12) - (37607950280.80 - 1.0451637801)) < 0.05
    # the bytes do not depend on the global mpmath precision
    import mpmath
    old = mpmath.mp.dps
    try:
        mpmath.mp.dps = 15
        low = rk.li(3).hex()
        mpmath.mp.dps = 30
        assert rk.li(3).hex() == low
    finally:
        mpmath.mp.dps = old


_IMPORT_DIET = """
import sys

def loaded(*roots):
    return sorted(k for k in sys.modules if k.split(".")[0] in roots)

import primelab, primelab.cli, primelab.specmat, primelab.primestats
import primelab.planarith, primelab.hyperarith
import primelab.primegraphs, primelab.caworld
# only zetafun needs mpmath at import time
assert not loaded("mpmath", "scipy", "networkx"), loaded("mpmath", "scipy", "networkx")
import primelab.zetafun

# quaternion orbits, graph components and CA moats all label components
primelab.hyperarith.u_orbit_lengths(7)
primelab.primegraphs.gcd_components(30)
primelab.caworld.moat_component(1, 20)
from primelab import primegraphs as pg, ratkernel as rk
assert abs(rk.li(10**6) - 78626.503996) < 1e-2
assert pg.clique_euler_characteristic(pg.gcd_graph(30)) == 6
primelab.primestats.bateman_horn_C([1, 0, 1], 100)
assert not loaded("scipy", "networkx"), loaded("scipy", "networkx")
"""

# goldbach is the one module that loads scipy (scipy.signal), and no mpmath
_GOLDBACH_DIET = """
import sys
import primelab.goldbach
assert "mpmath" not in sys.modules
"""


def test_imports_load_no_scipy_until_li():
    # Child interpreters: the test process has already imported scipy,
    # networkx and mpmath.
    src = str(Path(rk.__file__).resolve().parents[1])
    for script in (_IMPORT_DIET, _GOLDBACH_DIET):
        res = subprocess.run([sys.executable, "-c", script],
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


def test_sqrt_minus_one_mod():
    for p in (5, 13, 17, 29, 101, 1000033):
        r = rk.sqrt_minus_one_mod(p)
        assert (r * r + 1) % p == 0


def test_euler_composite_factor():
    # 65 = 1^2+8^2 = 4^2+7^2
    f = rk.euler_composite_factor(65, (8, 1), (7, 4))
    assert f in (5, 13) and 65 % f == 0


def test_pi_mod():
    s = rk.sieve(100)
    assert rk.pi_mod(100, 1, 4) + rk.pi_mod(100, 3, 4) + 1 == s.pi(100)
