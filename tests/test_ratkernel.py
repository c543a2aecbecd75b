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


def test_sieve_flags_at_the_squares_of_primes():
    # the root sieve's last prime p strikes first at p², so limits p² − 1,
    # p² and p² + 1 cross each root; 2 and 3 have a root below 2
    limits = [2, 3] + [p * p + d for p in (2, 3, 5, 7, 11, 13, 31, 47)
                       for d in (-1, 0, 1)]
    for limit in limits:
        flags = rk.PrimeSieve(limit).flags
        assert flags.tolist() == [_trial_is_prime(n)
                                  for n in range(limit + 1)], limit


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


def _two_square(ps):
    """(a, b) with a² + b² = p from Cornacchia on the kernel's √−1 mod p."""
    return rk._cornacchia(ps, rk._split_root(ps, 4), 1)


def test_two_square_reconstructs(two_square_oracle):
    ps = rk.sieve(10**6).primes()
    ps = ps[(ps == 2) | (ps % 4 == 1)]
    a, b = _two_square(ps)
    assert np.array_equal(a * a + b * b, ps) and (a >= b).all() and b.min() > 0
    assert list(zip(a.tolist(), b.tolist())) == [two_square_oracle(p)
                                                 for p in ps.tolist()]


def test_two_square_fixtures():
    a, b = _two_square(np.array([2, 5, 13]))
    assert list(zip(a.tolist(), b.tolist())) == [(1, 1), (2, 1), (3, 2)]


def _largest_split_primes(count):
    """The `count` largest primes ≡ 1 mod 4 at or below the kernel's bound."""
    out, p = [], rk._EXACT_P - rk._EXACT_P % 4 + 1
    while len(out) < count:
        if rk.is_prime(p):
            out.append(p)
        p -= 4
    return out


def test_two_square_kernel_at_the_exactness_bound(sqrt_minus_one_oracle,
                                                  two_square_oracle):
    # 3037000499² < 2⁶³ <= 3037000500²: int64 squares are exact up to here
    assert rk._EXACT_P ** 2 < 2**63 <= (rk._EXACT_P + 1) ** 2
    ps = _largest_split_primes(20)
    assert ps[0] == 3037000493
    roots = rk._split_root(np.array(ps), 4)
    assert roots.tolist() == [sqrt_minus_one_oracle(p) for p in ps]
    a, b = _two_square(np.array(ps[:3]))
    assert list(zip(a.tolist(), b.tolist())) == [two_square_oracle(p)
                                                 for p in ps[:3]]


def test_factorize_roundtrip():
    for n in range(2, 5000, 17):
        prod = 1
        for p, e in rk.factorize(n):
            assert rk.is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_trial_division_above_1009():
    # every prime factor above the small-prime table, one of them repeated
    assert rk.factorize(1009 * 1013) == [(1009, 1), (1013, 1)]
    assert rk.factorize(1009 ** 2) == [(1009, 2)]
    assert rk.factorize(1013 * 10007) == [(1013, 1), (10007, 1)]
    assert rk.factorize(2 ** 3 * 1013 ** 2 * 10007) == [
        (2, 3), (1013, 2), (10007, 1)]


def test_sieve_cache_keeps_one_sieve():
    rk.sieve(1000)
    last = rk.sieve(2000)
    assert rk.sieve.cache_info().currsize == 1
    assert rk.sieve(2000) is last


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
    for n in range(1, 301):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        for m in range(1, 8):
            for k in range(m):
                want = sum(d % m == k for d in divisors)
                assert rk.divisors_mod_count(n, k, m) == want, (n, k, m)
    # a residue outside 0..m-1 counted 0, and m = 0 divided by zero
    for k, m in ((5, 4), (4, 4), (-1, 4), (0, 0), (1, 0), (0, -3)):
        with pytest.raises(ValueError, match="need 0 <= k < m"):
            rk.divisors_mod_count(12, k, m)


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


# the package's re-exports load their modules on first access
_LEAN_IMPORT = """
import sys
import primelab
assert "numpy" not in sys.modules
for name, module in [("CapacityError", "ratkernel"), ("is_prime", "ratkernel"),
                     ("sieve", "ratkernel"), ("GaussianInt", "planarith"),
                     ("EisensteinInt", "planarith"), ("QuatInt", "hyperarith"),
                     ("OctInt", "hyperarith")]:
    assert getattr(primelab, name) is getattr(sys.modules["primelab." + module],
                                              name), name
try:
    primelab.nope
except AttributeError:
    pass
else:
    raise AssertionError("primelab.nope resolved")
"""

# the README promise: each subcommand imports only the modules it runs, and
# the manifest names the optional libraries the run loaded
_SMITH_LOADS = """
import json, sys
from pathlib import Path
from primelab import cli
assert cli.main(["--out", sys.argv[1], "smith", "--n", "7"]) == 0
loaded = [k for k in sys.modules if k.split(".")[0] in ("scipy", "mpmath")
          or k == "primelab.hyperarith"]
assert not loaded, loaded
manifest = json.loads((Path(sys.argv[1]) / "manifest.json").read_text())
assert not {"scipy", "mpmath"} & set(manifest["versions"]), manifest
assert manifest["openblas_num_threads"] == "1", manifest
"""


def _child(script, *argv, **env):
    """Run script in a fresh interpreter on this source tree, with the
    environment variables of env set (a value of None removes one)."""
    env = {**os.environ, **env,
           "PYTHONPATH": str(Path(rk.__file__).resolve().parents[1])}
    res = subprocess.run([sys.executable, "-c", script, *argv],
                         env={k: v for k, v in env.items() if v is not None},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_package_import_loads_no_numpy():
    _child(_LEAN_IMPORT)


def test_smith_loads_only_what_it_runs(tmp_path):
    _child(_SMITH_LOADS, str(tmp_path), OPENBLAS_NUM_THREADS=None)


# ca labels its moats with the kernel's component_labels, and goldbach
# evaluates polynomials with the kernel's Horner rule
_CA_LOADS = """
import sys
from primelab import cli
assert cli.main(["--out", sys.argv[1], "ca", "--window", "12", "--steps", "1",
                 "--moat", "0"]) == 0
loaded = {"primelab.primegraphs", "primelab.hyperarith"} & set(sys.modules)
assert not loaded, loaded
"""


def test_ca_loads_no_graph_or_hypercomplex_module(tmp_path):
    _child(_CA_LOADS, str(tmp_path))


def test_goldbach_import_loads_no_primestats():
    _child("import sys, primelab.goldbach\n"
           "assert 'primelab.primestats' not in sys.modules")


@pytest.mark.parametrize("given, ran", [(None, "1"), ("2", "2")])
def test_cli_runs_blas_on_one_thread_unless_told(given, ran):
    # numpy's OpenBLAS reads the variable once, when numpy loads
    script = ("import os, sys, primelab.cli\n"
              "assert 'numpy' in sys.modules\n"
              "print(os.environ['OPENBLAS_NUM_THREADS'],"
              " primelab.cli._BLAS_THREADS)")
    assert _child(script, OPENBLAS_NUM_THREADS=given).split() == [ran, ran]


def test_sqrt_minus_one_mod(sqrt_minus_one_oracle):
    ps = np.array([5, 13, 17, 29, 101, 1000033])
    r = rk._split_root(ps, 4)
    assert ((r * r + 1) % ps == 0).all()
    assert r.tolist() == [sqrt_minus_one_oracle(p) for p in ps.tolist()]


def test_trusted_root_search_matches_jacobi_search(sqrt_minus_one_oracle):
    # p = 2 and more than one block of 2¹³ entries
    ps = rk.sieve(10**6).primes()
    ps = ps[(ps == 2) | (ps % 4 == 1)]
    assert ps.size > 2**13
    assert rk._split_root(ps, 4).tolist() == [sqrt_minus_one_oracle(p)
                                              for p in ps.tolist()]


@pytest.mark.parametrize("n,base", [(65, 2), (1729, 7), (25326001, 7)])
def test_trusted_root_search_raises_on_euler_failure(n, base):
    with pytest.raises(ArithmeticError, match=f"^{n} is composite: {base}\\^"):
        rk._split_root(np.array([5, n, 13]), 4)


def test_trusted_root_search_bounds_and_proves_nothing():
    with pytest.raises(ValueError, match=f"above {rk._EXACT_P}"):
        rk._split_root(np.array([5, rk._EXACT_P + 2]), 4)
    # 3277 = 29·113, a base-2 strong pseudoprime, gets a false root: the
    # private search must only see primes its caller has proven
    assert rk._split_root(np.array([3277]), 4).tolist() == [128]


@pytest.mark.parametrize("q,entries", [(4, [0, 1, 3, 7, 19]),
                                        (3, [2, 3, 5, 11])])
def test_split_root_admits_only_entries_with_a_root(q, entries):
    # below 2 or ≢ 1 mod q (p = 2 aside at q = 4): no root of −1 or −3 mod p,
    # named before the base search, in the first block or past it
    split = rk.sieve(2 * 10**5).primes()
    split = split[split % q == 1]
    assert split.size > 2**13
    refusal = f"is below 2, above {rk._EXACT_P} or ≢ 1 mod {q}$"
    for n in entries:
        for ps in ([split[0], n, split[1]], [*split[:2**13 + 5], n]):
            with pytest.raises(ValueError, match=f"^{n} {refusal}"):
                rk._split_root(np.array(ps, dtype=np.int64), q)
    assert rk._split_root(np.array([2]), 4).tolist() == [1]
    assert rk._split_root(np.array([], dtype=np.int64), q).size == 0


def _sqrt_minus_three_search(p):
    """√−3 mod a prime p ≡ 1 mod 3, one a >= 2 at a time: 2w + 1 mod p for
    the first w = a^((p−1)/3) mod p that is a cube root of unity other than 1."""
    w = next(w for w in (pow(a, (p - 1) // 3, p) for a in itertools.count(2))
             if w != 1)
    return (2 * w + 1) % p


def test_split_root_of_minus_three_matches_a_scalar_search():
    # every p ≡ 1 mod 3 to 2·10⁵, more than one block of 2¹³ entries, and
    # the largest ones at the bound, where r < p keeps r² inside int64 and
    # an unreduced 2w + 1 squared would not be
    ps = rk.sieve(2 * 10**5).primes()
    ps = ps[ps % 3 == 1]
    assert ps.size > 2**13
    r = rk._split_root(ps, 3)
    assert ((r * r + 3) % ps == 0).all()
    assert r.tolist() == [_sqrt_minus_three_search(p) for p in ps.tolist()]
    top = [p for p in range(rk._EXACT_P, rk._EXACT_P - 600, -1)
           if p % 3 == 1 and rk.is_prime(p)]
    r = rk._split_root(np.array(top), 3).tolist()
    assert r == [_sqrt_minus_three_search(p) for p in top]
    assert all((x * x + 3) % p == 0 for x, p in zip(r, top))
    with pytest.raises(ValueError, match=f"above {rk._EXACT_P}"):
        rk._split_root(np.array([7, 3037000537]), 3)
    # 1387 = 19·73 passes to base 2 and gets a root of −3 mod 1387: like
    # q = 4, the search trusts its caller's primality proof
    assert rk._split_root(np.array([1387]), 3).tolist() == [
        _sqrt_minus_three_search(1387)]


@pytest.mark.parametrize("n,base", [(91, 2), (3277, 3), (2701, 5),
                                    (1729, 7)])
def test_split_root_of_minus_three_raises_on_fermat_failure(n, base):
    with pytest.raises(ArithmeticError, match=f"^{n} is composite: {base}\\^"):
        rk._split_root(np.array([7, n, 13]), 3)


def test_euler_composite_factor():
    # 65 = 1^2+8^2 = 4^2+7^2
    f = rk.euler_composite_factor(65, (8, 1), (7, 4))
    assert f in (5, 13) and 65 % f == 0


def test_pi_mod():
    s = rk.sieve(100)
    assert rk.pi_mod(100, 1, 4) + rk.pi_mod(100, 3, 4) + 1 == s.pi(100)
