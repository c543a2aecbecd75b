import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from primelab import ratkernel as rk
from primelab import zetafun as zf

ZEROS = Path(__file__).parent / "data" / "zeta_zeros_100.txt"


_DPS = """
import mpmath
mpmath.mp.dps = 15
from primelab import zetafun as zf
assert mpmath.mp.dps == 15, mpmath.mp.dps
values = [zf.zeta(3), zf.zeta_E(2), zf.functional_eq_residual("xi_G", 0.3 + 2j),
          zf.hurwitz_class_zeta(2, 100)]
assert mpmath.mp.dps == 15, mpmath.mp.dps
mpmath.mp.dps = 50
assert values == [zf.zeta(3), zf.zeta_E(2),
                  zf.functional_eq_residual("xi_G", 0.3 + 2j),
                  zf.hurwitz_class_zeta(2, 100)]
assert mpmath.mp.dps == 50, mpmath.mp.dps
"""


def test_mpmath_precision_is_left_alone():
    # a fresh interpreter: this one imported zetafun long ago
    src = str(Path(zf.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", _DPS],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_zeta_direct_sum():
    for s in (3, 4, 3 + 2j):
        direct = sum(n ** (-complex(s)) for n in range(1, 200001))
        assert abs(zf.zeta(s) - direct) < 1e-10


def test_beta_partial_sums_bracket():
    # alternating series: consecutive partial sums bracket the limit
    for s in (1.5, 2.0, 3.0):
        val = zf.beta(s).real
        part = sum((-1) ** k / (2 * k + 1) ** s for k in range(100))
        nxt = part + (-1) ** 100 / 201 ** s
        lo, hi = min(part, nxt), max(part, nxt)
        assert lo <= val <= hi


def test_beta_2_catalan():
    assert abs(zf.beta(2).real - 0.9159655941772190) < 1e-12


def test_l3_value():
    # L3(1) = pi/(3 sqrt 3)
    assert abs(zf.l3(1).real - math.pi / (3 * math.sqrt(3))) < 1e-12


def test_zeta_G_closed_form():
    assert abs(zf.zeta_G(2) - 4 * zf.zeta(2) * zf.beta(2)) < 1e-14
    assert abs(zf.zeta_E(2) - 6 * zf.zeta(2) * zf.l3(2)) < 1e-14
    assert zf.zeta_G(3).imag == pytest.approx(0, abs=1e-14)


def test_lattice_zeta_units_only():
    assert abs(zf.lattice_zeta("gaussian", 2.0, 1) - 4) < 1e-14


def test_lattice_zeta_budget_covers_its_traced_peak(traced_peak,
                                                     budget_checks):
    # 16 B per n for real s and 24 B for complex s: the counts and the terms
    X = 10**5
    for ring in ("gaussian", "eisenstein"):
        for s, per_n in ((2, 16), (1.5, 16), (0.5 + 2j, 24), (2 + 0j, 24)):
            budget_checks.clear()
            _, peak = traced_peak(zf.lattice_zeta, ring, s, X)
            assert budget_checks[0] == per_n * X + 2**18, (ring, s)
            assert per_n * X < peak <= budget_checks[0], (ring, s)


def test_lattice_zeta_converges():
    assert abs(zf.lattice_zeta("gaussian", 2.0, 10**6) - zf.zeta_G(2)) < 1e-3
    assert abs(zf.lattice_zeta("gaussian", 3.0, 10**5) - zf.zeta_G(3)) < 1e-6
    assert abs(zf.lattice_zeta("eisenstein", 3.0, 10**5) - zf.zeta_E(3)) < 1e-6


def test_functional_equations():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = complex(rng.uniform(0.1, 0.9), rng.uniform(-8, 8))
        assert zf.functional_eq_residual("zeta", s) < 1e-10
        assert zf.functional_eq_residual("beta", s) < 1e-10
        assert zf.functional_eq_residual("zeta_G", s) < 1e-10
        assert zf.functional_eq_residual("xi_G", s) < 1e-10


def test_mangoldt():
    assert zf.mangoldt(1) == 0
    assert zf.mangoldt(8) == math.log(2)
    assert zf.mangoldt(6) == 0
    assert zf.mangoldt(7) == math.log(7)


def test_chebyshev_psi():
    assert zf.chebyshev_psi(2) == pytest.approx(math.log(2))
    assert zf.chebyshev_psi(10) == pytest.approx(math.log(2520))
    xs = np.linspace(1, 60, 200)
    vals = [zf.chebyshev_psi(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_zero_table_load():
    t = zf.ZeroTable.load(ZEROS)
    assert len(t) == 100
    assert abs(t.gammas[0] - 14.134725) < 0.01
    with pytest.raises(ValueError):
        zf.ZeroTable([15.0, 14.0])
    with pytest.raises(ValueError):
        zf.ZeroTable([1.0, 2.0])


def test_explicit_psi_k0():
    t = zf.ZeroTable.load(ZEROS)
    for x in (5.0, 17.3, 99.0):
        want = x - math.log(2 * math.pi) - 0.5 * math.log(1 - x**-2)
        assert zf.explicit_psi(x, t, 0) == pytest.approx(want)


def test_explicit_psi_converges():
    t = zf.ZeroTable.load(ZEROS)
    xs = np.arange(5, 100) + 0.5
    e10 = max(abs(zf.explicit_psi(x, t, 10) - zf.chebyshev_psi(x))
              for x in xs)
    e100 = max(abs(zf.explicit_psi(x, t, 100) - zf.chebyshev_psi(x))
               for x in xs)
    assert e100 < 1.5
    assert e100 < e10


def test_hurwitz_class_zeta():
    assert zf.hurwitz_class_zeta(3, 3) == pytest.approx(1 / 8 + 4 / 27)
    # monotone in P
    assert zf.hurwitz_class_zeta(3, 100) < zf.hurwitz_class_zeta(3, 200)
    # matches the classes_above enumeration
    from primelab import hyperarith as ha
    from primelab import ratkernel as rk
    s = 4
    want = 2.0 ** -s
    for p in (int(q) for q in rk.sieve(200).primes()[1:]):
        want += ha.classes_above(p) / p**s
    assert zf.hurwitz_class_zeta(s, 200) == pytest.approx(want, rel=1e-12)


def test_gaussian_mertens_growth():
    series = zf.gaussian_mertens_growth(2**12)
    assert len(series) > 4
    for x, v in series:
        assert abs(v) < 10
