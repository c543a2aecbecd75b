"""Acceptance gate: nine criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the report lines.
"""

import math
import time
from pathlib import Path

import numpy as np

from primelab import caworld as ca
from primelab import goldbach as gb
from primelab import hyperarith as ha
from primelab import planarith as pa
from primelab import primegraphs as pg
from primelab import primestats as ps
from primelab import ratkernel as rk
from primelab import specmat as sm
from primelab import zetafun as zf
from primelab.planarith import GaussianInt

ZEROS = Path(__file__).parent / "data" / "zeta_zeros_100.txt"


def _report(num, name, ok):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_acceptance_1_goldbach_fixtures():
    t0 = time.time()
    ok = True
    z = gb.first_counterexample("gaussian", gb.UNRESTRICTED, 400)
    ok &= (z.re, z.im) == (4, 13)
    ok &= gb.r2(GaussianInt(2, 2)) == 1
    ok &= gb.r2(GaussianInt(29, 0), gb.UNRESTRICTED) == 0
    ok &= not gb.signed_rep_exists(23)
    ok &= gb.eisenstein_ghosts(3, 1000) == [109, 121]
    ok &= gb.pair_coverage([1, 1, 1], [4, 2, 1], 10**4) == [109, 121]
    ok &= gb.pair_coverage([1, 1, 1], [16, 4, 1], 10**4) == [21, 147]
    ok &= gb.pair_coverage([4, 2, 1], [9, 3, 1], 10**4) == [6, 27, 126]
    ok &= gb.pair_coverage([1, 1, 1], [1, 1, 1], 10**4) == []
    ok &= time.time() - t0 < 120
    _report(1, "Goldbach fixtures", ok)


def test_acceptance_2_quaternion_fixtures():
    t0 = time.time()
    ok = True
    for p in (int(q) for q in rk.sieve(199).primes()[1:]):
        ok &= ha.classes_above(p) == p + 1
        ok &= set(ha.u_orbit_lengths(p)) <= {2, 3}
    ok &= sorted(map(tuple, ha.positively_ordered_reps(13).tolist())) == [
        (0, 0, 4, 6), (1, 1, 1, 7), (1, 1, 5, 5), (2, 4, 4, 4), (3, 3, 3, 5)]
    v = gb.SumVariant(cone="open", species="hurwitz")
    ok &= gb.r2((2, 2, 2, 2), v) == 14
    ok &= time.time() - t0 < 300
    _report(2, "quaternion fixtures", ok)


def test_acceptance_3_octonion_fixtures():
    t0 = time.time()
    ok = True
    ok &= len(ha.oct_units("octavian")) == 240
    ok &= len(ha.oct_units("gravesian")) == 16
    gv = gb.SumVariant(cone="open", species="gravesian")
    kv = gb.SumVariant(cone="open", species="kleinian")
    ok &= gb.r2((2,) * 8, gv) == 0
    ok &= gb.r2((2,) * 8, kv) == 0
    rng = np.random.default_rng(42)
    for _ in range(10**4):
        z = ha.OctInt.from_ints(*rng.integers(-9, 10, size=8))
        w = ha.OctInt.from_ints(*rng.integers(-9, 10, size=8))
        if (z * w).norm() != z.norm() * w.norm():
            ok = False
            break
    ok &= time.time() - t0 < 600
    _report(3, "octonion fixtures", ok)


def test_acceptance_4_hardy_littlewood():
    t0 = time.time()
    ok = True
    C = ps.hl_C_western(1000)
    ok &= abs(C - 1.37281346) < 1e-7
    series = ps.empirical_ratio(
        10**7, [10**3, 10**4, 10**5, 10**6, 10**7])
    ok &= abs(series.checkpoints[-1][3] - C) < 0.005
    for n, e in ps.error_envelope(series, C):
        ok &= e < 5.0
    ok &= time.time() - t0 < 600
    _report(4, "Hardy-Littlewood", ok)


def test_acceptance_5_matrices(det_minor_expansion):
    t0 = time.time()
    ok = True
    ok &= sm.invertibility_scan(1, 200)["threshold"] == 28
    for z0 in (2, 4, GaussianInt(1, 1), GaussianInt(3, 1)):
        ok &= sm.commutator_residuals(z0, 30)[0] == 0
    for n in range(1, 51):
        for s in (1, 2, 3):
            ok &= sm.smith_det_residual(n, s) == 0
    # 2x2 almost-periodic characteristic polynomial, exact symbolically
    import sympy
    a, b, x = sympy.symbols("a b x")
    tr = 1 + b
    det = b - a
    poly = sympy.expand(x**2 - tr * x + det)
    lam = sympy.Matrix([[1, 1], [a, b]]).charpoly(x).as_expr()
    ok &= sympy.simplify(poly - lam) == 0
    s = sm.spectrum(sm.build_prime_matrix(GaussianInt(1, 1), 100))
    ok &= sm.spectral_symmetry_residual(s) < 1e-6
    rng = np.random.default_rng(1)
    for _ in range(1000):
        mat = rng.integers(0, 2, size=(7, 7))
        ok &= sm.det_exact(mat) == det_minor_expansion(mat)
    ok &= time.time() - t0 < 600
    _report(5, "matrices", ok)


def test_acceptance_6_graphs():
    t0 = time.time()
    ok = True
    ok &= pa.pi_G_identity_check(10**6) == 0
    for n in range(2, 301):
        c1, c2 = pg.gaussian_graph_chi_two_ways(n)
        ok &= c1 == c2
    for n in range(4, 1001, 9):
        ok &= pg.gcd_components(n) == pg.gcd_components_formula(n)
        ok &= pg.gcd_edge_count(n) == pg.gcd_edge_count_formula(n)
    ok &= pg.gcd_vertex_degree(2, 30) == 14
    ok &= pg.gcd_vertex_degree(3, 30) == 9
    ok &= pg.gcd_vertex_degree(6, 30) == 19
    ok &= time.time() - t0 < 300
    _report(6, "graphs", ok)


def test_acceptance_7_zeta():
    t0 = time.time()
    ok = True
    ok &= abs(zf.lattice_zeta("gaussian", 2, 10**6) - zf.zeta_G(2)) < 1e-3
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = complex(rng.uniform(0.1, 0.9), rng.uniform(-8, 8))
        ok &= zf.functional_eq_residual("zeta", s) < 1e-10
        ok &= zf.functional_eq_residual("beta", s) < 1e-10
        ok &= zf.functional_eq_residual("zeta_G", s) < 1e-10
    table = zf.ZeroTable.load(ZEROS)
    xs = np.arange(5, 100) + 0.5
    e100 = max(abs(zf.explicit_psi(x, table, 100) - zf.chebyshev_psi(x))
               for x in xs)
    e10 = max(abs(zf.explicit_psi(x, table, 10) - zf.chebyshev_psi(x))
              for x in xs)
    ok &= e100 < 1.5
    ok &= e100 < e10
    ok &= time.time() - t0 < 120
    _report(7, "zeta", ok)


def test_acceptance_8_cellular_automata():
    t0 = time.time()
    ok = True
    def live(g):
        return {tuple(p) for p in g.live_points().tolist()}

    blinker = ca.grid_from_points([(0, -1), (0, 0), (0, 1)])
    g1 = ca.step(blinker)
    ok &= live(g1) == {(-1, 0), (0, 0), (1, 0)}
    ok &= live(ca.step(g1)) == live(blinker)
    block = ca.grid_from_points([(0, 0), (0, 1), (1, 0), (1, 1)])
    ok &= live(ca.step(block)) == live(block)
    rng = np.random.default_rng(3)
    for _ in range(100):
        cells = rng.random((10, 10)) < 0.35
        g = ca.Grid((0, 0), cells)
        dx, dy = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        lhs = live(ca.step(g.shifted(dx, dy)))
        rhs = {(x + dx, y + dy) for x, y in live(ca.step(g))}
        ok &= lhs == rhs
    sizes = [len(ca.moat_component(m, 40)) for m in range(4)]
    ok &= sizes == sorted(sizes)
    ok &= time.time() - t0 < 60
    _report(8, "cellular automata", ok)


def test_acceptance_9_statistics():
    t0 = time.time()
    ok = True
    n = 10**4
    st = ps.theta_statistics(pa.theta_sequence(n)[1])
    # 99% KS threshold under the uniform null: 1.628/sqrt(N)
    ok &= st.ks_uniform < 1.628 / math.sqrt(n)
    table = sm.row_cov_sign_table(6, 10**6)
    want = np.array([[(-1) ** (k - l) for l in range(6)] for k in range(6)])
    frac = float((table == want).mean())
    print(f"\nrow covariance sign table (n=1e6):\n{table}\n"
          f"agreement with (-1)^(k-l): {frac:.0%}")
    ok &= frac >= 0.9
    ok &= time.time() - t0 < 300
    _report(9, "statistical properties", ok)
