import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from primelab import planarith as pa
from primelab import ratkernel as rk
from primelab import zetafun as zf
from primelab.planarith import EisensteinInt, GaussianInt

gi = st.builds(GaussianInt, st.integers(-50, 50), st.integers(-50, 50))
ei = st.builds(EisensteinInt, st.integers(-50, 50), st.integers(-50, 50))


def test_gaussian_product_fixture():
    z = GaussianInt(1, 1) * GaussianInt(1, 2)
    assert z == GaussianInt(-1, 3)
    assert z.norm() == 10


@given(gi, gi)
def test_gaussian_norm_multiplicative(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(gi)
def test_gaussian_conj_norm(z):
    p = z * z.conj()
    assert p == GaussianInt(z.norm(), 0)


@given(ei, ei)
def test_eisenstein_norm_multiplicative(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(ei)
def test_eisenstein_conj_norm(z):
    assert z * z.conj() == EisensteinInt(z.norm(), 0)


def _complex(z):
    return complex(z.re, z.im) if isinstance(z, GaussianInt) \
        else z.complex_value()


@given(st.one_of(st.tuples(gi, gi), st.tuples(ei, ei)))
def test_arithmetic_matches_complex_numbers(pair):
    z, w = pair
    for got, want in ((z * w, _complex(z) * _complex(w)),
                      (z + w, _complex(z) + _complex(w)),
                      (z - w, _complex(z) - _complex(w)),
                      (-z, -_complex(z)),
                      (z.conj(), _complex(z).conjugate())):
        assert type(got) is type(z)
        assert abs(_complex(got) - want) <= 1e-9 * (1 + abs(want))
    assert abs(z.norm() - abs(_complex(z)) ** 2) <= 1e-9 * (1 + z.norm())


def test_the_two_rings_stay_apart():
    assert GaussianInt(1, 1) != EisensteinInt(1, 1)
    assert len({GaussianInt(1, 1), EisensteinInt(1, 1)}) == 2
    assert [f.name for f in dataclasses.fields(GaussianInt)] == ["re", "im"]
    assert [f.name for f in dataclasses.fields(EisensteinInt)] == ["a", "b"]
    assert repr(GaussianInt(4, -13)) == "(4-13i)"
    assert repr(EisensteinInt(2, 3)) == "(2+3w)"
    assert GaussianInt(re=4, im=-13).coords == (4, -13)
    assert EisensteinInt(a=2, b=3).coords == (2, 3)


def test_eisenstein_units():
    assert len(pa.EISENSTEIN_UNITS) == 6
    for u in pa.EISENSTEIN_UNITS:
        assert u.norm() == 1


def _baby_gaussian_prime(z):
    """Trial factorization oracle: z prime iff norm > 1 and no splitting."""
    n = z.norm()
    if n <= 1:
        return False
    if rk.is_prime(n):
        return True
    # unit multiple of inert rational prime
    a, b = abs(z.re), abs(z.im)
    if a and b:
        return False
    q = a or b
    return rk.is_prime(q) and q % 4 == 3


def test_gaussian_prime_baby_oracle():
    for a in range(-60, 61):
        for b in range(-60, 61):
            z = GaussianInt(a, b)
            assert pa.is_gaussian_prime(z) == _baby_gaussian_prime(z), z


def test_gaussian_prime_fixtures():
    assert pa.is_gaussian_prime(GaussianInt(2, 1))
    assert pa.is_gaussian_prime(GaussianInt(3, 0))
    assert not pa.is_gaussian_prime(GaussianInt(1, 3))
    assert not pa.is_gaussian_prime(GaussianInt(5, 0))


def test_eisenstein_prime_fixtures():
    assert pa.is_eisenstein_prime(EisensteinInt(1, 1))  # norm 3
    assert pa.is_eisenstein_prime(EisensteinInt(2, 0))
    assert not pa.is_eisenstein_prime(EisensteinInt(0, 1))  # unit


def _eisenstein_oracle(z):
    n = z.norm()
    if n <= 1:
        return False
    if rk.is_prime(n):
        return True
    r = math.isqrt(n)
    if r * r != n or not rk.is_prime(r) or r % 3 != 2:
        return False
    # inert prime times one of the six units
    pats = {(r, 0), (-r, 0), (0, r), (0, -r), (r, -r), (-r, r)}
    return (z.a, z.b) in pats


def test_eisenstein_prime_oracle():
    for a in range(-40, 41):
        for b in range(-40, 41):
            z = EisensteinInt(a, b)
            assert pa.is_eisenstein_prime(z) == _eisenstein_oracle(z), z


def test_octant_rep():
    assert pa.octant_rep(GaussianInt(-2, 1)) == GaussianInt(2, 1)
    assert pa.octant_rep(GaussianInt(1, 2)) == GaussianInt(2, 1)
    assert pa.octant_rep(GaussianInt(3, 0)) == GaussianInt(3, 0)


@given(gi)
def test_octant_rep_idempotent_and_orbit_constant(z):
    if z.re == 0 and z.im == 0:
        return
    r = pa.octant_rep(z)
    assert pa.octant_rep(r) == r
    # constant across the 8-element D4 orbit
    i = GaussianInt(0, 1)
    for w in (z, z * i, z * i * i, z * i * i * i):
        assert pa.octant_rep(w) == r
        assert pa.octant_rep(w.conj()) == r


def test_octant_rep_bijection_on_primes():
    seen = {}
    for p in (int(q) for q in rk.sieve(10**4).primes()):
        z = pa.prime_above(p)
        r = pa.octant_rep(z)
        assert pa.is_gaussian_prime(z)
        assert r not in seen
        seen[r] = p


@given(ei)
def test_hexant_rep_idempotent(z):
    if z.a == 0 and z.b == 0:
        return
    r = pa.hexant_rep(z)
    assert pa.hexant_rep(r) == r
    for u in pa.EISENSTEIN_UNITS:
        assert pa.hexant_rep(z * u) == r
        assert pa.hexant_rep((z * u).conj()) == r


def test_prime_above(two_square_oracle):
    assert pa.prime_above(2) == GaussianInt(1, 1)
    assert pa.prime_above(5) == GaussianInt(2, 1)
    assert pa.prime_above(7) == GaussianInt(7, 0)
    assert pa.prime_above(3, "eisenstein") == EisensteinInt(1, 1)
    assert pa.prime_above(np.int64(5)) == GaussianInt(2, 1)
    # a float is refused by is_prime before any coordinate is made of it
    for p in (7.0, 5.0):
        for ring in ("gaussian", "eisenstein"):
            with pytest.raises(TypeError):
                pa.prime_above(p, ring)
    for p in (int(q) for q in rk.sieve(10**5).primes()):
        zg = pa.prime_above(p)
        assert pa.is_gaussian_prime(zg)
        assert zg.norm() == (p * p if p % 4 == 3 else p)
        ze = pa.prime_above(p, "eisenstein")
        assert pa.is_eisenstein_prime(ze)
        assert ze.norm() == (p * p if p % 3 == 2 else p)
        if p % 4 == 1 or p == 2:
            assert zg == GaussianInt(*two_square_oracle(p))
        if p % 3 == 1 or p == 3:
            assert ze == _eisenstein_search(p)


def _eisenstein_search(p):
    """The prime of norm p above a split or ramified p, by a search over b:
    4p = (2a + b)² + 3b² with a >= b >= 1, so r = 2a + b >= 3b."""
    for b in range(1, math.isqrt(p) + 1):
        r = math.isqrt(4 * p - 3 * b * b)
        if r * r == 4 * p - 3 * b * b and (r - b) % 2 == 0 and r >= 3 * b:
            return pa.hexant_rep(EisensteinInt((r - b) // 2, b))
    raise ValueError(f"no split representation found for {p}")


def test_prime_above_at_the_int64_bound(two_square_oracle):
    # the largest and the least primes ≡ 1 mod 12 around 3037000499 split
    # in both rings; the Euclid's int64 squares hold only below it
    below, above = 3037000453, 3037000537
    assert pa.prime_above(below) == GaussianInt(*two_square_oracle(below))
    assert pa.prime_above(below, "eisenstein") == _eisenstein_search(below)
    for ring in ("gaussian", "eisenstein"):
        with pytest.raises(ValueError, match="3037000499"):
            pa.prime_above(above, ring)


@pytest.mark.parametrize("p", [9223372036854775837, 1180591620717411303529])
def test_prime_above_names_primes_past_int64(p):
    # the least primes ≡ 1 mod 12 above 2⁶³ and 2⁷⁰ split in both rings;
    # an int64 cast would wrap the first and overflow on the second
    assert rk.is_prime(p) and p % 12 == 1
    for ring in ("gaussian", "eisenstein"):
        with pytest.raises(ValueError, match=f"^{p} "):
            pa.prime_above(p, ring)


@pytest.mark.parametrize("d, root", [(1, 4), (3, 5)])
def test_cornacchia_checks_its_equation(d, root):
    # 4² ≡ 3 and 5² ≡ 12 mod 13: neither is a root of −d
    with pytest.raises(ArithmeticError, match=f"no x² \\+ {d}·y² = p"):
        rk._cornacchia(np.array([13]), np.array([root]), d)


def test_theta_sequence():
    p, theta = pa.theta_sequence(3)
    assert p.dtype == np.int64 and theta.dtype == np.float64
    assert p.tolist() == [5, 13, 17]
    assert abs(theta[0] - (math.atan2(1, 2) - math.pi / 8)) < 1e-12
    assert abs(theta[1] - (math.atan2(2, 3) - math.pi / 8)) < 1e-12
    theta = pa.theta_sequence(500)[1]
    assert ((-math.pi / 8 < theta) & (theta < math.pi / 8)).all()



def _theta_oracle(count, two_square):
    """The per-prime loop: two_square(p) for each p ≡ 1 mod 4 in order."""
    ps, thetas, p = [], [], 5
    while len(ps) < count:
        if p % 4 == 1 and rk.is_prime(p):
            a, b = two_square(p)
            ps.append(p)
            thetas.append(math.atan2(b, a) - pa.PI8)
        p += 4
    return ps, thetas


@pytest.mark.parametrize("count", [1, 2, 3, 50, 2000])
def test_theta_sequence_matches_two_square_loop(count, two_square_oracle):
    p, theta = pa.theta_sequence(count)
    assert (p.tolist(), theta.tolist()) == \
        _theta_oracle(count, two_square_oracle)


def test_sieve_primes_are_not_proven_again(monkeypatch):
    # theta_sequence and the prime rows take their roots from the sieve's
    # primes without an is_prime proof
    proven = []
    is_prime = rk.is_prime
    monkeypatch.setattr(rk, "is_prime",
                        lambda n: proven.append(n) or is_prime(n))
    ps, _theta = pa.theta_sequence(2000)
    flags = pa.prime_rows([3], 10**4)[0]
    assert ps[-1] > 1000 and flags.size == 10**4
    assert [n for n in proven if n > 1000] == []


def test_prime_above_proves_a_split_prime_once(monkeypatch):
    # its own is_prime proof, then the root search that trusts it
    proven = []
    is_prime = rk.is_prime
    monkeypatch.setattr(rk, "is_prime",
                        lambda n: proven.append(n) or is_prime(n))
    assert pa.prime_above(1000033) == GaussianInt(913, 408)
    assert proven.count(1000033) == 1


def test_pi_G_matches_brute_force():
    norms = sorted(a * a + b * b for a in range(-15, 16)
                   for b in range(-15, 16)
                   if (a or b) and pa.is_gaussian_prime(GaussianInt(a, b)))
    for x in range(2, 200):
        want = sum(1 for n in norms if n <= x)
        assert pa.pi_G(x) == (want, 0)

def test_pi_G_fixtures():
    assert pa.pi_G(2)[0] == 4
    assert pa.pi_G(5)[0] == 12
    assert pa.pi_G(10)[0] == 16


def test_pi_G_identity():
    assert pa.pi_G_identity_check(10**5) == 0


def test_pi_G_brute_force():
    # enumerate all z with N(z) <= 200
    want = 0
    for a in range(-15, 16):
        for b in range(-15, 16):
            if 0 < a * a + b * b <= 200 and \
                    pa.is_gaussian_prime(GaussianInt(a, b)):
                want += 1
    count, resid = pa.pi_G(200)
    assert count == want and resid == 0


def test_sector_counts():
    r = 100
    c1 = pa.sector_count(r, 0, math.pi / 4)
    c2 = pa.sector_count(r, math.pi / 4, math.pi / 2)
    assert c1 == c2
    assert pa.sector_count(r, 0, 2 * math.pi) == pa.pi_G(r * r)[0]
    ratio = pa.sector_count(300, 0, 0.3) / pa.kubilius_expected(300, 0, 0.3)
    assert 0.8 < ratio < 1.2


def test_gaussian_moebius():
    assert pa.gaussian_moebius(GaussianInt(2, 0)) == 0  # (1+i)^2 unit
    assert pa.gaussian_moebius(GaussianInt(1, 1)) == -1
    assert pa.gaussian_moebius(GaussianInt(0, 1)) == 1  # unit
    assert pa.gaussian_moebius(GaussianInt(5, 0)) == 1  # two distinct primes
    assert pa.gaussian_moebius(GaussianInt(3, 0)) == -1


def test_gaussian_mertens_small():
    assert pa.gaussian_mertens(1) == 4  # the 4 units
    assert pa.gaussian_mertens(2) == 0  # 4 units - 4 norm-2 primes
    # brute force over the lattice for x = 50
    x = 50
    total = 0
    r = math.isqrt(x)
    for a in range(-r - 1, r + 2):
        for b in range(-r - 1, r + 2):
            if 0 < a * a + b * b <= x:
                total += pa.gaussian_moebius(GaussianInt(a, b))
    assert pa.gaussian_mertens(x) == total


def _h_local_factor(p, e):
    if p == 2:
        return {1: -1}.get(e, 0)
    if p % 4 == 1:
        return {1: -2, 2: 1}.get(e, 0)
    return {2: -1}.get(e, 0)


def test_h_table_matches_local_factors():
    h = pa._h_table(3000)
    assert h[0] == 0
    for m in range(1, 3001):
        assert h[m] == math.prod(_h_local_factor(p, e)
                                 for p, e in rk.factorize(m)), m


def test_norm_count_formula():
    assert pa.norm_count(1) == 4
    assert pa.norm_count(3) == 0
    assert pa.norm_count(5) == 8
    tab = pa.norm_count_table(10**4)
    d = np.zeros(10**4 + 1, dtype=np.int64)
    for n in range(1, 10**4 + 1):
        d[n] = 4 * (rk.divisors_mod_count(n, 1, 4)
                    - rk.divisors_mod_count(n, 3, 4))
    assert np.array_equal(tab[1:], d[1:])


def test_eisenstein_norm_count():
    tab = pa.norm_count_table(2000, "eisenstein")
    for n in range(1, 2001, 37):
        want = 6 * (rk.divisors_mod_count(n, 1, 3)
                    - rk.divisors_mod_count(n, 2, 3))
        assert tab[n] == want
        assert pa.norm_count(n, "eisenstein") == want


def _lattice_norm_counts(nmax, ring):
    """#{z : N(z) = n} for n <= nmax by scanning the full box |a|, |b| <= r;
    a² + ab + b² >= (a² + b²)/2, so r = √(2·nmax) holds every such z."""
    t = {"gaussian": 0, "eisenstein": 1}[ring]
    r = math.isqrt(2 * nmax) + 1
    counts = [0] * (nmax + 1)
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            n = a * a + t * a * b + b * b
            if 0 < n <= nmax:
                counts[n] += 1
    return counts


@pytest.mark.parametrize("ring", ["gaussian", "eisenstein"])
def test_norm_counts_match_lattice_scan(ring):
    want = _lattice_norm_counts(2000, ring)
    assert [pa.norm_count(n, ring) for n in range(1, 2001)] == want[1:]
    tab = pa.norm_count_table(2000, ring)
    assert tab.dtype == np.int64 and tab.tolist() == want


@pytest.mark.parametrize("ring", ["gaussian", "eisenstein"])
def test_norm_count_table_smallest(ring):
    for n in range(4):
        tab = pa.norm_count_table(n, ring)
        assert tab.dtype == np.int64
        assert tab.tolist() == _lattice_norm_counts(n, ring)


def test_norm_counts_unknown_ring():
    with pytest.raises(ValueError, match="unknown ring"):
        pa.norm_count(5, "hurwitz")
    with pytest.raises(ValueError, match="unknown ring"):
        pa.norm_count_table(5, "hurwitz")


@pytest.mark.parametrize("ring", ["gaussian", "eisenstein"])
def test_norm_count_table_peak_memory(traced_peak, ring):
    n = 200_000
    _, peak = traced_peak(pa.norm_count_table, n, ring)
    assert peak <= 24 * n


def test_norm_count_budget_checked_before_allocation(monkeypatch,
                                                     traced_peak):
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**6)
    # the table alone (24 B per n, 840 KB) would fit; with the complex terms
    # (24 B per n in all) it does not
    _, peak = traced_peak(zf.lattice_zeta, "eisenstein", 0.5 + 2j, 35000,
                          refused="Eisenstein norm count table to 35000 and "
                                  "lattice zeta's terms")
    assert peak < 100_000
    with pytest.raises(rk.CapacityError,
                       match="Gaussian norm count table to 50000"):
        pa.norm_count_table(50000)


def test_twins():
    ts = [(GaussianInt(*z), GaussianInt(*w)) for z, w in pa.twins(50).tolist()]
    pairs = {frozenset(((z.re, z.im), (w.re, w.im))) for z, w in ts}
    assert frozenset({(2, 1), (3, 2)}) in pairs
    for z, w in ts:
        d2 = (z.re - w.re) ** 2 + (z.im - w.im) ** 2
        assert d2 == 2
        assert pa.is_gaussian_prime(z) and pa.is_gaussian_prime(w)
    # brute-force oracle
    want = set()
    for a in range(-50, 51):
        for b in range(-50, 51):
            z = GaussianInt(a, b)
            if a * a + b * b > 2500 or not pa.is_gaussian_prime(z):
                continue
            for da, db in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                w = GaussianInt(a + da, b + db)
                if w.norm() <= 2500 and pa.is_gaussian_prime(w):
                    want.add(frozenset(((a, b), (w.re, w.im))))
    assert pairs == want


def _twins_from_pair_check(monkeypatch, traced_peak, r, budget):
    """(estimate, traced growth) of twins(r) from its pair check on, that
    check run under `budget` B; the growth is the CapacityError's message
    when it is refused.  The prime disk before it has its own check.  The
    spy reads and resets the trace at the pair check itself."""
    check, at = rk.check_budget, {}

    def spy(nbytes, what):
        if "Gaussian prime twins" in what:
            at.update(nbytes=nbytes, held=tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            monkeypatch.setattr(rk, "_BYTE_BUDGET", budget)
        check(nbytes, what)

    monkeypatch.setattr(rk, "check_budget", spy)
    try:
        _, peak = traced_peak(pa.twins, r)
    except rk.CapacityError as e:
        return at["nbytes"], str(e)
    return at["nbytes"], peak - at["held"]


@pytest.mark.parametrize("r", [50, 300])
def test_twins_budget_covers_its_pairs(monkeypatch, traced_peak, r):
    nbytes, growth = _twins_from_pair_check(monkeypatch, traced_peak, r,
                                            rk._BYTE_BUDGET)
    assert growth <= nbytes


def test_twins_refused_before_its_pairs(monkeypatch, traced_peak):
    nbytes, refused = _twins_from_pair_check(monkeypatch, traced_peak, 300,
                                             10_000)
    assert nbytes > 10_000
    assert refused.startswith("14880 Gaussian prime twins, |z| <= 300 needs")


def test_prime_disk_refused_before_its_norms(monkeypatch, traced_peak):
    # the disk's int64 norms, 8 B per cell, come after the mask's check
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**5)
    for call in (lambda: pa.twins(300), lambda: pa.sector_count(300, 0, 1)):
        _, peak = traced_peak(call, refused="prime mask of 361201")
        assert peak < 10**4


def _check_mask_against_oracle(build, cls, oracle):
    """build(a_lo, a_hi, b_lo, b_hi) against the oracle at every cell of
    [-12, 12]² (the origin and the lines a = 0, b = 0, a + b = 0), of boxes
    on one such line away from the origin, and of seeded boxes reaching
    negative coordinates."""
    rng = np.random.default_rng(11)
    boxes = [(-12, 12, -12, 12), (5, 20, -20, -5), (-30, -10, 0, 5),
             (0, 0, -25, 25)]
    for _ in range(24):
        a_lo, b_lo = rng.integers(-40, 20, size=2).tolist()
        da, db = rng.integers(0, 30, size=2).tolist()
        boxes.append((a_lo, a_lo + da, b_lo, b_lo + db))
    for a_lo, a_hi, b_lo, b_hi in boxes:
        want = [[oracle(cls(a, b)) for b in range(b_lo, b_hi + 1)]
                for a in range(a_lo, a_hi + 1)]
        assert build(a_lo, a_hi, b_lo, b_hi).tolist() == want, \
            (a_lo, a_hi, b_lo, b_hi)


def test_gaussian_prime_mask_matches_pointwise():
    _check_mask_against_oracle(pa.gaussian_prime_mask, GaussianInt,
                               _baby_gaussian_prime)


def test_eisenstein_prime_mask_matches_pointwise():
    _check_mask_against_oracle(
        lambda *box: pa.planar_prime_mask("eisenstein", *box), EisensteinInt,
        _eisenstein_oracle)


def test_planar_prime_mask_takes_integer_bounds():
    want = pa.planar_prime_mask("gaussian", 0, 3, 0, 3)
    assert np.array_equal(pa.planar_prime_mask(
        "gaussian", np.int64(0), np.int32(3), np.uint8(0), 3), want)
    # unread, 0.5 would start the box at a = 0 and 3.5 fail inside numpy
    for box in ((0.5, 3, 0, 3), (0, 3.5, 0, 3), (0, 3, 0, 3.0)):
        for ring in ("gaussian", "eisenstein"):
            with pytest.raises(TypeError):
                pa.planar_prime_mask(ring, *box)


def test_eisenstein_prime_mask_capacity():
    # the CLI reaches this mask only behind the larger FFT estimate
    with pytest.raises(rk.CapacityError, match="Eisenstein prime mask"):
        pa.planar_prime_mask("eisenstein", 0, 20000, 0, 20000)


def test_prime_mask_budget_counts_the_norm_table(monkeypatch, traced_peak):
    # 100 cells need 900 B, within the budget; their prime-norm table up to
    # norm ~10⁶ does not fit, and the mask is refused before any array
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10_000)
    for ring in ("gaussian", "eisenstein"):
        refused = f"{ring.title()} prime mask of 100 cells"
        _, peak = traced_peak(pa.planar_prime_mask, ring, 1000, 1009, 0, 9,
                              refused=refused)
        assert peak < 2**16, ring


def test_prime_mask_budget_covers_a_cold_sieve(traced_peak, budget_checks,
                                               cold_and_grown):
    # the mask builds a sieve's flags next to the table, cold or grown; the
    # estimate counts both, so the traced peak stays within it up to numpy's
    # fixed buffers
    for ring in ("gaussian", "eisenstein"):
        def call():
            budget_checks.clear()
            return traced_peak(pa.planar_prime_mask, ring, 1, 1000, 1, 1000)

        for kept, (_, peak) in cold_and_grown(call):
            assert peak <= budget_checks[0] + 2**17, (ring, kept)


def test_theta_sequence_budget_covers_its_traced_peak(traced_peak,
                                                      budget_checks,
                                                      cold_and_grown):
    # the estimate counts a cold or grown sieve's flags, the prime and angle
    # arrays and one block of the √−1 kernel
    for count in (1, 20000):
        def call():
            budget_checks.clear()
            return traced_peak(pa.theta_sequence, count)

        for kept, (seq, peak) in cold_and_grown(call):
            assert len(seq[0]) == len(seq[1]) == count
            assert peak <= budget_checks[0] + 2**13, (count, kept)


def test_mertens_series_consistent():
    series = pa.gaussian_mertens_series(60)
    for x in range(1, 61):
        assert series[x] == pa.gaussian_mertens(x)
