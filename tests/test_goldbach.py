import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import fftconvolve

from primelab import goldbach as gb
from primelab import planarith as pa
from primelab import primestats as ps
from primelab import ratkernel as rk
from primelab.planarith import EisensteinInt, GaussianInt


def _open_cone_oracle(a, b):
    """Quadratic-pairing oracle for ordered open-cone Gaussian counts."""
    count = 0
    for pa_ in range(1, a):
        for pb in range(1, b):
            p = GaussianInt(pa_, pb)
            q = GaussianInt(a - pa_, b - pb)
            if pa.is_gaussian_prime(p) and pa.is_gaussian_prime(q):
                count += 1
    return count


def test_open_cone_oracle_small_region():
    for a in range(2, 14):
        for b in range(2, 14):
            assert gb.r2(GaussianInt(a, b)) == _open_cone_oracle(a, b)


def test_r2_fixtures():
    assert gb.r2(GaussianInt(2, 2)) == 1
    assert gb.r2(GaussianInt(4, 4)) == 4
    assert gb.r2(GaussianInt(4, 13), gb.UNRESTRICTED) == 0
    assert gb.r2(GaussianInt(29, 0), gb.UNRESTRICTED) == 0
    assert gb.r2(EisensteinInt(109, 3)) == 0
    v = gb.SumVariant(cone="open", species="hurwitz")
    assert gb.r2((2, 2, 2, 2), v) == 14


def test_unrestricted_odd_targets():
    # odd Gaussian integers: count = 2 * #{valid of the 4 (1+i)-unit pairs}
    for z, want in [(GaussianInt(5, 0), 8), (GaussianInt(4, 13), 0)]:
        assert gb.r2(z, gb.UNRESTRICTED) == want


def test_cone_monotonicity():
    # each cone's summand box holds the one before it, for odd and even a + b
    open_v, closed_v = gb.OPEN, gb.SumVariant(cone="closed")
    for a in range(2, 12):
        for b in range(2, 12):
            z = GaussianInt(a, b)
            assert gb.r2(z, open_v) <= gb.r2(z, closed_v) <= gb.r2(
                z, gb.UNRESTRICTED)
    assert gb.r2(GaussianInt(10, 10), closed_v) == 28
    assert gb.r2(GaussianInt(10, 10), gb.UNRESTRICTED) >= 28


def _windowed_pair_count(a, b, primes):
    """Ordered prime pairs p + q = a + bi with both summands in the box
    spanned by 0 and the target, grown by UNRESTRICTED_WINDOW on every
    side, by a loop over p."""
    w = gb.UNRESTRICTED_WINDOW
    xs = range(min(a, 0) - w, max(a, 0) + w + 1)
    ys = range(min(b, 0) - w, max(b, 0) + w + 1)
    return sum(1 for x in xs for y in ys
               if (x, y) in primes and (a - x, b - y) in primes
               and a - x in xs and b - y in ys)


def test_unrestricted_comet_matches_window_oracle():
    region = ((-9, 13), (-7, 10))
    rep = gb.comet("gaussian", region, gb.UNRESTRICTED)
    span = range(-16, 17)
    primes = {(x, y) for x in span for y in span
              if pa.is_gaussian_prime(GaussianInt(x, y))}
    for a in range(-9, 14):
        for b in range(-7, 11):
            got = rep.counts[a + 9, b + 7]
            assert got == gb.r2(GaussianInt(a, b), gb.UNRESTRICTED)
            if (a + b) % 2:
                # one summand has even norm, so it is one of ±1±i
                want = 2 * sum(
                    pa.is_gaussian_prime(GaussianInt(a - ea, b - eb))
                    for ea in (1, -1) for eb in (1, -1))
            else:
                want = _windowed_pair_count(a, b, primes)
            assert got == want, (a, b)
    assert list(map(tuple, rep.zero_cells.tolist())) == [
        (a, b) for a in range(-9, 14) for b in range(-7, 11)
        if rep.counts[a + 9, b + 7] == 0]


def test_first_counterexample_refuses_an_even_window_zero(monkeypatch):
    # with no room outside the closed cone, 2 = (1 + i)(1 − i) has no pair
    monkeypatch.setattr(gb, "UNRESTRICTED_WINDOW", 0)
    assert gb.r2(GaussianInt(2, 0), gb.UNRESTRICTED) == 0
    ev = gb.SumVariant(cone="unrestricted", parity_filter="even-only")
    with pytest.raises(RuntimeError, match="even target"):
        gb.first_counterexample("gaussian", ev, 4)


def test_r2_ordered_pair_symmetry():
    # every unordered pair p != q contributes exactly 2
    for a in range(2, 12):
        for b in range(2, 12):
            unordered = 0
            diag = 0
            for x in range(1, a):
                for y in range(1, b):
                    p = GaussianInt(x, y)
                    q = GaussianInt(a - x, b - y)
                    if pa.is_gaussian_prime(p) and pa.is_gaussian_prime(q):
                        if (x, y) < (a - x, b - y):
                            unordered += 1
                        elif (x, y) == (a - x, b - y):
                            diag += 1
            assert gb.r2(GaussianInt(a, b)) == 2 * unordered + diag


def test_r3_composition():
    assert gb.r3(GaussianInt(4, 5)) > 0
    # r3(z) >= r2(z - (1+i)) since 1+i is prime
    z = GaussianInt(6, 6)
    assert gb.r3(z) >= gb.r2(GaussianInt(5, 5))


def test_comet_matches_r2():
    rep = gb.comet("gaussian", ((2, 20), (2, 20)))
    for a in range(2, 21):
        for b in range(2, 21):
            assert rep.counts[a - 2, b - 2] == gb.r2(GaussianInt(a, b))


def test_comet_even_filter_and_zero_cells():
    rep = gb.comet("gaussian", ((2, 40), (2, 40)),
                   gb.SumVariant(cone="open", parity_filter="even-only"))
    assert rep.zero_cells.tolist() == []
    assert rep.min_count >= 0
    lines = list(rep.csv_lines())
    assert lines[0] == "re,im,count"


def test_eisenstein_comet_matches_r2():
    rep = gb.comet("eisenstein", ((2, 15), (2, 15)))
    for a in range(2, 16):
        for b in range(2, 16):
            assert rep.counts[a - 2, b - 2] == gb.r2(EisensteinInt(a, b))


def test_quaternion_comet_tables():
    # paper's G(1,1) top-left row and G(2,2) diagonal entry per engine oracle
    g11 = gb.quaternion_comet(1, 1, 5, 5)
    assert list(g11[0]) == [0, 0, 1, 2, 3]
    v = gb.SumVariant(cone="open", species="hurwitz")
    assert g11[1, 1] == gb.r2((1, 1, 2, 2), v)
    assert gb.r2((2, 2, 2, 3), v) == 14


@pytest.mark.parametrize("species", ["hurwitz", "lipschitz", "any"])
@pytest.mark.parametrize("box", [(1, 1, 5, 5), (2, 2, 6, 7), (3, 1, 4, 6),
                                 (1, 4, 1, 3), (4, 3, 8, 8)])
def test_quaternion_comet_matches_r2(species, box):
    a, b, cmax, dmax = box
    v = gb.SumVariant(species=species)
    want = [[gb.r2((a, b, c, d), v) for d in range(1, dmax + 1)]
            for c in range(1, cmax + 1)]
    assert gb.quaternion_comet(a, b, cmax, dmax, species).tolist() == want


def test_first_counterexample():
    z = gb.first_counterexample("gaussian", gb.UNRESTRICTED, 400)
    assert (z.re, z.im) == (4, 13)
    ev = gb.SumVariant(cone="open", parity_filter="even-only")
    assert gb.first_counterexample("gaussian", ev, 200) is None
    e = gb.first_counterexample("eisenstein", gb.OPEN, 1000)
    assert (e.a, e.b) == (109, 3)


def test_first_counterexample_unrestricted_parity_filter():
    # 4+13i has odd coordinate sum: out of scope under even-only
    ev = gb.SumVariant(cone="unrestricted", parity_filter="even-only")
    assert gb.first_counterexample("gaussian", ev, 400) is None


def test_eisenstein_ghosts():
    assert gb.eisenstein_ghosts(3, 1000) == [109, 121]


def test_eisenstein_counterexample_reads_the_parity_filter(monkeypatch):
    # 110 + 3ω has odd coordinate sum: out of scope under even-only
    monkeypatch.setattr(gb, "eisenstein_ghosts", lambda row, amax: [110, 121])
    ev = gb.SumVariant(cone="open", parity_filter="even-only")
    assert gb.first_counterexample("eisenstein", ev, 200) == EisensteinInt(
        121, 3)
    assert gb.first_counterexample("eisenstein", gb.OPEN, 200) == (
        EisensteinInt(110, 3))


def test_signed_rep():
    assert not gb.signed_rep_exists(23)
    assert gb.signed_rep_exists(4)
    assert gb.signed_rep_exists(26)


def _hurwitz_boundary_oracle(n):
    """r2((2,2,2,n)) over ordered Hurwitz-prime pairs by the case split:
    summands (a,b,c,x)/2 with k of a,b,c equal to 3 and x = 2t+1 have norm
    1+2k + t(t+1), and their partners have 3 − k threes and x' = 2n − x."""
    total = 0
    for k, binom in enumerate((1, 3, 3, 1)):
        for t in range(n):  # x = 2t+1 runs over odd 1..2n-1
            t2 = n - 1 - t  # 2n - x = 2·t2 + 1
            if (rk.is_prime(1 + 2 * k + t * t + t)
                    and rk.is_prime(1 + 2 * (3 - k) + t2 * t2 + t2)):
                total += binom
    return total


def test_hurwitz_boundary_comet():
    assert gb.hurwitz_boundary_comet(2) == 14
    for n in range(1, 120):
        assert gb.hurwitz_boundary_comet(n) == _hurwitz_boundary_oracle(n)
    assert all(gb.hurwitz_boundary_comet(n) > 0 for n in range(2, 300))


def test_pair_coverage_fixtures():
    assert gb.pair_coverage([1, 1, 1], [4, 2, 1], 10**4) == [109, 121]
    assert gb.pair_coverage([1, 1, 1], [16, 4, 1], 10**4) == [21, 147]
    assert gb.pair_coverage([4, 2, 1], [9, 3, 1], 10**4) == [6, 27, 126]
    assert gb.pair_coverage([1, 1, 1], [1, 1, 1], 10**4) == []


def test_gaussian_boundary_comet():
    assert gb.gaussian_boundary_comet(2) == 1
    assert gb.gaussian_boundary_comet(3) == 2
    for c in range(2, 60):
        want = sum(1 for a in range(1, c)
                   if pa.is_gaussian_prime(GaussianInt(a, 1))
                   and pa.is_gaussian_prime(GaussianInt(c - a, 1)))
        assert gb.gaussian_boundary_comet(c) == want


def test_bunyakovsky():
    ok, _ = ps.bunyakovsky_admissible([1, 0, 1])
    assert ok
    ok, reason = ps.bunyakovsky_admissible([2, 1, 1])
    assert not ok and "2" in reason
    ok, _ = ps.bunyakovsky_admissible([1, 1, 1])
    assert ok


def test_parity_law_sweep():
    rep = gb.parity_law_sweep(40**2)
    assert rep.zero_cells.tolist() == []


def test_parity_law_sweep_names_the_zero_cells_within_the_norm_cap(
        monkeypatch):
    def comet(ring, region, variant):
        cells = np.array([[3, 5], [4, 6], [40, 40]], dtype=np.int64)
        return gb.SweepReport(ring, variant, region, np.ones((1, 1)), cells)

    monkeypatch.setattr(gb, "comet", comet)
    # 40 + 40i has norm 3200 > 100: outside the sweep
    with pytest.raises(RuntimeError, match=r"cells: \[\(3, 5\), \(4, 6\)\]$"):
        gb.parity_law_sweep(100)


@pytest.mark.parametrize("call", [
    lambda: gb.quaternion_comet(-1, 3, 5, 5),
    lambda: gb.quaternion_comet(2, -1, 4, 4),
    lambda: gb.eisenstein_ghosts(-1, 10),
], ids=["quaternion a", "quaternion b", "eisenstein row"])
def test_negative_row_or_slice_refused(call):
    with pytest.raises(ValueError, match=">= 0 required"):
        call()


@pytest.mark.parametrize("call,refused", [
    (lambda: gb.quaternion_comet(1, 1, -1, 3), "cmax, dmax >= 0 required, "
                                                "got 1, 1, -1, 3"),
    (lambda: gb.quaternion_comet(1, 1, 3, -1), "cmax, dmax >= 0 required, "
                                                "got 1, 1, 3, -1"),
    (lambda: gb.eisenstein_ghosts(3, -5), "amax >= 0 required, got 3, -5"),
    (lambda: gb.comet("gaussian", ((5, 2), (2, 4))),
     "a_lo <= a_hi, b_lo <= b_hi required, got ((5, 2), (2, 4))"),
    (lambda: gb.grid_counts("gaussian", gb.OPEN, (-1, 5)),
     "box >= 0 required, got (-1, 5)"),
    (lambda: gb.grid_counts("quaternion", gb.SumVariant(species="hurwitz"),
                            (3, 3, -2, 4)),
     "box >= 0 required, got (3, 3, -2, 4)"),
], ids=["quaternion cmax", "quaternion dmax", "eisenstein amax",
        "comet region", "planar box", "quaternion box"])
def test_malformed_box_refused(call, refused):
    # once an empty grid or numpy's "negative dimensions are not allowed"
    with pytest.raises(ValueError, match=re.escape(refused) + "$"):
        call()


def test_octonion_no_decomposition():
    gv = gb.SumVariant(cone="open", species="gravesian")
    kv = gb.SumVariant(cone="open", species="kleinian")
    assert gb.r2((2,) * 8, gv) == 0
    assert gb.r2((2,) * 8, kv) == 0


def test_angle_cap_subset():
    capped = gb.SumVariant(cone="open", angle_cap=np.pi / 4)
    for a in range(2, 12):
        for b in range(2, 12):
            z = GaussianInt(a, b)
            assert gb.r2(z, capped) <= gb.r2(z)


def test_diagonal_goldbach():
    r, reflect = gb.diagonal_goldbach(4)
    assert r == gb.r2(GaussianInt(4, 4))
    # reflect against the loop that tests both p and i·conj(p)
    for k in range(2, 81):
        want = sum(1 for a in range(1, k)
                   if pa.is_gaussian_prime(GaussianInt(a, k - a))
                   and pa.is_gaussian_prime(GaussianInt(k - a, a)))
        assert gb.diagonal_goldbach(k)[1] == want, k


# (ring, variant, target type, dimension, largest box side)
GRIDS = (("gaussian", gb.OPEN, GaussianInt, 2, 24),
         ("gaussian", gb.SumVariant(cone="closed"), GaussianInt, 2, 24),
         ("gaussian", gb.UNRESTRICTED, GaussianInt, 2, 24),
         ("gaussian", gb.SumVariant(parity_filter="even-only"), GaussianInt,
          2, 24),
         ("eisenstein", gb.OPEN, EisensteinInt, 2, 24),
         *(("quaternion", gb.SumVariant(species=s), tuple, 4, 4)
           for s in ("hurwitz", "lipschitz", "any", "hurwitz+lipschitz")),
         *(("octonion", gb.SumVariant(species=s), tuple, 8, 3)
           for s in ("kleinian", "gravesian")))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(GRIDS), st.data())
def test_planar_counts_match_direct_count(case, data):
    ring, v, kind, dim, side = case
    box = tuple(data.draw(st.lists(st.integers(1, side), min_size=dim,
                                   max_size=dim)))
    out = gb.grid_counts(ring, v, box)
    assert out.shape == tuple(n + 1 for n in box)
    make = (lambda *t: t) if kind is tuple else kind
    for t in np.ndindex(out.shape):
        assert out[t] == gb.r2(make(*t), v), t


def test_r3_matches_loop_over_r2():
    for a, b in [(3, 3), (4, 5), (9, 7), (12, 13), (17, 16)]:
        want = 0
        for x in range(1, a - 1):
            for y in range(1, b - 1):
                if pa.is_gaussian_prime(GaussianInt(x, y)):
                    want += gb.r2(GaussianInt(a - x, b - y))
        assert gb.r3(GaussianInt(a, b)) == want


def test_fft_exactness_guard(monkeypatch):
    real = gb.signal.fftconvolve
    monkeypatch.setattr(gb.signal, "fftconvolve",
                        lambda x, y: real(x, y) + 0.3)
    with pytest.raises(ArithmeticError):
        gb.grid_counts("gaussian", gb.OPEN, (20, 20))
    with pytest.raises(ArithmeticError):
        gb.comet("eisenstein", ((2, 10), (2, 10)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4).flatmap(
    lambda shape: hnp.arrays(bool, tuple(shape))))
def test_fft_counts_is_the_corner_of_the_full_self_convolution(mask):
    # axes of length 1, 2, odd and even, halved or not
    m = mask.astype(np.float64)
    want = np.rint(fftconvolve(m, m))[tuple(slice(n) for n in mask.shape)]
    got = gb._fft_counts(mask)
    assert got.dtype == np.int64 and np.array_equal(got, want)


def test_fft_budget_refused_before_the_mask_is_built(monkeypatch):
    def no_mask(*args):
        raise AssertionError("mask built for a refused convolution")

    for name in ("planar_prime_mask", "prime_mask"):
        monkeypatch.setattr(gb, name, no_mask)
    refused = [
        lambda: gb.grid_counts("gaussian", gb.OPEN, (5000, 5000)),
        lambda: gb.grid_counts("eisenstein", gb.OPEN, (5000, 5000)),
        lambda: gb.comet("gaussian", ((0, 5000), (0, 5000)), gb.UNRESTRICTED),
        lambda: gb.r3(GaussianInt(5000, 5000)),
        lambda: gb.quaternion_comet(1, 1, 5000, 5000),
    ]
    for call in refused:
        with pytest.raises(rk.CapacityError, match="FFT convolution"):
            call()


def test_comet_honours_angle_cap():
    capped = gb.SumVariant(cone="open", angle_cap=np.pi / 16)
    rep = gb.comet("gaussian", ((2, 12), (2, 12)), capped)
    with pytest.raises(ValueError, match="angle cap"):
        gb.grid_counts("gaussian", capped, (12, 12))
    assert rep.counts[8, 8] == gb.r2(GaussianInt(10, 10), capped) == 4
    for a in range(2, 13):
        for b in range(2, 13):
            assert rep.counts[a - 2, b - 2] == gb.r2(GaussianInt(a, b), capped)


def test_angle_cap_on_closed_cone_raises():
    v = gb.SumVariant(cone="closed", angle_cap=np.pi / 16)
    with pytest.raises(ValueError):
        gb.r2(GaussianInt(10, 10), v)
    with pytest.raises(ValueError):
        gb.comet("gaussian", ((2, 12), (2, 12)), v)


def test_angle_cap_on_eisenstein_raises():
    v = gb.SumVariant(cone="open", angle_cap=np.pi / 16)
    with pytest.raises(ValueError):
        gb.r2(EisensteinInt(10, 10), v)
    with pytest.raises(ValueError):
        gb.comet("eisenstein", ((2, 12), (2, 12)), v)


def test_r3_rejects_unimplemented_variants():
    z = GaussianInt(6, 6)
    for v in (gb.SumVariant(cone="closed"),
              gb.SumVariant(cone="unrestricted"),
              gb.SumVariant(cone="open", angle_cap=np.pi / 4)):
        with pytest.raises(ValueError):
            gb.r3(z, v)


def test_unknown_quaternion_species_raises():
    with pytest.raises(ValueError):
        gb.r2((2, 2, 2, 2), gb.SumVariant(cone="open", species="bogus"))


def test_species_on_planar_target_raises():
    v = gb.SumVariant(cone="open", species="bogus")
    with pytest.raises(ValueError):
        gb.r2(GaussianInt(4, 4), v)
    with pytest.raises(ValueError):
        gb.r2(EisensteinInt(4, 4), gb.SumVariant(species="hurwitz"))
    with pytest.raises(ValueError):
        gb.comet("gaussian", ((2, 12), (2, 12)), v)
    with pytest.raises(ValueError):
        gb.r3(GaussianInt(6, 6), gb.SumVariant(species="hurwitz"))


def test_hypercomplex_cone_other_than_open_raises():
    for cone in ("closed", "unrestricted"):
        with pytest.raises(NotImplementedError):
            gb.r2((2, 2, 2, 2), gb.SumVariant(cone=cone, species="hurwitz"))
        with pytest.raises(NotImplementedError):
            gb.r2((3,) * 8, gb.SumVariant(cone=cone, species="gravesian"))


def test_even_only_filter_in_r2_and_r3():
    ev = gb.SumVariant(cone="open", parity_filter="even-only")
    assert gb.r2(GaussianInt(3, 4)) == 2
    assert gb.r2(GaussianInt(3, 4), ev) == 0
    assert gb.r2(GaussianInt(4, 4), ev) == gb.r2(GaussianInt(4, 4)) == 4
    assert gb.r2(EisensteinInt(4, 5), ev) == 0
    assert gb.r2(EisensteinInt(5, 5), ev) == gb.r2(EisensteinInt(5, 5))
    closed_ev = gb.SumVariant(cone="closed", parity_filter="even-only")
    assert gb.r2(GaussianInt(3, 4), closed_ev) == 0
    assert gb.r3(GaussianInt(6, 7)) > 0
    assert gb.r3(GaussianInt(6, 7), ev) == 0
    assert gb.r3(GaussianInt(7, 7), ev) == gb.r3(GaussianInt(7, 7))
    # agrees with the comet of the same variant
    rep = gb.comet("gaussian", ((2, 12), (2, 12)), ev)
    for a in range(2, 13):
        for b in range(2, 13):
            assert rep.counts[a - 2, b - 2] == gb.r2(GaussianInt(a, b), ev)
    with pytest.raises(NotImplementedError):
        gb.r2((2, 2, 2, 2), gb.SumVariant(species="hurwitz",
                                          parity_filter="even-only"))


def _quaternion_pair_oracle(z, species):
    """Ordered pairs (p, q) of quaternion primes of one species with p + q = z
    and every coordinate of p and q positive, by a loop over the summands p
    in the target's doubled-coordinate box."""
    from primelab import ratkernel as rk

    parities = {"hurwitz": (1,), "lipschitz": (0,), "any": (1, 0),
                "hurwitz+lipschitz": ()}[species]
    dz = tuple(2 * x for x in z)
    count = 0
    for par in parities:
        for dp in itertools.product(*(range(2 - par, d, 2) for d in dz)):
            dq = tuple(a - b for a, b in zip(dz, dp))
            if (rk.is_prime(sum(x * x for x in dp) // 4)
                    and rk.is_prime(sum(x * x for x in dq) // 4)):
                count += 1
    return count


@pytest.mark.parametrize("species",
                         ["hurwitz", "lipschitz", "any", "hurwitz+lipschitz"])
def test_quaternion_counts_match_pair_loop(species):
    v = gb.SumVariant(species=species)
    targets = [*itertools.product(range(1, 4), repeat=4),
               (2, 2, 2, 9), (1, 5, 2, 7), (4, 4, 4, 4), (6, 1, 3, 5)]
    for z in targets:
        assert gb.r2(z, v) == _quaternion_pair_oracle(z, species), z


def _octonion_pair_oracle(z, species):
    """Ordered pairs (p, q) of octonion primes of one species with
    p + q = z and every coordinate of p and q positive, by a double loop
    over the prime summands in the target's box."""
    from primelab import hyperarith as ha

    target = ha.OctInt.from_ints(*z)
    if species == "gravesian":
        box = [ha.OctInt.from_ints(*c)
               for c in itertools.product(range(1, max(z)), repeat=8)]
    else:
        box = [ha.OctInt(c)
               for c in itertools.product(range(1, 2 * max(z), 2), repeat=8)]
    primes = [p for p in box if ha.is_oct_prime(p, species)]
    return sum(1 for p in primes for q in primes if p + q == target)


def test_octonion_counts_match_pair_loop():
    for z, species in (((2, 2, 3, 3, 3, 3, 3, 3), "gravesian"),
                       ((1,) * 8, "kleinian"),
                       ((2,) * 8, "kleinian")):
        want = _octonion_pair_oracle(z, species)
        assert gb.r2(z, gb.SumVariant(species=species)) == want
    assert gb.r2((2, 2, 3, 3, 3, 3, 3, 3),
                 gb.SumVariant(species="gravesian")) == 32


def _fft64(*masks):
    """The float64 FFT convolution of the masks, rounded: the oracle of the
    float32 path.  fftconvolve is bound at import, so a spy on goldbach's
    call does not see this one."""
    out = masks[0].astype(np.float64)
    for m in masks[1:]:
        out = fftconvolve(out, m.astype(np.float64))
    return np.rint(out).astype(np.int64)


@pytest.fixture
def fft_dtypes(monkeypatch):
    """The dtypes passed to goldbach's one FFT convolution, in call order."""
    seen = []
    real = gb.signal.fftconvolve

    def spy(x, y):
        seen.append(x.dtype)
        return real(x, y)

    monkeypatch.setattr(gb.signal, "fftconvolve", spy)
    return seen


def test_float32_grids_equal_the_float64_oracle(fft_dtypes):
    n = 300
    # lo of each cone's summand box; target t sits at cell t − 2·lo
    for cone, lo in (("closed", 0), ("unrestricted", -2)):
        m = pa.planar_prime_mask("gaussian", lo, n - lo, lo, n - lo)
        want = _fft64(m, m)[-2 * lo:, -2 * lo:][:n + 1, :n + 1]
        got = gb.grid_counts("gaussian", gb.SumVariant(cone=cone), (n, n))
        assert np.array_equal(got, want), cone
    for ring in ("gaussian", "eisenstein"):
        m = pa.planar_prime_mask(ring, 1, n - 1, 1, n - 1)
        want = _fft64(m, m)[:n - 1, :n - 1]  # targets 2..n
        variant = (gb.SumVariant(parity_filter="even-only")
                   if ring == "gaussian" else gb.OPEN)
        if ring == "gaussian":
            want[1::2, ::2] = want[::2, 1::2] = 0
        report = gb.comet(ring, ((2, n), (2, n)), variant)
        assert np.array_equal(report.counts, want), ring
        zero = [(a + 2, b + 2) for a, b in np.argwhere(want == 0).tolist()
                if variant.parity_filter == "none" or (a + b) % 2 == 0]
        assert list(map(tuple, report.zero_cells.tolist())) == zero
    for a, b in ((5, 6), (39, 40), (80, 79), (150, 151), (300, 300)):
        m = pa.planar_prime_mask("gaussian", 1, a - 2, 1, b - 2)
        assert gb.r3(GaussianInt(a, b)) == _fft64(m, m, m)[a - 3, b - 3]
    box = (3, 3, 60, 60)
    m = gb.prime_mask([np.arange(1, 2 * k, 2) for k in box])
    want = _fft64(m, m)[2, 2, :60, :60]  # hurwitz: target t at cell t − 1
    assert np.array_equal(gb.quaternion_comet(*box), want)
    assert fft_dtypes == [np.float32] * 10


def test_float64_above_the_bound(fft_dtypes, monkeypatch):
    def ones(ring, xlo, xhi, ylo, yhi):
        return np.ones((xhi - xlo + 1, yhi - ylo + 1), dtype=bool)

    # 299² ones: 3·K·2⁻²⁴·log₂ 597² = 0.295 > 1/4
    monkeypatch.setattr(gb, "planar_prime_mask", ones)
    got = gb.grid_counts("gaussian", gb.OPEN, (300, 300))
    assert fft_dtypes == [np.float64]
    # the open-cone pairs of t = a + b·i among all of [1..299]²
    a = np.minimum(np.arange(301) - 1, 599 - np.arange(301)).clip(0)
    assert np.array_equal(got, np.multiply.outer(a, a))


def test_float32_error_has_tenfold_headroom(monkeypatch):
    # the float32 convolution _fft_counts runs, lo ⋆ w, caught by a spy
    runs = []
    real = gb.signal.fftconvolve

    def spy(x, y):
        runs.append((x, y, real(x, y)))
        return runs[-1][2].copy()

    monkeypatch.setattr(gb.signal, "fftconvolve", spy)
    masks = [pa.planar_prime_mask("gaussian", 1, n, 1, n)
             for n in (50, 300, 764)]
    masks += [pa.planar_prime_mask("eisenstein", 1, n, 1, n)
              for n in (50, 300, 677)]
    masks.append(np.ones((265, 265), dtype=bool))
    for m in masks:
        assert gb._fft_dtype(m) is np.float32
        gb._fft_counts(m)
        x, y, conv = runs.pop()
        assert x.dtype == y.dtype == np.float32
        bound = (3 * np.linalg.norm(x.astype(np.float64))
                 * np.linalg.norm(y.astype(np.float64))
                 * 2.0**-24 * np.log2(conv.size))
        box = tuple(slice(n) for n in m.shape)
        err = np.abs(conv[box] - _fft64(m, m)[box]).max()
        assert err <= bound / 10, (m.shape, err, bound)
    # one row or column more passes the switch
    for ring, n in (("gaussian", 765), ("eisenstein", 678)):
        m = pa.planar_prime_mask(ring, 1, n, 1, n)
        assert gb._fft_dtype(m) is np.float64
    assert gb._fft_dtype(np.ones((266, 266), dtype=bool)) is np.float64


def test_float64_fft_peak_is_under_the_budget_estimate(monkeypatch,
                                                        traced_peak,
                                                        budget_checks):
    # 300² ones take float64 on their own; the rest are forced to it.  217²
    # pads lo ⋆ w the most of the squares up to 1400² (1.15×), and the 8-D
    # mask pads its 7-cell axes to 8
    mask = np.ones((300, 300), dtype=bool)
    assert gb._fft_dtype(mask) is np.float64
    monkeypatch.setattr(gb, "_fft_dtype", lambda m: np.float64)
    for shape in ((300, 300), (217, 217), (100000,), (3, 3, 80, 80),
                  (2, 3, 4, 5, 4, 3, 2, 3)):
        mask = np.ones(shape, dtype=bool)
        gb._check_fft(shape)
        _, peak = traced_peak(gb._fft_counts, mask)
        assert peak <= budget_checks.pop(), shape
