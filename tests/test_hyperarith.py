import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from primelab import hyperarith as ha
from primelab import ratkernel as rk
from primelab.hyperarith import OctInt, QuatInt

quat = st.builds(QuatInt.from_ints, *(st.integers(-20, 20),) * 4)
hquat = st.builds(
    QuatInt,
    st.tuples(*(st.integers(-10, 10).map(lambda x: 2 * x + 1),) * 4))


def test_quat_units():
    us = ha.quat_units()
    assert len(us) == 24
    assert all(QuatInt(tuple(u)).norm() == 1 for u in us.tolist())


def test_norm_points_match_brute_force():
    for p in range(1, 60):
        m = math.isqrt(4 * p)
        want = set()
        for a, b, c in itertools.product(range(-m, m + 1), repeat=3):
            d2 = 4 * p - a * a - b * b - c * c
            d = math.isqrt(max(d2, 0))
            if d2 >= 0 and d * d == d2:
                want |= {(a, b, c, d), (a, b, c, -d)}
        pts = ha.lattice_points_norm(p)
        assert pts.dtype == np.int64 and pts.shape == (len(want), 4)
        assert [tuple(r) for r in pts.tolist()] == sorted(want)


@given(quat, quat)
def test_quat_norm_multiplicative(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(hquat, hquat)
def test_hurwitz_product_stays_integral(z, w):
    p = z * w
    assert p.norm() == z.norm() * w.norm()


@given(st.one_of(quat, hquat), st.one_of(quat, hquat))
def test_octonion_product_extends_the_quaternion_product(z, w):
    # the quaternions embed as (z, 0) under Cayley–Dickson doubling
    def embed(q):
        return OctInt((*q.d, 0, 0, 0, 0))
    assert embed(z) * embed(w) == embed(z * w)


@given(quat)
def test_quat_conj_gives_norm(z):
    p = z * z.conj()
    assert p.d == (2 * z.norm(), 0, 0, 0)


def test_mixed_parity_rejected():
    with pytest.raises(ValueError):
        QuatInt((1, 2, 1, 1))


def test_norm_of_coordinates_outside_every_order_raises():
    class Loose(QuatInt):  # admits every parity word
        code = frozenset(range(16))

    assert Loose((1, 1, 1, 1)).norm() == 1
    with pytest.raises(ArithmeticError, match="not a multiple of 4"):
        Loose((1, 0, 0, 0)).norm()


def test_classes_above_small():
    for p in (3, 5, 7, 11, 13):
        assert ha.classes_above(p) == p + 1
    assert ha.classes_above(2) == 1


def test_positively_ordered_reps_fixtures():
    assert sorted(map(tuple, ha.positively_ordered_reps(13).tolist())) == [
        (0, 0, 4, 6), (1, 1, 1, 7), (1, 1, 5, 5), (2, 4, 4, 4), (3, 3, 3, 5)]
    assert sorted(map(tuple, ha.positively_ordered_reps(3).tolist())) == [
        (0, 2, 2, 2), (1, 1, 1, 3)]
    assert sorted(map(tuple, ha.positively_ordered_reps(2).tolist())) == [
        (0, 0, 2, 2)]


def test_lattice_points_norm_unique_rep():
    for p in (5, 13, 29):
        pts = ha.lattice_points_norm(p)
        reps = {tuple(sorted(abs(x) for x in e)) for e in pts.tolist()}
        want = set(map(tuple, ha.positively_ordered_reps(p).tolist()))
        assert reps == want


def test_u_orbit_lengths():
    for p in (int(q) for q in rk.sieve(60).primes()[1:]):
        lens = ha.u_orbit_lengths(p)
        assert set(lens) <= {2, 3}
        assert sum(lens) == len(ha.positively_ordered_reps(p))
    assert ha.u_orbit_lengths(3) == [2]


def test_u_orbit_lengths_pinned():
    want = {3: [2], 5: [2], 7: [3], 11: [2], 13: [2, 3], 17: [2, 2],
            29: [2, 2], 53: [2, 2, 3]}
    assert {p: ha.u_orbit_lengths(p) for p in want} == want


def _broadcast_unit_products(pts, side):
    """z·u over all 24 units by one broadcast Hamilton product (oracle)."""
    units = ha.lattice_points_norm(1).T[:, None, :]
    z = pts.T[:, :, None]
    w = ha._hamilton(z, units) if side == "right" else ha._hamilton(units, z)
    return np.stack(w) // 2


def _horner_keys(v, p):
    """Coordinates offset by isqrt(4p), read in base 2·isqrt(4p) + 1 (oracle)."""
    m = math.isqrt(4 * p)
    key = np.zeros(v.shape[1:], dtype=np.int64)
    for x in v:
        key = key * (2 * m + 1) + x + m
    return key


def _orbit_count(p, side="right"):
    """Number of unit-multiplication orbits on the norm-p sphere (oracle).

    Each point is labelled by the least key over its orbit {z·u}; the units
    form a group, so the label is the same for every point of an orbit.  The
    keys are linear in z·u, which is linear in z, so the (M, 24) keys are one
    product of the points with a (4, 24) key matrix, built from the products
    of the basis quaternions with the units.  The orbits are counted as the
    changes between neighbours in the sorted labels.
    """
    m = math.isqrt(4 * p)
    place = [(2 * m + 1) ** k for k in (3, 2, 1, 0)]
    basis_products = _broadcast_unit_products(2 * np.eye(4, dtype=np.int64),
                                              side)
    key_matrix = sum(w * u for w, u in zip(place, basis_products))
    keys = (ha.lattice_points_norm(p) @ key_matrix) // 2 + m * sum(place)
    least = np.sort(keys.min(axis=1))
    return 1 + np.count_nonzero(least[1:] != least[:-1])


def test_left_right_class_counts_agree():
    for p in (3, 5, 7, 11, 13, 17):
        left = _orbit_count(p, side="left")
        right = _orbit_count(p, side="right")
        assert left == right == p + 1


def test_classes_above_is_the_least_key_orbit_count():
    # |S|/24 (the units act freely) against the orbits counted one by one
    for p in (int(q) for q in rk.sieve(2000).primes()[1:]):
        assert ha.classes_above(p) == _orbit_count(p) == p + 1, p
    assert ha.classes_above(2) == _orbit_count(2) == 1
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(ValueError, match="prime required"):
            ha.classes_above(bad)


def test_classes_above_counts_the_enumerated_sphere():
    # the r₂ convolution against the points themselves; 2 ramifies
    for p in rk.sieve(500).primes()[1:].tolist():
        assert (ha.classes_above(p) == len(ha.lattice_points_norm(p)) // 24
                == p + 1), p
    assert ha.classes_above(2) == len(ha.lattice_points_norm(2)) // 24 == 1


def test_classes_above_refuses_a_sphere_of_partial_orbits(monkeypatch):
    real = ha.norm_count_table

    def one_point_more(nmax):
        r2 = real(nmax)
        r2[nmax // 2] += 1  # k = 2p pairs with itself, so |S| grows by one
        return r2

    monkeypatch.setattr(ha, "norm_count_table", one_point_more)
    with pytest.raises(ArithmeticError, match="97 norm-3 points"):
        ha.classes_above(3)


def test_classes_above_is_refused_by_the_norm_table_check(
        monkeypatch, traced_peak, budget_checks):
    # the Gaussian norm table to 4p is the only array; its own check bounds
    # the traced peak and refuses it before allocation
    for p in (10007, 100003):
        budget_checks.clear()
        classes, peak = traced_peak(ha.classes_above, p)
        assert classes == p + 1
        assert peak <= budget_checks[0] == 24 * 4 * p, p
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**5)
    for p in (10007, 100003):
        _, peak = traced_peak(ha.classes_above, p,
                              refused=f"Gaussian norm count table to {4 * p}")
        assert peak < 2**16, p


def test_unit_matrix_matches_broadcast_hamilton():
    # u·z = conj(conj(z)·conj(u)): the left products from the right matrix
    conj = np.array([1, -1, -1, -1])
    units = ha.lattice_points_norm(1)
    conj_unit = [units.tolist().index(u) for u in (units * conj).tolist()]
    for p in (int(q) for q in rk.sieve(100).primes()):
        pts = ha.lattice_points_norm(p)
        assert np.array_equal(ha._class_keys(pts, p), _horner_keys(
            np.sort(np.abs(pts.T), axis=0), p))
        right = (pts @ ha._unit_matrix()) // 2
        left = np.empty_like(right)
        left[:, :, conj_unit] = ((pts * conj) @ ha._unit_matrix()) // 2
        left *= conj[:, None, None]
        for side, got in (("right", right), ("left", left)):
            want = _broadcast_unit_products(pts, side)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            # the orbit count against the least key over the products
            keys = _horner_keys(want, p)
            assert _orbit_count(p, side) == len(np.unique(keys.min(axis=1)))


def _lexsorted_sphere_points(dim, total):
    """The half-vector join of _sphere_points with the ball in square-sum
    order, followed by a lexicographic sort of the rows (oracle)."""
    m = math.isqrt(total)
    axes = np.meshgrid(*[np.arange(-m, m + 1, dtype=np.int64)] * (dim // 2),
                       indexing="ij")
    ball = np.stack([x.ravel() for x in axes], axis=1)
    sq = np.sum(ball * ball, axis=1)
    order = np.argsort(sq, kind="stable")
    ball, sq = ball[order], sq[order]
    lo = np.searchsorted(sq, total - sq, side="left")
    cnt = np.searchsorted(sq, total - sq, side="right") - lo
    left = np.repeat(np.arange(len(ball)), cnt)
    right = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    pts = np.concatenate([ball[left], ball[right]], axis=1)
    # rows as base-(2m+1) numerals: one argsort in place of an 8-key lexsort
    key = np.zeros(len(pts), dtype=np.int64)
    for x in pts.T:
        key = key * (2 * m + 1) + x + m
    return pts[np.argsort(key)]


def test_sphere_points_match_lexsorted_join():
    totals = [(4, 4 * int(p)) for p in rk.sieve(400).primes()]
    for dim, total in totals + [(8, t) for t in range(40)]:
        got = ha._sphere_points(dim, total)
        want = _lexsorted_sphere_points(dim, total)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_sphere_points_peak_is_under_its_checked_bytes(traced_peak,
                                                       budget_checks):
    # the half ball and then the join are each checked for their whole peak
    for dim, total in ((4, 4 * 1009), (4, 4 * 10007), (8, 20)):
        budget_checks.clear()
        _, peak = traced_peak(ha._sphere_points, dim, total)
        assert len(budget_checks) == 2
        top = max(budget_checks)
        assert 0.95 * top < peak < top + 2**12, (dim, total)


@pytest.mark.parametrize("points", [ha.lattice_points_norm,
                                    ha.positively_ordered_reps,
                                    ha.u_orbit_lengths])
def test_point_set_peaks_are_under_their_checked_bytes(traced_peak,
                                                       budget_checks, points):
    # every array made after the join, up to the orbit lengths' components,
    # is checked before the first of them is allocated
    for p in (1009, 10007):
        points(p)  # the cached unit matrix is built outside the trace
        budget_checks.clear()
        _, peak = traced_peak(points, p)
        assert peak <= max(budget_checks) + 2**12, (points.__name__, p)


def test_sphere_join_refused_before_it_allocates(monkeypatch, traced_peak):
    # norm 10007: the half ball needs 9.0 MB, the join of its 240 192
    # points 25.6 MB; classes_above never joins, so it still answers
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 20 * 10**6)
    for points in (ha.lattice_points_norm, ha.positively_ordered_reps,
                   ha.u_orbit_lengths):
        _, peak = traced_peak(points, 10007,
                              refused="norm-40028 sphere join of 240192")
        assert peak < 14 * 10**6
    assert ha.classes_above(10007) == 10008


def _all_unit_orbit_lengths(p):
    """Component sizes of the class graph with an edge from the class of z
    to the class of z·u for every norm-p point z and each of the 24 units u,
    by a union-find over the distinct class pairs (oracle)."""
    pts = ha.lattice_points_norm(p)
    w = _broadcast_unit_products(pts, "right")
    z = np.broadcast_to(pts.T[:, :, None], w.shape)
    base = (2 * math.isqrt(4 * p) + 1) ** 4
    kz, kw = (_horner_keys(np.sort(np.abs(v), axis=0), p) for v in (z, w))
    parent = {}

    def find(c):
        while parent.setdefault(c, c) != c:
            c = parent[c]
        return c

    for pair in np.unique(kz * base + kw).tolist():
        a, b = find(pair // base), find(pair % base)
        parent[max(a, b)] = min(a, b)
    sizes = {}
    for c in list(parent):
        sizes[find(c)] = sizes.get(find(c), 0) + 1
    return sorted(sizes.values())


def test_u_orbit_lengths_match_all_unit_class_graph():
    assert ha.lattice_points_norm(1)[ha._OMEGA].tolist() == [-1, 1, 1, 1]
    for p in (int(q) for q in rk.sieve(500).primes()[1:]):
        assert ha.u_orbit_lengths(p) == _all_unit_orbit_lengths(p), p


def test_orbit_kernels_load_no_numpy_ma():
    # numpy.unique without return_inverse imports numpy.ma, 15-18 ms in a
    # fresh process; the test process may have loaded it already
    script = (
        "import sys\n"
        "from primelab import hyperarith as ha\n"
        "ha.classes_above(13), ha.u_orbit_lengths(13)\n"
        "ha.positively_ordered_reps(13)\n"
        "assert 'numpy.ma' not in sys.modules\n")
    src = str(Path(ha.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_rotate_vector():
    v = ha.rotate_vector((0, 0, 1), np.pi / 2, (1, 0, 0))
    assert np.allclose(v, (0, 1, 0), atol=1e-12)
    v = ha.rotate_vector((1, 0, 0), np.pi, (0, 1, 0))
    assert np.allclose(v, (0, -1, 0), atol=1e-12)


def test_is_quat_prime():
    assert ha.is_quat_prime(QuatInt.from_ints(1, 1, 0, 0))
    assert not ha.is_quat_prime(QuatInt.from_ints(2, 0, 0, 0))
    assert ha.is_quat_prime(QuatInt((1, 1, 1, 3)))  # norm 3


# ---------------------------------------------------------------- octonions

oct_int = st.builds(OctInt.from_ints, *(st.integers(-9, 9),) * 8)


# sha256 of repr() of the doubled-coordinate unit lists; the Octavian one is
# of the units of the product-closed code (basis word 01010110)
OCTAVIAN_SHA = \
    "6afc0814a139451a9724e1dc7d19d4f88d39f50d453987bb4ac7a82e42477b2b"
AXIS_SHA = "cb65df203f548a19dada199f229697635fd43f84b281d8ad75bd5b4693fdeae4"


def test_oct_unit_counts():
    assert len(ha.oct_units("octavian")) == 240
    assert len(ha.oct_units("gravesian")) == 16
    for u in ha.oct_units("octavian").tolist():
        assert OctInt(tuple(u)).norm() == 1
    with pytest.raises(ValueError):
        ha.oct_units("bogus")


@pytest.mark.parametrize("which,count,sha", [
    ("octavian", 240, OCTAVIAN_SHA),
    ("gravesian", 16, AXIS_SHA),
    ("kleinian", 16, AXIS_SHA),
])
def test_oct_units_pinned(which, count, sha):
    es = list(map(tuple, ha.oct_units(which).tolist()))
    assert len(es) == count
    assert hashlib.sha256(repr(es).encode()).hexdigest() == sha


def test_oct_identity():
    e0 = OctInt.from_ints(1, 0, 0, 0, 0, 0, 0, 0)
    z = OctInt.from_ints(3, -1, 4, 1, -5, 9, 2, -6)
    assert e0 * z == z
    assert z * e0 == z


def test_oct_nonassociative():
    def e(i):
        c = [0] * 8
        c[i] = 1
        return OctInt.from_ints(*c)
    lhs = (e(1) * e(2)) * e(4)
    rhs = e(1) * (e(2) * e(4))
    assert lhs != rhs


@settings(max_examples=300)
@given(oct_int, oct_int)
def test_degen_identity(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@settings(max_examples=200)
@given(oct_int, oct_int, oct_int)
def test_moufang_identity(z, w, v):
    # z(w(zv)) == ((zw)z)v
    lhs = z * (w * (z * v))
    rhs = ((z * w) * z) * v
    assert lhs == rhs


def test_oct_classes():
    assert OctInt.from_ints(1, 1, 1, 1, 1, 1, 1, 0).oct_class == "gravesian"
    assert OctInt((1,) * 8).oct_class == "kleinian"
    assert OctInt((1,) * 8).norm() == 2
    with pytest.raises(ValueError):
        OctInt((1, 1, 0, 0, 0, 0, 0, 0))  # parity word not a codeword


def test_is_oct_prime():
    assert ha.is_oct_prime(OctInt.from_ints(1, 1, 1, 1, 1, 1, 1, 0))  # N=7
    assert not ha.is_oct_prime(OctInt.from_ints(1, 0, 0, 0, 0, 0, 0, 0))
    assert not ha.is_oct_prime(OctInt.from_ints(2, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="unknown class 'bogus'"):
        ha.is_oct_prime(OctInt.from_ints(1, 1, 1, 1, 1, 1, 1, 0), "bogus")


@pytest.mark.parametrize("dim,par,seed", [(4, 0, 0), (4, 1, 1), (8, 0, 2),
                                          (8, 1, 3)])
def test_prime_mask_matches_elementwise_primality(dim, par, seed):
    # seeded axes of one parity, with negative coordinates and unequal lengths
    rng = np.random.default_rng(seed)
    make, is_prime = ((QuatInt, ha.is_quat_prime) if dim == 4
                      else (OctInt, ha.is_oct_prime))
    axes = [np.sort(rng.choice(np.arange(-9, 10), n, replace=False)) * 2 + par
            for n in rng.integers(1, 6 if dim == 4 else 4, dim)]
    mask = ha.prime_mask(axes)
    assert mask.shape == tuple(len(x) for x in axes)
    for idx in itertools.product(*(range(len(x)) for x in axes)):
        z = make(tuple(int(x[i]) for x, i in zip(axes, idx)))
        assert mask[idx] == is_prime(z)


def test_prime_mask_refuses_an_oversized_box_before_allocating(traced_peak):
    axes = [np.arange(1, 800, 2)] * 4  # 400⁴ cells
    _, peak = traced_peak(ha.prime_mask, axes,
                          refused="doubled-coordinate prime mask")
    assert peak < 2**20


def test_prime_mask_budget_covers_a_cold_sieve(traced_peak, budget_checks,
                                               cold_and_grown):
    # two cells whose norm 4·10⁶ needs a sieve to it: the estimate counts the
    # flags of a cold or grown sieve, so the traced peak stays within it up
    # to numpy's fixed buffers
    axes = [[0, 4000], [0], [0], [0]]

    def call():
        budget_checks.clear()
        return traced_peak(ha.prime_mask, axes)

    for kept, (mask, peak) in cold_and_grown(call):
        assert mask.tolist() == [[[[False]]], [[[False]]]]
        assert 4 * 10**6 < peak <= budget_checks[0] + 2**17, kept


def test_prime_mask_refuses_axes_outside_its_condition(monkeypatch):
    # Σx²/4 = 5/2 and the cell (2, 1, 1, 1) of norm 7/4 are no norms at all
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 0)  # refused before the byte check
    for axes in ([[1], [1], [2], [2]], [[1, 2], [1], [1], [1]]):
        with pytest.raises(ValueError, match="all even or all odd, and the "
                                             "odd axes a multiple of 4"):
            ha.prime_mask(axes)
    # a doubled coordinate 1.5 is refused, not truncated to 1
    with pytest.raises(TypeError):
        ha.prime_mask([[1.5, 3.5]] * 4)


def test_octavian_membership_closed_under_add_neg():
    units = list(map(tuple, ha.oct_units("octavian").tolist()))
    for a, b in itertools.islice(itertools.combinations(units, 2), 500):
        s = tuple(x + y for x, y in zip(a, b))
        assert ha.is_octavian(s)
    for a in units:
        assert ha.is_octavian(tuple(-x for x in a))


def test_octavian_contains_gravesian_and_kleinian():
    assert ha.is_octavian((2, 4, 0, 2, -2, 6, 0, 0))
    assert ha.is_octavian((1, 1, 1, 1, 1, 1, 1, 1))
    assert ha.is_octavian((1, -3, 1, 1, 1, 5, 1, 1))


def test_octavian_units_are_closed_under_the_product():
    # the units span the lattice and the product is bilinear, so closed unit
    # products mean a closed order
    units = list(map(tuple, ha.oct_units("octavian").tolist()))
    unit_set = set(units)
    products = (ha._cayley_dickson(a, b) for a in units for b in units)
    left = sum(any(x & 1 for x in d)
               or tuple(x // 2 for x in d) not in unit_set for d in products)
    assert left == 0


def test_octavian_norm_counts_are_the_e8_theta_series():
    # 240·σ₃(n) Octavians of norm n
    words = ha._order_words("octavian")
    for n in range(1, 6):
        pts = ha._sphere_points(8, 4 * n)
        parity = (pts & 1) @ (1 << np.arange(7, -1, -1))
        sigma3 = sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
        assert np.isin(parity, words).sum() == 240 * sigma3


# Octavians with half-integer coordinates: a nonzero codeword's odd places
half_oct = st.builds(
    lambda w, c: OctInt(tuple(2 * x + (w >> 7 - i & 1)
                              for i, x in enumerate(c))),
    st.sampled_from(sorted(w for w in ha._HAMMING_CODE if w)),
    st.tuples(*(st.integers(-5, 5),) * 8))


@settings(max_examples=300)
@given(half_oct, half_oct)
def test_half_integer_octavian_products_stay_in_the_order(z, w):
    # OctInt raises on a product outside the doubled lattice or the code
    assert (z * w).norm() == z.norm() * w.norm()
