import itertools
import math
import operator
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

import primelab
from primelab import planarith as pa
from primelab import primegraphs as pg
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


def test_non_integer_z0_raises():
    # refused, not truncated: 1.5+2j is no 1+2i
    for z0 in (1.5 + 2j, 2j, 1.5):
        with pytest.raises(TypeError):
            sm.build_prime_matrix(z0, 5)


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



def test_leading_minors_of_gcd_matrices_are_jordan_products():
    # the leading block of a gcd^s matrix is a gcd^s matrix: every leading
    # minor is a product of J_s(1..n)
    for s in (1, 2, 3):
        want = list(itertools.accumulate(
            (rk.jordan_totient(k, s) for k in range(1, 61)), operator.mul))
        assert sm.leading_minors(sm.build_smith(60, s)) == want
    assert sm.leading_minors(sm.build_smith(8, 1))[-1] == 768


def test_skipped_row_swapped_in_as_pivot_on_a_stall():
    """Row 3 has zeros in columns 0 and 1, so steps 0 and 1 leave it stored
    as of step 0, while row 2 is updated at step 0 only.  The 3x3 minor is
    0, so pivot 2 stalls until n = 4 brings row 3, which is swapped in with
    row 2 (and their steps with them) and rescaled by p_1 / p_(-1).  Row 5,
    updated at every step, reads that pivot row; row 4 skips steps 0-2."""
    m = np.array([[2, 1, 0, 0, 1, 0],
                  [0, 3, 1, 0, 2, 0],
                  [4, 2, 0, 5, 1, 1],
                  [0, 0, 3, 1, 1, 0],
                  [0, 0, 0, 2, 7, 1],
                  [1, 0, 2, 1, 0, 3]])
    want = [int(sympy.Matrix(m[:k, :k].tolist()).det()) for k in range(1, 7)]
    assert want == [2, 6, 0, -90, -666, -2006]
    assert sm.leading_minors(m) == want


def _block_permuted(rng, n):
    """A block-diagonal matrix of random dense blocks (orders 1-4) with its
    rows and its columns each permuted at random."""
    m = np.zeros((n, n), dtype=np.int64)
    i = 0
    while i < n:
        k = min(int(rng.integers(1, 5)), n - i)
        m[i:i + k, i:i + k] = rng.integers(-4, 5, size=(k, k))
        i += k
    return m[rng.permutation(n)][:, rng.permutation(n)]


def test_leading_minors_of_sparse_matrices_match_per_block_bareiss():
    rng = np.random.default_rng(26)
    skipped = 0
    for _ in range(80):
        n = int(rng.integers(2, 25))
        density = rng.uniform(0.05, 0.2)
        sparse = (rng.integers(-6, 7, size=(n, n))
                  * (rng.random((n, n)) < density))
        for m in (sparse, _block_permuted(rng, n)):
            want = [_bareiss_det(m[:k, :k]) for k in range(1, n + 1)]
            assert sm.leading_minors(m) == want
            skipped += want.count(0)
    assert skipped > 500  # stalls, and rows left alone across them


def _symmetric(rng, n, density):
    """A random symmetric matrix of entries in -6..6, each kept with
    probability `density`."""
    u = np.triu(rng.integers(-6, 7, size=(n, n)) * (rng.random((n, n))
                                                     < density))
    return u + np.triu(u, 1).T


def _plant_zero_minor(m, j, k):
    """m with row and column k made copies of row and column j < k, so the
    leading minor of order k + 1 is 0 and m stays symmetric."""
    m = m.copy()
    m[k, :] = m[j, :]
    m[:, k] = m[:, j]
    return m


def _spy_passes(monkeypatch):
    """A list that records ("symmetric", ran to its end) or ("general",
    order) for every pass that _eliminate runs."""
    seen = []
    symmetric, general = sm._symmetric_pass, sm._general_pass

    def symmetric_spy(a):
        minors = symmetric(a)
        seen.append(("symmetric", minors is not None))
        return minors

    def general_spy(a):
        seen.append(("general", len(a)))
        return general(a)

    monkeypatch.setattr(sm, "_symmetric_pass", symmetric_spy)
    monkeypatch.setattr(sm, "_general_pass", general_spy)
    return seen


def test_leading_minors_of_symmetric_matrices_match_per_block_bareiss(
        monkeypatch):
    """Dense and sparse symmetric matrices, with zero leading minors planted
    and with entries past 2⁶³: the symmetric pass, and the general pass it
    falls back to at a zero pivot, give the oracle's minors."""
    seen = _spy_passes(monkeypatch)
    rng = np.random.default_rng(39)
    for _ in range(60):
        n = int(rng.integers(2, 22))
        for density in (1.0, 0.15):
            m = _symmetric(rng, n, density)
            j, k = sorted(rng.choice(n, size=2, replace=False).tolist())
            big = (_symmetric(rng, n, 1.0).astype(object) * 2**70
                   + m.astype(object))
            for a in (m, _plant_zero_minor(m, j, k), big,
                      _plant_zero_minor(big, j, k)):
                want = [_bareiss_det(a[:i, :i]) for i in range(1, n + 1)]
                assert sm.leading_minors(a) == want
    ends = [x for kind, x in seen if kind == "symmetric"]
    assert ends.count(True) > 100 and ends.count(False) > 100
    assert sum(kind == "general" for kind, _ in seen) == ends.count(False)


def test_leading_minors_of_gcd_powers_match_per_block_bareiss():
    """The Python-int gcd^s matrices of build_smith and the int64 powers
    of the gcd table, for n <= 60 and s <= 3: gcd(n) is the leading block
    of gcd(60), so the oracle's minors of gcd(60)^s cover every n."""
    for s in (1, 2, 3):
        full = sm.build_smith(60, s)
        want = [_bareiss_det(full[:n, :n]) for n in range(1, 61)]
        for n in range(1, 61):
            assert sm.leading_minors(sm.build_smith(n, s)) == want[:n]
            assert sm.leading_minors(rk.gcd_table(n) ** s) == want[:n]
    a = sm.build_smith(40, 12)  # 40¹² > 2⁶³: the object path
    assert sm.det_exact(a) == _bareiss_det(a) == sm.smith_det(40, 12)
    assert sm.smith_det_residual(40, 12) == 0


def test_smith_matrices_take_the_symmetric_pass_to_its_end(monkeypatch,
                                                           cold_smith_minors):
    seen = _spy_passes(monkeypatch)
    assert sm.smith_det_residual(40, 2) == 0
    assert seen == [("symmetric", True)]


def test_prime_matrix_blocks_take_the_general_pass(monkeypatch):
    """The parity blocks of A(1, n) and A(2, n) are not symmetric, so the
    minors, the scan and the singularity test never enter the symmetric
    pass."""
    seen = _spy_passes(monkeypatch)
    for z0 in (1, 2):
        m = sm.build_prime_matrix(z0, 60)
        sm.leading_minors(m)
        sm.invertibility_scan(z0, 60)
        sm.is_singular_exact(m)
    assert seen and all(kind == "general" for kind, _ in seen)


def test_zero_pivot_falls_back_to_the_general_pass(monkeypatch):
    """[[0, 1], [1, 0]] (unsplit: leading_minors would split it by parity)
    and the rank-1 ones matrix stop the symmetric pass at a zero pivot; the
    general pass gives the same minors as before.  A zero pivot at the last
    step needs no exchange, so the symmetric pass ends there."""
    seen = _spy_passes(monkeypatch)
    assert sm._eliminate(np.array([[0, 1], [1, 0]])) == [0, -1]
    assert seen == [("symmetric", False), ("general", 2)]
    seen.clear()
    ones = np.ones((30, 30), dtype=np.int64)
    assert sm.leading_minors(ones) == [1] + [0] * 29
    assert seen == [("symmetric", False), ("general", 30)]
    seen.clear()
    last = np.array([[1, 1, 1], [1, 2, 1], [1, 1, 1]])
    assert sm.leading_minors(last) == [1, 1, 0]
    assert sm.leading_minors(np.ones((2, 2), dtype=np.int64)) == [1, 0]
    assert seen == [("symmetric", True)] * 2


def _spy_minor_passes(monkeypatch):
    """A list that records (order, dtype) of every matrix that
    sm.leading_minors receives."""
    seen = []
    leading_minors = sm.leading_minors

    def spy(m):
        seen.append((len(m), m.dtype))
        return leading_minors(m)

    monkeypatch.setattr(sm, "leading_minors", spy)
    return seen


def test_smith_determinant_reads_int64_below_2_to_the_63(monkeypatch,
                                                        cold_smith_minors):
    """40¹¹ < 2⁶³ <= 40¹²: the minors are taken of the int64 gcd power at
    s = 11 and of build_smith's Python ints at s = 12."""
    seen = _spy_minor_passes(monkeypatch)
    assert sm.smith_det_residual(40, 11) == 0
    assert sm.smith_det_residual(40, 12) == 0
    assert [dtype for _, dtype in seen] == [np.int64, object]


def test_smith_residuals_read_the_kept_minors(monkeypatch, cold_smith_minors):
    """A cold exponent runs one pass of order n; a smaller n runs none; a
    larger n doubles the kept order, or takes n when that is larger."""
    seen = _spy_minor_passes(monkeypatch)
    assert sm.smith_det_residual(40, 2) == 0
    assert seen == [(40, np.int64)]
    for n in (1, 10, 39, 40):
        assert sm.smith_det_residual(n, 2) == 0
    assert sm._smith_det_and_residual(7, 2) == (sm.smith_det(7, 2), 0)
    assert len(seen) == 1
    for n, order in ((41, 80), (60, 80), (200, 200), (201, 400)):
        assert sm.smith_det_residual(n, 2) == 0
        assert seen[-1] == (order, np.int64)
        assert len(sm._kept_minors[2]) == order
    assert len(seen) == 4
    assert sm.smith_det_residual(40, 3) == 0  # its own table, cold
    assert seen[-1] == (40, np.int64) and list(sm._kept_minors) == [2, 3]


def test_smith_minors_fall_back_to_n_when_doubling_is_refused(
        monkeypatch, cold_smith_minors):
    """At the real budget a pass to order 1000 is admitted at s = 1 and
    refused at s = 3 (2 202 015 312 B): after (500, 3), (501, 3) builds
    order 501, not 1000."""
    sm.check_exact_pass(1000, math.log2(1000))
    with pytest.raises(rk.CapacityError, match="2202015312 B"):
        sm.check_exact_pass(1000, 3 * math.log2(1000))
    seen = _spy_minor_passes(monkeypatch)
    for n in (500, 501):
        assert sm.smith_det_residual(n, 3) == 0
    assert [order for order, _ in seen] == [500, 501]
    assert len(sm._kept_minors[3]) == 501


def test_refused_smith_residual_leaves_the_kept_minors(cold_smith_minors):
    """A refused n raises as a cold call does and keeps every table, and the
    order in which they are dropped, as it was."""
    for s in (1, 2):
        assert sm.smith_det_residual(30, s) == 0
    before = dict(sm._kept_minors)
    for s in (1, 2, 5):
        with pytest.raises(rk.CapacityError,
                           match="exact pass over a 20000x20000 "):
            sm.smith_det_residual(20000, s)
    assert list(sm._kept_minors) == [1, 2]
    assert all(sm._kept_minors[s] is before[s] for s in (1, 2))


def test_smith_minors_keep_eight_exponents(cold_smith_minors):
    """Twenty exponents leave the eight most recently used tables."""
    for s in range(1, 21):
        assert sm.smith_det_residual(6, s) == 0
    assert list(sm._kept_minors) == list(range(13, 21))
    assert sm.smith_det_residual(3, 13) == 0  # a hit is used most recently
    assert sm.smith_det_residual(6, 21) == 0
    assert list(sm._kept_minors) == [*range(15, 21), 13, 21]


def test_cold_smith_residual_sees_a_wrong_gcd_power(monkeypatch,
                                                     cold_smith_minors):
    """From a cold table the minors are taken of _gcd_power(n, s) itself:
    adding 1 to its last diagonal entry adds det gcd^s(n − 1) to the
    determinant, so the residual is that, not 0."""
    gcd_power = sm._gcd_power
    for n, s in ((30, 1), (40, 12)):
        bad = gcd_power(n, s)
        bad[-1, -1] += 1
        monkeypatch.setattr(sm, "_gcd_power", lambda n, s, m=bad: m)
        assert sm.smith_det_residual(n, s) == sm.smith_det(n - 1, s) != 0


def _planted(rng, n, kind):
    """A random integer matrix with the parity zero pattern `kind` planted:
    m[i, j] = 0 unless i + j is even ("diag") or odd ("anti")."""
    m = rng.integers(-4, 5, size=(n, n)) * (rng.random((n, n)) < 0.7)
    i = np.arange(n)
    m[(i[:, None] + i[None, :]) % 2 == (kind == "diag")] = 0
    return m


@pytest.mark.parametrize("z0,kind", [(1, "diag"), (3, "diag"), (2, "anti"),
                                     (4, "anti"), (GaussianInt(2, 2), "anti")])
def test_parity_split_of_prime_matrices(z0, kind):
    """A(z0, n) is nonzero only where k + l has the parity z0 fixes, so the
    minors come from two half-size blocks.  Every leading minor of the split
    pass equals the unsplit one; the per-block oracle pins the stall region
    and n = 147..150 (all of n mod 4: the anti sign (−1)^(n/2) and the zero
    odd minors)."""
    m = sm.build_prime_matrix(z0, 150)
    assert sm._parity_blocks(m)[0] == kind
    got = sm.leading_minors(m)
    assert got == sm._eliminate(m)
    for n in [*range(1, 41), *range(147, 151)]:
        assert got[n - 1] == _bareiss_det(m[:n, :n]), n
    if kind == "anti":
        assert not any(got[0::2])  # odd n: singular by counting


@pytest.mark.parametrize("z0", [0, -1, GaussianInt(-1, -1)])
def test_parity_split_falls_back(z0):
    # 0 + 1 + i, −1 + 2 + i and −1 − i + 2 + 2i are associates of 1 + i, one
    # entry off either pattern: the one pass runs on the whole matrix
    m = sm.build_prime_matrix(z0, 60)
    assert sm._parity_blocks(m) is None
    assert sm.leading_minors(m) == [_bareiss_det(m[:n, :n])
                                    for n in range(1, 61)]


def test_parity_split_of_planted_patterns():
    rng = np.random.default_rng(29)
    zeros = 0
    for _ in range(60):
        n = int(rng.integers(2, 22))
        for kind in ("diag", "anti"):
            m = _planted(rng, n, kind)
            assert sm._parity_blocks(m)[0] == kind
            want = [_bareiss_det(m[:k, :k]) for k in range(1, n + 1)]
            assert sm.leading_minors(m) == want
            assert sm.det_exact(m) == want[-1]
            assert sm.is_singular_exact(m) == (want[-1] == 0)
            zeros += want.count(0)
    assert zeros > 300
    # a full matrix and one entry off the pattern do not split
    assert sm._parity_blocks(np.ones((5, 5), dtype=np.int64)) is None
    m = _planted(rng, 9, "anti")
    m[4, 6] = 1
    assert sm._parity_blocks(m) is None
    assert sm.leading_minors(m) == [_bareiss_det(m[:k, :k])
                                    for k in range(1, 10)]


def test_parity_split_edge_orders():
    assert sm.leading_minors(np.zeros((0, 0), dtype=np.int64)) == []
    for x in (5, 0, -3):
        m = np.array([[x]])
        assert sm._parity_blocks(m) is None  # n <= 1 does not split
        assert sm.leading_minors(m) == [x]
    assert sm.leading_minors([[0, 2], [3, 0]]) == [0, -6]
    assert sm.leading_minors([[2, 0], [0, 3]]) == [2, 6]
    # non-square input raises before any split, patterned or not
    for m in (np.eye(2, 3, dtype=np.int64), np.eye(3, 2, dtype=np.int64),
              np.ones((3, 0), dtype=np.int64), np.ones(4, dtype=np.int64)):
        with pytest.raises(ValueError, match="square matrix required"):
            sm.leading_minors(m)


def _symmetric_01_with_a_zero_minor():
    """A symmetric 0/1 matrix of order 150 whose first zero leading minor
    is of order 100: the symmetric pass runs 99 steps, then falls back."""
    rng = np.random.default_rng(124)  # every leading minor nonzero
    u = np.triu(rng.integers(0, 2, size=(150, 150)))
    return _plant_zero_minor(u + np.triu(u, 1).T, 98, 99)


@pytest.mark.parametrize("build", [lambda: sm.build_prime_matrix(1, 150),
                                   lambda: sm.build_prime_matrix(2, 150),
                                   lambda: sm.build_prime_matrix(0, 150),
                                   lambda: sm.build_smith(60, 3),
                                   lambda: rk.gcd_table(60) ** 3,
                                   _symmetric_01_with_a_zero_minor],
                         ids=["A(1,150)", "A(2,150)", "A(0,150)", "gcd(60)^3",
                              "gcd(60)^3 int64", "sym 0/1 (150), zero minor"])
def test_exact_pass_estimate_bounds_the_traced_peak(traced_peak,
                                                    budget_checks, build):
    """check_exact_pass stays an upper bound on leading_minors' traced peak,
    split or not (peak / estimate at n = 150: 0.11, 0.11, 0.42; 0.18; 0.20
    on the int64 power; 0.61 where the symmetric pass falls back at order
    100 and the general pass runs on the list copy it left)."""
    m = build()
    budget_checks.clear()
    top = max(int(m.max()), -int(m.min()))
    sm.check_exact_pass(len(m), math.log2(top))
    _, peak = traced_peak(sm.leading_minors, m)
    assert peak <= budget_checks[0]


def test_non_integer_entries_raise():
    # refused, not truncated: int(0.5) = 0 would give the minors [0, -1]
    for m in (np.array([[0.5, 1], [1, 2]]), np.array([[1.0, 0], [0, 1]]),
              np.array([[1 + 1j, 0], [0, 1]]),
              np.array([[Fraction(1, 2), 1], [1, 2]], dtype=object)):
        with pytest.raises(TypeError):
            sm.leading_minors(m)
        with pytest.raises(TypeError):
            sm.det_exact(m)
        with pytest.raises(TypeError):
            sm.is_singular_exact(m)
    # singular (2.5·2 − 1·5 = 0): an int64 cast would read [[2, 1], [5, 2]]
    for m in ([[2.5, 1], [5, 2]], [[2.5, 1], [5, 2 + 0j]],
              np.array([[Fraction(5, 2), 1], [5, 2]], dtype=object)):
        with pytest.raises(TypeError):
            sm.is_singular_exact(m)


def test_is_singular_exact_on_big_integers():
    # entries past int64 are reduced mod p in Python ints, not cast
    assert sm.is_singular_exact([[2**70, 1], [1, 2**70]]) is False
    assert sm.is_singular_exact([[2**70, 2**70], [1, 1]]) is True
    big = np.array([[2**70, 2**70], [1, 1]], dtype=object)
    assert sm._leading_ranks_mod(big, sm._RANK_PRIME).tolist() == [1, 1]
    assert sm.is_singular_exact(-big) is True


def test_exact_pass_refused_before_it_starts(monkeypatch, traced_peak):
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10_000)
    assert sm.det_exact(np.eye(4, dtype=np.int64)) == 1  # 356 B estimate
    # the same order with entries near 2**4000: a 16 kB estimate
    big = np.array([[2**4000 - i - j for j in range(4)] for i in range(4)],
                   dtype=object)
    with pytest.raises(rk.CapacityError, match="exact pass over a 4x4"):
        sm.det_exact(big)
    # a bool or narrow matrix widens to int64 only within the budget
    for dtype in (bool, np.int8):
        refused = f"int64 copy of a {np.dtype(dtype)} array"
        _, peak = traced_peak(sm.det_exact, np.ones((40, 40), dtype),
                              refused=refused)
        assert peak < 8 * 40 * 40
    ones = np.ones((30, 30), dtype=np.int64)  # rank 1 mod p: a drop
    # is_singular_exact's rank pass mod p, checked at 16 B per cell, is
    # refused before the exact pass would be
    for exact, kind in ((sm.det_exact, "exact"),
                        (sm.is_singular_exact, "rank")):
        with pytest.raises(rk.CapacityError,
                           match=f"{kind} pass over a 30x30"):
            exact(ones)
    # every exact pass, split or not, runs _eliminate, which checks before
    # its list copy of the block: a refusal traces less than that copy alone
    # (entries 2**40, rank 1: 40 B per listed entry), so no elimination step
    # ran; is_singular_exact is refused at its rank pass mod p, before it
    # copies the block to int64 residues
    i = np.arange(300)
    for m in (np.full((300, 300), 2**40),
              np.where((i[:, None] + i[None, :]) % 2, 0, 2**40)):
        split = sm._parity_blocks(m)
        block = m if split is None else split[1]
        _, copy = traced_peak(np.ndarray.tolist, block)
        for exact, kind in ((sm.leading_minors, "exact"),
                            (sm.det_exact, "exact"),
                            (sm.is_singular_exact, "rank")):
            refused = f"{kind} pass over a {len(block)}x{len(block)} "
            assert traced_peak(exact, m, refused=refused)[1] < copy


@pytest.mark.parametrize("kind", [None, "diag", "anti"])
def test_leading_minors_refused_where_det_exact_is(monkeypatch,
                                                   budget_checks, kind):
    """One check, in _eliminate, at the order of the block that the pass
    runs: leading_minors, det_exact and is_singular_exact are refused at one
    budget, and a split matrix of order 30 at its blocks' order 15."""
    m = np.ones((30, 30), dtype=np.int64)  # rank 1: each block drops last
    if kind:
        i = np.arange(30)
        m[(i[:, None] + i[None, :]) % 2 == (kind == "diag")] = 0
    order = 30 if kind is None else 15
    sm.check_exact_pass(order)
    (estimate,) = budget_checks
    monkeypatch.setattr(rk, "_BYTE_BUDGET", estimate - 1)
    for exact in (sm.leading_minors, sm.det_exact, sm.is_singular_exact):
        with pytest.raises(rk.CapacityError,
                           match=f"exact pass over a {order}x{order} "):
            exact(m)
    monkeypatch.setattr(rk, "_BYTE_BUDGET", estimate)
    second = {None: 0, "diag": 1, "anti": -1}[kind]  # det m[:2, :2]
    assert sm.leading_minors(m)[1:] == [second] + [0] * 28
    assert sm.det_exact(m) == 0
    assert sm.is_singular_exact(m) is True


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


@pytest.mark.parametrize("z0", [1, 2, 3, GaussianInt(2, 2), 0, -1])
def test_scan_matches_bareiss_on_every_leading_block(z0):
    full = sm.build_prime_matrix(z0, 60)
    want = [n for n in range(1, 61) if _bareiss_det(full[:n, :n]) == 0]
    assert sm.invertibility_scan(z0, 60)["singular_ns"] == want
    assert [n for n in range(1, 61)
            if sm.is_singular_exact(full[:n, :n])] == want


@pytest.mark.parametrize("z0,nmax,blocks",
                         [(1, 60, [14, 9]), (2, 60, [9, 14]), (1, 4, [])])
def test_scan_runs_one_exact_pass(monkeypatch, z0, nmax, blocks):
    """One _eliminate call per parity block, over that block's last rank
    drop, none when no leading block drops rank mod p (z0 = 1 up to n = 4).
    A(1, 60) is block diagonal, so its last drop n = 28 is B_14 · C_14 with
    C's last drop at 9.  A(2, n) is block anti-diagonal by parity, so every
    odd n is singular by counting, with no pass, and the threshold is the
    odd n = 59."""
    passes = []
    real = sm._eliminate

    def counting(m):
        passes.append(len(m))
        return real(m)

    monkeypatch.setattr(sm, "_eliminate", counting)
    res = sm.invertibility_scan(z0, nmax)
    assert passes == blocks
    assert res["threshold"] == {(1, 60): 28, (2, 60): 59, (1, 4): 0}[z0, nmax]


def test_is_singular_exact_reads_the_parity_blocks(monkeypatch):
    """A(2, 399) is singular by counting (odd order, block anti-diagonal):
    the exact passes cover the blocks' last rank drops only."""
    passes = []
    real = sm._eliminate

    def counting(m):
        passes.append(len(m))
        return real(m)

    monkeypatch.setattr(sm, "_eliminate", counting)
    assert sm.is_singular_exact(sm.build_prime_matrix(2, 399)) is True
    assert passes and max(passes) <= 14


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
        assert sm.commutator_residuals(z0, 20)[0] == 0


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


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_complex_matrices_keep_their_imaginary_part():
    # a gcd^s matrix with complex s, whose spectrum spirals
    m = sm.build_smith(6, 0.5 + 1j)
    s = sm.spectrum(m)
    want = np.linalg.eigvals(m)
    assert np.abs(np.sort_complex(s.eigenvalues)
                  - np.sort_complex(want)).max() < 1e-9
    assert s.residual_bound < 1e-10
    q, _r = np.linalg.qr(m)
    assert np.allclose(sm.qr_column_means(m), q.mean(axis=0))


def test_spectrum_capacity(monkeypatch):
    monkeypatch.setattr(primelab, "SOLVER_CAP", 5)
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


def test_char_poly_float_path_matches_exact(monkeypatch):
    # above _CHAR_POLY_EXACT_CAP the coefficients come from float eigenvalues
    a = sm.build_prime_matrix(1, 65)
    approx = sm.char_poly(a)
    monkeypatch.setattr(sm, "_CHAR_POLY_EXACT_CAP", 65)
    exact = sm.char_poly(a)
    assert len(approx) == len(exact) == 66 and all(exact)
    for f, e in zip(approx, exact):
        assert (f > 0) == (e > 0)
        assert abs(math.log(abs(f)) - math.log(abs(e))) < 1e-6


def test_char_poly_refuses_non_integers(monkeypatch):
    # refused, not truncated: int() made this [1, -3, 2]
    for m in ([[1.7, 0], [0, 2.9]], np.array([[1.0, 0], [0, 1]]),
              np.array([[1 + 1j, 0], [0, 1]]),
              np.array([[Fraction(1, 2), 1], [1, 2]], dtype=object)):
        with pytest.raises(TypeError):
            sm.char_poly(m)
    assert sm.char_poly(np.array([[1, 2], [3, 4]], dtype=object)) == [1, -5, -2]
    assert sm.char_poly(np.eye(2, dtype=bool)) == [1, -2, 1]

    # integer entries always give integer coefficients, so the division
    # check is reached only by entries that get past the conversion
    monkeypatch.setattr(rk, "operator", type("Op", (), {
        "index": staticmethod(lambda x: x)}))
    halves = np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object)
    with pytest.raises(ArithmeticError, match="c_1 is not an integer"):
        sm.char_poly(halves)


def test_char_poly_refused_above_solver_cap(monkeypatch, traced_peak):
    # both paths read check_solver_cap before they copy the matrix
    a = sm.build_prime_matrix(1, 300)
    monkeypatch.setattr(primelab, "SOLVER_CAP", 299)
    _, peak = traced_peak(sm.char_poly, a,
                          refused="matrix size 300 above solver cap")
    assert peak < a.nbytes
    monkeypatch.setattr(primelab, "SOLVER_CAP", 8)
    assert len(sm.char_poly(a[:8, :8])) == 9  # the exact path at the cap
    monkeypatch.setattr(sm, "_CHAR_POLY_EXACT_CAP", 4)
    assert len(sm.char_poly(a[:8, :8])) == 9  # the float path at the cap
    with pytest.raises(rk.CapacityError, match="matrix size 9 above"):
        sm.char_poly(a[:9, :9].tolist())


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
    assert sm.char_poly_function(a, 0.0) == 0.0  # p_0 = 1
    # outside [0, 1]: refused, not read off coeffs[-1] or clamped to 1
    for x in (-0.5, 1.5, -1e-12, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"x in \[0, 1\] required"):
            sm.char_poly_function(a, x)
    # log|det| is 0 at |det| = 1 and undefined at 0: no normalization
    for m in (sm.build_prime_matrix(1, 1), np.eye(2, dtype=int),
              -np.eye(3, dtype=int), np.zeros((2, 2), dtype=int)):
        assert abs(sm.det_exact(m)) <= 1
        for x in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="normalization undefined"):
                sm.char_poly_function(m, x)


def test_prime_row_flags_sieved_matches_direct():
    from primelab.planarith import is_gaussian_prime
    # 5 and 13 are primes ≡ 1 mod 4 dividing k; at k = 4, j = 1 the value
    # 1 + 16 = 17 is itself a sieving prime
    for k in (1, 2, 3, 4, 5, 6, 10, 13):
        flags = pa.prime_rows([k], 20001)[0]
        for j in range(1, 2000):
            assert flags[j - 1] == is_gaussian_prime(GaussianInt(j, k)), (j, k)
    # a row longer than k²: composites j² + k² with every prime factor above
    # n need sieving primes up to √(n² + k²), e.g. 6674² + k² = 20593·21589
    k = 20001
    flags = pa.prime_rows([k], 20001)[0]
    for j in range(1, 20002):
        assert flags[j - 1] == rk.is_prime(j * j + k * k), (j, k)


def test_prime_rows_stack_the_single_rows_and_refuse_k_below_1():
    rows = pa.prime_rows(range(1, 7), 3000)
    assert rows.shape == (6, 3000) and rows.dtype == bool
    for k in range(1, 7):
        assert np.array_equal(rows[k - 1], pa.prime_rows([k], 3000)[0]), k
    for ks in ([], [0], [3, -1]):
        with pytest.raises(ValueError, match="k >= 1 required"):
            pa.prime_rows(ks, 10)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="n >= 0 required"):
            pa.prime_rows([1], n)


def test_prime_row_bytes_cover_traced_peak(traced_peak, cold_and_grown):
    # a cold or grown sieve, so its flags are traced too
    for k, n in ((1, 10**5), (6, 3 * 10**4), (20001, 20001)):
        rows = cold_and_grown(lambda: traced_peak(pa.prime_rows, [k], n))
        for kept, (_, peak) in rows:
            assert peak <= pa._row_bytes(n, math.isqrt(n * n + k * k)), (
                k, n, kept)


def test_prime_rows_refused_before_allocation(monkeypatch, traced_peak):
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**6)
    for call in (lambda: pa.prime_rows([1], 10**7)[0],
                 lambda: sm.row_cov_sign_table(6, 10**6)):
        _, peak = traced_peak(call, refused="Gaussian prime rows to ")
        assert peak < 64 * 1024


def test_row_cov_sign_table_refuses_empty():
    for K, n in ((0, 10), (2, 0), (-1, 5)):
        with pytest.raises(ValueError, match="K >= 1 and n >= 1 required"):
            sm.row_cov_sign_table(K, n)


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
    # bool and narrow integer matrices widen to int64: Python int minors,
    # not a bool, and a mod-p rank pass that does not overflow their dtype
    m = np.random.default_rng(3).integers(0, 2, size=(9, 9))
    want = sm.leading_minors(m)
    singular = sm.is_singular_exact(m)
    assert singular == (want[-1] == 0)
    for dtype in (bool, np.uint8, np.int8):
        got = sm.leading_minors(m.astype(dtype))
        assert got == want and all(type(x) is int for x in got), dtype
        assert sm.is_singular_exact(m.astype(dtype)) == singular, dtype
    assert type(sm.det_exact(np.ones((1, 1), bool))) is int
    got = sm.leading_minors(np.array([[True, True], [True, False]]))
    assert got == [1, -1] and type(got[0]) is int


def test_smith_refused_before_build(traced_peak):
    gcd, exact = "gcd matrix n=20000 ", "exact pass over a 20000x20000 "
    cap = "matrix size 20000 above solver cap "
    for call, what in ((lambda: sm.build_smith(20000), gcd),
                       (lambda: sm.build_smith(20000, 0.5), gcd),
                       (lambda: sm.smith_det_residual(20000), exact),
                       (lambda: sm.smith_det_residual(20000, 0.5), cap)):
        _, peak = traced_peak(call, refused=what)
        assert peak < 10**6


@pytest.mark.parametrize("n", [200, 400])
def test_smith_identity_checks_bound_their_traced_peak(traced_peak,
                                                       budget_checks, n):
    """Each identity check's first byte check, from n and s before its first
    array, is at least its traced peak."""
    for call in (lambda: sm.smith_inverse_moebius_check(n),
                 lambda: sm.smith_factorization_check(n, 1)):
        budget_checks.clear()
        assert traced_peak(call)[1] <= budget_checks[0]


def test_smith_identity_checks_refused_before_they_allocate(monkeypatch,
                                                            traced_peak):
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**6)
    for call, what in ((lambda: sm.smith_inverse_moebius_check(400),
                        "Smith Moebius check n=400"),
                       (lambda: sm.smith_factorization_check(400, 3),
                        "Smith factorization check n=400")):
        assert traced_peak(call, refused=what)[1] < 10**6


@pytest.mark.parametrize("n, s", [(400, 1), (40, 12)])
def test_smith_factorization_in_int64_and_in_python_ints(monkeypatch, n, s):
    """400¹ < 2⁶³ at (400, 1): the divisor sums in int64; 40¹² >= 2⁶³ at
    (40, 12): in Python ints.  Each path holds, and each sees one changed
    entry of the gcd matrix."""
    int64 = n ** s < 2**63
    assert int64 == (s == 1)
    assert sm.smith_factorization_check(n, s)
    a = sm._gcd_power(n, s)
    a[-1, 0] += 1
    monkeypatch.setattr(sm, "_gcd_power", lambda n, s: a)
    assert not sm.smith_factorization_check(n, s)


def test_smith_factorization_estimate_covers_its_inner_checks(monkeypatch):
    """The check's first estimate is at least every byte check that runs
    inside it (the gcd table's, build_smith's), so a refusal names the
    check on both paths."""
    seen = []  # each estimate with what it is for, which budget_checks drops
    monkeypatch.setattr(rk, "check_budget",
                        lambda nbytes, what: seen.append((what, nbytes)))
    for n, s in ((400, 1), (200, 8), (40, 12), (50, 12), (200, 9), (100, 40)):
        seen.clear()
        assert sm.smith_factorization_check(n, s)
        (what, first), *inner = seen
        assert what == f"Smith factorization check n={n}" and inner
        assert all(first >= nbytes for _, nbytes in inner)


def _product_oracle(n, s):
    """E·diag(J_s)·Eᵀ as a dense product of Python ints, O(n³)."""
    e = sm.smith_divisor_factor(n).astype(object)
    j = np.array([rk.jordan_totient(k, s) for k in range(1, n + 1)],
                 dtype=object)
    return (e * j) @ e.T


@pytest.mark.parametrize("size, s, ns", [
    (60, 1, range(1, 61)), (60, 2, range(1, 61)), (60, 3, range(1, 61)),
    (40, 11, [40]), (40, 12, [40]), (200, 8, [200])])
def test_smith_divisor_sums_match_the_product_oracle(monkeypatch, size, s,
                                                     ns):
    """The divisor-sum check agrees with the dense product E·D·Eᵀ on every
    gcd^s matrix and on a copy with one changed entry.  E is lower
    triangular, so the oracle's leading n×n block is its product for n.
    At (200, 8) Σ J_8(k) >= 2⁶³ > 200⁸: the sums run in int64."""
    gcd_power = sm._gcd_power
    want = _product_oracle(size, s)
    rng = np.random.default_rng(s)
    for n in ns:
        a = gcd_power(n, s)
        assert np.array_equal(want[:n, :n], a)
        bad = a.copy()
        i, j = rng.integers(n, size=2)
        bad[i, j] += 1
        for m in (a, bad):
            monkeypatch.setattr(sm, "_gcd_power", lambda n, s, m=m: m)
            assert sm.smith_factorization_check(n, s) == (m is a)
    if s == 8:
        j8 = [rk.jordan_totient(k, 8) for k in range(1, 201)]
        assert 200**8 < 2**63 <= sum(j8)


def test_smith_identities_read_one_gcd_power(monkeypatch, cold_smith_minors):
    """40¹¹ < 2⁶³ <= 40¹²: the determinant and the factorization check both
    read int64 at s = 11 and Python ints at s = 12."""
    dtypes = []
    gcd_power = sm._gcd_power

    def spy(n, s):
        a = gcd_power(n, s)
        dtypes.append(a.dtype)
        return a

    monkeypatch.setattr(sm, "_gcd_power", spy)
    for s in (11, 12):
        assert sm.smith_det_residual(40, s) == 0
        assert sm.smith_factorization_check(40, s)
    assert dtypes == [np.int64, np.int64, object, object]


def _builder(kind, n):
    """A call that builds one n×n array of `kind`, its inputs made first."""
    if kind == "adjacency":
        return pg.gcd_graph(n).adjacency
    if kind.startswith("rank"):
        m = sm.build_prime_matrix(0, n)
        if kind == "rank, object":  # residues that are new Python ints
            m = m.astype(object) * 2**70 + 2**40
        return lambda: sm._leading_ranks_mod(m, sm._RANK_PRIME)
    return {"van der Monde": lambda: sm.build_vdm(n, sm.GOLDEN, 0.3),
            "divisor factor": lambda: sm.smith_divisor_factor(n)}[kind]


_BUILDERS = ["van der Monde", "divisor factor", "adjacency", "rank, int64",
             "rank, object"]


@pytest.mark.parametrize("kind", _BUILDERS)
def test_builders_refused_before_they_allocate(monkeypatch, traced_peak,
                                              kind):
    call = _builder(kind, 300)
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**5)
    # 300² cells of 8 B or more: a refusal traces under 10⁵ B
    assert traced_peak(call, refused="300")[1] < 10**5


@pytest.mark.parametrize("n", [100, 400])
@pytest.mark.parametrize("kind", _BUILDERS)
def test_builders_bound_their_traced_peak(traced_peak, budget_checks, kind,
                                          n):
    call = _builder(kind, n)
    budget_checks.clear()
    _, peak = traced_peak(call)
    assert peak <= budget_checks[0] + 2**17  # up to numpy's fixed buffers


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


def test_smith_numpy_integer_exponents_take_the_exact_path():
    want = sm.smith_det_residual(10, 2)
    a = sm.build_smith(3, 2)
    assert want == 0 and type(want) is int
    for s in (np.int64(2), np.int32(2), np.uint8(2)):
        got = sm.smith_det_residual(10, s)
        assert got == want and type(got) is int
        b = sm.build_smith(3, s)
        assert b.dtype == object and b.tolist() == a.tolist()
        assert all(type(x) is int for x in b.flat)
        assert sm.smith_factorization_check(5, s) is True
    # float and complex exponents keep the float path
    for s in (2.0, 2 + 0j):
        assert sm.build_smith(3, s).dtype == complex
        assert isinstance(sm.smith_det_residual(10, s), complex)
        with pytest.raises(ValueError, match="needs integer s >= 1"):
            sm.smith_factorization_check(5, s)


def test_every_float_solver_refuses_above_the_solver_cap(monkeypatch):
    monkeypatch.setattr(primelab, "SOLVER_CAP", 5)
    m = sm.build_prime_matrix(1, 6)
    for call in (lambda: sm.qr_column_means(m),
                 lambda: sm.smith_det_residual(6, 0.5),
                 lambda: sm.almost_period_log_dets(6, sm.GOLDEN, 0.3, 0.0),
                 lambda: sm.spectrum(m), lambda: sm.char_poly(m)):
        with pytest.raises(rk.CapacityError,
                           match="matrix size 6 above solver cap 5"):
            call()
    # at the cap each still runs
    assert sm.qr_column_means(m[:5, :5]).shape == (5,)
    assert abs(sm.smith_det_residual(5, 0.5)) < 1e-8
    assert len(sm.almost_period_log_dets(5, sm.GOLDEN, 0.3, 0.0)) == 5


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


def _vdm_log_det_mpmath(n, alpha):
    """Σ_{d<n} (n − d)·log|2 sin(dα/2)| at 50 digits, α the float exactly."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        return sum((n - d) * mpmath.log(abs(2 * mpmath.sin(d * a / 2)))
                   for d in range(1, n))


@pytest.mark.parametrize("alpha", [sm.GOLDEN, 2 * math.pi * sm.GOLDEN])
def test_vdm_log_det_matches_mpmath_sum(alpha):
    out = sm.vdm_log_det(10**4, alpha)
    assert out.dtype == np.float64 and out.shape == (10**4 + 1,)
    assert out[0] == out[1] == 0.0
    for n in (10, 200, 10**4):
        want = _vdm_log_det_mpmath(n, alpha)
        assert abs(out[n] - want) <= 1e-7 * abs(want), n


@pytest.mark.parametrize("alpha", [sm.GOLDEN, 2 * math.pi * sm.GOLDEN])
def test_vdm_log_det_matches_slogdet(alpha):
    out = sm.vdm_log_det(100, alpha)
    for n in range(1, 101):
        _sign, want = np.linalg.slogdet(sm.build_vdm(n, alpha, 0.3))
        assert abs(out[n] - want) <= 1e-9 * max(1.0, abs(want)), n


def test_vdm_product_modulus_refuses_what_a_float_cannot_hold():
    # e^−738.0 underflows and e^3393.8 overflows a float
    for n, alpha in ((300, sm.GOLDEN), (1000, sm.GOLDEN),
                     (1000, 2 * math.pi * sm.GOLDEN)):
        with pytest.raises(ArithmeticError, match="vdm_log_det"):
            sm.vdm_product_modulus(n, alpha, 0.0)
    assert sm.vdm_product_modulus(0, sm.GOLDEN, 0.0) == 1.0
    assert sm.vdm_product_modulus(5, 0.0, 0.0) == 0.0  # every node is 1


def test_vdm_log_det_budget(monkeypatch, traced_peak):
    for nmax in (10**3, 10**5):
        _, peak = traced_peak(sm.vdm_log_det, nmax, sm.GOLDEN)
        assert peak <= 24 * (nmax + 1) + 2**12, nmax
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10**6)
    _, peak = traced_peak(sm.vdm_log_det, 10**6, sm.GOLDEN,
                          refused="van der Monde log")
    assert peak < 64 * 1024


def test_vdm_golden_mean_growth():
    # rotation number α/2π = golden mean: log|det B(n)| / log(2ⁿ n!) → ~1/2
    series = dict(sm.vdm_det_growth(10**6, 2 * math.pi * sm.GOLDEN))
    for n in (10**3, 10**4, 10**5, 10**6):
        assert 0.50 <= series[n] <= 0.52, n


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
