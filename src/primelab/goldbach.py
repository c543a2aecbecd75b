"""Generic Goldbach representation sweeps over the supported integer rings.

r2(z) counts ORDERED pairs (p, q) of primes with p + q = z subject to a
SumVariant (cone, angle cap, parity filter, species); r3 counts ordered
Gaussian triples.  Comets are grids of r2 over rectangular target regions.

Cone semantics, for a target t = a + b·u with a, b >= 0:
  open         — every coordinate of both summands strictly positive
  closed       — coordinates nonnegative
  unrestricted — Gaussian summands anywhere in the window
                 [−W..a+W]×[−W..b+W], W = UNRESTRICTED_WINDOW = 2

Each cone is the summand box [lo..a−lo]×[lo..b−lo] with lo = 1, 0 and −W.
Unrestricted targets with a negative coordinate count as their mirror
(|a|, |b|): conjugation and negation permute the primes and carry the
window onto the mirror's.  Targets with odd coordinate sum are counted
exactly: one summand has even norm, so it is one of the four associates
±1±i, and its partner lies in any window with W >= 1.  Targets with even
coordinate sum admit summands arbitrarily far away, so their count is the
count inside the window, a lower bound on the unbounded one.

One summand rule serves every ring.  A summand mask with offset off is the
prime mask over the summand coordinates off/2 <= x_i <= box_i − off/2, which
holds every summand of every target t <= box, so t sits at cell t − off of
its self-convolution M⋆M.  Planar rings have one mask, off = 2·lo, read from
planar_prime_mask; quaternion and octonion species have one per summand
parity par, off = 2 − par, read from hyperarith.prime_mask over the doubled
axes off, off+2, …, 2·box_i − off.  r2 of one target counts each mask of its
own box against the mask's reflection; only the angle cap, which depends on
the target, is counted per cell.  grid_counts gives r2 of every target in a
box from M⋆M, computed by FFT and rounded (a negative box entry raises
ValueError before any byte check).  Only the mask's own box, the
cells t < M.shape, is ever read, so the FFT computes no more: on M's longest
axis, with N cells and h = ⌈N/2⌉, a pair with both summands at index >= h
lands at index >= N, so the box is that of lo ⋆ w, with lo the first h
slices of M and w the mask with its slices >= h doubled (the two orders of a
mixed pair).  That axis spans h + N − 1 cells instead of 2N − 1, 3/4 of the
points of M⋆M in 2-D.  The FFT runs in float32 when
3·‖lo‖₂·‖w‖₂·2⁻²⁴·log₂ L <= 1/4, with ‖lo‖₂² = K_lo and ‖w‖₂² = K_lo + 4·K_hi
for the K_lo primes of M in lo and the K_hi others, and L the number of
cells of lo ⋆ w; it runs in float64 otherwise.  FFT convolution error grows
like ‖lo‖₂·‖w‖₂·u·log₂ L at unit roundoff u (Percival, Math. Comp. 72
(2003); Higham, Accuracy and Stability of Numerical Algorithms, ch. 24); for
an untruncated mask that is K·u·log₂ L with K primes.  The largest float32
error measured on lo ⋆ w was 0.069 of the bound (all ones, 265²), 0.026
(Gaussian primes, 50² to 764²) and 0.021 (Eisenstein, 50² to 677²), under
1/10 of it.  On both paths the rounding is accepted only if every cell of
the box lies within 0.25 of an integer; otherwise ArithmeticError is raised
rather than a wrong count returned.  comet, quaternion_comet,
first_counterexample and eisenstein_ghosts read that grid, and r3 is one
more product of the pair grid with the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import fft, signal

from . import ratkernel as rk
from .hyperarith import prime_mask
from .planarith import (EisensteinInt, GaussianInt, is_gaussian_prime,
                        planar_prime_mask)

# unrestricted summands of a + b·i lie in [−W..a+W]×[−W..b+W]
UNRESTRICTED_WINDOW = 2


@dataclass(frozen=True)
class SumVariant:
    cone: str = "open"  # open | closed | unrestricted
    angle_cap: float | None = None
    parity_filter: str = "none"  # none | even-only
    species: str = "any"  # quaternion/octonion summand species
    # a constant, not an option: which function is called fixes the number
    # of summands (r3 counts triples).  It stays a field only because
    # perfbench's golden digests of comet reports hash every field of the
    # report's variant.
    summands: int = field(default=2, init=False)

    def __post_init__(self):
        if self.cone not in ("open", "closed", "unrestricted"):
            raise ValueError(f"unknown cone {self.cone!r}")
        if self.parity_filter not in ("none", "even-only"):
            raise ValueError(f"unknown parity filter {self.parity_filter!r}")


OPEN = SumVariant(cone="open")
UNRESTRICTED = SumVariant(cone="unrestricted")


@dataclass
class SweepReport:
    ring: str
    variant: SumVariant
    region: tuple
    counts: np.ndarray  # counts[i, j] is r2 of (a_lo + i, b_lo + j)
    zero_cells: np.ndarray  # int64 (M, 2): sorted (a, b) in scope, r2 = 0

    @property
    def min_count(self):
        return int(self.counts.min())

    @property
    def max_count(self):
        return int(self.counts.max())

    def csv_lines(self):
        yield "re,im,count"
        (alo, _), (blo, _) = self.region
        for a, row in enumerate(self.counts, alo):
            for b, v in enumerate(row.tolist(), blo):
                yield f"{a},{b},{v}"


def _halves(shape):
    """(axis, h): the first longest axis of a mask of this shape, with N
    cells, and h = ⌈N/2⌉; lo is the mask's first h slices along it."""
    axis = max(range(len(shape)), key=shape.__getitem__)
    return axis, -(-shape[axis] // 2)


def _conv_shape(shape):
    """Shape of lo ⋆ w for a mask of this shape: h + N − 1 on the halved
    axis and 2n − 1 on every other."""
    axis, h = _halves(shape)
    return tuple(max(n + (h if i == axis else n) - 1, 0)
                 for i, n in enumerate(shape))


def _check_fft(shape):
    # the float64 path of _fft_counts traces at most 40 B per cell of the
    # padded real FFT, each axis of lo ⋆ w at fftconvolve's next_fast_len,
    # plus the 12 B per mask cell of lo and w; callers check it before the
    # mask is built
    padded = math.prod(fft.next_fast_len(n, True) for n in _conv_shape(shape))
    rk.check_budget(40 * padded + 12 * math.prod(shape),
                    f"FFT convolution of a {shape} mask")


def _fft_dtype(mask):
    """float32 when 3·‖lo‖₂·‖w‖₂·2⁻²⁴·log₂ L <= 1/4 for the inputs lo, w of
    _fft_counts and the L cells of lo ⋆ w, else float64 (module docstring).
    With K_lo ones of the mask in lo and K_hi in the rest, ‖lo‖₂² = K_lo and
    ‖w‖₂² = K_lo + 4·K_hi.  Every cell of lo ⋆ w is at most ‖lo‖₂·‖w‖₂ <
    2²⁴ under the bound, so every count is exact in float32."""
    axis, h = _halves(mask.shape)
    k_lo = np.count_nonzero(mask[(slice(None),) * axis + (slice(h),)])
    k_hi = np.count_nonzero(mask) - k_lo
    bound = (3 * math.sqrt(k_lo * (k_lo + 4 * k_hi)) * 2.0**-24
             * math.log2(max(math.prod(_conv_shape(mask.shape)), 2)))
    return np.float32 if bound <= 0.25 else np.float64


def _fft_counts(mask):
    """(mask⋆mask)[t] for every t < mask.shape, the mask's own box, of a
    0/1 mask, by FFT in the precision of _fft_dtype and checked rounding;
    callers run _check_fft on its shape first.

    On the mask's longest axis, with N cells and h = ⌈N/2⌉, a pair whose
    summands both sit at index >= h lands at index >= N, outside the box.
    So the box is that of lo ⋆ w, where lo is the first h slices of the
    mask and w is the mask with its slices >= h doubled, for the two orders
    of a mixed pair: the FFT spans h + N − 1 cells on that axis, not 2N − 1.

    Raises ArithmeticError when some cell of the box lies 0.25 or more from
    an integer, where rounding could pick the wrong count.
    """
    axis, h = _halves(mask.shape)
    head = (slice(None),) * axis
    w = mask.astype(_fft_dtype(mask))
    lo = w[head + (slice(h),)].copy()
    w[head + (slice(h, None),)] *= 2
    conv = signal.fftconvolve(lo, w)[tuple(slice(n) for n in mask.shape)]
    counts = np.empty(mask.shape, dtype=np.int64)
    np.rint(conv, out=counts, casting="unsafe")
    # the distance to the nearest integer, in the convolution's own buffer
    np.subtract(conv, counts, out=conv)
    err = float(np.abs(conv, out=conv).max(initial=0.0))
    if err >= 0.25:
        raise ArithmeticError(
            f"FFT convolution is {err:.3g} off an integer; counts not exact")
    return counts


# Doubled-coordinate parities of the summands each species allows: 1 for
# half-integer summands, 0 for integer ones.  Mixed hurwitz+lipschitz pairs
# never sum to an integer target, so that species has none.
_SPECIES_PARITIES = {
    "quaternion": {"hurwitz": (1,), "lipschitz": (0,), "any": (1, 0),
                   "hurwitz+lipschitz": ()},
    "octonion": {"kleinian": (1,), "gravesian": (0,)},
}


def _offsets(ring, variant):
    """The offset of each summand mask of the ring and variant: the one rule
    for which pairs have a count.  Any other pair raises NotImplementedError
    (a cone or parity filter the ring lacks) or ValueError."""
    planar = ring in ("gaussian", "eisenstein")
    if ring != "gaussian" and variant.cone != "open":
        raise NotImplementedError(f"{ring} sums are open-cone")
    if not planar and variant.parity_filter != "none":
        raise NotImplementedError(f"no parity filter for {ring} targets")
    if planar and variant.species != "any":
        raise ValueError(f"species {variant.species!r} applies only to "
                         f"quaternion and octonion summands, not {ring}")
    if variant.angle_cap is not None and (
            ring != "gaussian" or variant.cone != "open"):
        raise ValueError(f"angle_cap is implemented only for the Gaussian "
                         f"open cone, not {ring} {variant.cone}")
    if planar:
        # lo of the summand box [lo..a−lo]×[lo..b−lo] of target a + b·u
        lo = {"open": 1, "closed": 0, "unrestricted": -UNRESTRICTED_WINDOW}
        return [2 * lo[variant.cone]]
    if ring not in _SPECIES_PARITIES:
        raise ValueError(f"unsupported ring {ring!r}")
    parities = _SPECIES_PARITIES[ring].get(variant.species)
    if parities is None:
        raise ValueError(f"unknown {ring} species {variant.species!r}")
    return [2 - par for par in parities]


def _summand_masks(ring, offsets, box):
    """[(off, mask)]: for each offset, the prime mask over the summand
    coordinates off/2 <= x_i <= box_i − off/2 (module docstring); empty when
    no target in the box has a summand pair."""
    out = []
    for off in offsets:
        shape = tuple(max(n + 1 - off, 0) for n in box)
        if 0 in shape:
            mask = np.zeros(shape, dtype=bool)
        elif ring in _SPECIES_PARITIES:
            mask = prime_mask([np.arange(off, 2 * n - off + 1, 2)
                               for n in box])
        else:
            lo = off // 2
            mask = planar_prime_mask(ring, lo, box[0] - lo, lo, box[1] - lo)
        out.append((off, mask))
    return out


def _filtered_out(variant, a, b):
    """True when the even-only parity filter puts target a + b·u out of
    scope, which counts as 0 as in comet."""
    return variant.parity_filter == "even-only" and (a + b) % 2 == 1


def r2(z, variant=OPEN):
    """Ordered prime-pair representation count of z under the variant.

    Unrestricted Gaussian counts are those of the window (module docstring):
    exact for odd coordinate sum, a lower bound for even.  Each summand mask
    of the target's box counts against its reflection through the midpoint.
    """
    ring = _infer_ring(z)
    offsets = _offsets(ring, variant)
    box = z
    if ring not in _SPECIES_PARITIES:
        a, b = z.coords
        if _filtered_out(variant, a, b):
            return 0
        # conjugation and negation carry the window onto the mirror's
        box = (abs(a), abs(b)) if variant.cone == "unrestricted" else (a, b)
    masks = [mask for _off, mask in _summand_masks(ring, offsets, box)]
    if variant.angle_cap is not None:
        # the Gaussian open cone: one mask over [1..a-1]×[1..b-1]
        xs = np.arange(1, a, dtype=float)[:, None]
        ys = np.arange(1, b, dtype=float)[None, :]
        rel = np.abs(np.angle((xs + 1j * ys) / complex(a, b)))
        masks[0] &= rel <= variant.angle_cap + 1e-12
    return sum(int(np.count_nonzero(m & np.flip(m))) for m in masks)


def _infer_ring(z):
    if isinstance(z, (GaussianInt, EisensteinInt)):
        return z.ring
    if isinstance(z, tuple) and len(z) in (4, 8):
        return "quaternion" if len(z) == 4 else "octonion"
    raise ValueError(f"cannot infer ring of {z!r}")


def r3(z, variant=OPEN):
    """Ordered prime triples (Gaussian open cone).

    The count is the cell (M⋆M⋆M)[a-3, b-3] of the summand mask M, taken as
    the exact integer dot product of the pair grid M⋆M with M reflected.
    """
    if variant.cone != "open" or variant.angle_cap is not None:
        raise ValueError("r3 counts open-cone triples without an angle cap")
    offsets = _offsets("gaussian", variant)
    a, b = z.re, z.im
    if a < 3 or b < 3 or _filtered_out(variant, a, b):
        return 0
    # every summand lies in [1..a-2]×[1..b-2], the open-cone mask of the box
    # (a-1, b-1); the pair grid's cell [i, j] is r2((i+2)+(j+2)i)
    _check_fft((a - 2, b - 2))
    [(_off, mask)] = _summand_masks("gaussian", offsets, (a - 1, b - 1))
    return int(np.sum(_fft_counts(mask) * mask[::-1, ::-1]))


def grid_counts(ring, variant, box):
    """out[t] = r2(t, variant) for every target 0 <= t <= box, coordinatewise.

    Each summand mask M with offset off holds every summand of every target
    in the box, and target t is the cell t − off of M⋆M (module docstring),
    so the whole box costs one mask and one convolution per offset.  The
    angle cap depends on the target, so it is counted by r2 alone.

    Exactness: M⋆M is computed on M's own box only, as the truncated
    convolution lo ⋆ w of _fft_counts, by FFT rounded to integers, in
    float32 when 3·‖lo‖₂·‖w‖₂·2⁻²⁴·log₂ L <= 1/4 (L cells of lo ⋆ w) and in
    float64 otherwise; the largest float32 error measured is under 1/10 of
    that bound (module docstring).  The result is returned only if every
    cell of the box lies within 0.25 of an integer; otherwise
    ArithmeticError is raised.  FFT rounding error spreads over all cells
    and grows with the number of primes in M, so a box whose error could
    reach a whole count fails this check long before.
    """
    offsets = _offsets(ring, variant)
    if variant.angle_cap is not None:
        raise ValueError("the angle cap depends on the target; count by r2")
    if min(box) < 0:
        raise ValueError(f"box >= 0 required, got {box}")
    for off in offsets:
        _check_fft(tuple(n + 1 - off for n in box))
    grids = []
    for off, mask in _summand_masks(ring, offsets, box):
        if mask.any():
            k = max(off, 0)  # targets below off have no summand pair
            # cells below −off are targets below 0; padded only after the
            # FFT has returned: a grid allocated before it would add to the
            # convolution's peak
            counts = _fft_counts(mask)[(slice(k - off, None),) * len(box)]
            grids.append(np.pad(counts, [(k, 0)] * len(box)))
    out = (sum(grids[1:], grids[0]) if grids
           else np.zeros(tuple(n + 1 for n in box), dtype=np.int64))
    if variant.parity_filter == "even-only":
        _clear_odd(out, 0)
    return out


def _clear_odd(cells, shift):
    """Zero every cell (i, j) of a 2-D array with i + j + shift odd: the
    targets the even-only filter puts out of scope."""
    s = shift % 2
    cells[1 - s::2, ::2] = 0
    cells[s::2, 1::2] = 0


def comet(ring, region, variant=OPEN):
    """SweepReport of r2 and its zero cells over a rectangular region.

    region: ((a_lo, a_hi), (b_lo, b_hi)) inclusive target coordinate bounds.
    Every cone reads one grid_counts grid; only the angle cap, which
    depends on the target, is counted per cell.  Unrestricted cells count
    the pairs inside the window of UNRESTRICTED_WINDOW (module docstring):
    exact for odd a + b, a lower bound for even, and a cell with a negative
    coordinate reads its mirror (|a|, |b|).
    """
    if ring not in ("gaussian", "eisenstein"):
        raise ValueError(f"comet unsupported for ring {ring!r}")
    _offsets(ring, variant)  # raises for a variant the ring has no count of
    (alo, ahi), (blo, bhi) = region
    if alo > ahi or blo > bhi:
        raise ValueError(f"a_lo <= a_hi, b_lo <= b_hi required, got {region}")
    shape = (ahi - alo + 1, bhi - blo + 1)
    # the grid is allocated after grid_counts' checks, or after its own
    if variant.angle_cap is not None:
        rk.check_budget(8 * math.prod(shape), f"comet grid {shape}")
        grid = np.zeros(shape, dtype=np.int64)
        for a in range(alo, ahi + 1):
            for b in range(blo, bhi + 1):
                grid[a - alo, b - blo] = r2(GaussianInt(a, b), variant)
    elif variant.cone == "unrestricted":
        a = np.abs(np.arange(alo, ahi + 1))
        b = np.abs(np.arange(blo, bhi + 1))
        counts = grid_counts(ring, variant, (int(a.max()), int(b.max())))
        grid = counts[np.ix_(a, b)]
    else:
        # targets with a negative coordinate have no cone summands
        counts = grid_counts(ring, variant, (max(ahi, 0), max(bhi, 0)))
        grid = np.zeros(shape, dtype=np.int64)
        a0, b0 = max(alo, 0), max(blo, 0)
        grid[a0 - alo:, b0 - blo:] = counts[a0:ahi + 1, b0:bhi + 1]
    zero = grid == 0
    if variant.parity_filter == "even-only":
        _clear_odd(zero, alo + blo)
    return SweepReport(ring, variant, region, grid,
                       np.argwhere(zero) + (alo, blo))


def quaternion_comet(a, b, cmax, dmax, species="hurwitz"):
    """G(a,b): grid of r2((a,b,c,d)) for 1 <= c <= cmax, 1 <= d <= dmax,
    read off the grid_counts box (a, b, cmax, dmax)."""
    if min(a, b, cmax, dmax) < 0:
        raise ValueError(f"a, b, cmax, dmax >= 0 required, got {a}, {b}, "
                         f"{cmax}, {dmax}")
    return grid_counts("quaternion", SumVariant(species=species),
                       (a, b, cmax, dmax))[a, b, 1:, 1:]


def first_counterexample(ring, variant, bound):
    """Smallest element in scope (norm, then lexicographic) with r2 = 0.

    Gaussian unrestricted: scope is the closed first quadrant, norm <= bound.
    Its odd targets are counted exactly; an even target with no pair inside
    the window of UNRESTRICTED_WINDOW raises RuntimeError, since that zero
    proves nothing about the unbounded count.
    Gaussian open/closed/even: scope is 2 <= a,b <= bound (coordinate bound).
    Eisenstein open: scope is row b=3, 2 <= a <= bound (a odd if even-only).
    Returns None if every element in scope is representable; a Gaussian
    answer is the first least-norm row of the comet's sorted zero_cells.
    """
    _offsets(ring, variant)  # raises for a variant the ring has no count of
    if ring == "gaussian":
        unrestricted = variant.cone == "unrestricted"
        lo, hi = (0, math.isqrt(bound)) if unrestricted else (2, bound)
        if lo > hi:
            return None  # no target in scope
        cells = comet(ring, ((lo, hi), (lo, hi)), variant).zero_cells
        if unrestricted:
            n = (cells * cells).sum(axis=1)
            cells = cells[(0 < n) & (n <= bound)]
        if not len(cells):
            return None
        a, b = cells[np.argmin((cells * cells).sum(axis=1))].tolist()
        if unrestricted and (a + b) % 2 == 0:
            raise RuntimeError(
                f"no pair for even target {a}+{b}i inside the window "
                f"{UNRESTRICTED_WINDOW}; its unbounded count is unknown")
        return GaussianInt(a, b)
    if ring == "eisenstein":
        return next((EisensteinInt(a, 3) for a in eisenstein_ghosts(3, bound)
                     if not _filtered_out(variant, a, 3)), None)
    raise ValueError(f"unsupported ring {ring!r}")


def eisenstein_ghosts(bmax_row, amax):
    """All a <= amax with r2(a + row·ω, open cone) = 0 on the given row."""
    if min(bmax_row, amax) < 0:
        raise ValueError(f"row, amax >= 0 required, got {bmax_row}, {amax}")
    column = grid_counts("eisenstein", OPEN, (amax, bmax_row))[:, bmax_row]
    return [a for a in range(2, amax + 1) if column[a] == 0]


def signed_rep_exists(n):
    """n = p + q with p, q in ±primes, q searched up to |n| + 100; exact
    (bound-free) for odd n."""
    if n % 2:
        # one summand must be ±2, the only even prime
        return rk.is_prime(abs(n - 2)) or rk.is_prime(abs(n + 2))
    for q in rk.sieve(abs(n) + 100).primes().tolist():
        if rk.is_prime(abs(n - q)) or rk.is_prime(abs(n + q)):
            return True
    return False


def hurwitz_boundary_comet(n):
    """r2((2,2,2,n)) over ordered Hurwitz-prime pairs (a,b,c,x)/2, a,b,c ∈
    {1,3}: with k of them 3 and x = 2t+1 the norm is 1+2k + t(t+1), so this
    is the Bunyakovsky pair count Σ_k C(3,k)·#{t : both quadratics prime}."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return r2((2, 2, 2, n), SumVariant(species="hurwitz"))


def pair_coverage(f, g, N):
    """All representable-range n <= N with no x + y = n, x,y >= 1, f(x) and
    g(y) both prime.

    f, g: ascending coefficient tuples of integer polynomials with positive
    leading coefficient.  The scan starts at the least representable sum
    (min prime-x plus min prime-y), so gaps forced by small composite values
    of f or g are not reported.
    """
    for poly in (f, g):
        if poly[-1] <= 0:
            raise ValueError("positive leading coefficient required")
    fflag = np.zeros(N, dtype=np.int64)
    gflag = np.zeros(N, dtype=np.int64)
    for x in range(1, N):
        if rk.is_prime(rk._poly_eval(f, x)):
            fflag[x] = 1
        if rk.is_prime(rk._poly_eval(g, x)):
            gflag[x] = 1
    if not fflag.any() or not gflag.any():
        raise ValueError("one polynomial takes no prime value below N")
    n_min = int(np.argmax(fflag)) + int(np.argmax(gflag))
    conv = np.convolve(fflag, gflag)  # conv[n] = #{x+y=n}
    return [n for n in range(n_min, N + 1) if conv[n] == 0]


def gaussian_boundary_comet(c):
    """#{(a,b) ordered : a+b=c, a,b >= 1, a²+1 and b²+1 both prime}."""
    if c < 2:
        raise ValueError("c >= 2 required")
    # the open-cone summands of c + 2i are a + i and (c - a) + i
    return r2(GaussianInt(c, 2))


def parity_law_sweep(norm_cap):
    """Check r2 > 0 for all even open-cone Gaussian targets with coordinates
    >= 2 and norm <= norm_cap; RuntimeError names up to ten zero cells."""
    m = max(math.isqrt(norm_cap), 2)  # nonempty; the cap filters below
    report = comet("gaussian", ((2, m), (2, m)),
                   SumVariant(cone="open", parity_filter="even-only"))
    z = report.zero_cells
    bad = list(map(tuple, z[(z * z).sum(axis=1) <= norm_cap][:10].tolist()))
    if bad:
        raise RuntimeError(f"parity-law counterexample cells: {bad}")
    return report


def diagonal_goldbach(k):
    """Representations of k(1+i): plain open-cone r2 plus the count of
    reflection-symmetric pairs p + i·conj(p) (interpretation, see docs); one
    test per p: i·conj(p) is a unit times conj(p), so prime exactly if p is."""
    reflect = sum(1 for a in range(1, k)
                  if is_gaussian_prime(GaussianInt(a, k - a)))
    return r2(GaussianInt(k, k), OPEN), reflect
