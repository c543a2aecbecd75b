"""Generic Goldbach representation sweeps over the supported integer rings.

r2(z) counts ORDERED pairs (p, q) of primes with p + q = z subject to a
SumVariant (cone, angle cap, parity filter); r3 counts ordered triples.
Comets are grids of r2 over rectangular target regions.

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

Planar counts come from one engine, planar_counts.  Every summand of every
target in a box lies in one prime mask M, so r2 over the whole box is the
self-convolution M⋆M, computed once by float64 FFT and rounded.  The
rounding is accepted only if every cell lies within 0.25 of an integer;
otherwise ArithmeticError is raised rather than a wrong count returned.
comet, first_counterexample, eisenstein_ghosts and r3 are reductions of
that grid.  Quaternion and octonion targets get one summand mask per summand
parity of their species, hyperarith.prime_mask over the doubled-coordinate
box below the target; quaternion_comet convolves it the same way.  r2 of
one target of any ring counts its mask against the mask's reflection;
only the angle cap, which depends on the target, is counted per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import signal

from . import ratkernel as rk
from .hyperarith import prime_mask
from .planarith import (EisensteinInt, GaussianInt, gaussian_prime_mask,
                        is_gaussian_prime, planar_prime_mask)

# unrestricted summands of a + b·i lie in [−W..a+W]×[−W..b+W]
UNRESTRICTED_WINDOW = 2


@dataclass(frozen=True)
class SumVariant:
    cone: str = "open"  # open | closed | unrestricted
    angle_cap: float | None = None
    parity_filter: str = "none"  # none | even-only
    summands: int = 2
    species: str = "any"  # quaternion/octonion summand species

    def __post_init__(self):
        if self.cone not in ("open", "closed", "unrestricted"):
            raise ValueError(f"unknown cone {self.cone!r}")
        if self.parity_filter not in ("none", "even-only"):
            raise ValueError(f"unknown parity filter {self.parity_filter!r}")
        if self.summands not in (2, 3):
            raise ValueError("summands must be 2 or 3")


OPEN = SumVariant(cone="open")
UNRESTRICTED = SumVariant(cone="unrestricted")


@dataclass
class SweepReport:
    ring: str
    variant: SumVariant
    region: tuple
    counts: np.ndarray
    zero_cells: list = field(default_factory=list)

    @property
    def min_count(self):
        return int(self.counts.min())

    @property
    def max_count(self):
        return int(self.counts.max())

    def csv_lines(self, coord_names=("re", "im")):
        yield ",".join(coord_names) + ",count"
        it = np.nditer(self.counts, flags=["multi_index"])
        for v in it:
            idx = tuple(i + lo for i, (lo, _hi) in
                        zip(it.multi_index, self.region))
            yield ",".join(map(str, idx)) + f",{int(v)}"


def _cone_lo(ring, cone):
    """lo of the summand box [lo..a-lo]×[lo..b-lo] of target a + b·u."""
    lo = {"open": 1, "closed": 0, "unrestricted": -UNRESTRICTED_WINDOW}
    if not (ring == "gaussian" and cone in lo
            or (ring, cone) == ("eisenstein", "open")):
        raise ValueError(f"no planar count for the {ring} {cone} cone")
    return lo[cone]


def _summand_mask(ring, cone, amax, bmax):
    """(mask, lo): the prime mask over [lo..amax-lo]×[lo..bmax-lo], holding
    every cone summand of every target in [0..amax]×[0..bmax]; empty when no
    target in the box has a summand pair."""
    lo = _cone_lo(ring, cone)
    if amax < 2 * lo or bmax < 2 * lo:
        return np.zeros((0, 0), dtype=bool), lo
    return planar_prime_mask(ring, lo, amax - lo, lo, bmax - lo), lo


def _check_fft(shape):
    # the FFT self-convolution of a mask of this shape takes about 40 B per
    # cell of the result; callers check it before the mask is built
    rk.check_budget(40 * math.prod(max(2 * n - 1, 0) for n in shape),
                    f"FFT convolution of a {shape} mask")


def _fft_counts(mask):
    """Integer self-convolution mask⋆mask of a 0/1 mask, by FFT and checked
    rounding; callers run _check_fft on its shape first.

    Raises ArithmeticError when some cell of the float result lies 0.25 or
    more from an integer, where rounding could pick the wrong count.
    """
    m = mask.astype(float)
    conv = signal.fftconvolve(m, m)
    counts = np.rint(conv)
    err = float(np.abs(conv - counts).max(initial=0.0))
    if err >= 0.25:
        raise ArithmeticError(
            f"FFT convolution is {err:.3g} off an integer; counts not exact")
    return counts.astype(np.int64)


def planar_counts(ring, cone, amax, bmax):
    """out[a, b] = r2(a + b·u) for every target 0 <= a <= amax, 0 <= b <= bmax.

    ring/cone is gaussian/open, gaussian/closed, gaussian/unrestricted
    (u = i) or eisenstein/open (u = ω).  Every summand of every target in
    the box lies in one prime mask M over [lo..amax-lo]×[lo..bmax-lo], and
    r2 of target t is the cell of M⋆M at index t − 2·lo, so the whole box
    costs one mask and one convolution.

    Exactness: M⋆M is computed by float64 FFT and rounded to integers.  The
    result is returned only if every cell lies within 0.25 of an integer;
    otherwise ArithmeticError is raised.  FFT rounding error spreads over
    all cells and grows with the number of primes in M, so a box whose error
    could reach a whole count fails this check long before.
    """
    lo = _cone_lo(ring, cone)
    _check_fft((amax + 1 - 2 * lo, bmax + 1 - 2 * lo))
    mask = _summand_mask(ring, cone, amax, bmax)[0]
    out = np.zeros((amax + 1, bmax + 1), dtype=np.int64)
    if mask.size:
        # targets below 2·lo (open cone) have no summand pair
        k = max(2 * lo, 0)
        out[k:, k:] = _fft_counts(mask)[k - 2 * lo:amax + 1 - 2 * lo,
                                        k - 2 * lo:bmax + 1 - 2 * lo]
    return out


# Doubled-coordinate parities of the summands each species allows: 1 for
# half-integer summands, 0 for integer ones.  Mixed hurwitz+lipschitz pairs
# never sum to an integer target, so that species has none.
_SPECIES_PARITIES = {
    "quaternion": {"hurwitz": (1,), "lipschitz": (0,), "any": (1, 0),
                   "hurwitz+lipschitz": ()},
    "octonion": {"kleinian": (1,), "gravesian": (0,)},
}


def _hyper_masks(ring, species, box):
    """[(par, mask)] for each summand parity par of a quaternion or octonion
    species: the prime_mask over the doubled coordinates
    range(2 - par, 2·box_i, 2), which hold every open-cone summand of that
    parity of every integer target z <= box.
    """
    parities = _SPECIES_PARITIES[ring].get(species)
    if parities is None:
        raise ValueError(f"unknown {ring} species {species!r}")
    return [(par, prime_mask([np.arange(2 - par, 2 * n, 2) for n in box]))
            for par in parities]


def _direct_count(ring, variant, z):
    """r2 of the single target z: each summand mask counted against its own
    reflection through the target's midpoint."""
    if ring in _SPECIES_PARITIES:
        masks = [mask for _par, mask in _hyper_masks(ring, variant.species, z)]
    else:
        a, b = z
        mask, lo = _summand_mask(ring, variant.cone, a, b)
        if variant.angle_cap is not None and mask.size:
            xs = np.arange(lo, a - lo + 1, dtype=float)[:, None]
            ys = np.arange(lo, b - lo + 1, dtype=float)[None, :]
            rel = np.abs(np.angle((xs + 1j * ys) / complex(a, b)))
            mask &= rel <= variant.angle_cap + 1e-12
        masks = [mask]
    return sum(int(np.count_nonzero(m & np.flip(m))) for m in masks)


def _check_variant(ring, variant, summands=2):
    """Raise for a variant field the ring/cone pair or the count (pairs or
    triples) does not implement."""
    planar = ring in ("gaussian", "eisenstein")
    if variant.summands != summands:
        raise ValueError(f"this count needs summands={summands}, not "
                         f"{variant.summands}")
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


def _filtered_out(variant, a, b):
    """True when the even-only parity filter puts target a + b·u out of
    scope, which counts as 0 as in comet."""
    return variant.parity_filter == "even-only" and (a + b) % 2 == 1


def r2(z, variant=OPEN, ring=None):
    """Ordered prime-pair representation count of z under the variant.

    Unrestricted Gaussian counts are those of the window (module docstring):
    exact for odd coordinate sum, a lower bound for even.
    """
    if ring is None:
        ring = _infer_ring(z)
    if ring not in ("gaussian", "eisenstein", *_SPECIES_PARITIES):
        raise ValueError(f"unknown ring {ring!r}")
    _check_variant(ring, variant)
    if ring in _SPECIES_PARITIES:
        return _direct_count(ring, variant, tuple(z))
    a, b = (z.re, z.im) if ring == "gaussian" else (z.a, z.b)
    if _filtered_out(variant, a, b):
        return 0
    if variant.cone == "unrestricted":
        # conjugation and negation carry the window onto the mirror's
        a, b = abs(a), abs(b)
    return _direct_count(ring, variant, (a, b))


def _infer_ring(z):
    if isinstance(z, GaussianInt):
        return "gaussian"
    if isinstance(z, EisensteinInt):
        return "eisenstein"
    if isinstance(z, tuple) and len(z) == 4:
        return "quaternion"
    if isinstance(z, tuple) and len(z) == 8:
        return "octonion"
    raise ValueError(f"cannot infer ring of {z!r}")


def r3(z, variant=SumVariant(cone="open", summands=3)):
    """Ordered prime triples (Gaussian open cone).

    The count is the cell (M⋆M⋆M)[a-3, b-3] of the summand mask M, taken as
    the exact integer dot product of the pair grid M⋆M with M reflected.
    """
    if variant.cone != "open" or variant.angle_cap is not None:
        raise ValueError("r3 counts open-cone triples without an angle cap")
    _check_variant("gaussian", variant, summands=3)
    a, b = z.re, z.im
    if a < 3 or b < 3 or _filtered_out(variant, a, b):
        return 0
    # every summand lies in [1..a-2]×[1..b-2]; pairs[i, j] = r2((i+2)+(j+2)i)
    _check_fft((a - 2, b - 2))
    mask = gaussian_prime_mask(1, a - 2, 1, b - 2)
    pairs = _fft_counts(mask)[:a - 2, :b - 2]
    return int(np.sum(pairs * mask[::-1, ::-1]))


def comet(ring, region, variant=OPEN):
    """SweepReport of r2 over a rectangular target region.

    region: ((a_lo, a_hi), (b_lo, b_hi)) inclusive target coordinate bounds.
    Every cone reads one planar_counts grid; only the angle cap, which
    depends on the target, is counted per cell.  Unrestricted cells count
    the pairs inside the window of UNRESTRICTED_WINDOW (module docstring):
    exact for odd a + b, a lower bound for even, and a cell with a negative
    coordinate reads its mirror (|a|, |b|).
    """
    if ring not in ("gaussian", "eisenstein"):
        raise ValueError(f"comet unsupported for ring {ring!r}")
    _check_variant(ring, variant)
    (alo, ahi), (blo, bhi) = region
    grid = np.zeros((ahi - alo + 1, bhi - blo + 1), dtype=np.int64)
    if variant.angle_cap is not None:
        for a in range(alo, ahi + 1):
            for b in range(blo, bhi + 1):
                grid[a - alo, b - blo] = r2(GaussianInt(a, b), variant)
    elif variant.cone == "unrestricted":
        a = np.abs(np.arange(alo, ahi + 1))
        b = np.abs(np.arange(blo, bhi + 1))
        counts = planar_counts(ring, "unrestricted", int(a.max()),
                               int(b.max()))
        grid = counts[np.ix_(a, b)]
    else:
        # targets with a negative coordinate have no cone summands
        counts = planar_counts(ring, variant.cone, max(ahi, 0), max(bhi, 0))
        a0, b0 = max(alo, 0), max(blo, 0)
        grid[a0 - alo:, b0 - blo:] = counts[a0:ahi + 1, b0:bhi + 1]
    in_scope = True
    if variant.parity_filter == "even-only":
        in_scope = np.add.outer(np.arange(alo, ahi + 1),
                                np.arange(blo, bhi + 1)) % 2 == 0
        grid[~in_scope] = 0
    zero = np.argwhere(in_scope & (grid == 0)) + (alo, blo)
    return SweepReport(ring, variant, region, grid,
                       [tuple(c) for c in zero.tolist()])


def quaternion_comet(a, b, cmax, dmax, species="hurwitz"):
    """G(a,b): grid of r2((a,b,c,d)) for 1 <= c <= cmax, 1 <= d <= dmax.

    For each summand parity, every summand of every target lies in the mask
    over the box (a, b, cmax, dmax), so the grid is a slice of mask⋆mask
    (checked FFT rounding, as in planar_counts).  Mask index i holds doubled
    coordinate 2 - par + 2i, so target z sits at index z - 2 + par.
    """
    for par in _SPECIES_PARITIES["quaternion"].get(species, ()):
        _check_fft(tuple(n - 1 + par for n in (a, b, cmax, dmax)))
    grid = np.zeros((cmax, dmax), dtype=np.int64)
    for par, mask in _hyper_masks("quaternion", species, (a, b, cmax, dmax)):
        if mask.any():
            s = 1 - par  # integer summands leave the c = 1 and d = 1 rows
            grid[s:, s:] += _fft_counts(mask)[a - 1 - s, b - 1 - s,
                                               :cmax - s, :dmax - s]
    return grid


def first_counterexample(ring, variant, bound):
    """Smallest element in scope (norm, then lexicographic) with r2 = 0.

    Gaussian unrestricted: scope is the closed first quadrant, norm <= bound.
    Its odd targets are counted exactly; an even target with no pair inside
    the window of UNRESTRICTED_WINDOW raises RuntimeError, since that zero
    proves nothing about the unbounded count.
    Gaussian open/closed/even: scope is 2 <= a,b <= bound (coordinate bound).
    Eisenstein open: scope is row b=3, 2 <= a <= bound.
    Returns None if every element in scope is representable.
    """
    _check_variant(ring, variant)
    if ring == "gaussian":
        unrestricted = variant.cone == "unrestricted"
        lo, hi = (0, math.isqrt(bound)) if unrestricted else (2, bound)
        report = comet(ring, ((lo, hi), (lo, hi)), variant)
        first = min(((a * a + b * b, a, b) for a, b in report.zero_cells
                     if not unrestricted or 0 < a * a + b * b <= bound),
                    default=None)
        if first is None:
            return None
        _n, a, b = first
        if unrestricted and (a + b) % 2 == 0:
            raise RuntimeError(
                f"no pair for even target {a}+{b}i inside the window "
                f"{UNRESTRICTED_WINDOW}; its unbounded count is unknown")
        return GaussianInt(a, b)
    if ring == "eisenstein":
        ghosts = eisenstein_ghosts(3, bound)
        return EisensteinInt(ghosts[0], 3) if ghosts else None
    raise ValueError(f"unsupported ring {ring!r}")


def eisenstein_ghosts(bmax_row, amax):
    """All a <= amax with r2(a + row·ω, open cone) = 0 on the given row."""
    column = planar_counts("eisenstein", "open", amax, bmax_row)[:, bmax_row]
    return [a for a in range(2, amax + 1) if column[a] == 0]


def signed_rep_exists(n, search_bound=None):
    """n = p + q with p, q in ±primes; exact (bound-free) for odd n."""
    if search_bound is None:
        search_bound = max(abs(n) + 100, 100)
    if search_bound < abs(n):
        raise ValueError("search_bound must be >= |n|")
    if n % 2:
        # one summand must be ±2, the only even prime
        return rk.is_prime(abs(n - 2)) or rk.is_prime(abs(n + 2))
    for q in rk.sieve(search_bound).primes():
        q = int(q)
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


def _poly_eval(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


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
        if rk.is_prime(_poly_eval(f, x)):
            fflag[x] = 1
        if rk.is_prime(_poly_eval(g, x)):
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


def bunyakovsky_admissible(f):
    """(admissible, reason) for an integer polynomial (ascending coeffs).

    Checks: nonconstant, positive leading coefficient, fixed divisor of the
    value sequence equal to 1; irreducibility certified for degree <= 2 via
    the discriminant.
    """
    deg = len(f) - 1
    while deg > 0 and f[deg] == 0:
        deg -= 1
    if deg < 1:
        return False, "constant polynomial"
    if f[deg] <= 0:
        return False, "leading coefficient not positive"
    content = 0
    for x in range(deg + 2):
        content = math.gcd(content, abs(_poly_eval(f, x)))
    if content != 1:
        return False, f"all values divisible by {content}"
    if deg == 2:
        a, b, c = f[2], f[1], f[0]
        disc = b * b - 4 * a * c
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            return False, "reducible (discriminant is a perfect square)"
    return True, "admissible"


def parity_law_sweep(norm_cap):
    """Check r2 > 0 for all even open-cone Gaussian targets with coordinates
    >= 2 and norm <= norm_cap.  A zero cell raises with the counterexample."""
    m = math.isqrt(norm_cap)
    report = comet("gaussian", ((2, m), (2, m)),
                   SumVariant(cone="open", parity_filter="even-only"))
    bad = [(a, b) for a, b in report.zero_cells
           if a * a + b * b <= norm_cap and a >= 2 and b >= 2]
    if bad:
        raise RuntimeError(f"parity-law counterexample cells: {bad[:10]}")
    return report


def diagonal_goldbach(k):
    """Representations of k(1+i): plain open-cone r2 plus the count of
    reflection-symmetric pairs p + i·conj(p) (interpretation, see docs); one
    test per p: i·conj(p) is a unit times conj(p), so prime exactly if p is."""
    reflect = sum(1 for a in range(1, k)
                  if is_gaussian_prime(GaussianInt(a, k - a)))
    return r2(GaussianInt(k, k), OPEN), reflect
