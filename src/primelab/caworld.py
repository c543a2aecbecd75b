"""Cellular automata on 0/1 configurations over Z².

Grids live on an origin-anchored window; everything outside the window is
dead.  step() grows the window by one cell on each side so no live cell is
ever clipped, up to a loud capacity cap.  The default rule is Conway's Life
(birth {3}, survive {2,3}); any outer-totalistic rule can be passed instead.

The moat machinery dilates the Gaussian-prime configuration m times and
labels connected components (8-connectivity: diagonal steps of length √2
are the twin distance), then extracts the component containing 1+i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .ratkernel import CapacityError
from .planarith import gaussian_prime_mask

_WINDOW_CAP = 4096  # max cells per side
_EIGHT = ndimage.generate_binary_structure(2, 2)  # 8-connected 3×3 block


@dataclass(frozen=True)
class Rule:
    birth: frozenset
    survive: frozenset

    def __post_init__(self):
        object.__setattr__(self, "birth", frozenset(self.birth))
        object.__setattr__(self, "survive", frozenset(self.survive))
        if not self.birth <= set(range(9)) or not self.survive <= set(range(9)):
            raise ValueError("neighbor counts must lie in 0..8")


LIFE = Rule(frozenset({3}), frozenset({2, 3}))


@dataclass
class Grid:
    origin: tuple  # (re, im) of cells[0, 0]
    cells: np.ndarray = field(repr=False)  # bool, shape (width, height)

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=bool)
        if self.cells.ndim != 2:
            raise ValueError("cells must be 2-d")

    @property
    def width(self):
        return self.cells.shape[0]

    @property
    def height(self):
        return self.cells.shape[1]

    def live_points(self):
        """Set of (re, im) lattice points that are alive."""
        ore, oim = self.origin
        return {(ore + int(i), oim + int(j))
                for i, j in zip(*np.nonzero(self.cells))}

    def shifted(self, dre, dim):
        return Grid((self.origin[0] + dre, self.origin[1] + dim),
                    self.cells.copy())


def grid_from_points(points):
    pts = sorted(points)
    if not pts:
        return Grid((0, 0), np.zeros((0, 0), dtype=bool))
    res = [p[0] for p in pts]
    ims = [p[1] for p in pts]
    lo = (min(res), min(ims))
    cells = np.zeros((max(res) - lo[0] + 1, max(ims) - lo[1] + 1), dtype=bool)
    for re, im in pts:
        cells[re - lo[0], im - lo[1]] = True
    return Grid(lo, cells)


def grid_from_gaussian_primes(window):
    """Grid of Gaussian primes with re, im in [-window, window]."""
    if window < 0:
        raise ValueError("window >= 0 required")
    mask = gaussian_prime_mask(-window, window, -window, window)
    return Grid((-window, -window), mask)


def step(g, rule=LIFE):
    """One synchronous update, window padded by 1 on each side."""
    if g.width + 2 > _WINDOW_CAP or g.height + 2 > _WINDOW_CAP:
        raise CapacityError(f"window would exceed {_WINDOW_CAP} cells a side")
    cells = np.pad(g.cells, 1)
    kernel = np.ones((3, 3), dtype=np.int64)
    kernel[1, 1] = 0
    counts = ndimage.convolve(cells.astype(np.int64), kernel,
                              mode="constant", cval=0)
    birth = np.isin(counts, sorted(rule.birth))
    survive = np.isin(counts, sorted(rule.survive))
    new = np.where(cells, survive, birth)
    return Grid((g.origin[0] - 1, g.origin[1] - 1), new)


def alive_cells(g, rule=LIFE):
    """Lattice points whose value changes after one step."""
    nxt = step(g, rule)
    return Grid(nxt.origin, np.pad(g.cells, 1) != nxt.cells).live_points()


def farthest_live_radius(window, rule=LIFE):
    """max |z| over cells that change after one step of the prime grid."""
    g = grid_from_gaussian_primes(window)
    cells = alive_cells(g, rule)
    if not cells:
        return 0.0
    return max((re * re + im * im) ** 0.5 for re, im in cells)


def dilate(g, steps=1):
    if steps < 0:
        raise ValueError("steps >= 0 required")
    if steps == 0:
        return Grid(g.origin, g.cells.copy())
    if max(g.width, g.height) + 2 * steps > _WINDOW_CAP:
        raise CapacityError("dilation exceeds window cap")
    cells = np.pad(g.cells, steps)
    cells = ndimage.binary_dilation(cells, _EIGHT, iterations=steps)
    return Grid((g.origin[0] - steps, g.origin[1] - steps), cells)


def components(g):
    """(labels array, count) of 8-connected live components."""
    return ndimage.label(g.cells, structure=_EIGHT)


def component_count(g):
    return components(g)[1]


def moat_component(m, window):
    """Live points of the component containing 1+i after m dilations of the
    Gaussian-prime grid on [-window, window]², as an int64 (M, 2) array of
    (re, im) rows in lexicographic order."""
    if window < 2:
        raise ValueError("1+i must be inside the window")
    g = dilate(grid_from_gaussian_primes(window), m)
    labels, _ = components(g)
    i, j = 1 - g.origin[0], 1 - g.origin[1]
    lab = labels[i, j]
    if lab == 0:
        raise ValueError("1+i is dead in this grid")
    return np.argwhere(labels == lab) + g.origin


def to_rle(g):
    """Run-length text: header `origin,width,height` then per-row runs."""
    lines = [f"{g.origin[0]},{g.origin[1]},{g.width},{g.height}"]
    for row in g.cells:
        # runs alternate dead/live and start dead, so a live first cell
        # opens with a run of 0
        flips = np.flatnonzero(np.diff(row, prepend=False))
        runs = np.diff(np.concatenate([[0], flips, [g.height]]))
        lines.append(" ".join(map(str, runs.tolist())))
    return "\n".join(lines) + "\n"


def from_rle(text):
    lines = text.strip().split("\n")
    ore, oim, w, h = (int(v) for v in lines[0].split(","))
    if len(lines) - 1 != w:
        raise ValueError(f"{len(lines) - 1} rows, expected {w}")
    cells = np.zeros((w, h), dtype=bool)
    for i, line in enumerate(lines[1:]):
        j, cur = 0, False
        for run in line.split():
            n = int(run)
            if cur:
                cells[i, j:j + n] = True
            j += n
            cur = not cur
        if j != h:
            raise ValueError(f"row {i} runs sum to {j}, expected {h}")
    return Grid((ore, oim), cells)


def to_pbm(g):
    """Plain PBM (P1); rows are im from high to low so the plane reads upright."""
    rows = map(" ".join, np.where(g.cells.T[::-1], "1", "0").tolist())
    return "\n".join(["P1", f"{g.width} {g.height}", *rows]) + "\n"
