"""Cellular automata on 0/1 configurations over Z².

Grids live on an origin-anchored window; everything outside the window is
dead.  step() grows the window by one cell on each side so no live cell is
ever clipped, up to a loud capacity cap.  The default rule is Conway's Life
(birth {3}, survive {2,3}); any outer-totalistic rule can be passed instead.

The moat machinery dilates the Gaussian-prime configuration m times and
labels connected components (8-connectivity: diagonal steps of length √2
are the twin distance), then extracts the component containing 1+i.
Components are found on row runs of live cells (He, Chao & Suzuki, IEEE TIP
17, 2008) through primegraphs.component_labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ratkernel as rk
from .ratkernel import CapacityError
from .planarith import gaussian_prime_mask
from .primegraphs import component_labels

_WINDOW_CAP = 4096  # max cells per side


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
    # live neighbours of every cell of the padded window: the eight shifted
    # windows of the grid padded once more
    outer = np.pad(g.cells, 2).astype(np.uint8)
    w, h = cells.shape
    counts = np.zeros((w, h), dtype=np.uint8)
    for di in range(3):
        for dj in range(3):
            if di != 1 or dj != 1:
                counts += outer[di:di + w, dj:dj + h]
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


def _box_any(a, k, axis):
    """out[x] = any(a[x-k..x+k]) along `axis`, outside cells dead: a running
    count differenced over each window."""
    n = a.shape[axis]
    c = np.cumsum(a, axis=axis, dtype=np.int32)
    c = np.concatenate([np.zeros_like(c.take([0], axis=axis)), c], axis=axis)
    x = np.arange(n)
    return (c.take(np.minimum(x + k + 1, n), axis=axis)
            > c.take(np.maximum(x - k, 0), axis=axis))


def dilate(g, steps=1):
    """`steps` rounds of 8-connected dilation: a cell is live when some live
    cell lies within Chebyshev distance `steps`, one separable box filter."""
    if steps < 0:
        raise ValueError("steps >= 0 required")
    if steps == 0:
        return Grid(g.origin, g.cells.copy())
    if max(g.width, g.height) + 2 * steps > _WINDOW_CAP:
        raise CapacityError("dilation exceeds window cap")
    cells = np.pad(g.cells, steps)
    cells = _box_any(_box_any(cells, steps, 0), steps, 1)
    return Grid((g.origin[0] - steps, g.origin[1] - steps), cells)


def _run_components(cells):
    """(starts, ends, stride, count, labels) of the 8-connected components of
    a bool array, found on its row runs of live cells.

    The rows are flattened with one dead column on the right, so no run wraps
    and the row above is one stride back; runs are [starts, ends) in that
    flat index.  A run joins every run of the row above that reaches its
    columns ±1, and the runs' graph goes through component_labels, which
    numbers the components by their first run in raster order.
    """
    w, h = cells.shape
    # a checkerboard has the most runs (one per two padded cells) and run
    # pairs (about one per cell); it peaks at 77.8 B per padded cell under
    # tracemalloc, labels included
    rk.check_budget(80 * w * (h + 1), f"components of a {w}×{h} grid")
    stride = h + 1
    flips = np.flatnonzero(np.diff(np.pad(cells, ((0, 0), (0, 1))).ravel(),
                                   prepend=False))
    starts, ends = flips[::2], flips[1::2]
    # for a run over columns [a, b): the runs above that end after column
    # a - 1 and start by column b; the dead column keeps both in that row
    lo = np.searchsorted(ends, starts - stride, side="left")
    k = np.maximum(np.searchsorted(starts, ends - stride, side="right") - lo, 0)
    pairs = np.stack([np.repeat(np.arange(len(starts)), k),
                      rk.concat_ranges(lo, k)], axis=1)
    return (starts, ends, stride) + component_labels(len(starts), pairs)


def components(g):
    """(labels array, count) of 8-connected live components, numbered from 1
    in raster order of their first cell; dead cells are 0."""
    starts, ends, _stride, count, run_labels = _run_components(g.cells)
    labels = np.zeros(g.cells.shape, dtype=np.int32)
    labels[g.cells] = np.repeat(run_labels + 1, ends - starts)
    return labels, count


def component_count(g):
    return components(g)[1]


def moat_component(m, window):
    """Live points of the component containing 1+i after m dilations of the
    Gaussian-prime grid on [-window, window]², as an int64 (M, 2) array of
    (re, im) rows in lexicographic order."""
    if window < 2:
        raise ValueError("1+i must be inside the window")
    g = dilate(grid_from_gaussian_primes(window), m)
    starts, ends, stride, _count, labels = _run_components(g.cells)
    # read the component off its runs, not off a labelled copy of the grid
    at = (1 - g.origin[0]) * stride + 1 - g.origin[1]
    run = np.searchsorted(starts, at, side="right") - 1
    if run < 0 or at >= ends[run]:
        raise ValueError("1+i is dead in this grid")
    mine = labels == labels[run]
    cells = rk.concat_ranges(starts[mine], ends[mine] - starts[mine])
    return np.stack(np.divmod(cells, stride), axis=1) + g.origin


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
