"""Cellular automata on 0/1 configurations over Z².

Grids live on an origin-anchored window; everything outside the window is
dead.  step() grows the window by one cell on each side so no live cell is
ever clipped, up to a loud capacity cap.  The one rule is Conway's Life,
B3/S23: a dead cell with three live neighbours is born, and a live cell with
two or three survives.

The moat machinery dilates the Gaussian-prime configuration m times and
labels connected components (8-connectivity: diagonal steps of length √2
are the twin distance), then extracts the component containing 1+i.
Components are found on row runs of live cells (He, Chao & Suzuki, IEEE TIP
17, 2008) through ratkernel.component_labels.  Point sets (live cells,
changed cells, a moat component) are int64 (M, 2) arrays of (re, im) rows
in lexicographic order, with no per-point object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import CapacityError
from . import ratkernel as rk
from .planarith import gaussian_prime_mask

_WINDOW_CAP = 4096  # max cells per side


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
        """(re, im) rows of the live cells, int64, in lexicographic order."""
        return np.argwhere(self.cells) + self.origin

    def shifted(self, dre, dim):
        return Grid((self.origin[0] + dre, self.origin[1] + dim),
                    self.cells.copy())


def grid_from_points(points):
    """Grid over the bounding box of the (re, im) rows of an (M, 2) array-like,
    set in one indexed write; refused from the box's size."""
    pts = np.asarray(points, dtype=np.int64)
    if not pts.size:
        return Grid((0, 0), np.zeros((0, 0), dtype=bool))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"(M, 2) points required, got shape {pts.shape}")
    lo = pts.min(axis=0)
    w, h = (pts.max(axis=0) - lo + 1).tolist()
    # the cells, 1 B each, and the shifted rows, 16 B per point
    rk.check_budget(w * h + 16 * len(pts), f"grid of {w}×{h} cells")
    cells = np.zeros((w, h), dtype=bool)
    cells[tuple((pts - lo).T)] = True
    return Grid(tuple(lo.tolist()), cells)


def grid_from_gaussian_primes(window):
    """Grid of Gaussian primes with re, im in [-window, window]."""
    if window < 0:
        raise ValueError("window >= 0 required")
    mask = gaussian_prime_mask(-window, window, -window, window)
    return Grid((-window, -window), mask)


def _check_pad(side, pad, op):
    """CapacityError if `op` ("step", "dilate") pads side + 2·pad past cap."""
    if side + 2 * pad > _WINDOW_CAP:
        raise CapacityError(f"window would exceed {_WINDOW_CAP} cells a side"
                            if op == "step" else "dilation exceeds window cap")


def step(g):
    """One synchronous Life update, window padded by 1 on each side."""
    _check_pad(max(g.width, g.height), 1, "step")
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
    # B3/S23: three neighbours give life, two keep it
    new = (counts == 3) | cells & (counts == 2)
    return Grid((g.origin[0] - 1, g.origin[1] - 1), new)


def alive_cells(g):
    """(re, im) rows, as in live_points, of the cells one step changes."""
    nxt = step(g)
    return Grid(nxt.origin, np.pad(g.cells, 1) != nxt.cells).live_points()


def farthest_live_radius(window):
    """max |z| (0.0 for none) over the cells of the Gaussian-prime grid on
    [-window, window]² that change after one Life step: the farthest change,
    not the farthest life, as cells outside the window are dead; so it is
    bounded by the window's corner, √2·(window + 1)."""
    cells = alive_cells(grid_from_gaussian_primes(window))
    if not len(cells):
        return 0.0
    # a Python int's root is correctly rounded, as each cell's root would be
    return int((cells * cells).sum(axis=1).max()) ** 0.5


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
    _check_pad(max(g.width, g.height), steps, "dilate")
    cells = np.pad(g.cells, steps)
    cells = _box_any(_box_any(cells, steps, 0), steps, 1)
    return Grid((g.origin[0] - steps, g.origin[1] - steps), cells)


def _run_components(cells):
    """(starts, ends, stride, count, labels) of the 8-connected components of
    a bool array, found on its row runs of live cells.

    The rows are flattened with one dead column on the right, so no run wraps
    and the row above is one stride back; runs are [starts, ends) in that
    flat index.  A run joins every run of the row above that reaches its
    columns ±1, and the runs' graph goes through rk.component_labels, which
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
    return (starts, ends, stride) + rk.component_labels(len(starts), pairs)


def components(g):
    """(labels array, count) of 8-connected live components, numbered from 1
    in raster order of their first cell; dead cells are 0."""
    starts, ends, _stride, count, run_labels = _run_components(g.cells)
    labels = np.zeros(g.cells.shape, dtype=np.int32)
    labels[g.cells] = np.repeat(run_labels + 1, ends - starts)
    return labels, count


def component_count(g):
    """Number of 8-connected live components, with no label grid."""
    return _run_components(g.cells)[3]


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


def rle_lines(g):
    """Run-length lines: header `origin,width,height`, then per-row runs."""
    yield f"{g.origin[0]},{g.origin[1]},{g.width},{g.height}"
    for row in g.cells:
        # runs alternate dead/live and start dead, so a live first cell
        # opens with a run of 0
        flips = np.flatnonzero(np.diff(row, prepend=False))
        runs = np.diff(np.concatenate([[0], flips, [g.height]]))
        yield " ".join(map(str, runs.tolist()))


def to_rle(g):
    """rle_lines as one text, each line ending in a newline."""
    return "".join(line + "\n" for line in rle_lines(g))


def from_rle(text):
    lines = text.strip().split("\n")
    ore, oim, w, h = (int(v) for v in lines[0].split(","))
    if len(lines) - 1 != w:
        raise ValueError(f"{len(lines) - 1} rows, expected {w}")
    cells = np.zeros((w, h), dtype=bool)
    for i, line in enumerate(lines[1:]):
        runs = [int(v) for v in line.split()]
        if sum(runs) != h:
            raise ValueError(f"row {i} runs sum to {sum(runs)}, expected {h}")
        cells[i] = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
    return Grid((ore, oim), cells)


def pbm_lines(g):
    """Plain PBM (P1) lines, rows from high im to low: the plane upright."""
    yield "P1"
    yield f"{g.width} {g.height}"
    for row in g.cells.T[::-1]:
        yield " ".join(np.where(row, "1", "0").tolist())


def to_pbm(g):
    """pbm_lines as one text, each line ending in a newline."""
    return "".join(line + "\n" for line in pbm_lines(g))
