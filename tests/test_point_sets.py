"""One contract for every function that returns a point set: an int64 array
whose rows, read flat, are in strictly increasing lexicographic order and
equal a per-point oracle on a small input."""

import itertools
import math

import numpy as np
import pytest

from primelab import caworld as ca
from primelab import goldbach as gb
from primelab import hyperarith as ha
from primelab import planarith as pa
from primelab.planarith import GaussianInt


def _prime(a, b):
    return pa.is_gaussian_prime(GaussianInt(a, b))


def _twins_oracle(r):
    def inside(a, b):
        return a * a + b * b <= r * r and _prime(a, b)

    return [(a, b, a + 1, d) for a in range(-r, r + 1)
            for b in range(-r, r + 1) for d in (b - 1, b + 1)
            if inside(a, b) and inside(a + 1, d)]


def _cells(g):
    """{(re, im): alive} over the window of g."""
    return {(g.origin[0] + i, g.origin[1] + j): bool(g.cells[i, j])
            for i in range(g.width) for j in range(g.height)}


def _changed_oracle(g):
    before = _cells(g)
    return [p for p, v in _cells(ca.step(g)).items()
            if before.get(p, False) != v]


def _moat_oracle(m, window):
    """8-connected flood fill from 1 + i over the points within Chebyshev
    distance m of a Gaussian prime of [-window, window]²."""
    side = range(-window, window + 1)
    live = {(a + x, b + y) for a in side for b in side if _prime(a, b)
            for x in range(-m, m + 1) for y in range(-m, m + 1)}
    seen, stack = {(1, 1)}, [(1, 1)]
    while stack:
        a, b = stack.pop()
        for w in itertools.product((a - 1, a, a + 1), (b - 1, b, b + 1)):
            if w in live and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _norm_points(dim, total):
    """Integer dim-vectors with square sum `total`, one by one."""
    m = math.isqrt(total)
    return [v for v in itertools.product(range(-m, m + 1), repeat=dim)
            if sum(x * x for x in v) == total]


def _zero_cells(region, variant):
    """The comet's zero cells, and the in-scope targets of the region whose
    r2, counted one target at a time, is 0."""
    (alo, ahi), (blo, bhi) = region
    cells = [(a, b) for a in range(alo, ahi + 1) for b in range(blo, bhi + 1)
             if variant.parity_filter == "none" or (a + b) % 2 == 0]
    return (lambda: gb.comet("gaussian", region, variant).zero_cells,
            lambda: [c for c in cells
                     if gb.r2(GaussianInt(*c), variant) == 0])


_GRID = ca.Grid((-3, 5), np.random.default_rng(2).random((9, 7)) < 0.4)
_EMPTY = ca.Grid((4, -2), np.zeros((0, 3), dtype=bool))

# name: (the function's points, the oracle's points)
CASES = {
    "twins": (lambda: pa.twins(20), lambda: _twins_oracle(20)),
    "live_points": (_GRID.live_points,
                    lambda: [p for p, v in _cells(_GRID).items() if v]),
    "live_points of no cells": (_EMPTY.live_points, lambda: []),
    "alive_cells": (lambda: ca.alive_cells(_GRID),
                    lambda: _changed_oracle(_GRID)),
    "moat_component": (lambda: ca.moat_component(1, 12),
                       lambda: _moat_oracle(1, 12)),
    "comet zero_cells": _zero_cells(((2, 30), (2, 30)), gb.OPEN),
    "comet zero_cells unrestricted": _zero_cells(((-40, -35), (-8, 8)),
                                                 gb.UNRESTRICTED),
    "comet zero_cells of none": _zero_cells(
        ((2, 30), (2, 30)), gb.SumVariant(parity_filter="even-only")),
    "lattice_points_norm": (lambda: ha.lattice_points_norm(13),
                            lambda: _norm_points(4, 52)),
    "positively_ordered_reps": (
        lambda: ha.positively_ordered_reps(13),
        lambda: {tuple(sorted(map(abs, v))) for v in _norm_points(4, 52)}),
    "quat_units": (ha.quat_units, lambda: _norm_points(4, 4)),
    "oct_units": (ha.oct_units, lambda: [v for v in _norm_points(8, 4)
                                         if ha.is_octavian(v)]),
    "oct_units gravesian": (lambda: ha.oct_units("gravesian"),
                            lambda: [v for v in _norm_points(8, 4)
                                     if 2 in map(abs, v)]),
}


@pytest.mark.parametrize("name", CASES)
def test_point_set_contract(name):
    points, oracle = CASES[name]
    got = points()
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.ndim >= 2
    rows = [tuple(r) for r in
            got.reshape(len(got), math.prod(got.shape[1:])).tolist()]
    assert all(x < y for x, y in zip(rows, rows[1:]))
    assert rows == sorted(set(oracle()))
