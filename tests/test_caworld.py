import numpy as np
import pytest

from primelab import caworld as ca
from primelab import ratkernel as rk
from primelab.ratkernel import CapacityError


def _pts(*pairs):
    return ca.grid_from_points(pairs)


def _set(points):
    """The rows of an (M, 2) point array as a set of (re, im) tuples."""
    return {tuple(p) for p in points.tolist()}


def test_blinker_period_two():
    g = _pts((0, -1), (0, 0), (0, 1))
    g1 = ca.step(g)
    assert _set(g1.live_points()) == {(-1, 0), (0, 0), (1, 0)}
    g2 = ca.step(g1)
    assert _set(g2.live_points()) == _set(g.live_points())


def test_block_fixed():
    g = _pts((0, 0), (0, 1), (1, 0), (1, 1))
    assert _set(ca.step(g).live_points()) == _set(g.live_points())


def test_empty_stays_empty():
    g = ca.grid_from_points([])
    assert _set(ca.step(g).live_points()) == set()


def test_translation_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        cells = rng.random((12, 12)) < 0.35
        g = ca.Grid((0, 0), cells)
        dx, dy = int(rng.integers(-9, 10)), int(rng.integers(-9, 10))
        a = _set(ca.step(g.shifted(dx, dy)).live_points())
        b = {(x + dx, y + dy) for x, y in _set(ca.step(g).live_points())}
        assert a == b


def test_alive_cells():
    blinker = _pts((0, -1), (0, 0), (0, 1))
    assert _set(ca.alive_cells(blinker)) == {(-1, 0), (1, 0), (0, -1), (0, 1)}
    block = _pts((0, 0), (0, 1), (1, 0), (1, 1))
    assert _set(ca.alive_cells(block)) == set()


def test_grid_from_gaussian_primes():
    g = ca.grid_from_gaussian_primes(3)
    pts = _set(g.live_points())
    assert (1, 1) in pts and (2, 1) in pts and (3, 0) in pts
    assert (1, 0) not in pts
    # 90-degree rotation symmetry
    assert {(-b, a) for a, b in pts} == pts


def test_grid_from_points_refused_from_its_box(monkeypatch, traced_peak):
    # two points span a 201×201 box: refused before its cells, 1 B each
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 10_000)
    _, peak = traced_peak(ca.grid_from_points, [(-100, 0), (100, 200)],
                          refused="grid of 201×201 cells")
    assert peak < 10_000


def test_grid_from_points_reads_m_by_2_rows():
    rows = np.array([[2, -1], [0, 3]])
    g = ca.grid_from_points(rows)
    assert g.origin == (0, -1) and g.cells.shape == (3, 5)
    assert _set(g.live_points()) == {(2, -1), (0, 3)}
    assert ca.grid_from_points([]).cells.shape == (0, 0)
    with pytest.raises(ValueError, match="got shape"):
        ca.grid_from_points([(1, 2, 3)])


def test_capacity_error(monkeypatch):
    monkeypatch.setattr(ca, "_WINDOW_CAP", 11)
    g = ca.Grid((0, 0), np.zeros((10, 10), dtype=bool))
    with pytest.raises(CapacityError):
        ca.step(g)


def test_dilation_monotone():
    g = ca.grid_from_gaussian_primes(15)
    prev = _set(g.live_points())
    prev_components = ca.component_count(g)
    for m in range(1, 4):
        d = ca.dilate(g, m)
        cur = _set(d.live_points())
        assert prev <= cur
        cur_components = ca.component_count(d)
        assert cur_components <= prev_components
        prev, prev_components = cur, cur_components


def test_moat_component_flood_fill_oracle():
    window = 50
    g = ca.grid_from_gaussian_primes(window)
    comp = ca.moat_component(0, window)
    # brute-force 8-connected flood fill from (1, 1)
    live = _set(g.live_points())
    seen = {(1, 1)}
    stack = [(1, 1)]
    while stack:
        x, y = stack.pop()
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == dy == 0:
                    continue
                w = (x + dx, y + dy)
                if w in live and w not in seen:
                    seen.add(w)
                    stack.append(w)
    assert _set(comp) == seen


def test_moat_monotone_in_dilation():
    sizes = [len(ca.moat_component(m, 30)) for m in range(3)]
    assert sizes == sorted(sizes)


def test_moat_requires_origin_live():
    with pytest.raises(ValueError):
        ca.moat_component(0, 1)


def test_rle_roundtrip():
    g = ca.grid_from_gaussian_primes(6)
    r = ca.from_rle(ca.to_rle(g))
    assert np.array_equal(r.cells, g.cells)
    assert r.origin == g.origin
    assert ca.to_rle(r) == ca.to_rle(g)


def test_pbm_header():
    g = ca.grid_from_gaussian_primes(2)
    text = ca.to_pbm(g)
    lines = text.splitlines()
    assert lines[0] == "P1"
    assert lines[1] == f"{g.width} {g.height}"


def test_farthest_live_radius_positive():
    assert ca.farthest_live_radius(30) > 10


def test_dilate_capacity_checks_both_sides():
    g = ca.Grid((0, 0), np.zeros((1, 4095), dtype=bool))
    with pytest.raises(CapacityError):
        ca.dilate(g, 1)
    with pytest.raises(CapacityError):
        ca.dilate(ca.Grid((0, 0), np.zeros((4095, 1), dtype=bool)), 1)


def test_from_rle_rejects_wrong_row_count():
    g = ca.grid_from_gaussian_primes(4)
    lines = ca.to_rle(g).splitlines()
    with pytest.raises(ValueError):
        ca.from_rle("\n".join(lines[:-1]) + "\n")  # truncated
    with pytest.raises(ValueError):
        ca.from_rle("\n".join(lines + [lines[-1]]) + "\n")  # one row extra


# Per-cell oracles: the loops the array code replaced.

def _rle_oracle(g):
    lines = [f"{g.origin[0]},{g.origin[1]},{g.width},{g.height}"]
    for row in g.cells:
        runs = []
        count, cur = 0, False
        for v in row:
            if bool(v) == cur:
                count += 1
            else:
                runs.append(str(count))
                count, cur = 1, bool(v)
        runs.append(str(count))
        lines.append(" ".join(runs))
    return "\n".join(lines) + "\n"


def _pbm_oracle(g):
    lines = ["P1", f"{g.width} {g.height}"]
    for j in range(g.height - 1, -1, -1):
        lines.append(" ".join("1" if g.cells[i, j] else "0"
                              for i in range(g.width)))
    return "\n".join(lines) + "\n"


def _alive_oracle(g):
    """The cells that one Life step (B3/S23) changes, each cell's neighbours
    counted one by one; only cells within one of the window can change."""
    def get(re, im):
        i, j = re - g.origin[0], im - g.origin[1]
        return 0 <= i < g.width and 0 <= j < g.height and bool(g.cells[i, j])

    changed = set()
    for re in range(g.origin[0] - 1, g.origin[0] + g.width + 1):
        for im in range(g.origin[1] - 1, g.origin[1] + g.height + 1):
            n = sum(get(re + dx, im + dy) for dx in (-1, 0, 1)
                    for dy in (-1, 0, 1) if dx or dy)
            alive = get(re, im)
            if alive != (n in ({2, 3} if alive else {3})):
                changed.add((re, im))
    return changed


def _oracle_grids():
    rng = np.random.default_rng(7)
    live_first = np.zeros((4, 6), dtype=bool)
    live_first[:, 0] = True
    live_first[1, 2:4] = True
    grids = [ca.Grid((0, 0), np.zeros((0, 0), dtype=bool)),
             ca.Grid((2, -1), np.zeros((0, 5), dtype=bool)),
             ca.Grid((-3, 4), np.zeros((5, 0), dtype=bool)),
             ca.Grid((1, 1), np.ones((4, 3), dtype=bool)),
             ca.Grid((0, 0), np.ones((1, 1), dtype=bool)),
             ca.Grid((-2, 5), live_first),
             ca.grid_from_gaussian_primes(9)]
    for _ in range(8):
        shape = tuple(int(v) for v in rng.integers(1, 15, size=2))
        origin = tuple(int(v) for v in rng.integers(-9, 10, size=2))
        grids.append(ca.Grid(origin, rng.random(shape) < 0.4))
    return grids


def test_rle_and_pbm_match_per_cell_loops():
    for g in _oracle_grids():
        assert ca.to_rle(g) == _rle_oracle(g)
        assert ca.to_pbm(g) == _pbm_oracle(g)
        r = ca.from_rle(ca.to_rle(g))
        assert r.origin == g.origin and np.array_equal(r.cells, g.cells)


def test_alive_cells_matches_per_cell_loop():
    for g in _oracle_grids():
        assert _set(ca.alive_cells(g)) == _alive_oracle(g)


def test_moat_component_is_lexicographic_array():
    comp = ca.moat_component(1, 20)
    assert comp.dtype == np.int64 and comp.shape[1] == 2
    pts = [tuple(p) for p in comp.tolist()]
    assert pts == sorted(set(pts))
    assert (1, 1) in pts


def _ndimage_grids():
    rng = np.random.default_rng(15)
    grids = [np.ones((1, 9), dtype=bool), np.ones((9, 1), dtype=bool),
             rng.random((1, 30)) < 0.5, rng.random((30, 1)) < 0.5,
             np.zeros((7, 5), dtype=bool), np.ones((6, 8), dtype=bool),
             np.indices((9, 9)).sum(axis=0) % 2 == 0]
    for _ in range(120):
        shape = tuple(int(v) for v in rng.integers(1, 30, size=2))
        grids.append(rng.random(shape) < rng.choice([0.1, 0.3, 0.5, 0.7]))
    return grids


def test_step_dilate_components_match_ndimage():
    # scipy is the oracle here only; caworld is numpy
    from scipy import ndimage
    eight = ndimage.generate_binary_structure(2, 2)
    kernel = np.ones((3, 3), dtype=np.int64)
    kernel[1, 1] = 0
    for cells in _ndimage_grids():
        g = ca.Grid((0, 0), cells)
        labels, count = ca.components(g)
        want_labels, want_count = ndimage.label(cells, structure=eight)
        assert count == want_count == ca.component_count(g)
        assert np.array_equal(labels, want_labels)
        padded = np.pad(cells, 1)
        counts = ndimage.convolve(padded.astype(np.int64), kernel,
                                  mode="constant", cval=0)
        # Life: birth {3}, survive {2, 3}
        want = np.where(padded, np.isin(counts, [2, 3]), np.isin(counts, [3]))
        assert np.array_equal(ca.step(g).cells, want)
        for k in (1, 2, 5):
            want = ndimage.binary_dilation(np.pad(cells, k), eight,
                                           iterations=k)
            assert np.array_equal(ca.dilate(g, k).cells, want)


def test_components_budget_refused_before_allocation(monkeypatch,
                                                     traced_peak):
    # the 9900 cells fit a 5·10⁵ B budget at 1 B each, not at the ~80 B per
    # cell that labelling their runs may take
    monkeypatch.setattr(rk, "_BYTE_BUDGET", 5 * 10**5)
    g = ca.Grid((0, 0), np.ones((100, 99), dtype=bool))
    _, peak = traced_peak(ca.components, g,
                          refused="components of a 100×99 grid")
    assert peak < 2**16
