"""Multiplicity of annulus families and the circular maximal function.

For a configuration X of circles at resolution delta, each circle (a, r)
thickens to the annulus C = {x : | |x - a| - r | <= delta}.  The
multiplicity field m(x) counts the annuli containing x; its L^{3/2} norm
over the trivial value (delta |X|)^(2/3) is the quantity the circular
maximal inequality controls up to factors logarithmic in 1/delta.

Every annulus cell set (fields and maximal-function averages) comes
from the per-row chord spans of the annulus on a grid of spacing delta/4
over [-1.1, 1.1]^2, which fits every admissible configuration; every
multiplicity statistic is read from one histogram of the integer field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import ALPHA0, CircleConfig

DEFAULT_WINDOW = 1.1
GRID_FACTOR = 4  # grid spacing = delta / GRID_FACTOR
HIST_ROWS = 256  # field rows per block of the multiplicity histogram
CENTER_BOX = (0.0, 2 * ALPHA0)  # maximal-function center scan range per axis


@dataclass(frozen=True)
class RasterGrid:
    """Uniform grid of node coordinates on [-window, window]^2."""

    h: float
    window: float

    @property
    def nodes_1d(self) -> np.ndarray:
        n = int(math.floor(2 * self.window / self.h)) + 1
        return -self.window + self.h * np.arange(n)

    @property
    def cell_area(self) -> float:
        return self.h * self.h


def default_grid(delta: float) -> RasterGrid:
    return RasterGrid(h=delta / GRID_FACTOR, window=DEFAULT_WINDOW)


def _annulus_spans(circle, delta: float, grid: RasterGrid):
    """Inclusive per-row column spans of the annulus cells.

    Each grid row intersects the annulus in at most two chords; rows where
    the inner disk does not reach merge into one.  Returns (rows, starts,
    ends) index arrays, so rasterization touches O(annulus area / h^2)
    cells instead of the whole grid.
    """
    a1, a2, r = float(circle[0]), float(circle[1]), float(circle[2])
    xs = grid.nodes_1d
    h, x0, n = grid.h, float(xs[0]), len(xs)
    hi, lo = r + delta, max(r - delta, 0.0)
    r0 = max(int(math.ceil((a2 - hi - x0) / h)), 0)
    r1 = min(int(math.floor((a2 + hi - x0) / h)), n - 1)
    empty = np.empty(0, dtype=np.int64)
    if r1 < r0:
        return empty, empty, empty
    rows = np.arange(r0, r1 + 1)
    dy = x0 + h * rows - a2
    wo = np.sqrt(np.maximum(hi * hi - dy * dy, 0.0))
    wi = np.sqrt(np.maximum(lo * lo - dy * dy, 0.0))
    left0 = np.ceil((a1 - wo - x0) / h).astype(np.int64)
    left1 = np.floor((a1 - wi - x0) / h).astype(np.int64)
    right0 = np.ceil((a1 + wi - x0) / h).astype(np.int64)
    right1 = np.floor((a1 + wo - x0) / h).astype(np.int64)
    merge = left1 >= right0  # chords meet: count the union once
    chords = ((merge & (left0 <= right1), left0, right1),
              (~merge & (left0 <= left1), left0, left1),
              (~merge & (right0 <= right1), right0, right1))
    return (np.concatenate([rows[k] for k, _, _ in chords]),
            np.clip(np.concatenate([s[k] for k, s, _ in chords]), 0, n - 1),
            np.clip(np.concatenate([e[k] for k, _, e in chords]), 0, n - 1))


def _span_cells(spans) -> int:
    return int(np.sum(spans[2] - spans[1] + 1))


def _raster(spans, values, n: int, dtype) -> np.ndarray:
    """Sum over annuli of value times indicator, from their row spans, in `dtype`.

    One scatter adds each annulus's start entries and then its end entries,
    annulus by annulus, so float rasters add in the per-annulus order; ends
    past the last column only close their row and are dropped.  The row
    prefix sum runs in place.
    """
    idx, counts = [np.zeros(0, dtype=np.int64)], []
    for rows, starts, ends in spans:
        shut = ends + 1 < n
        idx += [rows * n + starts, (rows * n + ends + 1)[shut]]
        counts += [len(starts), int(np.count_nonzero(shut))]
    signed = np.repeat(np.column_stack([values, np.negative(values)]).ravel(), counts)
    diff = np.zeros((n, n), dtype=dtype)
    np.add.at(diff.reshape(-1), np.concatenate(idx), signed.astype(dtype, copy=False))
    return np.cumsum(diff, axis=1, dtype=dtype, out=diff)


def _row_prefix(f: np.ndarray) -> np.ndarray:
    """Row prefix sums of |f| behind a zero column: a span sums in two lookups."""
    prefix = np.zeros((f.shape[0], f.shape[1] + 1))
    np.cumsum(np.abs(f), axis=1, out=prefix[:, 1:])
    return prefix


def _span_sum(prefix: np.ndarray, spans) -> float:
    rows, starts, ends = spans
    return float(np.sum(prefix[rows, ends + 1] - prefix[rows, starts]))


def multiplicity_field(config: CircleConfig,
                       grid: RasterGrid | None = None) -> tuple[np.ndarray, RasterGrid]:
    """Exact annulus-count raster m(x), as int16."""
    if grid is None:
        grid = default_grid(config.delta)
    c = config.circles
    reach = np.max(np.abs(c[:, :2]).max(axis=1) + c[:, 2] + config.delta, initial=0.0)
    if reach > grid.window:
        raise ValueError(f"annuli reach {reach:.3f} beyond raster window {grid.window}")
    spans = [_annulus_spans(circle, config.delta, grid) for circle in c]
    ones = np.ones(len(spans), dtype=np.int16)
    return _raster(spans, ones, len(grid.nodes_1d), np.int16), grid


def annulus_average(f: np.ndarray, grid: RasterGrid, a, r: float, delta: float) -> float:
    """Mean of |f| over the rasterized annulus of center a, radius r.

    Cell-sum of |f| times h^2 divided by the same-rasterized area, so the
    boundary cells cancel and f == 1 averages to exactly 1.
    """
    if math.hypot(a[0], a[1]) + r + delta > grid.window:
        raise ValueError("annulus reaches beyond the raster window")
    spans = _annulus_spans((a[0], a[1], r), delta, grid)
    cells = _span_cells(spans)
    if cells == 0:
        raise ValueError("annulus thinner than the grid resolution")
    return _span_sum(_row_prefix(f), spans) / cells


def radius_grid(delta: float) -> np.ndarray:
    """Radii 1 - alpha0 + k delta covering the admissible band."""
    n = int(math.floor(2 * ALPHA0 / delta)) + 1
    return 1.0 - ALPHA0 + delta * np.arange(n)


def maximal_function(f: np.ndarray, delta: float, grid: RasterGrid,
                     radii=None) -> dict:
    """Circular maximal function of |f| on the radius grid, as a bracket.

    Per radius, the max of annulus_average over centers on a delta/2 grid;
    `upper` integrates |f| over the doubled annulus but keeps the
    delta-annulus area in the denominator, so it dominates the continuum
    supremum (any delta-annulus lies inside the doubled annulus at the
    nearest grid center, and equal-radius annuli have equal areas).
    """
    if radii is None:
        radii = radius_grid(delta)
    radii = np.asarray(radii, dtype=float)
    step = delta / 2
    c1d = CENTER_BOX[0] + step * np.arange(int(math.floor(
        (CENTER_BOX[1] - CENTER_BOX[0]) / step)) + 1)
    prefix = _row_prefix(f)
    value = np.zeros(len(radii))
    upper = np.zeros(len(radii))
    for a1 in c1d:
        for a2 in c1d:
            for k, r in enumerate(radii):
                thin = _annulus_spans((a1, a2, r), delta, grid)
                cells = _span_cells(thin)
                if cells == 0:
                    continue
                value[k] = max(value[k], _span_sum(prefix, thin) / cells)
                thick = _annulus_spans((a1, a2, r), 2 * delta, grid)
                upper[k] = max(upper[k], _span_sum(prefix, thick) / cells)
    return {"radii": radii, "value": value, "upper": upper}


def radial_lp(values: np.ndarray, delta: float, p: float) -> float:
    """(sum |w(r)|^p delta)^(1/p) on the radius grid (measure delta per node)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(np.sum(np.abs(values) ** p) * delta) ** (1.0 / p)


@dataclass(frozen=True)
class WeightedFamily:
    """One circle per radius-grid node with a nonnegative weight.

    Centers live in the maximal-function scan box; the weighted multiplicity
    g(y) = sum_r w(r) 1_{C(a(r), r)}(y) is the dual-side object the
    maximal inequality controls through |w|_{3/2}.
    """

    delta: float
    centers: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float).reshape(-1, 2)
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if len(c) != len(self.radii) or len(w) != len(c):
            raise ValueError("need one center and one weight per radius node")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        if c.size and (c.min() < CENTER_BOX[0] or c.max() > CENTER_BOX[1]):
            raise ValueError("centers outside the scan box")
        c.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "weights", w)

    @property
    def radii(self) -> np.ndarray:
        return radius_grid(self.delta)


def weighted_field(family: WeightedFamily,
                   grid: RasterGrid | None = None) -> tuple[np.ndarray, RasterGrid]:
    """Raster of g = sum_r w(r) delta 1_{C(a(r),r)} / area(C(a(r),r)).

    Each indicator is divided by its rasterized area, so the integral of
    g |f| is a weighted sum of annulus averages of f.
    """
    if grid is None:
        grid = default_grid(family.delta)
    spans = [_annulus_spans((a1, a2, r), family.delta, grid)
             for (a1, a2), r in zip(family.centers, family.radii)]
    counts = np.array([float(_span_cells(s)) for s in spans])
    if np.any(counts == 0):
        raise ValueError("annulus thinner than the grid resolution")
    values = family.weights * family.delta / (counts * grid.cell_area)
    return _raster(spans, values, len(grid.nodes_1d), np.float64), grid


def wolff_duality_check(f: np.ndarray, family: WeightedFamily,
                        grid: RasterGrid) -> dict:
    """Grid-level chain behind 'the maximal estimate equals its dual'.

    With g the area-normalized weighted field, integral(g |f|) equals
    sum_r w(r) delta annulus_average(f, a(r), r), which is at most
    |w|_{3/2} |M_delta f|_3 by Hoelder once each average is dominated by
    the maximal function at its own radius.  Centers on the scan grid make
    the domination exact; `slack` covers off-grid centers via the doubled
    bracket.
    """
    g, grid = weighted_field(family, grid)
    lhs = float(np.sum(g * np.abs(f)) * grid.cell_area)
    mf = maximal_function(f, family.delta, grid, radii=family.radii)
    w32 = radial_lp(family.weights, family.delta, 1.5)
    rhs = w32 * radial_lp(mf["value"], family.delta, 3.0)
    rhs_upper = w32 * radial_lp(mf["upper"], family.delta, 3.0)
    return {"lhs": lhs, "rhs": rhs, "rhs_upper": rhs_upper, "ok": lhs <= 1.05 * rhs}


def _histogram(m: np.ndarray) -> np.ndarray:
    """np.bincount(m.ravel()) of a nonnegative integer field, HIST_ROWS rows at a time."""
    hist = np.zeros(int(m.max(initial=0)) + 1, dtype=np.int64)
    for r0 in range(0, len(m), HIST_ROWS):
        hist += np.bincount(m[r0:r0 + HIST_ROWS].ravel(), minlength=len(hist))
    return hist


def wolff_example_check(config: CircleConfig) -> dict:
    """Ratio |g_delta|_{3/2} / (delta |X|)^(2/3) for a circle family.

    Radius-separated (one radius per delta-interval) and Frostman families
    keep the ratio O(delta^-eps); reported in the exact cell-sum form and in
    the dyadic level-set form (sum over levels j of j^(3/2) area(g in
    [j, 2j))), which bracket each other within 2^(3/2).
    """
    m, grid = multiplicity_field(config)
    hist = _histogram(m)
    l32_cells = float(np.sum(hist * np.arange(len(hist)) ** 1.5)
                      * grid.cell_area) ** (2.0 / 3.0)
    levels = 2 ** np.arange(max(len(hist) - 1, 1).bit_length())
    dyadic = sum(float(j) ** 1.5 * float(np.sum(hist[j:2 * j])) * grid.cell_area
                 for j in levels)
    trivial = (config.delta * config.count) ** (2.0 / 3.0)
    return {
        "delta": config.delta,
        "count": config.count,
        "l32_norm": l32_cells,
        "l32_dyadic": dyadic ** (2.0 / 3.0),
        "ratio": l32_cells / trivial,
        "ratio_dyadic": dyadic ** (2.0 / 3.0) / trivial,
    }
