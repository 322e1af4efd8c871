"""Multiplicity of annulus families.

For a configuration X of circles at resolution delta, each circle (a, r)
thickens to the annulus C = {x : | |x - a| - r | <= delta}.  The
multiplicity field m(x) counts the annuli containing x; its L^{3/2} norm
over the trivial value (delta |X|)^(2/3) is the quantity of Wolff's
Kakeya-type estimate for circles, which holds it to delta^(-eps).

The field is rastered from the per-row chord spans of each annulus on a
grid of spacing delta/4 over [-1.1, 1.1]^2, which fits every admissible
configuration; every multiplicity statistic is read from one histogram of
the integer field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import CircleConfig

DEFAULT_WINDOW = 1.1
GRID_FACTOR = 4  # grid spacing = delta / GRID_FACTOR
HIST_ROWS = 256  # field rows per block of the multiplicity histogram


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


def _raster(spans, n: int) -> np.ndarray:
    """int16 annulus count from the annuli's row spans.

    One scatter adds +1 at each span start and -1 just past each span end;
    ends past the last column only close their row and are dropped.  The
    row prefix sum runs in place.
    """
    idx, counts = [np.zeros(0, dtype=np.int64)], []
    for rows, starts, ends in spans:
        shut = ends + 1 < n
        idx += [rows * n + starts, (rows * n + ends + 1)[shut]]
        counts += [len(starts), int(np.count_nonzero(shut))]
    signed = np.repeat(np.tile(np.array([1, -1], dtype=np.int16), len(spans)), counts)
    diff = np.zeros((n, n), dtype=np.int16)
    np.add.at(diff.reshape(-1), np.concatenate(idx), signed)
    return np.cumsum(diff, axis=1, dtype=np.int16, out=diff)


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
    return _raster(spans, len(grid.nodes_1d)), grid


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
