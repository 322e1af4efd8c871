"""Multiplicity of annulus families.

For a configuration X of circles at resolution delta, each circle (a, r)
thickens to the annulus C = {x : | |x - a| - r | <= delta}.  The
multiplicity field m(x) counts the annuli containing x; its L^{3/2} norm
over the trivial value (delta |X|)^(2/3) is the quantity of Wolff's
Kakeya-type estimate for circles, which holds it to delta^(-eps).

The field lives on a grid of spacing delta/4 over [-1.1, 1.1]^2, which
fits every admissible configuration, and is taken in blocks of HIST_ROWS
rows: each block starts from the per-row chord spans of all the annuli on
its rows, found in one whole-array pass.  Every multiplicity statistic is
read from the histogram of the integer field, and each block's histogram
comes straight from its spans: the +1 and -1 events at their ends, sorted
once, give the count of every run of cells between them.  So the L^{3/2}
check sorts two events per span and touches neither the block's cells nor
the whole field; only `multiplicity_field` rasters the cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import CircleConfig

DEFAULT_WINDOW = 1.1
GRID_FACTOR = 4  # grid spacing = delta / GRID_FACTOR
HIST_ROWS = 256  # grid rows per block of spans


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


def _annulus_spans(circles, delta: float, grid: RasterGrid, row0: int, row1: int):
    """Inclusive column spans of the cells of every annulus on grid rows [row0, row1).

    Each grid row intersects an annulus in at most two chords; rows where
    the inner disk does not reach merge into one.  Every circle's rows are
    clipped to the range, and all the circles are handled in one
    whole-array pass.  Returns (rows, starts, ends) index arrays with rows
    counted from row0, so rasterization touches O(annulus area / h^2)
    cells instead of the whole grid.
    """
    c = np.reshape(circles, (-1, 3))
    xs = grid.nodes_1d
    h, x0, n = grid.h, float(xs[0]), len(xs)
    hi, lo = c[:, 2] + delta, np.maximum(c[:, 2] - delta, 0.0)
    r0 = np.maximum(np.ceil((c[:, 1] - hi - x0) / h), row0).astype(np.int64)
    r1 = np.minimum(np.floor((c[:, 1] + hi - x0) / h), row1 - 1).astype(np.int64)
    count = np.maximum(r1 - r0 + 1, 0)
    ic = np.repeat(np.arange(len(c)), count)  # the circle of each (circle, row) entry
    rows = np.arange(len(ic)) + (r0 + count - np.cumsum(count))[ic]
    a1, hi, lo = c[ic, 0], hi[ic], lo[ic]
    dy = x0 + h * rows - c[ic, 1]
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
    return (np.concatenate([rows[k] for k, _, _ in chords]) - row0,
            np.clip(np.concatenate([s[k] for k, s, _ in chords]), 0, n - 1),
            np.clip(np.concatenate([e[k] for k, _, e in chords]), 0, n - 1))


def _raster(spans, n_rows: int, n: int) -> np.ndarray:
    """int32 annulus count of an n_rows x n block from the (rows, starts, ends) spans.

    One scatter adds +1 at each span start and -1 just past each span end;
    ends past the last column only close their row and are dropped.  The
    row prefix sum runs in place, in int32, where numpy's cumsum has a fast
    loop: int16 took about 7x as long on a 256-row block (2-core x86 box).
    """
    rows, starts, ends = spans
    shut = ends + 1 < n
    idx = np.concatenate((rows * n + starts, (rows * n + ends + 1)[shut]))
    signed = np.repeat(np.array([1, -1], dtype=np.int32),
                       (len(starts), int(np.count_nonzero(shut))))
    diff = np.zeros((n_rows, n), dtype=np.int32)
    np.add.at(diff.reshape(-1), idx, signed)
    return np.cumsum(diff, axis=1, dtype=np.int32, out=diff)


def _row_blocks(config: CircleConfig, grid: RasterGrid):
    """Yield (row0, row1) for the blocks of HIST_ROWS grid rows, after checking the reach.

    Callers hand each block's spans straight to the block's kernel, so the
    memory held at once is one block's spans and what is built from them,
    whatever the grid.
    """
    c = config.circles
    reach = np.max(np.abs(c[:, :2]).max(axis=1) + c[:, 2] + config.delta, initial=0.0)
    if reach > grid.window:
        raise ValueError(f"annuli reach {reach:.3f} beyond raster window {grid.window}")
    n = len(grid.nodes_1d)
    for row0 in range(0, n, HIST_ROWS):
        yield row0, min(row0 + HIST_ROWS, n)


def multiplicity_field(config: CircleConfig,
                       grid: RasterGrid | None = None) -> tuple[np.ndarray, RasterGrid]:
    """Exact annulus-count raster m(x), as int16."""
    if grid is None:
        grid = default_grid(config.delta)
    n = len(grid.nodes_1d)
    field = np.empty((n, n), dtype=np.int16)
    for row0, row1 in _row_blocks(config, grid):
        field[row0:row1] = _raster(_annulus_spans(config.circles, config.delta, grid, row0, row1),
                                   row1 - row0, n)
    return field, grid


def _span_levels(spans, n_rows: int, n: int, minlength: int) -> np.ndarray:
    """Cells per annulus count of an n_rows x n block, from its (rows, starts, ends) spans.

    Each span adds +1 at its start cell and -1 just past its end, in the
    block's row-major cell order, so an end at the last column lands on
    the next row's first cell.  The events are packed as int32 keys
    cell 2 + is_start, so at one cell the -1 sorts first and no count is
    passed that no cell holds, and sorted once.  The cumulative sum of
    their signs is the count after each event, and the gap to the next key
    is that count's run of cells; every row ends at count 0, so no nonzero
    run crosses a row.  Count 0 takes the block's cells not counted above
    it; the counts run to at least `minlength` >= 1 entries, like bincount's.
    """
    key_type = np.int32 if 2 * n_rows * n < 2 ** 31 else np.int64
    rows, starts, ends = (a.astype(key_type) for a in spans)
    at = rows * n
    keys = np.concatenate(((at + starts) * 2 + 1, (at + ends + 1) * 2))
    keys.sort()
    level = np.cumsum((keys & 1) * 2 - 1, dtype=key_type)
    counts = np.bincount(level[:-1], weights=np.diff(keys >> 1), minlength=minlength)
    counts = counts.astype(np.intp)
    counts[0] = n_rows * n - counts[1:].sum()
    return counts


def _level_counts(config: CircleConfig, grid: RasterGrid) -> np.ndarray:
    """Cells per multiplicity level, equal to np.bincount of the field.

    Summed over the row blocks of `_span_levels`, each read from the
    block's span events, so neither the field nor a block is ever held.
    """
    n = len(grid.nodes_1d)
    hist = np.zeros(1, dtype=np.intp)
    for row0, row1 in _row_blocks(config, grid):
        counts = _span_levels(_annulus_spans(config.circles, config.delta, grid, row0, row1),
                              row1 - row0, n, len(hist))
        counts[:len(hist)] += hist
        hist = counts
    return hist


def wolff_example_check(config: CircleConfig) -> dict:
    """Ratio |g_delta|_{3/2} / (delta |X|)^(2/3) for a circle family.

    Radius-separated (one radius per delta-interval) and Frostman families
    keep the ratio O(delta^-eps); reported in the exact cell-sum form and in
    the dyadic level-set form (sum over levels j of j^(3/2) area(g in
    [j, 2j))), which bracket each other within 2^(3/2).
    """
    grid = default_grid(config.delta)
    hist = _level_counts(config, grid)
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
