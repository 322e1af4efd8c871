"""Multiplicity of annulus families.

For a configuration X of circles at resolution delta, each circle (a, r)
thickens to the annulus C = {x : | |x - a| - r | <= delta}.  The
multiplicity field m(x) counts the annuli containing x; its L^{3/2} norm
over the trivial value (delta |X|)^(2/3) is the quantity of Wolff's
Kakeya-type estimate for circles, which holds it to delta^(-eps).

The field lives on a grid of spacing delta/4 over [-1.1, 1.1]^2, which
fits every admissible configuration, and is taken in blocks of HIST_ROWS
rows: each block starts from the per-row chord spans of all the annuli on
its rows, found in one whole-array pass.  One kernel, `_span_events`,
reads every multiplicity quantity from those spans: the +1 and -1 events
at their ends, sorted once, give the count of every run of cells between
them.  The L^{3/2} check weighs each count by its run, so it touches
neither the block's cells nor the whole field; `multiplicity_field`
repeats each count over its run to fill the field.
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
    clipped to the range, and all the circles are handled in one lean
    whole-array pass: the squared outer and inner radii once per circle,
    the row heights read from the grid's nodes, dy^2 once per (circle,
    row) entry and the chord half-widths rooted in place.  Returns (rows,
    starts, ends) index arrays with rows counted from row0, so
    rasterization touches O(annulus area / h^2) cells instead of the whole
    grid.
    """
    c = np.reshape(circles, (-1, 3))
    xs = grid.nodes_1d
    h, x0, n = grid.h, float(xs[0]), len(xs)
    hi, lo = c[:, 2] + delta, np.maximum(c[:, 2] - delta, 0.0)
    r0 = np.maximum(np.ceil((c[:, 1] - hi - x0) / h), row0).astype(np.int64)
    r1 = np.minimum(np.floor((c[:, 1] + hi - x0) / h), row1 - 1).astype(np.int64)
    count = np.maximum(r1 - r0 + 1, 0)
    rows = np.arange(count.sum()) + np.repeat(r0 - row0 + count - np.cumsum(count), count)
    dy2 = xs[row0:][rows] - np.repeat(c[:, 1], count)
    dy2 *= dy2
    wo = np.repeat(hi * hi, count) - dy2
    wi = np.subtract(np.repeat(lo * lo, count), dy2, out=dy2)
    for w in (wo, wi):
        np.sqrt(np.maximum(w, 0.0, out=w), out=w)
    a1 = np.repeat(c[:, 0], count)

    def edge(x, rounding):
        """rounding((x - x0) / h) in place: the grid column of a chord end at x."""
        x -= x0
        x /= h
        return rounding(x, out=x).astype(np.int64)

    left0, left1 = edge(a1 - wo, np.ceil), edge(a1 - wi, np.floor)
    right0, right1 = edge(a1 + wi, np.ceil), edge(a1 + wo, np.floor)
    merge = left1 >= right0  # chords meet: the left one runs on to right1
    end = np.where(merge, right1, left1)
    left, right = left0 <= end, ~merge & (right0 <= right1)
    return (np.concatenate((rows[left], rows[right])),
            np.clip(np.concatenate((left0[left], right0[right])), 0, n - 1),
            np.clip(np.concatenate((end[left], right1[right])), 0, n - 1))


def _span_events(spans, n_rows: int, n: int):
    """(cells, level): the sorted event cells of an n_rows x n block and the count after each.

    Each (rows, starts, ends) span adds +1 at its start cell and -1 just
    past its end, in the block's row-major cell order, so an end at the
    last column lands on the next row's first cell.  The events are packed
    as int32 keys cell 2 + is_start, so at one cell the -1 sorts first and
    no count is passed that no cell holds, and sorted once.  The cumulative
    sum of their signs is the count after each event, held up to the next
    event cell; every row ends at count 0, so no nonzero run crosses a row,
    and the cells before the first event and after the last count 0.
    """
    key_type = np.int32 if 2 * n_rows * n < 2 ** 31 else np.int64
    rows, starts, ends = (a.astype(key_type) for a in spans)
    at = rows * n
    keys = np.concatenate(((at + starts) * 2 + 1, (at + ends + 1) * 2))
    keys.sort()
    return keys >> 1, np.cumsum((keys & 1) * 2 - 1, dtype=key_type)


def _block_events(config: CircleConfig, grid: RasterGrid):
    """Yield (row0, row1, cells, level) of `_span_events` per block of HIST_ROWS grid rows.

    The reach is checked first.  Each block's spans go straight to the
    kernel and are dropped once it returns, so the memory held at once is
    one block's spans and events, whatever the grid.
    """
    c = config.circles
    reach = np.max(np.abs(c[:, :2]).max(axis=1) + c[:, 2] + config.delta, initial=0.0)
    if reach > grid.window:
        raise ValueError(f"annuli reach {reach:.3f} beyond raster window {grid.window}")
    n = len(grid.nodes_1d)
    for row0 in range(0, n, HIST_ROWS):
        row1 = min(row0 + HIST_ROWS, n)
        yield (row0, row1, *_span_events(_annulus_spans(c, config.delta, grid, row0, row1),
                                         row1 - row0, n))


def multiplicity_field(config: CircleConfig,
                       grid: RasterGrid | None = None) -> tuple[np.ndarray, RasterGrid]:
    """Exact annulus-count raster m(x), as int16, each block's counts repeated over their runs."""
    if grid is None:
        grid = default_grid(config.delta)
    n = len(grid.nodes_1d)
    field = np.zeros((n, n), dtype=np.int16)
    for row0, row1, cells, level in _block_events(config, grid):
        if len(cells):
            runs = np.repeat(level[:-1], np.diff(cells))
            field[row0:row1].reshape(-1)[cells[0]:cells[-1]] = runs
    return field, grid


def _level_counts(config: CircleConfig, grid: RasterGrid) -> np.ndarray:
    """Cells per multiplicity level, equal to np.bincount of the field.

    Summed over the row blocks, each count of `_span_events` weighted by
    its run of cells, so neither the field nor a block is ever held.  Count
    0 takes the block's cells not counted above it.
    """
    n = len(grid.nodes_1d)
    hist = np.zeros(1, dtype=np.intp)
    for row0, row1, cells, level in _block_events(config, grid):
        counts = np.bincount(level[:-1], weights=np.diff(cells), minlength=len(hist))
        counts = counts.astype(np.intp)
        counts[0] = (row1 - row0) * n - counts[1:].sum()
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
    trivial = (config.delta * max(config.count, 1)) ** (2.0 / 3.0)
    return {
        "delta": config.delta,
        "count": config.count,
        "l32_norm": l32_cells,
        "l32_dyadic": dyadic ** (2.0 / 3.0),
        "ratio": l32_cells / trivial,
        "ratio_dyadic": dyadic ** (2.0 / 3.0) / trivial,
    }
