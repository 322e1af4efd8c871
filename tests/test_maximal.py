"""Annulus rasterization, multiplicity fields, and the L^{3/2} multiplicity ratio."""

import math

import numpy as np
import pytest

from conelab.maximal import RasterGrid, default_grid, multiplicity_field, wolff_example_check
from conelab.measures import MAXIMAL_RADII, CircleConfig, generate_config, load_config


def reference_mask(circle, delta, grid):
    """Independent dense distance-test raster of one annulus."""
    xs = grid.nodes_1d
    d = np.abs(np.hypot(xs[None, :] - circle[0], xs[:, None] - circle[1]) - circle[2])
    return d <= delta, np.abs(d - delta)


def multiplicity_at(config, points):
    """Raster-free annulus count at arbitrary points (distance test per circle)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    c = config.circles
    d = np.hypot(pts[:, 0, None] - c[None, :, 0], pts[:, 1, None] - c[None, :, 1])
    return np.sum(np.abs(d - c[None, :, 2]) <= config.delta, axis=1)


def l32_ratio(config, grid):
    """|m|_{3/2} / (delta |X|)^(2/3) from the multiplicity field on `grid`."""
    m, grid = multiplicity_field(config, grid=grid)
    l32 = float(np.sum(m.astype(float) ** 1.5) * grid.cell_area) ** (2.0 / 3.0)
    return l32 / (config.delta * config.count) ** (2.0 / 3.0)


class TestRasterization:
    def test_spans_match_distance_test(self):
        rng = np.random.default_rng(0)
        delta = 2.0 ** -5
        grid = default_grid(delta)
        for _ in range(25):
            circle = (rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                      rng.uniform(0.5, 1.0))
            mask, _ = multiplicity_field(CircleConfig(np.array([circle]), delta=delta), grid)
            ref, margin = reference_mask(circle, delta, grid)
            decisive = margin > 1e-9  # away from exact-boundary roundoff
            assert np.array_equal(mask[decisive] == 1, ref[decisive])

    def test_multiplicity_field_is_sum_of_masks(self):
        config = generate_config("wolff_radii", 2.0 ** -5, 12, seed=1,
                                 radius_band=MAXIMAL_RADII)
        field, grid = multiplicity_field(config)
        total = np.zeros(field.shape, dtype=int)
        decisive = np.ones(field.shape, dtype=bool)
        for circle in config.circles:
            ref, margin = reference_mask(circle, config.delta, grid)
            total += ref
            decisive &= margin > 1e-9
        assert np.array_equal(field[decisive], total[decisive])

    def test_point_and_field_multiplicities_agree(self):
        config = generate_config("wolff_radii", 2.0 ** -5, 10, seed=2,
                                 radius_band=MAXIMAL_RADII)
        field, grid = multiplicity_field(config)
        xs = grid.nodes_1d
        rows = np.arange(40, len(xs), 97)
        pts = np.column_stack([np.repeat(xs[rows], len(rows)),
                               np.tile(xs[rows], len(rows))])
        at = multiplicity_at(config, pts).reshape(len(rows), len(rows))
        # identical up to cells where the distance test sits on the boundary
        sub = field[np.ix_(rows, rows)]
        margin_ok = np.ones(sub.shape, dtype=bool)
        for circle in config.circles:
            d = np.abs(np.hypot(pts[:, 0] - circle[0], pts[:, 1] - circle[1])
                       - circle[2]).reshape(len(rows), len(rows))
            margin_ok &= np.abs(d - config.delta) > 1e-9
        # note transposed index order: field is [row=y][col=x]
        assert np.array_equal(at.T[margin_ok], sub[margin_ok])

    def test_window_guard(self):
        config = CircleConfig(np.array([[0.3, 0.0, 1.0]]), delta=2.0 ** -5)
        with pytest.raises(ValueError):
            multiplicity_field(config)  # reach 1.33 beyond window 1.1

    def test_annulus_area_raster(self):
        delta = 2.0 ** -6
        grid = default_grid(delta)
        config = CircleConfig(np.array([[0.0, 0.0, 1.0]]), delta=delta)
        field, grid = multiplicity_field(config, grid)
        area = field.sum() * grid.cell_area
        assert area == pytest.approx(4 * math.pi * delta, rel=0.05)


class TestWolffExample:
    def test_frozen_wolff_ratios(self):
        c5 = generate_config("wolff_radii", 2.0 ** -5, 16, seed=0,
                             radius_band=MAXIMAL_RADII)
        out = wolff_example_check(c5)
        assert out["l32_norm"] == pytest.approx(3.70115096493, rel=1e-9)
        assert out["l32_dyadic"] == pytest.approx(3.30167157509, rel=1e-9)
        assert out["ratio"] == pytest.approx(5.87521093522, rel=1e-9)
        assert out["ratio_dyadic"] == pytest.approx(5.24107693156, rel=1e-9)

        c6 = generate_config("wolff_radii", 2.0 ** -6, 32, seed=0,
                             radius_band=MAXIMAL_RADII)
        assert wolff_example_check(c6)["ratio"] == pytest.approx(6.00174172095, rel=1e-9)
        c6b = generate_config("wolff_radii", 2.0 ** -6, 32, seed=1,
                              radius_band=MAXIMAL_RADII)
        assert wolff_example_check(c6b)["ratio"] == pytest.approx(6.11809914632, rel=1e-9)

    def test_frozen_frostman_ratio(self):
        config = generate_config("random_frostman", 2.0 ** -5, 16, seed=0,
                                 radius_band=MAXIMAL_RADII)
        out = wolff_example_check(config)
        assert out["ratio"] == pytest.approx(5.78482088188, rel=1e-9)
        assert out["ratio_dyadic"] == pytest.approx(5.10324501215, rel=1e-9)

    def test_dyadic_brackets_cell_sum(self):
        for seed in range(3):
            config = generate_config("wolff_radii", 2.0 ** -6, 32, seed=seed,
                                     radius_band=MAXIMAL_RADII)
            out = wolff_example_check(config)
            assert out["l32_dyadic"] <= out["l32_norm"] * (1 + 1e-12)
            assert out["l32_norm"] <= 2.0 * out["l32_dyadic"] * (1 + 1e-12)

    def test_single_circle_ratio(self):
        config = CircleConfig(np.array([[0.0, 0.0, 1.0]]), delta=2.0 ** -6)
        out = wolff_example_check(config)
        assert out["ratio"] == pytest.approx((4 * math.pi) ** (2.0 / 3.0), rel=0.15)

    def test_empty_family(self, tmp_path):
        # no circle: every ratio is 0, as main_geom_check's are, from the
        # constructor and from a file that holds only its header
        path = tmp_path / "empty.txt"
        path.write_text("delta=0.03125\n")
        for config in (CircleConfig(np.empty((0, 3)), delta=2.0 ** -5), load_config(path)):
            out = wolff_example_check(config)
            assert out["count"] == 0
            assert out["l32_norm"] == out["ratio"] == out["ratio_dyadic"] == 0.0

    def test_concentric_disjoint_annuli(self):
        # one radius per 2*delta: annuli pairwise disjoint, multiplicity <= 1
        delta = 2.0 ** -6
        radii = 0.5 + 4 * delta * np.arange(8)
        circles = np.column_stack([np.zeros(8), np.zeros(8), radii])
        config = CircleConfig(circles, delta=delta)
        assert multiplicity_field(config)[0].max() == 1


class TestStats:
    def test_frozen_stats_value(self):
        config = generate_config("wolff_radii", 2.0 ** -8, 128, seed=0,
                                 radius_band=MAXIMAL_RADII)
        assert wolff_example_check(config)["ratio"] == pytest.approx(6.1721, abs=2e-3)

    def test_invariants(self):
        config = generate_config("wolff_radii", 2.0 ** -6, 32, seed=2,
                                 radius_band=MAXIMAL_RADII)
        field, grid = multiplicity_field(config)
        # the raster is additive over circles, overlaps included
        total = sum(multiplicity_field(CircleConfig(np.array([c]), delta=config.delta),
                                       grid)[0].astype(int) for c in config.circles)
        assert np.array_equal(field, total)
        assert field.min() == 0 and field.max() >= 1

    def test_grid_refinement_stability(self):
        config = generate_config("wolff_radii", 2.0 ** -5, 16, seed=0,
                                 radius_band=MAXIMAL_RADII)
        coarse = l32_ratio(config, default_grid(config.delta))
        fine = l32_ratio(config, RasterGrid(h=config.delta / 8, window=1.1))
        assert fine == pytest.approx(coarse, rel=0.05)

