"""Cube measures, circle configurations, generators, and plank statistics."""

import math

import numpy as np
import pytest

from conelab import measures
from conelab.measures import (
    ALPHA0,
    MAXIMAL_RADII,
    CircleConfig,
    CubeMeasure,
    _lightplank_scan,
    gamma_tau,
    generate,
    generate_config,
    load_config,
    load_measure,
    max_plank_mass,
    rescale_to_Q,
    save_config,
    save_measure,
)
from oracle_suites import frostman_constant


class TestCubeMeasure:
    def test_dedupe_and_mass(self):
        nu = CubeMeasure(8, [[0, 0, 8], [0, 0, 8], [1, 2, 9]])
        assert nu.mass == 2
        assert np.all(nu.centers == nu.cubes + 0.5)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            CubeMeasure(8, [[0, 0, 7]])   # below the height block
        with pytest.raises(ValueError):
            CubeMeasure(8, [[8, 0, 8]])   # planar corner out of range
        with pytest.raises(ValueError):
            CubeMeasure(8, [[0, 0, 16]])  # height corner out of range

    def test_empty_measure(self):
        nu = CubeMeasure(8, np.empty((0, 3), dtype=np.int64))
        assert nu.mass == 0
        assert frostman_constant(nu) == 0.0


class TestGenerators:
    def test_kinds_and_masses(self):
        R = 16
        assert generate("light_tube", R, 0).mass == 4       # gamma = sqrt(R)
        assert generate("vertical_tube", R, 0).mass == R
        assert generate("knapp_pair", R, 0).mass == R       # gamma + (R - gamma)
        assert generate("wolff_radii", R, 0).mass == R
        assert generate("random_frostman", R, 0).mass == R

    def test_light_tube_is_lightlike_line(self):
        nu = generate("light_tube", 64, seed=1)
        c = nu.cubes[np.argsort(nu.cubes[:, 2])]
        heights = c[:, 2]
        assert np.all(np.diff(heights) == 1)  # consecutive heights
        planar_step = np.diff(c[:, :2].astype(float), axis=0)
        assert np.all(np.hypot(planar_step[:, 0], planar_step[:, 1]) <= math.sqrt(2))

    def test_vertical_tube_constant_planar(self):
        nu = generate("vertical_tube", 32, seed=2)
        assert len(np.unique(nu.cubes[:, :2], axis=0)) == 1
        assert len(np.unique(nu.cubes[:, 2])) == nu.mass

    def test_wolff_radii_distinct_heights(self):
        nu = generate("wolff_radii", 32, seed=3, n=20)
        assert nu.mass == 20
        assert len(np.unique(nu.cubes[:, 2])) == 20

    def test_frostman_constant_at_most_eight(self):
        for kind in ("light_tube", "vertical_tube", "knapp_pair",
                     "wolff_radii", "random_frostman"):
            for seed in range(3):
                nu = generate(kind, 32, seed=seed)
                assert frostman_constant(nu) <= 8.0 + 1e-9, (kind, seed)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate("no_such_kind", 16)
        with pytest.raises(ValueError):
            generate("light_tube", 4)
        with pytest.raises(ValueError):
            generate("light_tube", 16, gamma=17)
        with pytest.raises(ValueError):
            generate("vertical_tube", 16, length=0)
        with pytest.raises(ValueError, match="gamma"):
            generate("knapp_pair", 16, 0, gamma=17)
        # a parameter the kind does not read
        with pytest.raises(ValueError, match="vertical_tube reads length, not n$"):
            generate("vertical_tube", 16, 0, n=5)
        with pytest.raises(ValueError, match="random_frostman reads n, not gamma, length$"):
            generate("random_frostman", 16, 0, length=3, gamma=3)

    def test_seed_determinism(self):
        a = generate("random_frostman", 32, seed=5)
        b = generate("random_frostman", 32, seed=5)
        assert np.array_equal(a.cubes, b.cubes)
        c = generate("random_frostman", 32, seed=6)
        assert not np.array_equal(a.cubes, c.cubes)


class TestPlankMass:
    def test_bracket_order(self):
        for kind in ("light_tube", "vertical_tube", "knapp_pair", "random_frostman"):
            nu = generate(kind, 16, seed=0)
            lower, upper = max_plank_mass(nu)
            assert 1 <= lower <= upper <= nu.mass

    def test_frozen_brackets_R16(self):
        assert max_plank_mass(generate("light_tube", 16, 0)) == (4, 4)
        assert max_plank_mass(generate("vertical_tube", 16, 0)) == (2, 3)
        assert max_plank_mass(generate("knapp_pair", 16, 0)) == (6, 7)
        assert max_plank_mass(generate("random_frostman", 16, 0)) == (3, 4)

    def test_light_tube_fills_one_plank(self):
        # A lightlike gamma-tube fits in a single 1 x sqrt(R) x R plank.
        for seed in range(4):
            nu = generate("light_tube", 64, seed=seed)
            lower, _ = max_plank_mass(nu)
            assert lower == nu.mass

    def test_weighted_matches_counts(self):
        nu = generate("knapp_pair", 16, seed=1)
        lower, upper = max_plank_mass(nu)
        wl, wu = _lightplank_scan(nu, (1, 2), np.ones((1, nu.mass)))[:, 0]
        assert (wl, wu) == pytest.approx((lower, upper))
        hl, hu = _lightplank_scan(nu, (1, 2), np.full((1, nu.mass), 0.5))[:, 0]
        assert (hl, hu) == pytest.approx((0.5 * lower, 0.5 * upper))


class TestGammaTau:
    def test_clustered_circles_counted_together(self):
        delta, tau = 1e-3, 0.05
        base = np.array([0.01, 0.01, 1.0])
        jitter = np.random.default_rng(0).uniform(-0.1 * delta, 0.1 * delta, (6, 3))
        config = CircleConfig(base + jitter, delta=delta)
        assert gamma_tau(config, tau) >= 6

    def test_spread_radii_low_multiplicity(self):
        config = generate_config("wolff_radii", 2.0 ** -6, 32, seed=0,
                                 radius_band=MAXIMAL_RADII)
        tau = math.sqrt(config.delta)
        assert 1 <= gamma_tau(config, tau) < config.count


class TestRescaleToQ:
    def test_exact_map(self):
        nu = CubeMeasure(16, [[0, 0, 16], [15, 15, 31]])
        config = rescale_to_Q(nu)
        assert config.delta == pytest.approx(2 * ALPHA0 / 16, rel=1e-15)
        assert config.nominal_R == 16
        t = nu.centers / nu.R
        expected = np.column_stack([
            2 * ALPHA0 * t[:, 0], 2 * ALPHA0 * t[:, 1],
            1 - ALPHA0 + 2 * ALPHA0 * (t[:, 2] - 1)])
        order = np.lexsort((expected[:, 2], expected[:, 1], expected[:, 0]))
        assert np.allclose(config.circles, expected[order], atol=1e-15)

    def test_q_box_membership(self):
        for kind in ("light_tube", "vertical_tube", "knapp_pair", "random_frostman"):
            config = rescale_to_Q(generate(kind, 32, seed=0))
            c = config.circles
            assert np.all((c[:, :2] >= 0) & (c[:, :2] <= 2 * ALPHA0))
            assert np.all((c[:, 2] >= 1 - ALPHA0) & (c[:, 2] <= 1 + ALPHA0))

    def test_tangency_distances_scale_exactly(self):
        nu = generate("random_frostman", 16, seed=2)
        config = rescale_to_Q(nu)
        s = config.delta
        cc = nu.centers
        # tangency distance d = planar distance + radius difference
        i, j = 0, nu.mass - 1
        d_cube = math.hypot(*(cc[i, :2] - cc[j, :2])) + abs(cc[i, 2] - cc[j, 2])
        k = np.lexsort((config.circles[:, 2], config.circles[:, 1], config.circles[:, 0]))
        circ = config.circles
        d_conf_all = sorted(
            math.hypot(*(circ[a, :2] - circ[b, :2])) + abs(circ[a, 2] - circ[b, 2])
            for a in range(len(circ)) for b in range(a + 1, len(circ)))
        d_cube_all = sorted(
            math.hypot(*(cc[a, :2] - cc[b, :2])) + abs(cc[a, 2] - cc[b, 2])
            for a in range(len(cc)) for b in range(a + 1, len(cc)))
        assert np.allclose(d_conf_all, np.array(d_cube_all) * s, rtol=1e-12)


class TestGenerateConfig:
    def test_wolff_one_radius_per_bin(self):
        delta = 2.0 ** -6
        config = generate_config("wolff_radii", delta, 32, seed=0,
                                 radius_band=MAXIMAL_RADII)
        assert config.count == 32
        lo = MAXIMAL_RADII[0]
        bins = np.floor((config.circles[:, 2] - lo) / delta).astype(int)
        assert len(np.unique(bins)) == config.count

    def test_wolff_capacity_cap(self):
        # the band holds 16 delta-intervals: 16 circles fit, 17 are refused
        delta = 2.0 ** -5
        config = generate_config("wolff_radii", delta, 16, seed=0,
                                 radius_band=MAXIMAL_RADII)
        assert config.count == int(0.5 / delta) == 16
        with pytest.raises(ValueError, match="n=17 exceeds the 16 delta-intervals"):
            generate_config("wolff_radii", delta, 17, seed=0, radius_band=MAXIMAL_RADII)

    def test_wolff_band_narrower_than_delta(self):
        with pytest.raises(ValueError):
            generate_config("wolff_radii", 0.5, 4, radius_band=(0.9, 1.0))

    def test_frostman_config(self):
        config = generate_config("random_frostman", 2.0 ** -6, 24, seed=1,
                                 radius_band=MAXIMAL_RADII)
        assert config.count == 24
        assert frostman_constant(config) <= 8.0 + 1e-9

    def test_frostman_capacity_refused_before_drawing(self, monkeypatch):
        # at delta = 1/8 the box lies in one sampler ball of radius 1/2: at most
        # 4 (1/2) / delta = 16 circles, and refusing 300 takes no draw
        def no_draws(*args):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(measures, "_frostman_sample", no_draws)
        with pytest.raises(ValueError, match="n=300 exceeds 16 = 4 r/delta"):
            generate_config("random_frostman", 0.125, 300, radius_band=MAXIMAL_RADII)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_config("light_tube", 2.0 ** -6, 8)

    def test_config_refuses_non_finite_circles_and_delta(self):
        ok = np.array([[0.0, 0.0, 0.7]])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="circles must be finite"):
                CircleConfig(np.array([[0.0, 0.0, 0.7], [bad, 0.0, 0.7]]), delta=2.0 ** -5)
            with pytest.raises(ValueError, match="circles must be finite"):
                CircleConfig(np.array([[0.0, 0.0, bad]]), delta=2.0 ** -5)
        for delta in (0.0, -2.0 ** -5, math.nan, math.inf):
            with pytest.raises(ValueError, match="delta must be finite and positive"):
                CircleConfig(ok, delta=delta)
        assert CircleConfig(ok, delta=2.0 ** -5).count == 1


class TestPersistence:
    def test_measure_round_trip(self, tmp_path):
        nu = generate("knapp_pair", 32, seed=4)
        path = tmp_path / "m.cubes"
        save_measure(path, nu)
        back = load_measure(path)
        assert back.R == nu.R
        assert np.array_equal(back.cubes, nu.cubes)

    def test_config_round_trip_exact_floats(self, tmp_path):
        config = generate_config("random_frostman", 2.0 ** -6, 16, seed=3,
                                 radius_band=MAXIMAL_RADII)
        path = tmp_path / "c.circles"
        save_config(path, config)
        back = load_config(path)
        assert back.delta == config.delta
        assert np.array_equal(back.circles, config.circles)  # %.17g is exact

    def test_config_round_trip_with_nominal_R(self, tmp_path):
        config = rescale_to_Q(generate("light_tube", 16, seed=0))
        path = tmp_path / "q.circles"
        save_config(path, config)
        back = load_config(path)
        assert back.nominal_R == 16
        assert back.delta == config.delta
        assert np.allclose(back.circles, config.circles, rtol=0, atol=0)

    def test_config_with_nan_refused(self, tmp_path):
        path = tmp_path / "nan.circles"
        path.write_text("delta=0.03125\n0 0 0.7\nnan 0 0.7\n")
        with pytest.raises(ValueError, match="finite"):
            load_config(path)

    def test_missing_headers(self, tmp_path):
        bad = tmp_path / "bad.cubes"
        bad.write_text("0 0 8\n")
        with pytest.raises(ValueError):
            load_measure(bad)
        with pytest.raises(ValueError):
            load_config(bad)
