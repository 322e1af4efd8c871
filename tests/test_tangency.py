"""Tangent pairs and incidence counting."""

import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from conelab import rectangles, tangency
from conelab.experiments import CONFIG_KINDS, DECAY_KINDS, _swept_config, _swept_measure
from conelab.geometry import COORD_TOL
from conelab.measures import MAXIMAL_RADII, CircleConfig, generate_config, rescale_to_Q
from conelab.tangency import classify_pairs, main_geom_check, nu_multiplicity, pair_count
from oracle_suites import dist_d, gap_delta, sample_points


def brute_force_pairs(circles):
    """O(n^2) reference for separations and defects."""
    n = len(circles)
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            planar = math.hypot(circles[a][0] - circles[b][0],
                                circles[a][1] - circles[b][1])
            radial = abs(circles[a][2] - circles[b][2])
            out.append((a, b, planar + radial, abs(planar - radial)))
    return out


def assert_matches_pdist(config):
    """d and Delta equal scipy's pdist of the planar and radial parts, added and subtracted."""
    planar = pdist(config.circles[:, :2])
    radial = pdist(config.circles[:, 2:3])
    table = classify_pairs(config)
    assert np.array_equal(table.d, planar + radial)
    assert np.array_equal(table.delta_defect, np.abs(planar - radial))


class TestClassifyPairs:
    @pytest.mark.parametrize("kind", CONFIG_KINDS)
    def test_matches_pdist_on_swept_configs(self, kind):
        for seed in range(5):
            for delta in (2.0 ** -k for k in range(5, 10)):
                assert_matches_pdist(_swept_config(kind, delta, seed, None))

    @pytest.mark.parametrize("kind", DECAY_KINDS)
    def test_matches_pdist_on_rescaled_measures(self, kind):
        for seed in range(5):
            for R in (16, 32, 64, 128):
                assert_matches_pdist(rescale_to_Q(_swept_measure(kind, R, seed, None)[0]))

    def test_matches_brute_force(self):
        config = generate_config("random_frostman", 2.0 ** -5, 12, seed=0,
                                 radius_band=MAXIMAL_RADII)
        table = classify_pairs(config)
        ref = brute_force_pairs(config.circles)
        assert len(table.d) == len(ref)
        got = {(int(i), int(j)): (d, dd)
               for i, j, d, dd in zip(table.i, table.j, table.d, table.delta_defect)}
        for a, b, d, dd in ref:
            gd, gdd = got[(a, b)]
            assert gd == pytest.approx(d, rel=1e-12)
            assert gdd == pytest.approx(dd, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("kind", CONFIG_KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_closed_forms(self, kind, seed):
        # classify_pairs against the closed forms of d and Delta pair by pair
        config = generate_config(kind, 2.0 ** -6, 32, seed=seed, radius_band=MAXIMAL_RADII)
        table = classify_pairs(config)
        v, w = config.circles[table.i], config.circles[table.j]
        assert len(table.d) == config.count * (config.count - 1) // 2
        assert np.max(np.abs(table.d - dist_d(v, w))) <= 1e-12
        assert np.max(np.abs(table.delta_defect - gap_delta(v, w))) <= 1e-12

    def test_single_circle_empty_table(self):
        config = CircleConfig(np.array([[0.0, 0.0, 1.0]]), delta=1e-2)
        table = classify_pairs(config)
        assert len(table.d) == 0
        assert table.dyadic_D() == []

    def test_coincident_circles_have_no_dyadic_D(self):
        # every pair at distance 0, as a duplicated circle gives
        config = CircleConfig(np.array([[0.0, 0.0, 0.7], [0.0, 0.0, 0.7]]), delta=2.0 ** -5)
        table = classify_pairs(config)
        assert table.d.tolist() == [0.0]
        assert table.dyadic_D() == []

    def test_tangent_mask_and_band(self):
        delta = 1e-3
        # internal tangency at distance D = 0.1: w = v + (0.1, 0, 0.05)... use
        # planar offset b and radius offset so that |b - dr| = 0.
        circles = np.array([[0.0, 0.0, 1.0],
                            [0.075, 0.0, 1.075],   # external tangency, d = 0.15
                            [0.0, 0.10, 0.90],     # internal tangency, d = 0.2
                            [0.012, 0.0, 1.002]])  # defect 0.01 >> 2 delta
        config = CircleConfig(circles, delta=delta)
        table = classify_pairs(config)
        tangent = table.tangent_mask()
        # identify pairs by their (i, j) against the lexsorted order
        pairs = {(int(i), int(j)): bool(t) for i, j, t in zip(table.i, table.j, tangent)}
        c = config.circles
        idx_base = int(np.where((c == [0.0, 0.0, 1.0]).all(axis=1))[0][0])
        idx_ext = int(np.where((c == [0.075, 0.0, 1.075]).all(axis=1))[0][0])
        idx_int = int(np.where((c == [0.0, 0.10, 0.90]).all(axis=1))[0][0])
        idx_def = int(np.where((c == [0.012, 0.0, 1.002]).all(axis=1))[0][0])
        assert pairs[tuple(sorted((idx_base, idx_ext)))]
        assert pairs[tuple(sorted((idx_base, idx_int)))]
        assert not pairs[tuple(sorted((idx_base, idx_def)))]

    def test_dyadic_D_covers_range(self):
        config = generate_config("wolff_radii", 2.0 ** -6, 24, seed=1,
                                 radius_band=MAXIMAL_RADII)
        table = classify_pairs(config)
        levels = table.dyadic_D()
        assert levels[0] >= config.delta
        assert levels[-1] <= table.d.max()
        assert levels[-1] * 2 > table.d.max()
        ratios = np.diff(np.log2(levels))
        assert np.allclose(ratios, 1.0)


class TestPairCount:
    def test_frozen_wolff_values(self):
        config = generate_config("wolff_radii", 2.0 ** -6, 32, seed=0,
                                 radius_band=MAXIMAL_RADII)
        table = classify_pairs(config)
        out = pair_count(config, table, 0.125)
        assert out["count"] == 39
        assert out["gamma"] == 10
        assert out["tau_D"] == pytest.approx(math.sqrt(config.delta / 0.125), rel=1e-12)
        assert out["ratio"] == pytest.approx(0.136260392379, rel=1e-9)
        out2 = pair_count(config, table, 0.25)
        assert out2["count"] == 2
        assert out2["ratio"] == pytest.approx(0.00494105884401, rel=1e-9)

    def test_exact_enumeration_matches_brute_force(self):
        config = generate_config("random_frostman", 2.0 ** -6, 20, seed=2,
                                 radius_band=MAXIMAL_RADII)
        D = 0.125
        out = pair_count(config, classify_pairs(config), D)
        ref = sum(1 for _, _, d, dd in brute_force_pairs(config.circles)
                  if D <= d < 2 * D and dd <= 2 * config.delta)
        assert out["count"] == ref

    def test_D_below_cutoff(self):
        config = generate_config("wolff_radii", 2.0 ** -6, 8, seed=0,
                                 radius_band=MAXIMAL_RADII)
        with pytest.raises(ValueError):
            pair_count(config, classify_pairs(config), 4 * config.delta)


class TestNuMultiplicity:
    def test_counts_containing_annuli(self):
        # Containment of the full-thickness rectangle is strict: only
        # circles agreeing with the core within the containment tolerance
        # hold the whole band, so duplicates count and tangent circles with
        # a radius offset of delta/2 do not.
        delta = 1e-3
        circles = np.array([[0.0, 0.0, 1.0],
                            [0.0, 0.0, 1.0],
                            [0.0, 0.0, 1.0 + 1e-9],
                            [0.0, 0.0, 1.0 + 0.5 * delta],
                            [0.05, 0.0, 0.7]])
        config = CircleConfig(circles, delta=delta)
        counts = nu_multiplicity(config, [[0.0, 0.0, 1.0]], [[1.0, 0.0]], math.sqrt(delta))
        assert counts.tolist() == [3]

    def test_empty_config(self):
        config = CircleConfig(np.empty((0, 3)), delta=1e-3)
        assert nu_multiplicity(config, [[0.0, 0.0, 1.0]], [[1.0, 0.0]], 0.05).tolist() == [0]

    @pytest.mark.parametrize("kind", ["wolff_radii", "random_frostman"])
    @pytest.mark.parametrize("k", [5, 7])
    def test_matches_unpruned_count(self, kind, k):
        # brute force: every circle against every sample point, with no
        # arc-point prune, on the candidate grid main_geom_check uses
        delta = 2.0 ** -k
        tau = math.sqrt(delta)
        config = generate_config(kind, delta, int(round(0.5 / delta)), seed=0,
                                 radius_band=MAXIMAL_RADII)
        n_arc = max(4, math.ceil(2 * math.pi / tau))
        angles = np.arange(n_arc) * (2 * math.pi / n_arc)
        dirs = np.tile(np.column_stack([np.cos(angles), np.sin(angles)]), (config.count, 1))
        cores = np.repeat(config.circles, n_arc, axis=0)
        pts = sample_points(cores, dirs, delta, tau)
        brute = np.zeros(len(cores), dtype=int)
        for x, y, r in config.circles:
            band = np.abs(np.hypot(pts[..., 0] - x, pts[..., 1] - y) - r)
            brute += np.all(band <= delta + 1e-7 * delta + COORD_TOL, axis=1)
        counts = nu_multiplicity(config, cores, dirs, tau)
        assert np.array_equal(counts, brute)
        assert counts.min() >= 1  # each candidate lies on its own circle


class TestMainGeomCheck:
    def test_report_structure_and_bounds(self):
        config = generate_config("wolff_radii", 2.0 ** -5, 16, seed=0,
                                 radius_band=MAXIMAL_RADII)
        out = main_geom_check(config)
        assert out["tau"] == pytest.approx(math.sqrt(config.delta))
        assert out["buckets"], "expected at least the M=1 bucket"
        for bucket in out["buckets"]:
            assert bucket["incomparable"] <= bucket["candidates"]
            assert bucket["value"] <= out["max_value"] + 1e-12
        assert out["log3_normalized"] <= out["max_value"]

    @pytest.mark.parametrize("kind, buckets, max_value", [
        ("wolff_radii", [(1, 4608, 120)], "0.16572815184059708"),
        ("random_frostman", [(1, 4608, 117)], "0.16158494804458215"),
    ])
    def test_frozen_report(self, kind, buckets, max_value):
        config = generate_config(kind, 2.0 ** -7, 64, seed=0, radius_band=MAXIMAL_RADII)
        out = main_geom_check(config)
        assert [(b["M"], b["candidates"], b["incomparable"]) for b in out["buckets"]] == buckets
        assert repr(out["max_value"]) == max_value

    def test_frozen_report_at_the_finest_delta(self):
        # delta = 2^-9: 256 circles, 36,608 candidates
        for kind, incomparable, max_value in (("wolff_radii", 458, "0.07906613910728486"),
                                              ("random_frostman", 452, "0.07803033815828113")):
            config = generate_config(kind, 2.0 ** -9, 256, seed=0, radius_band=MAXIMAL_RADII)
            out = main_geom_check(config)
            assert [(b["M"], b["candidates"], b["incomparable"]) for b in out["buckets"]] == [
                (1, 36608, incomparable)]
            assert repr(out["max_value"]) == max_value

    def test_builds_a_rectangle_only_for_each_kept_member(self, monkeypatch):
        built = []

        class Counted(rectangles.DeltaTauRectangle):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(rectangles, "DeltaTauRectangle", Counted)
        monkeypatch.setattr(tangency, "DeltaTauRectangle", Counted, raising=False)
        # four copies of one circle, two of another and a single one: M = 4, 2, 1
        circles = np.array([(0.0, 0.0, 0.5)] * 4 + [(0.3, 0.1, 0.6)] * 2 + [(0.1, -0.2, 0.7)])
        out = main_geom_check(CircleConfig(circles, delta=2.0 ** -6))
        assert [b["M"] for b in out["buckets"]] == [1, 2, 4]
        assert len(built) == sum(b["incomparable"] for b in out["buckets"]) > 0

    def test_tau_validation(self):
        # tau = sqrt(delta) leaves [delta, 1] once delta > 1
        config = CircleConfig(np.array([[0.0, 0.0, 3.0]]), delta=2.0)
        with pytest.raises(ValueError, match=r"\[delta, 1\]"):
            main_geom_check(config)
