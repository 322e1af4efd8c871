"""Tests for the discretized extension operator and its norm machinery.

Oracles: hand-built matrices with known singular values, the documented
assembly formula recomputed entry-by-entry, the quadrature-route weighted
L2 as an independent second algorithm, and frozen regression values for
the R=16 vertical-tube operator pinned at full double precision.
"""

import math

import numpy as np
import pytest

from conelab.fourier import cube_midpoints, weighted_l2
from conelab.measures import CubeMeasure, generate
from conelab.operators import (
    DiscreteExtensionOperator,
    PowerIterationError,
    bbcr_equivalence_check,
    build_extension_operator,
    dyadic_levels,
    l1_constant,
    operator_norm,
    transference_check,
)


def toy_operator(matrix):
    """Wrap a hand matrix so the norm routines can run on known spectra."""
    matrix = np.asarray(matrix, dtype=complex)
    nu = CubeMeasure(8, np.array([[0, 0, 8]], dtype=np.int64))
    return DiscreteExtensionOperator(
        nu, matrix, np.ones(matrix.shape[1]), np.ones(matrix.shape[1]),
        np.zeros(matrix.shape[1]), 1)


class TestOperatorNorm:
    def test_diagonal_matrix(self):
        res = operator_norm(toy_operator(np.diag([3.0, 1.0, 0.5])))
        assert res["estimate"] == pytest.approx(3.0, rel=1e-7)
        assert res["upper"] >= res["estimate"]

    def test_rank_one_matrix(self):
        # ||u v*|| = |u| |v|
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        res = operator_norm(toy_operator(np.outer(u, v)))
        assert res["estimate"] == pytest.approx(15.0, rel=1e-7)

    def test_bracket_is_ordered(self):
        rng = np.random.default_rng(3)
        res = operator_norm(toy_operator(rng.standard_normal((6, 9))))
        assert res["lower"] <= res["upper"]
        assert res["estimate"] == res["lower"]

    def test_matches_svd(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        res = operator_norm(toy_operator(m))
        top = float(np.linalg.svd(m, compute_uv=False)[0])
        assert res["estimate"] == pytest.approx(top, rel=1e-6)

    def test_nonconvergence_carries_bracket(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 8))
        with pytest.raises(PowerIterationError) as err:
            operator_norm(toy_operator(m), max_iters=1, tol=1e-300)
        lo, hi = err.value.bracket
        assert 0.0 <= lo <= hi


class TestAssembly:
    def test_matrix_entries_formula(self):
        # A[p, n] = m^{-3/2} exp(2 pi i x_p . xi_n) sqrt(w_n)
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        pts = cube_midpoints(nu, 2)
        xi_dot = (pts[:, 0, None] * np.cos(op.phi)[None, :]
                  + pts[:, 1, None] * np.sin(op.phi)[None, :]
                  + pts[:, 2, None]) * op.rho[None, :]
        want = np.exp(2j * np.pi * xi_dot) * np.sqrt(op.node_weight)[None, :] / math.sqrt(8)
        assert np.allclose(op.matrix, want, rtol=1e-12, atol=1e-15)

    def test_density_norm_of_ones_is_sigma_mass(self):
        # sum of node weights = sigma(cone band) ~ 4.359
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        ones = np.ones(op.shape[1])
        assert op.density_norm(ones) ** 2 == pytest.approx(4.359033528565088, rel=1e-7)

    def test_sample_l2_matches_quadrature_route(self):
        # the matrix route and the separable-extension route agree on |E1|^2 dnu
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        sl2 = op.image_l2(op.apply(np.ones(op.shape[1])))
        assert sl2 == pytest.approx(weighted_l2(nu, q=2.0, m=2), rel=1e-4)

    def test_sample_l1_cauchy_schwarz(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
            y = op.apply(f)
            l1 = op.image_l1(y)
            l2 = math.sqrt(op.image_l2(y))
            assert l1 <= l2 * math.sqrt(nu.mass) * (1 + 1e-12)

    def test_column_subsampling_meta(self):
        nu = generate("light_tube", 8, 0)
        full = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        sub = build_extension_operator(nu, q=2.0, m=2, max_columns=1000)
        assert sub.meta["nodes_total"] == full.meta["nodes_total"]
        assert sub.meta["nodes_kept"] == 1000 and sub.shape[1] == 1000
        # rescaled weights keep the total sigma mass unbiased
        assert float(np.sum(sub.node_weight)) == pytest.approx(
            float(np.sum(full.node_weight)), rel=0.2)


class TestL1Constant:
    def test_requires_enough_trials(self):
        op = toy_operator(np.eye(2))
        with pytest.raises(ValueError):
            l1_constant(op, trials=10)

    def test_lower_bracket_below_ceiling(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        norm = operator_norm(op)
        l1 = l1_constant(op)
        assert 0.0 < l1 <= norm["estimate"] * math.sqrt(nu.mass) * (1 + 1e-9)

    def test_frozen_small_value(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        assert l1_constant(op) == pytest.approx(2.6088050004440166, rel=1e-9)


class TestDyadicLevels:
    def test_sqrt2_spacing_and_coverage(self):
        levels = dyadic_levels(4.0, 1.0)
        assert levels[0] == pytest.approx(4.0 / math.sqrt(2), rel=1e-12)
        assert np.allclose(levels[:-1] / levels[1:], math.sqrt(2), rtol=1e-12)
        assert levels[-1] < 1.0

    def test_degenerate_range(self):
        levels = dyadic_levels(2.0, 2.0)
        assert len(levels) == 1 and levels[0] < 2.0


class TestBBCR:
    def test_small_frozen_report(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        bb = bbcr_equivalence_check(op)
        assert bb["lambda_star"] == pytest.approx(0.6654508551578974, rel=1e-9)
        assert bb["level_mass"] == 3
        assert bb["l2_sq"] == pytest.approx(2.294295702567086, rel=1e-9)
        assert bb["bound"] == pytest.approx(7.970847131346784, rel=1e-9)
        assert bb["dynamic_range"] == pytest.approx(4.0, rel=1e-9)
        assert bb["ratio"] == pytest.approx(1.0056426944038346, rel=1e-9)

    def test_invariants(self):
        nu = generate("random_frostman", 8, 1)
        op = build_extension_operator(nu, q=2.0, m=2, max_columns=10 ** 6)
        bb = bbcr_equivalence_check(op)
        assert bb["l2_sq"] <= bb["bound"] * (1 + 1e-9)
        assert bb["U_L2"] <= bb["U_L2_upper"]
        assert bb["level_mass"] >= 1
        assert 1 / 64 <= bb["ratio"] <= 64

    def test_frozen_vertical_r16(self):
        # full-scale regression anchor: R=16 vertical tube, q=2, m=4
        nu = generate("vertical_tube", 16, 0)
        op = build_extension_operator(nu, q=2.0, m=4)
        assert op.shape == (1024, 4000)
        assert op.meta["nodes_total"] == 85140 and op.meta["nodes_kept"] == 4000
        norm = operator_norm(op)
        assert norm["estimate"] == pytest.approx(1.2190822391248555, rel=1e-10)
        assert norm["upper"] == pytest.approx(8.3040268999786093, rel=1e-10)
        assert norm["iterations"] == 205
        bb = bbcr_equivalence_check(op)
        assert bb["lambda_star"] == pytest.approx(0.25808665122317115, rel=1e-9)
        assert bb["level_mass"] == 12
        assert bb["l2_sq"] == pytest.approx(1.4861615323235196, rel=1e-9)
        assert bb["bound"] == pytest.approx(7.9930463447508941, rel=1e-9)
        assert bb["dynamic_range"] == pytest.approx(16.0, rel=1e-9)
        assert bb["U_L1"] == pytest.approx(4.6646764435736756, rel=1e-9)
        assert bb["ratio"] == pytest.approx(1.0453734606217611, rel=1e-9)


class TestTransference:
    def test_monotone_under_subweights(self):
        nu = generate("light_tube", 8, 0)
        ones = np.ones(nu.mass)
        op = build_extension_operator(nu, m=2)
        res = transference_check(op, [ones, 0.5 * ones, np.zeros(nu.mass)], trials=5)
        assert res["ok"]
        assert res["sub"][0]["mass"] == pytest.approx(nu.mass)
        # h = 1/2 scales every L1 norm exactly by 1/2
        assert res["sub"][1]["l1_max"] == pytest.approx(0.5 * res["l1_max"], rel=1e-12)
        assert res["sub"][2]["l1_max"] == 0.0

    def test_random_subweights_ok(self):
        nu = generate("random_frostman", 8, 2)
        rng = np.random.default_rng(7)
        hs = [rng.uniform(0, 1, nu.mass) for _ in range(3)]
        res = transference_check(build_extension_operator(nu, m=2), hs, trials=5)
        assert res["ok"] and all(r["p_upper"] <= res["p_upper"] + 1e-9 for r in res["sub"])

    def test_validation(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, m=2)
        with pytest.raises(ValueError):
            transference_check(op, [np.ones(nu.mass + 1)], trials=5)
        with pytest.raises(ValueError):
            transference_check(op, [np.full(nu.mass, 1.5)], trials=5)
        with pytest.raises(ValueError):
            transference_check(op, [np.full(nu.mass, -0.1)], trials=5)
