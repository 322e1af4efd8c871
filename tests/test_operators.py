"""Tests for the extension operator built from its Gram matrix.

Oracles: hand-built matrices with known singular values, the node matrix A
assembled entry-by-entry from the documented formula (its Gram matrix and
its SVD), a full eigen-solve of G for the Lanczos norm, the closed-form L1
constant of a rank-one G, the separable-extension weighted L2 as an
independent route to the J0 kernel, and frozen regression values for the
R=16 vertical-tube operator pinned at full double precision, each checked
once against an SVD of A.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from conelab.fourier import (
    cube_midpoints,
    extension_bandwidths,
    make_quadrature,
    sigma_check,
    weighted_l2,
)
from conelab.measures import CubeMeasure, generate, load_measure
from conelab.operators import (
    bbcr_equivalence_check,
    build_extension_operator,
    dyadic_levels,
    gram_matrix,
    l1_constant,
    operator_from_gram,
    transference_check,
)
from oracle_suites import plank_count_per_direction

ORACLE_CASES = (("light_tube", 8, 2), ("random_frostman", 8, 2),
                ("vertical_tube", 16, 2), ("light_tube", 16, 4))
# acceptance criterion 8's measure families and, at R=32, its seeds
CRITERION_8 = (("light_tube", (0,)), ("vertical_tube", (0,)), ("knapp_pair", (0,)),
               ("random_frostman", (0, 1, 2, 3, 4)))


def toy_operator(matrix):
    """Operator whose node matrix is a hand matrix, so norms run on known spectra."""
    matrix = np.asarray(matrix, dtype=complex)
    nu = CubeMeasure(8, np.array([[0, 0, 8]], dtype=np.int64))
    return operator_from_gram(nu, matrix @ matrix.conj().T, 1)


def node_matrix(nu, m, q=2.0):
    """A[p, n] = m^{-3/2} exp(2 pi i x_p . xi_n) sqrt(a_n w_n) on the full quadrature."""
    pts = cube_midpoints(nu, m)
    quad = make_quadrature(*extension_bandwidths(pts), q)
    rho = np.repeat(quad.rho, len(quad.phi))
    phi = np.tile(quad.phi, len(quad.rho))
    weight = np.repeat(quad.amplitude * quad.radial_weight, len(quad.phi)) * quad.dphi
    xi_dot = (pts[:, 0, None] * np.cos(phi)[None, :] + pts[:, 1, None] * np.sin(phi)[None, :]
              + pts[:, 2, None]) * rho[None, :]
    return np.exp(2j * np.pi * xi_dot) * np.sqrt(weight)[None, :] / math.sqrt(m ** 3)


def _oracle_measure(kind, R, seed=0):
    return generate(kind, R, seed, **({"n": R} if kind == "random_frostman" else {}))


class TestOperatorNorm:
    def test_diagonal_matrix(self):
        op = toy_operator(np.diag([3.0, 1.0, 0.5]))
        assert math.sqrt(op.u_l2) == pytest.approx(3.0, rel=1e-7)
        assert op.u_l2_upper >= op.u_l2

    def test_rank_one_matrix(self):
        # ||u v*|| = |u| |v|
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        op = toy_operator(np.outer(u, v))
        assert math.sqrt(op.u_l2) == pytest.approx(15.0, rel=1e-7)

    def test_bracket_is_ordered(self):
        rng = np.random.default_rng(3)
        op = toy_operator(rng.standard_normal((6, 9)))
        assert op.u_l2 <= op.u_l2_upper
        assert np.linalg.norm(op.top) ** 2 == pytest.approx(op.u_l2, rel=1e-12)

    def test_matches_svd(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        op = toy_operator(m)
        top = float(np.linalg.svd(m, compute_uv=False)[0])
        assert math.sqrt(op.u_l2) == pytest.approx(top, rel=1e-6)

    def test_matches_full_eigensolve(self):
        # the Lanczos norm prints as the top eigenvalue of a full eigen-solve,
        # and its residual bracket covers it
        for kind, _ in CRITERION_8:
            for R, seed in itertools.product((16, 32), (0, 1, 2)):
                nu = _oracle_measure(kind, R, seed)
                gram = gram_matrix(nu, q=2.0, m=4)
                want = float(scipy.linalg.eigvalsh(gram)[-1])
                op = operator_from_gram(nu, gram, 4)
                assert f"{op.u_l2:.12g}" == f"{want:.12g}", (kind, R, seed)
                assert op.u_l2_upper >= want, (kind, R, seed)


class TestAssembly:
    def test_matrix_entries_formula(self):
        # G = A A* for A assembled from the documented formula, and B B* = G
        # up to the eigenvalues below n eps lambda that the factor drops
        for kind, R, m in ORACLE_CASES:
            nu = _oracle_measure(kind, R)
            a = node_matrix(nu, m)
            want = a @ a.conj().T
            gram = gram_matrix(nu, q=2.0, m=m)
            assert np.max(np.abs(gram - want)) <= 1e-12 * np.max(np.abs(want)), (kind, R, m)
            op = build_extension_operator(nu, q=2.0, m=m)
            roundoff = 4 * len(gram) * np.finfo(float).eps * op.u_l2
            assert np.max(np.abs(op.matrix @ op.matrix.conj().T - gram)) <= roundoff

    def test_empty_measure_refused(self, tmp_path):
        path = tmp_path / "empty.cubes"
        path.write_text("R=16\n")
        with pytest.raises(ValueError, match="empty measure"):
            build_extension_operator(load_measure(path))

    def test_density_norm_of_ones_is_sigma_mass(self):
        # G[p, p] = m^-3 sum_n w_n = m^-3 sigma(cone band) ~ 4.359 / m^3, for
        # the Gram matrix and for the row energies of its factor B B* = G
        nu = generate("light_tube", 8, 0)
        gram = gram_matrix(nu, q=2.0, m=2)
        mass = np.diag(gram) * 2 ** 3
        assert np.allclose(mass, 4.359033528565088, rtol=1e-7, atol=0)
        op = build_extension_operator(nu, q=2.0, m=2)
        rows = np.sum(np.abs(op.matrix) ** 2, axis=1) * 2 ** 3
        assert np.allclose(rows, 4.359033528565088, rtol=1e-7, atol=0)

    def test_norm_matches_node_svd(self):
        for kind, R, m in ORACLE_CASES:
            nu = _oracle_measure(kind, R)
            top = float(np.linalg.svd(node_matrix(nu, m), compute_uv=False)[0])
            op = build_extension_operator(nu, q=2.0, m=m)
            assert math.sqrt(op.u_l2) == pytest.approx(top, rel=1e-12), (kind, R, m)
            assert op.u_l2 <= op.u_l2_upper <= op.u_l2 * (1 + 1e-12)

    def test_sample_l2_matches_quadrature_route(self):
        # the J0 kernel of the Gram matrix and the separable-extension route
        # agree on |E1|^2 dnu at the operator's samples and quadrature
        nu = generate("light_tube", 8, 0)
        e1 = sigma_check(cube_midpoints(nu, 2), q=2.0)
        assert float(np.sum(np.abs(e1) ** 2)) / 8 == pytest.approx(
            weighted_l2(nu, q=2.0, m=2), rel=1e-4)

    def test_sample_l1_cauchy_schwarz(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((len(op.matrix), 5)) + 1j * rng.standard_normal((len(op.matrix), 5))
        y = op.matrix @ g
        l1 = op.image_l1(y)
        l2 = np.linalg.norm(y, axis=0)
        assert np.all(l1 <= l2 * math.sqrt(nu.mass) * (1 + 1e-12))


class TestL1Constant:
    def test_lower_bracket_below_ceiling(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2)
        l1 = l1_constant(op)
        assert 0.0 < l1 <= math.sqrt(op.u_l2) * math.sqrt(nu.mass) * (1 + 1e-9)

    def test_rank_one_closed_form(self):
        # G = v v*: every image is v up to phase, so U_L1^2 = (sum |v_p|)^2 / m^3
        m = 2
        nu = CubeMeasure(8, np.array([[i, 0, 8] for i in range(4)]))
        rng = np.random.default_rng(5)
        v = rng.standard_normal(nu.mass * m ** 3) + 1j * rng.standard_normal(nu.mass * m ** 3)
        op = operator_from_gram(nu, np.outer(v, v.conj()), m)
        want = float(np.sum(np.abs(v))) / math.sqrt(m ** 3)
        assert l1_constant(op) == pytest.approx(want, rel=1e-12)

    def test_below_ceiling_on_criterion_8(self):
        for kind, seeds in CRITERION_8:
            for seed in seeds:
                nu = _oracle_measure(kind, 32, seed)
                op = build_extension_operator(nu, q=2.0, seed=seed)
                assert l1_constant(op) <= math.sqrt(op.u_l2 * nu.mass), (kind, seed)

    def test_frozen_small_value(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, q=2.0, m=2)
        # on the trial route of G s / (s* G s)^(1/2) images; the B g route
        # of Gaussian unit g gave 2.608805758945188
        u_l1 = l1_constant(op)
        assert u_l1 == pytest.approx(2.608805952362521, rel=1e-9)
        assert u_l1 >= 2.608805758945188


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
        op = build_extension_operator(nu, q=2.0, m=2)
        bb = bbcr_equivalence_check(op)
        assert bb["lambda_star"] == pytest.approx(0.665481560930689, rel=1e-9)
        assert bb["level_mass"] == 3
        assert bb["l2_sq"] == pytest.approx(2.2942957256281398, rel=1e-9)
        assert bb["bound"] == pytest.approx(7.971582742897434, rel=1e-9)
        assert bb["dynamic_range"] == pytest.approx(4.0, rel=1e-9)
        # on the trial route of G s / (s* G s)^(1/2) images; the B g route
        # of Gaussian unit g gave 1.0056424116404858
        assert bb["ratio"] == pytest.approx(1.005642337081981, rel=1e-9)

    def test_invariants(self):
        nu = generate("random_frostman", 8, 1)
        op = build_extension_operator(nu, q=2.0, m=2)
        bb = bbcr_equivalence_check(op)
        assert bb["l2_sq"] <= bb["bound"] * (1 + 1e-9)
        assert bb["U_L2"] <= bb["U_L2_upper"]
        assert bb["level_mass"] >= 1
        assert 1 / 64 <= bb["ratio"] <= 64

    def test_frozen_vertical_r16(self):
        # full-scale regression anchor: R=16 vertical tube, q=2, m=4
        nu = generate("vertical_tube", 16, 0)
        op = build_extension_operator(nu, q=2.0, m=4)
        assert op.matrix.shape == (1024, 1024)
        assert math.sqrt(op.u_l2) == pytest.approx(1.1415332366314979, rel=1e-10)
        assert math.sqrt(op.u_l2_upper) == pytest.approx(1.1415332366314987, rel=1e-10)
        bb = bbcr_equivalence_check(op)
        assert bb["lambda_star"] == pytest.approx(0.27754625586682025, rel=1e-9)
        assert bb["level_mass"] == 8
        assert bb["l2_sq"] == pytest.approx(1.303098130334383, rel=1e-9)
        assert bb["bound"] == pytest.approx(8.62757550431733, rel=1e-9)
        assert bb["dynamic_range"] == pytest.approx(64.0, rel=1e-9)
        # on the trial route of G s / (s* G s)^(1/2) images; the B g route
        # of Gaussian unit g gave U_L1 4.257546344898184, ratio 1.0724799160430951
        assert bb["U_L1"] == pytest.approx(4.377051346380492, rel=1e-9)
        assert bb["U_L1"] >= 4.257546344898184
        assert bb["ratio"] == pytest.approx(1.0431983966333533, rel=1e-9)


class TestTransference:
    def test_monotone_under_subweights(self):
        nu = generate("light_tube", 8, 0)
        ones = np.ones(nu.mass)
        op = build_extension_operator(nu, m=2)
        res = transference_check(op, [ones, 0.5 * ones, np.zeros(nu.mass)])
        assert res["ok"]
        assert res["sub"][0]["mass"] == pytest.approx(nu.mass)
        # h = 1/2 scales every L1 norm exactly by 1/2
        assert res["sub"][1]["l1_max"] == pytest.approx(0.5 * res["l1_max"], rel=1e-12)
        assert res["sub"][2]["l1_max"] == 0.0

    def test_random_subweights_ok(self):
        nu = generate("random_frostman", 8, 2)
        rng = np.random.default_rng(7)
        hs = [rng.uniform(0, 1, nu.mass) for _ in range(3)]
        res = transference_check(build_extension_operator(nu, m=2), hs)
        assert res["ok"] and all(r["p_upper"] <= res["p_upper"] + 1e-9 for r in res["sub"])

    def test_plank_masses_match_the_public_route(self):
        # one scan for nu and its subweights prints what the per-direction
        # oracle gives for each doubled-plank family alone
        for kind, seeds in CRITERION_8:
            for seed in seeds:
                nu = _oracle_measure(kind, 32, seed)
                half, spacing = (0.5, 0.5 * math.sqrt(nu.R), 0.5 * nu.R), 0.5 / math.sqrt(nu.R)

                def doubled(w=None):
                    return float(plank_count_per_direction(nu.centers, half, spacing, 2, w))
                rng = np.random.default_rng(seed)
                subs = [np.ones(nu.mass), (np.arange(nu.mass) % 2).astype(float),
                        rng.random(nu.mass)]
                res = transference_check(build_extension_operator(nu, q=2.0, seed=seed), subs)
                assert repr(res["p_upper"]) == repr(doubled())
                assert [repr(r["p_upper"]) for r in res["sub"]] == \
                    [repr(doubled(h)) for h in subs]

    def test_validation(self):
        nu = generate("light_tube", 8, 0)
        op = build_extension_operator(nu, m=2)
        with pytest.raises(ValueError):
            transference_check(op, [np.ones(nu.mass + 1)])
        with pytest.raises(ValueError):
            transference_check(op, [np.full(nu.mass, 1.5)])
        with pytest.raises(ValueError):
            transference_check(op, [np.full(nu.mass, -0.1)])
