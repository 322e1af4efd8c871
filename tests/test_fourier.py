"""Tests for the cone-extension quadrature, decay functionals, and Knapp ratios.

Oracles:
  * closed forms (the cube-measure transform ``nu_hat`` of ``oracle_suites``,
    amplitude endpoint values),
  * an independent Bessel-function route for the radial integral of
    ``sigma_check`` (planar rotation invariance reduces it to a 1-d
    oscillatory integral against ``J0``, here by adaptive quadrature), and
    the phi x rho tensor sum ``extension_direct`` of ``oracle_suites``,
  * a direct tensor sum of |nu_hat|^2 over the decay quadrature's nodes, the
    closed-form oracle for ``decay_mean``,
  * the direct sum over rho nodes for samples of the radial table, and the
    table sum over every phi node for the sector sum at the lookups' reach,
  * pair-sum (``decay_by_classes`` of ``oracle_suites``) versus
    quadrature-mean route agreement, which exercises two genuinely
    different algorithms for the same bilinear quantity,
  * frozen regression values computed once at q=2/q=3 and pinned at full
    double precision,
  * scipy.special.j0 for the library's Cephes J0 port, compared bitwise, and
    the E1 table built on it against the same formula on scipy's J0.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad as scalar_quad
from scipy.special import j0

from conelab import fourier
from conelab.fourier import (
    cube_midpoints,
    decay_mean,
    decay_ratio,
    diagnostic_points,
    extension_bandwidths,
    extension_separable,
    knapp_sector,
    knapp_sharpness,
    make_quadrature,
    radial_transform_table,
    rho_split,
    sigma_check,
    smooth_bump,
    stationary_phase_diagnostic,
    weighted_l2,
)
from conelab import experiments
from conelab.measures import CubeMeasure, generate
from conelab.operators import gram_grid
from oracle_suites import decay_by_classes, extension_direct, nu_hat


def bessel_route(x, q=3.0):
    """sigma-check via the radial Bessel reduction.

    Rotation invariance in the planar variables collapses the angular
    integral to 2*pi*J0(2*pi*rho*|x'|), leaving a smooth 1-d integral that
    scipy's adaptive quadrature handles to near machine precision.
    """
    r = math.hypot(x[0], x[1])

    def kernel(rho, part):
        amp = smooth_bump(np.array([rho]))[0]
        osc = np.exp(2j * np.pi * rho * x[2]) * j0(2 * np.pi * rho * r)
        val = 2 * np.pi * amp * rho * osc
        return val.real if part == "re" else val.imag

    re = scalar_quad(kernel, 1.0, 2.0, args=("re",), limit=200)[0]
    im = scalar_quad(kernel, 1.0, 2.0, args=("im",), limit=200)[0]
    return complex(re, im)


class TestAmplitude:
    def test_peak_value(self):
        # t = 2*rho - 3 vanishes at rho = 1.5, so the bump attains exactly 1.
        assert smooth_bump(np.array([1.5]))[0] == pytest.approx(1.0, abs=0)

    def test_vanishes_outside_band(self):
        vals = smooth_bump(np.array([0.5, 1.0, 2.0, 2.5]))
        assert np.all(vals == 0.0)

    def test_range_and_symmetry(self):
        rho = np.linspace(1.0, 2.0, 1001)
        vals = smooth_bump(rho)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        # even in t = 2*rho - 3
        assert np.allclose(vals, vals[::-1], atol=1e-15)

    def test_interior_positive(self):
        vals = smooth_bump(np.linspace(1.05, 1.95, micro := 19))
        assert micro == 19 and np.all(vals > 0.0)


class TestQuadrature:
    def test_node_structure(self):
        quad = make_quadrature(8.0, 8.0, q=2.0)
        # midpoint nodes tile [1, 2]
        assert quad.rho[0] == pytest.approx(1.0 + quad.drho / 2)
        assert quad.rho[-1] == pytest.approx(2.0 - quad.drho / 2)
        assert np.allclose(np.diff(quad.rho), quad.drho)
        # angular nodes start at 0 and tile the circle
        assert quad.phi[0] == 0.0
        assert len(quad.phi) * quad.dphi == pytest.approx(2 * np.pi)
        assert quad.node_count == len(quad.rho) * len(quad.phi)

    def test_oversampling_grows_nodes(self):
        lo = make_quadrature(8.0, 8.0, q=2.0)
        hi = make_quadrature(8.0, 8.0, q=4.0)
        assert hi.node_count > 2 * lo.node_count

    def test_total_weight_matches_measure_mass(self):
        # sum of quadrature weights = sigma(cone band) = 2*pi * int a(rho) rho drho
        quad = make_quadrature(8.0, 8.0, q=2.0)
        got = float(np.sum(quad.amplitude * quad.radial_weight) * len(quad.phi) * quad.dphi)
        ref = 2 * np.pi * scalar_quad(lambda r: smooth_bump(np.array([r]))[0] * r, 1.0, 2.0)[0]
        assert got == pytest.approx(ref, rel=5e-4)
        # frozen: the rule of the light_tube R=8, m=2 operator
        pts = cube_midpoints(generate("light_tube", 8, 0), 2)
        quad = make_quadrature(*extension_bandwidths(pts), q=2.0)
        got = float(np.sum(quad.amplitude * quad.radial_weight) * len(quad.phi) * quad.dphi)
        assert got == pytest.approx(4.359033528565088, rel=1e-7)


class TestSigmaCheck:
    # frozen q=3 values
    SPOTS = {
        (2.0, 0.0, 0.0): 0.02564653023107771 + 0.0j,
        (1.0, 0.0, 1.0): 0.41241015402489867 + 0.40103539441206765j,
        (0.5, 0.2, 1.3): -0.13466962958053214 + 0.5054073363949851j,
        (7.0, 0.0, 7.0): 0.1508842272809694 + 0.15147203341386756j,
    }

    def test_frozen_spots(self):
        pts = np.array(list(self.SPOTS))
        got = sigma_check(pts, q=3.0)
        want = np.array(list(self.SPOTS.values()))
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("x", [(2.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.5, 0.2, 1.3)])
    def test_bessel_route_agreement(self, x):
        # q=3 trapezoidal quadrature carries ~1e-10 discretization error
        got = sigma_check(np.array([x]), q=3.0)[0]
        ref = bessel_route(x)
        assert abs(got - ref) <= 1e-8

    def test_conjugate_symmetry(self):
        # sigma is a real measure, so its transform satisfies f(-x) = conj(f(x))
        pts = np.array([[0.5, 0.2, 1.3], [3.0, -1.0, 2.0], [0.0, 0.0, 4.0]])
        fwd = sigma_check(pts, q=3.0)
        bwd = sigma_check(-pts, q=3.0)
        assert np.allclose(bwd, np.conj(fwd), rtol=1e-12, atol=1e-15)

    def test_planar_rotation_invariance(self):
        th = 0.7
        a = np.array([[0.5, 0.2, 1.3]])
        r = math.hypot(0.5, 0.2)
        b = np.array([[r * math.cos(th), r * math.sin(th), 1.3]])
        fa = sigma_check(a, q=3.0)[0]
        fb = sigma_check(b, q=3.0)[0]
        assert abs(abs(fa) - abs(fb)) <= 1e-12
        # the value itself is rotation invariant, not only its modulus
        assert abs(fa - fb) <= 1e-12

    def test_matches_direct_sum(self):
        # the J0 route against the phi x rho tensor sum at the criterion-4 points
        pts = diagnostic_points()
        direct = extension_direct(pts, make_quadrature(*extension_bandwidths(pts), q=2.0))
        got = sigma_check(pts, q=2.0)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_value_at_origin_is_total_mass(self):
        got = sigma_check(np.zeros((1, 3)), q=3.0)[0]
        ref = 2 * np.pi * scalar_quad(lambda r: smooth_bump(np.array([r]))[0] * r, 1.0, 2.0)[0]
        assert got.imag == pytest.approx(0.0, abs=1e-14)
        assert got.real == pytest.approx(ref, rel=1e-7)


# the criterion-8 measures: decay families at R = 32, each at its seeds
CRITERION_8_MEASURES = [("light_tube", 0), ("vertical_tube", 0), ("knapp_pair", 0)] + [
    ("random_frostman", seed) for seed in range(5)]


def criterion_8_grid(kind, seed):
    """Distinct Gram radii and heights of a criterion-8 measure, with its quadrature."""
    nu = generate(kind, 32, seed, **({"n": 32} if kind == "random_frostman" else {}))
    pts = cube_midpoints(nu, fourier.MIDPOINTS)
    r, z, _ = gram_grid(pts, fourier.MIDPOINTS)
    return r, z, make_quadrature(*extension_bandwidths(pts), 2.0)


def scipy_e1_grid(r, z, quad):
    """e1_grid's formula on scipy's J0, evaluated whole."""
    bessel = j0(2 * math.pi * np.outer(r, quad.rho)) * (2 * math.pi * quad.amplitude
                                                         * quad.radial_weight)
    return bessel @ np.exp(2j * math.pi * np.outer(quad.rho, z))


class TestBesselJ0:
    # the port repeats Cephes' roundings step by step, so equality is exact
    def test_uniform_sample(self):
        x = np.random.default_rng(0).uniform(0.0, 5000.0, 10 ** 6)
        assert np.array_equal(fourier.j0(x), j0(x))

    def test_edge_points(self):
        x = np.array([0.0, -0.0, 1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0),
                      5.0, np.nextafter(5.0, 0.0), np.nextafter(5.0, 6.0), -1e-6, -3.0,
                      -5.0, -7.5, 5e-324, 1e-300, 1e300, -1e300, np.nan])
        assert np.array_equal(fourier.j0(x), j0(x), equal_nan=True)
        for v in x:  # each alone takes one form only; scalars give 0-d arrays
            assert np.array_equal(fourier.j0(v), j0(v), equal_nan=True)
        assert fourier.j0(np.zeros((0, 3))).shape == (0, 3)
        grid = np.linspace(-8.0, 8.0, 35).reshape(5, 7)  # straddles 5 on both sides
        assert np.array_equal(fourier.j0(grid), j0(grid))

    def test_strided_view(self):
        x = np.random.default_rng(1).uniform(-20.0, 20.0, (300, 40))
        want, before = j0(x), x.copy()
        assert np.array_equal(fourier.j0(x[:, ::3]), want[:, ::3])
        assert np.array_equal(x, before)  # the argument is left as it was

    @pytest.mark.parametrize("kind,seed", CRITERION_8_MEASURES)
    def test_criterion_8_arguments(self, kind, seed):
        r, _, quad = criterion_8_grid(kind, seed)
        x = 2 * math.pi * np.outer(r, quad.rho)
        assert np.array_equal(fourier.j0(x), j0(x))

    @pytest.mark.parametrize("kind,seed", CRITERION_8_MEASURES)
    def test_e1_grid_matches_scipy_formula(self, kind, seed):
        r, z, quad = criterion_8_grid(kind, seed)
        assert np.array_equal(fourier.e1_grid(r, z, quad), scipy_e1_grid(r, z, quad))

    @pytest.mark.parametrize("q", [1.25, 2.0, 3.0])
    def test_sigma_check_matches_scipy_formula(self, q):
        pts = np.vstack([diagnostic_points(), list(TestSigmaCheck.SPOTS), np.zeros((1, 3))])
        quad = make_quadrature(*extension_bandwidths(pts), q)
        r, ri = np.unique(np.hypot(pts[:, 0], pts[:, 1]), return_inverse=True)
        z, zi = np.unique(pts[:, 2], return_inverse=True)
        assert np.array_equal(sigma_check(pts, q), scipy_e1_grid(r, z, quad)[ri, zi])

    def test_block_size_does_not_change_e1(self, monkeypatch):
        r, z, quad = criterion_8_grid("random_frostman", 0)
        want = fourier.e1_grid(r, z, quad)
        monkeypatch.setattr(fourier, "J0_BLOCK", 1)
        assert np.array_equal(fourier.e1_grid(r, z, quad), want)


class TestNuHat:
    def test_value_at_zero_is_mass(self):
        nu = generate("light_tube", 8, 0)
        got = nu_hat(nu, np.zeros((1, 3)))[0]
        assert got == pytest.approx(nu.mass, abs=1e-12)

    def test_single_cube_closed_form(self):
        nu = CubeMeasure(8, np.array([[0, 0, 8]], dtype=np.int64))
        xi = np.array([[0.3, -0.2, 0.15]])
        got = nu_hat(nu, xi)[0]
        mid = np.array([0.5, 0.5, 8.5])
        want = np.prod(np.sinc(xi[0])) * np.exp(-2j * np.pi * np.dot(xi[0], mid))
        assert abs(got - want) <= 1e-13

    def test_translation_phase(self):
        base = np.array([[1, 2, 17]], dtype=np.int64)
        shift = np.array([3, -1, 2], dtype=np.int64)
        nu0 = CubeMeasure(16, base)
        nu1 = CubeMeasure(16, base + shift)
        xi = np.array([[0.11, 0.07, -0.23]])
        phase = np.exp(-2j * np.pi * np.dot(xi[0], shift))
        assert abs(nu_hat(nu1, xi)[0] - phase * nu_hat(nu0, xi)[0]) <= 1e-13


class TestExtensionRoutes:
    def test_direct_matches_separable(self):
        quad = make_quadrature(8.0, 8.0, q=2.0)
        pts = np.random.default_rng(0).uniform(-3.0, 3.0, size=(40, 3))
        direct = extension_direct(pts, quad)
        sep = extension_separable(pts, quad)
        scale = float(np.max(np.abs(direct)))
        assert float(np.max(np.abs(direct - sep))) <= 1e-4 * scale

    @pytest.mark.parametrize("gamma", [4.0, 2.0])
    def test_sector_matches_direct_and_all_phi_sum(self, gamma):
        # the sector h = knapp_sector(gamma) is centered at phi = 0, so its
        # nodes sit at both ends of the phi array
        quad = make_quadrature(8.0, 8.0, q=2.0)
        h, _ = knapp_sector(gamma)
        hv = h(quad.phi)
        assert hv[0] == hv[-1] == 1.0 and 0 < np.count_nonzero(hv) < len(hv) // 2
        pts = np.random.default_rng(1).uniform(-3.0, 3.0, size=(40, 3))
        sep = extension_separable(pts, quad, h)
        direct = extension_direct(pts, quad, f=lambda rho, phi: h(phi) + 0 * rho)
        scale = float(np.max(np.abs(direct)))
        assert float(np.max(np.abs(direct - sep))) <= 1e-4 * scale
        # table(u) h dphi summed over every phi node, zeros included
        u_max = float(np.max(np.hypot(pts[:, 0], pts[:, 1]) + np.abs(pts[:, 2]))) + 1.0
        table = radial_transform_table(quad, u_max)
        u = pts[:, :2] @ np.stack([np.cos(quad.phi), np.sin(quad.phi)]) + pts[:, 2:]
        all_phi = (table(u) * (hv * quad.dphi)).sum(axis=1)
        assert float(np.max(np.abs(all_phi - sep))) <= 1e-13 * float(np.max(np.abs(all_phi)))

    @pytest.mark.parametrize("pts", [
        [[8191.9995, 0.0, 0.0]],  # max |u| / du = 8191.9995, at phi = 0
        [[0.0, 0.0, -8191.99999]],  # |u| / du = 8191.99999 with u < 0 at every node
        [[0.0, 0.0, 0.0]],  # max |u| = 0
        [[2560.0, 0.0, 0.0], [-1024.0, 512.0, -2048.0], [300.0, -1200.0, 400.0]],  # both signs
    ])
    @pytest.mark.parametrize("sector", [False, True])
    def test_table_reaches_the_largest_lookup(self, pts, sector):
        # the table is sized from the largest |u| looked up (points given in
        # units of du); a fractional part of max |u| / du above 0.999 needs
        # the sample kept past its interval
        quad = make_quadrature(8.0, 8.0, q=2.0)
        du = radial_transform_table(quad, 0.0).du
        pts = np.asarray(pts) * du
        h = knapp_sector(4.0)[0] if sector else None
        hv = np.ones_like(quad.phi) if h is None else h(quad.phi)
        u = pts[:, :2] @ np.stack([np.cos(quad.phi), np.sin(quad.phi)]) + pts[:, 2:]
        if len(pts) == 1 and pts.any():
            assert np.max(np.abs(u[:, hv != 0])) / du % 1 > 0.999
        sep = extension_separable(pts, quad, h)
        all_phi = (radial_transform_table(quad, 10.0)(u) * (hv * quad.dphi)).sum(axis=1)
        # each sample of G rounds to about eps sum |c_rho|, and 8 units off
        # the cone G is 1e-4 of that, so the sums compare on that scale
        scale = float(np.sum(quad.amplitude * quad.radial_weight) * np.sum(hv) * quad.dphi)
        assert float(np.max(np.abs(all_phi - sep))) <= 1e-13 * scale

    @pytest.mark.parametrize("b_rho,q,u_max", [
        (8.0, 4.0, 24.0),  # n_rho = 32: samples past k = n_pad / 2 by choice of u_max
        (56.0, 1.25, 40.0),  # n_rho = 70: a sharpness-like table beyond its half period
    ])
    def test_radial_table_matches_direct_sum(self, b_rho, q, u_max):
        quad = make_quadrature(b_rho, 8.0, q)
        table = radial_transform_table(quad, u_max)
        n_pad, n_keep = round(1.0 / (quad.drho * table.du)), len(table.values)
        assert n_keep > n_pad // 2 + 1
        c = quad.amplitude * quad.radial_weight
        scale = float(np.max(np.abs(table.values)))
        for k in (0, 1, n_pad // 2, n_pad // 2 + 1, n_keep - 1):
            direct = np.sum(c * np.exp(2j * math.pi * quad.rho * k * table.du))
            assert abs(table.values[k] - direct) <= 1e-12 * scale

    def test_radial_lookup_is_the_interpolation_formula(self):
        # in-place lookup against the formula it replaced, bit for bit: u of
        # both signs, signed zeros, and u in the last interval of the table
        table = radial_transform_table(make_quadrature(8.0, 8.0, q=2.0), 5.0)
        n = len(table.values)
        edge = (n - 1.002) * table.du
        last = np.linspace((n - 2) * table.du, edge, 7)
        u = np.concatenate([np.random.default_rng(3).uniform(-edge, edge, 990),
                            last, -last, [0.0, -0.0, table.du, -table.du]]).reshape(-1, 6)
        au = np.abs(u) / table.du
        idx = np.minimum(au.astype(int), n - 2)
        assert np.count_nonzero(idx == n - 2) == 14
        frac = au - idx
        vals = table.values[idx] * (1 - frac) + table.values[idx + 1] * frac
        assert np.array_equal(table(u), np.where(u >= 0, vals, np.conj(vals)))

    def test_budget_guard(self, monkeypatch):
        quad = make_quadrature(8.0, 8.0, q=2.0)
        pts = np.zeros((20, 3))
        monkeypatch.setattr(experiments, "MAX_KERNEL_EVALS", 10)
        with pytest.raises(ValueError, match="budget"):
            extension_direct(pts, quad)


class TestDecayRoutes:
    @pytest.mark.parametrize("kind,R", [("light_tube", 8), ("random_frostman", 8), ("vertical_tube", 16)])
    def test_mean_equals_pair_sum(self, kind, R):
        nu = generate(kind, R, 0)
        mean = decay_mean(nu)
        pair = decay_by_classes(nu)["total"]
        assert mean == pytest.approx(pair, rel=1e-10)

    def test_classes_partition_total(self):
        nu = generate("random_frostman", 8, 0, n=6)
        cls = decay_by_classes(nu)
        parts = cls["diag"] + cls["near"] + sum(cls["bands"].values())
        assert parts == pytest.approx(cls["total"], rel=1e-12)

    def test_diag_is_mass_times_self_energy(self):
        # the diagonal class collects i == j pairs: mass * (cube self-interaction);
        # the two routes use slightly different quadrature bandwidths
        nu = generate("vertical_tube", 8, 0)
        cls = decay_by_classes(nu)
        single = CubeMeasure(8, nu.cubes[:1].copy())
        assert cls["diag"] == pytest.approx(nu.mass * decay_by_classes(single)["total"], rel=1e-6)

    @pytest.mark.parametrize("nu,n_rho", [
        (generate("vertical_tube", 16, 0), 62),
        (generate("random_frostman", 32, 0), 178),
        (CubeMeasure(8, [[3, 4, 10]]), 32),
        (CubeMeasure(8, [[0, 0, 8], [0, 0, 10]]), 36),
    ], ids=["vertical_tube_R16", "random_frostman_R32", "one_cube", "square_n_rho"])
    def test_mean_equals_direct_sum(self, nu, n_rho):
        # |nu_hat|^2 a rho drho dphi summed over every node of the
        # quadrature decay_mean builds, one phi row at a time
        quad = make_quadrature(*extension_bandwidths(np.ptp(nu.centers, axis=0)), 2.0)
        assert len(quad.rho) == n_rho
        w = quad.amplitude * quad.radial_weight * quad.dphi
        direct = 0.0
        for phi in quad.phi:
            xi = np.column_stack([quad.rho * math.cos(phi), quad.rho * math.sin(phi), quad.rho])
            direct += float(np.sum(np.abs(nu_hat(nu, xi)) ** 2 * w))
        assert decay_mean(nu) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("nu,rows", [
        (CubeMeasure(8, [[3, 4, 10], [0, 7, 15]]), [0.0]),
        (generate("random_frostman", 16, 0),
         [np.nextafter(math.pi / 2, 0), math.pi / 2, np.nextafter(math.pi / 2, 4), math.pi,
          3 * math.pi / 2]),
    ], ids=["phi_0", "cos_or_sin_near_0"])
    def test_form_factor_matches_sinc(self, monkeypatch, nu, rows):
        # phi = 0 takes the np.sinc fallback; next to pi/2 and at pi, cos phi or
        # sin phi is about 1e-16 and the factored sines divide by (c s)^2
        quad = make_quadrature(*extension_bandwidths(np.ptp(nu.centers, axis=0)), 2.0)
        w = quad.amplitude * quad.radial_weight * quad.dphi
        for phi in rows:
            xi = np.column_stack([quad.rho * math.cos(phi), quad.rho * math.sin(phi), quad.rho])
            monkeypatch.setattr(fourier, "make_quadrature",
                                lambda *args: dataclasses.replace(quad, phi=np.array([phi])))
            direct = float(np.sum(np.abs(nu_hat(nu, xi)) ** 2 * w))
            assert decay_mean(nu) == pytest.approx(direct, rel=1e-13, abs=0)

    @pytest.mark.parametrize("kind,R", [("vertical_tube", 16), ("random_frostman", 32)])
    def test_block_size_does_not_change_mean(self, monkeypatch, kind, R):
        # one phi row per block, then 24 rows per block: at least three
        # blocks and a ragged last one, against the default budget
        nu = generate(kind, R, 0)
        quad = make_quadrature(*extension_bandwidths(np.ptp(nu.centers, axis=0)), 2.0)
        n_baby, n_giant = rho_split(len(quad.rho))
        per_phi = (n_baby + n_giant) * (nu.mass + 2) + 3 * n_baby * n_giant
        n_phi = len(quad.phi)
        assert n_phi % 24 and n_phi > 3 * 24
        ref = decay_mean(nu)
        for budget in (1, 24 * per_phi):
            monkeypatch.setattr(fourier, "DECAY_BLOCK_BUDGET", budget)
            assert decay_mean(nu) == pytest.approx(ref, rel=1e-15, abs=0)

    # frozen R=16, seed 0, q=2 regression values
    FROZEN_RATIO = {
        "light_tube": (4.0, 0.0129412696971, 0.00161765871214),
        "vertical_tube": (16.0, 0.00145929026437, 6.44921276034e-05),
        "knapp_pair": (16.0, 0.014392725807, 0.000367237856613),
        "random_frostman": (16.0, 0.0388051161892, 0.00140025901736),
    }

    @pytest.mark.parametrize("kind", sorted(FROZEN_RATIO))
    def test_frozen_ratios(self, kind):
        mass, mean, ratio = self.FROZEN_RATIO[kind]
        nu = generate(kind, 16, 0)
        res = decay_ratio(nu)
        assert nu.mass == mass
        assert res["decay_mean"] == pytest.approx(mean, rel=1e-9)
        assert res["ratio"] == pytest.approx(ratio, rel=1e-9)

    def test_ratio_normalization(self):
        # ratio = decay_mean / (sqrt(plank_lower) * mass)
        nu = generate("light_tube", 16, 0)
        res = decay_ratio(nu)
        denom = math.sqrt(res["plank_lower"]) * res["mass"]
        assert res["ratio"] == pytest.approx(res["decay_mean"] / denom, rel=1e-12)


class TestStationaryPhase:
    def test_frozen_q2_diagnostic(self):
        res = stationary_phase_diagnostic(q=2.0, radii=(10.0, 20.0, 50.0), distances=(0.0, 1.0, 5.0))
        on_cone = [0.21272478487013272, 0.15042085176679162, 0.09513480635524764]
        transverse = [0.09513480635524764, 0.030239920081638606, 0.00031731725909065167]
        assert np.allclose(res["on_cone"], on_cone, rtol=1e-10)
        assert np.allclose(res["transverse"], transverse, rtol=1e-10)
        assert res["slope"] == pytest.approx(-0.4999912096732836, abs=1e-9)
        assert res["transverse_ratio"] == pytest.approx(0.003335448625456191, rel=1e-9)
        assert res["doubling_rel"] < 1e-9

    def test_lightlike_dominates_spacelike(self):
        res = stationary_phase_diagnostic(q=2.0, radii=(10.0, 20.0, 50.0), distances=(0.0, 1.0, 5.0))
        # at |x| = 50 the lightlike value beats the distance-5 transverse one by >> 10x
        assert res["on_cone"][-1] > 10 * res["transverse"][-1]

    def test_half_power_slope(self):
        res = stationary_phase_diagnostic(q=2.0, radii=(10.0, 20.0, 50.0), distances=(0.0,))
        assert -0.55 <= res["slope"] <= -0.45


class TestKnappSharpness:
    # frozen q=2 values: (R, gamma) -> (weighted_l2, f_norm2, ratio)
    FROZEN = {
        (16, 4.0): (0.36353611980832823, 0.34691755365331256, 0.5239517516193822),
        (16, 16.0): (0.4280078902743214, 0.17345877682665628, 0.6168726340985983),
    }

    @pytest.mark.parametrize("key", sorted(FROZEN))
    def test_frozen_values(self, key):
        R, gamma = key
        wl2, f2, ratio = self.FROZEN[key]
        res = knapp_sharpness(R, gamma, q=2.0)
        assert res["weighted_l2"] == pytest.approx(wl2, rel=1e-9)
        assert res["f_norm2"] == pytest.approx(f2, rel=1e-9)
        assert res["ratio"] == pytest.approx(ratio, rel=1e-9)

    def test_ratio_formula(self):
        res = knapp_sharpness(16, 4.0, q=2.0)
        assert res["ratio"] == pytest.approx(
            res["weighted_l2"] / (math.sqrt(4.0) * res["f_norm2"]), rel=1e-12
        )

    def test_ratio_in_sanity_window(self):
        for R, gamma in [(16, 4.0), (16, 16.0)]:
            res = knapp_sharpness(R, gamma, q=2.0)
            assert 0.01 <= res["ratio"] <= 100.0

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            knapp_sharpness(16, 0.5, q=2.0)
        with pytest.raises(ValueError):
            knapp_sharpness(16, 32.0, q=2.0)

    def test_weighted_l2_needs_midpoints(self):
        nu = generate("light_tube", 8, 0)
        with pytest.raises(ValueError):
            weighted_l2(nu, m=1)


def traced_peak(call) -> int:
    """Peak bytes traced by tracemalloc while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelMemory:
    def test_e1_grid_takes_j0_in_blocks(self, monkeypatch):
        # up to its last J0 block, e1_grid holds the real J0 table and a few
        # J0_BLOCK-sized buffers, however many radii there are (the product
        # after it casts the table to complex)
        quad = make_quadrature(64.0, 8.0, 2.0)
        r = np.linspace(0.0, 60.0, 4000)
        peaks, j0_port = [], fourier.j0

        def traced(x):
            got = j0_port(x)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return got

        monkeypatch.setattr(fourier, "j0", traced)
        tracemalloc.start()
        try:
            fourier.e1_grid(r, np.zeros(4), quad)
        finally:
            tracemalloc.stop()
        assert len(peaks) > 1
        assert max(peaks) <= 8 * len(r) * len(quad.rho) + 8 * 8 * fourier.J0_BLOCK

    def test_decay_mean_keeps_to_its_block_budget(self):
        # the step tables and cube sums of a block fill at most the budget's
        # complex entries; the block's float term arrays add a few (phi, rho) rows
        nu = generate("random_frostman", 128, 0)
        peak = traced_peak(lambda: decay_mean(nu))
        assert peak <= 1.5 * 16 * fourier.DECAY_BLOCK_BUDGET

    def test_radial_table_holds_only_its_lookups(self, monkeypatch):
        # the R=64, gamma=64, q=4 sharpness point looks up |u| <= 0.84, about
        # 1,350 samples of the table (22 kB) from two 37 x 327 geometric
        # tables (0.39 MB together)
        peaks, sizes = [], []
        table = fourier.radial_transform_table

        def traced(quad, u_max):
            peaks.append(traced_peak(lambda: table(quad, u_max)))
            out = table(quad, u_max)
            sizes.append(len(out.values))
            return out

        monkeypatch.setattr(fourier, "radial_transform_table", traced)
        knapp_sharpness(64, 64, q=4.0)
        assert len(peaks) == 1 and sizes[0] <= 1400 and peaks[0] < 0.5 * 10 ** 6
