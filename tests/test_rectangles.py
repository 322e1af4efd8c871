"""Curved (delta, tau)-rectangles, plank duality, and comparability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import tangency
from conelab.measures import MAXIMAL_RADII, generate_config
from conelab.rectangles import (
    C0,
    CORNER_COLUMNS,
    GREEDY_BLOCK,
    DeltaTauRectangle,
    RectangleFamily,
    _comparable_pairs,
    comparable,
    corner_polar,
    greedy_maximal_incomparable,
    sample_polar,
)

from oracle_suites import (
    Lightplank,
    SubResolutionArcError,
    angle_suite,
    annuli_area_suite,
    annuli_intersection_area,
    arc_midpoint,
    comparability_witness,
    dictionary_suite,
    dual_rectangle,
    duality_roundtrip_suite,
    engulfing_suite,
    exact_annuli_area,
    intersect_angle,
    membership_dilation,
    packing_suite,
    perturbed,
    rect_contains,
    sample_points,
    seeded_rectangle,
    separation,
    tangency_plank,
    transitivity_suite,
)


def example_rect(delta=1e-4, tau=1e-2) -> DeltaTauRectangle:
    return DeltaTauRectangle((0.0, 0.0, 1.0), (1.0, 0.0), delta, tau)


def family_of(rects) -> RectangleFamily:
    """Same-scale rectangles as the arrays the greedy reads."""
    return RectangleFamily(np.array([r.core for r in rects]),
                           np.array([r.arc_center for r in rects]), rects[0].delta, rects[0].tau)


def members(family: RectangleFamily) -> list:
    """Each rectangle of the family built from its rows, as the greedy builds what it keeps."""
    return [DeltaTauRectangle(core, u, family.delta, family.tau)
            for core, u in zip(family.cores, family.dirs.tolist())]


class TestRectangleBasics:
    def test_membership_examples(self):
        rect = example_rect()
        assert rect_contains(rect, arc_midpoint(rect))
        assert not rect_contains(rect, np.array([0.0, 0.0]))
        c, s = math.cos(2 * rect.tau), math.sin(2 * rect.tau)
        rotated = np.array([c, s])  # on the circle but outside the arc reach
        assert not rect_contains(rect, rotated)

    def test_sample_points_inside(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rect = seeded_rectangle(rng)
            pts = sample_points(rect.core, rect.arc_center, rect.delta, rect.tau)[0]
            assert pts.shape == (80, 2)
            assert bool(np.all(rect_contains(rect, pts)))

    def test_sample_points_batch_matches_rows(self):
        rng = np.random.default_rng(4)
        rects = [seeded_rectangle(rng, delta=1e-4, tau=0.02) for _ in range(20)]
        batch = sample_points([r.core for r in rects],
                              [r.arc_center for r in rects], 1e-4, 0.02)
        assert batch.shape == (20, 80, 2)
        assert np.array_equal(batch, [sample_points(r.core, r.arc_center, 1e-4, 0.02)[0]
                                      for r in rects])

    def test_corner_polar_is_the_corner_columns(self):
        # the closed-form corners equal sample_polar's corner columns bit for
        # bit, at every batch length and with tau = 0, where every half angle is 0
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 33, 500):
            for k in (5, 7, 10):
                delta = 2.0 ** -k
                angles = rng.uniform(-math.pi, math.pi, n)
                dirs = np.column_stack((np.cos(angles), np.sin(angles)))
                cores = np.column_stack((rng.uniform(-0.1, 0.1, (n, 2)), rng.uniform(0.3, 1.2, n)))
                for tau in (math.sqrt(delta), delta ** 0.25, 0.0):
                    radius, angle = sample_polar(cores, dirs, delta, tau)
                    corners = corner_polar(cores, dirs, delta, tau)
                    assert np.array_equal(corners[0], radius[:, CORNER_COLUMNS])
                    assert np.array_equal(corners[1], angle[:, CORNER_COLUMNS])

    def test_arc_center_normalized(self):
        rect = DeltaTauRectangle((0, 0, 1), (3.0, 4.0), 1e-4, 1e-2)
        assert math.hypot(*rect.arc_center) == pytest.approx(1.0, abs=1e-12)
        # the core is normalised to a tuple of three Python floats
        row = DeltaTauRectangle(np.array([0.0, 0.0, 1.0]), (3.0, 4.0), 1e-4, 1e-2)
        assert row == rect and hash(row) == hash(rect)
        assert row.core == (0.0, 0.0, 1.0) and all(type(v) is float for v in row.core)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DeltaTauRectangle((0, 0, 1), (0.0, 0.0), 1e-4, 1e-2)
        with pytest.raises(ValueError):
            DeltaTauRectangle((0, 0, 1), (1.0, 0.0), 2.0, 1e-2)
        with pytest.raises(ValueError):
            DeltaTauRectangle((0, 0, 1), (1.0, 0.0), 1e-4, 0.0)
        for core in ((0.0, 1.0), (0.0, 0.0, 1.0, 0.0)):
            with pytest.raises(ValueError, match="three floats"):
                DeltaTauRectangle(core, (1.0, 0.0), 1e-4, 1e-2)


class TestTangencyPlank:
    def test_half_dims_example(self):
        plank = tangency_plank(example_rect(), 1.0)
        assert plank.half_dims == pytest.approx((1e-4, 1e-2, 1.0), rel=1e-12)

    def test_core_tangent_circles_are_members(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            rect = seeded_rectangle(rng)
            plank = tangency_plank(rect, 1.0)
            assert membership_dilation(plank, rect.core) == 0.0

    def test_sub_resolution_arc_raises(self):
        rect = example_rect(delta=1e-4, tau=4e-3)  # tau < sqrt(delta)/2
        with pytest.raises(SubResolutionArcError):
            tangency_plank(rect, 1.0)


class TestDuality:
    def test_round_trip_examples(self):
        report = duality_roundtrip_suite(100, seed=0)
        assert report["violations"] == 0, report

    def test_round_trip_preserves_scale(self):
        rect = example_rect()
        back = dual_rectangle(tangency_plank(rect, 1.0), rect.delta)
        assert back.tau == pytest.approx(rect.tau, rel=1e-10)
        assert np.allclose(back.core, rect.core, atol=1e-12)
        assert np.allclose(back.arc_center, rect.arc_center, atol=1e-12)

    def test_dilation_invariant_tau(self):
        rect = example_rect()
        plank = tangency_plank(rect, 2.0)
        back = dual_rectangle(plank, 2.0 * rect.delta)
        assert back.tau == pytest.approx(rect.tau, rel=1e-10)

    def test_non_canonical_plank_rejected(self):
        rect = example_rect()
        plank = tangency_plank(rect, 1.0)
        squashed = Lightplank(plank.center, plank.direction, (1e-4, 1e-2, 0.5))
        with pytest.raises(ValueError):
            dual_rectangle(squashed, 1e-4)


class TestComparability:
    def test_reflexive(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rect = seeded_rectangle(rng)
            assert comparable(rect, rect, 2.0) is not None
            assert separation(rect, rect) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            r1 = seeded_rectangle(rng)
            r2 = perturbed(rng, r1, 0.8)
            assert separation(r1, r2) == pytest.approx(separation(r2, r1), rel=1e-9)
            assert (comparable(r1, r2, 2.0) is None) == (comparable(r2, r1, 2.0) is None)

    def test_shifted_core_not_comparable(self):
        # Short-axis shift by 10 A^2 delta leaves the A-comparable class.
        rect = example_rect()
        A = 2.0
        shift = 10 * A ** 2 * rect.delta / math.sqrt(2.0)
        core = (-shift, 0.0, rect.core[2] - shift)
        far = DeltaTauRectangle(core, rect.arc_center, rect.delta, rect.tau)
        assert comparable(rect, far, A) is None

    def test_rotated_arc_comparable_at_two(self):
        rect = example_rect()
        c, s = math.cos(rect.tau / 2), math.sin(rect.tau / 2)
        rot = DeltaTauRectangle(rect.core, (c, s), rect.delta, rect.tau)
        wit = comparability_witness(rect, rot, 2.0)
        assert wit is not None
        pts = sample_points([rect.core, rot.core], [rect.arc_center, rot.arc_center],
                            rect.delta, rect.tau).reshape(-1, 2)
        assert bool(np.all(rect_contains(wit.envelope, pts)))
        assert wit.effective_level >= 1.0

    def test_comparable_is_the_greedy_decision(self):
        # comparable says yes exactly when the separation is <= A^(C0/2) and the
        # greedy drops r2 from [r1, r2], and its float is that separation bit for
        # bit: on seeded pairs, opposed arcs, and arcs turned thresh * tau -+ 1e-9
        # rad from r1's, also past pi / 2, where the cut is off
        rng = np.random.default_rng(37)
        pairs = []
        for delta, tau in ((1e-5, 1e-2), (1e-4, 3e-2), (1e-3, 0.3)):
            for _ in range(40):
                r1 = seeded_rectangle(rng, delta, tau)
                pairs += [(r1, perturbed(rng, r1, frac)) for frac in (0.5, 2.0, 6.0)]
                t0 = math.atan2(r1.arc_center[1], r1.arc_center[0])
                for A in (1.0, 2.0, 3.0):
                    turns = [sign * (A ** (C0 / 2) * tau + off)
                             for sign in (-1, 1) for off in (-1e-9, 1e-9)]
                    pairs += [(r1, DeltaTauRectangle(r1.core, (math.cos(t0 + t), math.sin(t0 + t)),
                                                     delta, tau))
                              for t in turns + [math.pi]]
        outcomes = set()
        for r1, r2 in pairs:
            for A in (1.0, 2.0, 3.0):
                sep = comparable(r1, r2, A)
                family = family_of([r1, r2])
                kept = greedy_maximal_incomparable(family, A)
                assert (sep is not None) == (separation(r1, r2) <= A ** (C0 / 2))
                assert kept == members(family)[:2 if sep is None else 1]
                if sep is not None:
                    assert sep == separation(r1, r2)
                outcomes.add(sep is None)
        assert outcomes == {True, False}

    def test_scale_mismatch_rejected(self):
        r1 = example_rect(delta=1e-4)
        r2 = example_rect(delta=2e-4)
        with pytest.raises(ValueError):
            comparable(r1, r2, 2.0)
        # the scales are checked before A
        with pytest.raises(ValueError, match="share"):
            comparable(r1, r2, 0.5)
        with pytest.raises(ValueError, match="A must be"):
            comparable(r1, r1, 0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_witness_envelope_contains_members(self, seed):
        rng = np.random.default_rng(seed)
        r1 = seeded_rectangle(rng)
        r2 = perturbed(rng, r1, 1.0)
        wit = comparability_witness(r1, r2, 4.0)
        if wit is not None:
            pts = sample_points([r1.core, r2.core], [r1.arc_center, r2.arc_center],
                                r1.delta, r1.tau).reshape(-1, 2)
            assert bool(np.all(rect_contains(wit.envelope, pts)))


class TestRectangleFamily:
    def test_malformed_families_raise(self):
        cores, dirs = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, 0.5]]), np.array([[1.0, 0.0], [0.6, 0.8]])
        tilted = dirs.copy()
        tilted[1] *= 1 + 2e-12
        low = cores.copy()
        low[1, 2] = 1e-4
        for bad in ((cores[:1], dirs, 1e-4, 1e-2), (cores[:, :2], dirs, 1e-4, 1e-2),
                    (cores, np.ones((2, 3)), 1e-4, 1e-2), (cores, dirs[0], 1e-4, 1e-2),
                    (cores, tilted, 1e-4, 1e-2), (cores, dirs, 0.0, 1e-2),
                    (low, dirs, 1e-4, 1e-2), (cores, dirs, 1e-4, 0.0)):
            with pytest.raises(ValueError):
                RectangleFamily(*bad)

    def test_arrays_kept_bit_for_bit(self):
        # unit directions that normalising once more would change in the last bit
        rng = np.random.default_rng(29)
        angles = rng.uniform(0, 2 * math.pi, 200)
        dirs = np.stack((np.cos(angles), np.sin(angles)), axis=1)
        moved = [(x / math.hypot(x, y), y / math.hypot(x, y)) != (x, y) for x, y in dirs.tolist()]
        assert any(moved)
        cores = np.column_stack((rng.uniform(-1, 1, (200, 2)), rng.uniform(0.5, 2, 200)))
        before = cores.tobytes(), dirs.tobytes()
        family = RectangleFamily(cores, dirs, 1e-4, 1e-2)
        assert family.cores is cores and family.dirs is dirs and len(family) == 200
        assert (family.cores.tobytes(), family.dirs.tobytes()) == before
        assert len(RectangleFamily(np.zeros((0, 3)), np.zeros((0, 2)), 1e-4, 1e-2)) == 0


class TestGreedy:
    def test_idempotent(self):
        rng = np.random.default_rng(17)
        rects = [seeded_rectangle(rng, delta=1e-4, tau=1e-2) for _ in range(40)]
        again = family_of(greedy_maximal_incomparable(family_of(rects), 2.0))
        assert greedy_maximal_incomparable(again, 2.0) == members(again)

    def test_copies_collapse(self):
        family = family_of([example_rect()] * 10)
        assert greedy_maximal_incomparable(family, 2.0) == members(family)[:1]

    def test_empty_family(self):
        family = RectangleFamily(np.zeros((0, 3)), np.zeros((0, 2)), 1e-4, 1e-2)
        assert greedy_maximal_incomparable(family, 2.0) == []

    def test_kept_pairwise_incomparable_inputs_covered(self):
        rng = np.random.default_rng(19)
        base = [seeded_rectangle(rng, delta=1e-4, tau=1e-2) for _ in range(8)]
        family = family_of(base + [perturbed(rng, r, 0.3) for r in base for _ in range(3)])
        kept = greedy_maximal_incomparable(family, 2.0)
        for i, r1 in enumerate(kept):
            for r2 in kept[i + 1:]:
                assert comparable(r1, r2, 2.0) is None
        for r in members(family):
            assert any(comparable(r, k, 2.0) is not None for k in kept)

    def test_blocks_match_one_candidate_at_a_time(self):
        # 600 shuffled inputs span three candidate blocks; the reference keeps
        # each input against every member kept before it, one at a time
        rng = np.random.default_rng(23)
        base = [seeded_rectangle(rng, delta=1e-4, tau=3e-2) for _ in range(10)]
        rects = [perturbed(rng, r, 6.0) for r in base for _ in range(60)]
        thresh = 2.0 ** (C0 / 2)
        # on fresh cores, arcs turned either way by thresh * tau -+ 1e-9 rad:
        # each side of the angular pre-screen's cut, one comparable, one not
        for r in (seeded_rectangle(rng, delta=1e-4, tau=3e-2) for _ in range(4)):
            t0 = math.atan2(r.arc_center[1], r.arc_center[0])
            edge = [DeltaTauRectangle(r.core, (math.cos(t), math.sin(t)), r.delta, r.tau)
                    for t in (t0 + sign * (thresh * r.tau + off)
                              for sign in (-1, 1) for off in (-1e-9, 1e-9))]
            assert [separation(r, e) <= thresh for e in edge] == [True, False] * 2
            rects += [r] + edge
        family = family_of([rects[i] for i in rng.permutation(len(rects))])
        ref = []
        for r in members(family):
            if all(separation(r, k) > thresh for k in ref):
                ref.append(r)
        assert len(family) > 2 * GREEDY_BLOCK and 40 < len(ref) < len(family) / 2
        assert greedy_maximal_incomparable(family, 2.0) == ref

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 2 * math.pi), st.sampled_from([1e-2, 3e-2, 0.1, 0.3]),
           st.floats(1.0, 4.0),
           st.lists(st.tuples(st.integers(-1, 1), st.floats(-1e-9, 1e-9), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=6))
    def test_prescreen_keeps_the_decision_mask(self, theta, tau, A, family):
        # arcs k * thresh * tau + eps from theta, cores shifted by up to 2 delta;
        # thresh * tau runs from 0.01 to past pi / 2, where the cut is off
        delta, thresh = tau ** 2, A ** (C0 / 2)
        arcs = [(math.cos(t), math.sin(t))
                for t in (theta + k * thresh * tau + eps for k, eps, _ in family)]
        us = np.array([(x / math.hypot(x, y), y / math.hypot(x, y)) for x, y in arcs])
        cores = np.array([(0.01 + shift * delta, 0.01, 1.0) for *_, shift in family])
        n = len(family)
        masks = []
        for limit, lower in ((math.inf, False), (thresh, False), (thresh, True)):
            ia, ib, sep = _comparable_pairs(cores, us, cores, us, delta, tau, limit, lower)
            assert np.all(np.diff(ib) >= 0)  # the pairs come in order of ib
            mask = np.zeros((n, n), dtype=bool)
            mask[ia, ib] = sep <= thresh
            masks.append(mask)
        exact, cut, lower = masks
        assert np.array_equal(cut, exact)
        assert np.array_equal(lower, np.tril(exact, -1))

    def test_main_geom_check_family_matches_one_candidate_at_a_time(self, monkeypatch):
        # the M = 1 bucket of main_geom_check at delta = 2^-6: every circle
        # at every arc node, 1632 candidates, against the one-at-a-time keep
        families = []

        def capture(family, A):
            families.append((family, A))
            return greedy_maximal_incomparable(family, A)

        monkeypatch.setattr(tangency, "greedy_maximal_incomparable", capture)
        config = generate_config("wolff_radii", 2.0 ** -6, 32, 0, radius_band=MAXIMAL_RADII)
        tangency.main_geom_check(config)
        (family, A), = families
        thresh = A ** (C0 / 2)
        ref = []
        for r in members(family):
            if all(separation(r, k) > thresh for k in ref):
                ref.append(r)
        assert len(family) == 1632 and len(ref) == 65
        assert greedy_maximal_incomparable(family, A) == ref

    def test_comparable_pair_far_apart_in_angle(self):
        # arc angles 0.374 apart on one core: separation 4.234 <= A^3 = 4.287,
        # yet wider than 2 pi / ceil(2 pi / (A^3 tau)), so an index of angle
        # buckets that width would keep both
        delta = 2.0 ** -7
        tau, A = math.sqrt(delta), delta ** -0.1
        core = (0.0, 0.0, 0.75)
        t1 = -math.pi + 6 * 2 * math.pi / 17 - 1e-6
        r1, r2 = (DeltaTauRectangle(core, (math.cos(t), math.sin(t)), delta, tau)
                  for t in (t1, t1 + 0.37426))
        assert comparable(r1, r2, A) is not None
        family = family_of([r1, r2])
        assert greedy_maximal_incomparable(family, A) == members(family)[:1]


class TestIntersectAngle:
    def test_hand_values(self):
        phi = intersect_angle((0.0, 0.0, 1.0), (0.1, 0.0, 0.95))
        assert phi == pytest.approx(0.08885, abs=5e-5)
        assert phi / math.sqrt(0.15 * 0.05) == pytest.approx(1.026, abs=5e-3)

    def test_small_offset_unit_circles(self):
        phi = intersect_angle((0.0, 0.0, 1.0), (1e-3, 0.0, 1.0))
        assert phi == pytest.approx(1e-3, rel=1e-3)

    def test_near_tangency_tiny_angle(self):
        b = 0.05 + 1e-9  # internal tangency |r - s| = 0.05, bumped by 1e-9
        phi = intersect_angle((0.0, 0.0, 1.0), (b, 0.0, 0.95))
        assert phi <= 1e-4

    def test_non_transversal_rejected(self):
        with pytest.raises(ValueError):
            intersect_angle((0.0, 0.0, 1.0), (3.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            intersect_angle((0.0, 0.0, 1.0), (0.0, 0.0, 0.5))


class TestAnnuliArea:
    def test_concentric_equal(self):
        delta = 0.01
        area, se = annuli_intersection_area((0, 0, 1.0), (0, 0, 1.0), delta,
                                            samples=200_000, seed=1)
        assert abs(area - 4 * math.pi * delta) <= 3 * se
        exact = exact_annuli_area((0, 0, 1.0), (0, 0, 1.0), delta)
        assert exact == pytest.approx(4 * math.pi * delta, rel=1e-12)

    def test_disjoint_zero(self):
        area, se = annuli_intersection_area((0, 0, 1.0), (5.0, 0, 1.0), 0.01,
                                            samples=50_000, seed=2)
        assert area == 0.0
        assert exact_annuli_area((0, 0, 1.0), (5.0, 0, 1.0), 0.01) == 0.0

    def test_separated_tangency_example(self):
        # d = 0.15, Delta = 0.05 at delta = 1e-3: radius gap 0.05, center
        # distance 0.1; the measured constant sits just below 8.
        delta = 1e-3
        v, w = (0.0, 0.0, 1.0), (0.1, 0.0, 0.95)
        bound = 8 * delta ** 2 / math.sqrt((0.15 + delta) * (0.05 + delta))
        exact = exact_annuli_area(v, w, delta)
        assert exact <= bound
        assert exact >= 0.9 * bound  # the constant really is ~8, not slack
        area, se = annuli_intersection_area(v, w, delta, samples=2_000_000, seed=3)
        assert area <= bound + 3 * se
        assert abs(area - exact) <= 3 * se


class TestOracleSuites:
    """Small-count versions of the acceptance geometry suites."""

    def test_engulfing(self):
        report = engulfing_suite(60, seed=0)
        assert report["violations"] == 0, report
        assert report["max_A1"] <= 8.0

    def test_transitivity(self):
        report = transitivity_suite(60, seed=0)
        assert report["violations"] == 0, report
        assert report["max_C"] <= 12.0

    def test_dictionary(self):
        report = dictionary_suite(60, seed=0)
        assert report["violations"] == 0, report

    def test_packing(self):
        report = packing_suite(range(3))
        assert report["violations"] == 0, report
        assert report["max_count"] <= 4096

    def test_angle_ratio(self):
        report = angle_suite(200, seed=0)
        assert report["violations"] == 0, report
        lo, hi = report["ratio_range"]
        assert 0.25 <= lo <= hi <= 4.0

    def test_annuli_area_bound(self):
        report = annuli_area_suite(64, seed=0, mc_every=16)
        assert report["violations"] == 0, report
        assert report["mc_violations"] == 0, report
        assert report["max_measured_const"] <= 8.0
