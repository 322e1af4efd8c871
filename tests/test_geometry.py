"""Point-circle distances, lightlike frames, and plank membership.

The distances are the closed-form oracles of `oracle_suites`; the library
computes them in bulk inside `classify_pairs`, checked in test_tangency.py.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conelab.geometry import lightlike_frame
from oracle_suites import Lightplank, dist_d, gap_delta, membership_dilation

SQRT2 = math.sqrt(2.0)

finite = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
angle = st.floats(0.0, 2 * math.pi - 1e-9)


def point(x, y, h):
    return (float(x), float(y), float(h))


# ---------------------------------------------------------------------------
# distances


def test_dist_hand_values():
    assert dist_d(point(0, 0, 1), point(0, 0, 1)) == 0.0
    assert dist_d(point(0, 0, 1), point(0.5, 0, 0.5)) == pytest.approx(1.0)
    assert dist_d(point(0, 0, 1), point(0.1, 0, 0.95)) == pytest.approx(0.15)


def test_gap_hand_values():
    assert gap_delta(point(0, 0, 1), point(0.5, 0, 0.5)) == pytest.approx(0.0)
    assert gap_delta(point(0, 0, 1), point(0.1, 0, 0.95)) == pytest.approx(0.05)
    assert gap_delta(point(0, 0, 1), point(0, 0, 0.9)) == pytest.approx(0.1)


@given(finite, finite, finite, finite, finite, finite)
def test_distance_symmetry_and_order(ax, ay, ah, bx, by, bh):
    v, w = point(ax, ay, ah), point(bx, by, bh)
    assert dist_d(v, w) == pytest.approx(dist_d(w, v))
    assert gap_delta(v, w) == pytest.approx(gap_delta(w, v))
    # the defect never exceeds the distance
    assert gap_delta(v, w) <= dist_d(v, w) + 1e-12


# ---------------------------------------------------------------------------
# lightlike frames


def frame_at(theta):
    return lightlike_frame(math.cos(theta), math.sin(theta))


@given(angle)
def test_basis_is_orthonormal_and_lightlike(theta):
    m = frame_at(theta)
    assert m.shape == (3, 3)
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
    e_s, e_m, e_l = m
    for v in (e_s, e_l):
        assert np.hypot(v[0], v[1]) == pytest.approx(abs(v[2]), abs=1e-12)
    assert e_m[2] == 0.0


def test_frame_arrays_match_single_directions():
    # the plank scan builds all its frames in one call; each must equal the
    # frame of its direction alone, bit for bit
    for spacing in (0.5 / math.sqrt(16), 0.5 / math.sqrt(256), 0.5 * 0.3):
        theta = np.arange(int(math.ceil(2 * math.pi / spacing))) * spacing
        frames = lightlike_frame(np.cos(theta), np.sin(theta))
        assert frames.shape == (len(theta), 3, 3)
        for i, t in enumerate(theta):
            single = lightlike_frame(math.cos(t), math.sin(t))
            assert np.array_equal(frames[i], single), t
    assert lightlike_frame(np.ones((2, 4)), np.zeros((2, 4))).shape == (2, 4, 3, 3)


def basis_change(m1, m2):
    """M[i, j] = <frame2_i, frame1_j>, rows and columns ordered (s, m, l)."""
    return m2 @ m1.T


@given(angle, angle)
def test_basis_change_closed_form(t1, t2):
    # with theta the angle from the first planar direction to the second, the
    # entries are closed forms in cos theta and sin theta
    m = basis_change(frame_at(t1), frame_at(t2))
    assert np.allclose(m @ m.T, np.eye(3), atol=1e-10)
    c, s = math.cos(t2 - t1), math.sin(t2 - t1)
    ref = np.array([
        [(c + 1) / 2, -s / SQRT2, (c - 1) / 2],
        [s / SQRT2, c, s / SQRT2],
        [(c - 1) / 2, -s / SQRT2, (c + 1) / 2],
    ])
    assert np.allclose(m, ref, atol=1e-10)


def test_basis_change_quarter_turn():
    m1 = lightlike_frame(1.0, 0.0)
    m2 = lightlike_frame(0.0, 1.0)  # theta = pi/2
    m = basis_change(m1, m2)
    # row of the rotated short axis against (e_s, e_m, e_l)
    assert np.allclose(m[0], [0.5, -1 / SQRT2, -0.5], atol=1e-12)
    assert np.allclose(basis_change(m1, m1), np.eye(3), atol=1e-12)


# ---------------------------------------------------------------------------
# planks


def make_plank(theta=0.3, half=(0.5, 1.0, 2.0), center=(0.1, -0.2, 1.0)):
    return Lightplank(point(*center), (math.cos(theta), math.sin(theta)), half)


def test_plank_rejects_non_unit_direction():
    with pytest.raises(ValueError, match="unit"):
        Lightplank(point(0, 0, 1), (1.0, 1.0), (0.5, 1.0, 2.0))
    assert make_plank().direction == (math.cos(0.3), math.sin(0.3))


def test_plank_rejects_unordered_dims():
    with pytest.raises(ValueError):
        make_plank(half=(1.0, 0.5, 2.0))
    with pytest.raises(ValueError):
        make_plank(half=(0.0, 0.5, 2.0))


def test_plank_membership_center_and_corner():
    p = make_plank()
    assert membership_dilation(p, p.center) == 0.0
    hs, hm, hl = p.half_dims
    e_s, e_m, e_l = lightlike_frame(*p.direction)
    corner = np.asarray(p.center) + hs * e_s + hm * e_m + hl * e_l
    assert membership_dilation(p, corner) == pytest.approx(1.0, abs=1e-12)
    far = np.asarray(p.center) + 2 * hl * e_l
    assert membership_dilation(p, far) == pytest.approx(2.0, abs=1e-12)


def test_plank_corners_are_boundary_members():
    p = make_plank(theta=1.1)
    corners = p.corners()
    assert corners.shape == (8, 3)
    assert np.allclose(membership_dilation(p, corners), 1.0, atol=1e-9)


@given(angle, st.floats(0.1, 3.0), st.floats(1.0, 4.0))
@example(0.0, 1.0, 1.0000000000000002)
@settings(max_examples=50)
def test_membership_monotone_in_dilation(theta, scale, lam):
    # a point pushed out from the center by lam needs lam times the dilation.
    # For lam within rounding of 1, center + lam * step and center + step
    # differ by rounding alone (at lam = 1 + 2^-52, farther is 1.0 and need
    # 1.0000000000000002), so the strict order is asserted only above that.
    p = make_plank(theta=theta)
    e_s, _, e_l = lightlike_frame(*p.direction)
    step = scale * (e_s * p.half_dims[0] + e_l * p.half_dims[2])
    need = membership_dilation(p, np.asarray(p.center) + step)
    assert need == pytest.approx(scale, rel=1e-9)
    farther = membership_dilation(p, np.asarray(p.center) + lam * step)
    assert farther == pytest.approx(lam * need, rel=1e-9)
    if lam >= 1 + 1e-9:
        assert farther >= need


def test_dilated_plank_scales_dims():
    p = make_plank()
    q = Lightplank(p.center, p.direction, tuple(3.0 * h for h in p.half_dims))
    assert membership_dilation(q, p.corners()).max() == pytest.approx(1 / 3.0, abs=1e-9)
