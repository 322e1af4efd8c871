"""Curved delta,tau-rectangles, their sample points, and comparability.

A (delta, tau)-rectangle on the circle dual to a point v is the set

    Omega = { a in R^2 : | |a - v'| - v3 | <= delta, |a - a0| <= tau },

where a0 = v' + v3 * arc_center is the arc midpoint.  Containment is
boundary inclusive and is always decided on 64 boundary + 16 interior
sample points, one array call for a whole family of rectangles sharing
(delta, tau).  The points come in two elementwise steps, polar arrays
(:func:`sample_polar`) and then the cartesian points of chosen columns
(:func:`polar_points`), so a caller can test the four corners
(CORNER_COLUMNS, the ends of the outer and inner arcs) first: a rectangle
off its circle's annulus almost always leaves it at a corner, and whether
all 80 points hold does not depend on the order.
A circle equal to the core, of height v3 > delta, holds all 80 without a
test: every sample point lies at a radius in [v3 - delta, v3 + delta]
about its centre, which leaves only rounding of about 1e-16 against the
annulus slack of 1e-7 delta + COORD_TOL.

A :class:`RectangleFamily` holds rectangles sharing (delta, tau) as arrays,
checked but never rewritten; the greedy selection reads them and builds a
:class:`DeltaTauRectangle` only for each member it keeps.

The set of circles delta-tangent to Omega is comparable to a lightplank of
half-dims (delta, delta/tau, delta/tau^2) anchored at v with planar
direction arc_center; criterion 6 checks this tangency-plank dictionary on
the test side.

Comparability of two rectangles sharing (delta, tau) is decided through
the plank dictionary: the decision functional is the largest separation of
the cores measured in the mean lightlike frame, normalized axis-by-axis by
the canonical plank half-dims, together with the arc direction angle in
units of tau.  With decision constant C0 = 6 the acceptance threshold is
sep <= A^(C0/2); the bracketed thresholds A^(1/C0) (complete side) and
A^C0 (sound side) are exercised by the test suite.  One kernel serves the
greedy selection and the one-pair decision `comparable` alike, and returns
only the comparable pairs, as index arrays.  Since sep >= |angle| / tau, it
takes up only pairs of arcs whose dot product exceeds
cos(threshold * tau) - 1e-12 (when threshold * tau < pi/2; the 1e-12
covers rounding); of those, the short-axis term screens first, the middle
and long ones next, and only the survivors take the arctan2 of the angle
term.  A block of candidates against itself keeps the pairs below the
diagonal only, the half the greedy's keep scan walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COORD_TOL, SQRT2, as_point

# Comparability decision constant: thresholds A^(1/C0) and A^C0 bracket the
# relation, the decision itself sits at the geometric midpoint A^(C0/2).
C0 = 6

GREEDY_BLOCK = 256  # greedy candidates tested per pairwise separation call


@dataclass(frozen=True)
class DeltaTauRectangle:
    """A (delta, tau)-rectangle: core point, unit arc direction, parameters."""

    core: tuple[float, float, float]
    arc_center: tuple[float, float]
    delta: float
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "core", as_point(self.core))
        ax, ay = self.arc_center
        n = math.hypot(ax, ay)
        if n <= COORD_TOL:
            raise ValueError("arc_center must be a nonzero planar direction")
        object.__setattr__(self, "arc_center", (ax / n, ay / n))
        if not (0 < self.delta < self.core[2]):
            raise ValueError(f"need 0 < delta < core height, got delta={self.delta}, h={self.core[2]}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True, eq=False)
class RectangleFamily:
    """n rectangles sharing (delta, tau), as (n, 3) cores and (n, 2) unit arc directions."""

    cores: np.ndarray
    dirs: np.ndarray
    delta: float
    tau: float

    def __post_init__(self):
        if np.shape(self.cores) != (len(self.dirs), 3) or np.shape(self.dirs)[1:] != (2,):
            raise ValueError("need (n, 3) cores and (n, 2) arc directions")
        if not np.all(np.abs(np.hypot(*self.dirs.T) - 1.0) <= 1e-12):
            raise ValueError("arc directions must be unit vectors")
        if not (0 < self.delta < np.min(self.cores[:, 2], initial=math.inf) and self.tau > 0):
            raise ValueError("need 0 < delta < every core height and tau > 0")

    def __len__(self) -> int:
        return len(self.cores)


def _half_angle(v3, tau: float, r: np.ndarray) -> np.ndarray:
    """Largest |angle| from the arc midpoint keeping chord distance <= tau at radius r."""
    c = (r * r + v3 * v3 - tau * tau) / (2.0 * r * v3)
    return np.arccos(np.clip(c, -1.0, 1.0))


# angle fractions (of the chord-limited half angle) and radius fractions (of
# delta) of the 4 x 4 interior sample grid
_INTERIOR_FRACTIONS = np.array([-0.6, -0.2, 0.2, 0.6])
# sample columns of the four corners: the ends of the outer and inner arcs
CORNER_COLUMNS = np.array([0, 23, 24, 47])


def sample_polar(cores: np.ndarray, dirs: np.ndarray, delta: float,
                 tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Radius and angle, each (n, 80), of the sample points of n rectangles.

    cores is (n, 3) and dirs the (n, 2) unit arc directions, all sharing
    (delta, tau).  Per rectangle, in polar coordinates about the core and in
    this order: 24 + 24 points on the outer and inner band boundary arcs,
    8 + 8 points on the two end caps following the chord-limited angle, and
    16 interior points on a 4 x 4 (radius x angle-fraction) grid.
    """
    cores, dirs = np.reshape(cores, (-1, 3)), np.reshape(dirs, (-1, 2))
    h, v3 = cores[:, 2], cores[:, 2:3]
    r_cap = np.linspace(h - delta, h + delta, 8, axis=1)
    r_in = v3 + delta * _INTERIOR_FRACTIONS
    psi = _half_angle(v3, tau, np.concatenate((v3 + delta, v3 - delta, r_cap, r_in), axis=1))
    psi_cap, psi_in = psi[:, 2:10], psi[:, 10:]
    radius = np.concatenate((np.repeat(v3 + delta, 24, axis=1), np.repeat(v3 - delta, 24, axis=1),
                             r_cap, r_cap, np.repeat(r_in, 4, axis=1)), axis=1)
    phi = np.concatenate((np.linspace(-psi[:, 0], psi[:, 0], 24, axis=1),
                          np.linspace(-psi[:, 1], psi[:, 1], 24, axis=1), psi_cap, -psi_cap,
                          (psi_in[:, :, None] * _INTERIOR_FRACTIONS).reshape(-1, 16)), axis=1)
    return radius, np.arctan2(dirs[:, 1], dirs[:, 0])[:, None] + phi


def corner_polar(cores: np.ndarray, dirs: np.ndarray, delta: float,
                 tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Radius and angle, each (n, 4), of the four corners: `sample_polar`'s CORNER_COLUMNS.

    The outer and inner arcs end at radii v3 +- delta and angles arc -+ the
    half angle at that radius, computed as `sample_polar` computes them, so
    the values are those columns' bit for bit.
    """
    cores, dirs = np.reshape(cores, (-1, 3)), np.reshape(dirs, (-1, 2))
    v3 = cores[:, 2:3]
    radius = np.concatenate((v3 + delta, v3 - delta), axis=1)
    psi = _half_angle(v3, tau, radius)
    phi = np.stack((-psi[:, 0], psi[:, 0], -psi[:, 1], psi[:, 1]), axis=1)
    return np.repeat(radius, 2, axis=1), np.arctan2(dirs[:, 1], dirs[:, 0])[:, None] + phi


def polar_points(cores: np.ndarray, radius: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Planar (n, k, 2) points at (n, k) radii and angles about the n cores' centres.

    Elementwise, so any selection of the (n, 80) polar columns gives the
    same bits as those columns of the points of all 80.
    """
    return cores[:, None, :2] + radius[:, :, None] * np.stack((np.cos(angle), np.sin(angle)),
                                                              axis=-1)


def _comparable_pairs(cores_a: np.ndarray, us_a: np.ndarray, cores_b: np.ndarray,
                      us_b: np.ndarray, delta: float, tau: float, thresh: float,
                      lower: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ia, ib, sep): the pairs of rectangles a and b with decision separation <= thresh.

    The pairs come in order of ib, and lower keeps only ia > ib, for a
    family against itself.  Opposed arcs never pass.  Nor do arcs more
    than thresh * tau apart: the angle term alone puts their separation
    above thresh, so a cosine cut, with a 1e-12 margin over the rounding
    of the dot products, drops them first.  The s term then screens the
    rest, m and l screen its survivors, and only theirs take the arctan2.
    """
    # the dot products as one matrix-vector product per row of a, the route
    # every frozen kept list was decided on; us_a @ us_b.T can differ from
    # it in the last ulp
    dots = (us_b @ us_a[:, :, None])[..., 0]
    cut = max(math.cos(thresh * tau) - 1e-12, 0.0) if thresh * tau < math.pi / 2 else 0.0
    ib, ia = np.divmod(np.flatnonzero((dots > cut).T), len(us_a))
    if lower:
        ia, ib = ia[ia > ib], ib[ia > ib]
    # gathered column by column, which numpy does faster than by rows
    (xa, ya, ha), (xb, yb, hb) = cores_a.T, cores_b.T
    (pa, qa), (pb, qb) = us_a.T, us_b.T
    ux, uy = pa[ia] + pb[ib], qa[ia] + qb[ib]
    norm = np.hypot(ux, uy)
    ux /= norm
    uy /= norm
    dx, dy, dh = xa[ia] - xb[ib], ya[ia] - yb[ib], ha[ia] - hb[ib]
    along = dx * ux + dy * uy
    sep = np.abs(along + dh) / SQRT2 / delta
    k = np.flatnonzero(sep <= thresh)
    ia, ib, ux, uy, dx, dy, dh, along, sep = (v[k] for v in (ia, ib, ux, uy, dx, dy, dh,
                                                             along, sep))
    m = np.abs(dy * ux - dx * uy) / (delta / tau)
    l = np.abs(dh - along) / SQRT2 / (delta / tau ** 2)
    sep = np.maximum(np.maximum(sep, m), l)
    k = sep <= thresh
    ia, ib, sep = ia[k], ib[k], sep[k]
    cross = pa[ia] * qb[ib] - qa[ia] * pb[ib]
    sep = np.maximum(sep, np.abs(np.arctan2(cross, dots[ia, ib])) / tau)
    k = sep <= thresh
    return ia[k], ib[k], sep[k]


def comparable(r1: DeltaTauRectangle, r2: DeltaTauRectangle, A: float) -> float | None:
    """The decision separation of an A-comparable pair, or None.

    Deterministic, symmetric, reflexive: the pair is comparable exactly
    when its separation is <= A^(C0/2), decided by the greedy's own kernel.
    """
    if abs(r1.delta - r2.delta) > 1e-12 * r1.delta or abs(r1.tau - r2.tau) > 1e-12 * r1.tau:
        raise ValueError("rectangles must share (delta, tau)")
    if A < 1.0:
        raise ValueError("A must be >= 1")
    *_, sep = _comparable_pairs(np.array([r1.core]), np.array([r1.arc_center]),
                                np.array([r2.core]), np.array([r2.arc_center]),
                                r1.delta, r1.tau, A ** (C0 / 2))
    return float(sep[0]) if len(sep) else None


def greedy_maximal_incomparable(family: RectangleFamily, A: float) -> list[DeltaTauRectangle]:
    """Greedy pairwise-incomparable subfamily, kept in input order.

    A rectangle is kept iff it is not comparable (at level A) to any
    already-kept member, so kept members are pairwise incomparable and
    every input is comparable to some member.  Ties between identical
    inputs resolve to the earlier one; callers wanting order independence
    should pre-sort by (core, arc angle).
    """
    if A < 1.0:
        raise ValueError("A must be >= 1")
    cores, us, delta, tau = family.cores, family.dirs, family.delta, family.tau
    thresh = A ** (C0 / 2)
    kept_idx = np.zeros(0, dtype=int)
    for s in range(0, len(family), GREEDY_BLOCK):
        block = np.arange(s, min(s + GREEDY_BLOCK, len(family)))
        # drop the block's candidates comparable to a member kept earlier
        near, *_ = _comparable_pairs(cores[block], us[block], cores[kept_idx], us[kept_idx],
                                     delta, tau, thresh)
        block = np.delete(block, near)
        # then keep survivors in order, each dropping the later ones comparable to it
        later, earlier, _ = _comparable_pairs(cores[block], us[block], cores[block], us[block],
                                              delta, tau, thresh, lower=True)
        keep = [True] * len(block)
        for i, j in zip(earlier.tolist(), later.tolist()):
            if keep[i]:
                keep[j] = False
        kept_idx = np.concatenate((kept_idx, block[np.array(keep, dtype=bool)]))
    return [DeltaTauRectangle(cores[i], us[i].tolist(), delta, tau) for i in kept_idx]
