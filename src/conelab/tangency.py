"""Tangent circle pairs and incidence counts.

For circles v = (v', v3), w = (w', w3) the separation and tangency defect
are

    d(v, w)     = |v' - w'| + |v3 - w3|,
    Delta(v, w) = | |v' - w'| - |v3 - w3| |,

so d ~ D with Delta ~ 0 means internal or external tangency at distance D.
Pairs tangent at resolution delta (Delta <= 2 delta) with d ~ D are
counted against the multiplicity of lightplanks of half-dimensions
(delta, delta/tau, delta/tau^2) with tau = sqrt(delta / D).

The multiplicity of a delta,tau-rectangle in a configuration X counts the
circles of X whose delta-annulus contains the rectangle (sampled
containment).  `main_geom_check` histograms multiplicities over a grid of
candidate rectangles, extracts maximal pairwise-incomparable subfamilies
per dyadic multiplicity M, and reports the normalized count
M^(3/2) |R_M| tau / |X| that the incidence bound controls up to
logarithmic factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import COORD_TOL
from .measures import CircleConfig, gamma_tau
from .rectangles import (
    CORNER_COLUMNS,
    RectangleFamily,
    corner_polar,
    greedy_maximal_incomparable,
    polar_points,
    sample_polar,
)

TANGENT_SLACK = 2.0  # pairs with Delta <= TANGENT_SLACK * delta count as tangent
GEOM_EPS = 0.1  # main_geom_check compares rectangles at level A = delta^(-GEOM_EPS)
NU_BLOCK = 512  # candidate rectangles per block of nu_multiplicity
# the sample points nu_multiplicity tests in turn: the four corners, then the other 76
_STAGES = ((corner_polar, slice(None)), (sample_polar, np.delete(np.arange(80), CORNER_COLUMNS)))


@dataclass(frozen=True)
class PairTable:
    """Condensed pair statistics for a configuration (i < j ordering)."""

    i: np.ndarray
    j: np.ndarray
    d: np.ndarray
    delta_defect: np.ndarray
    delta: float

    def tangent_mask(self) -> np.ndarray:
        return self.delta_defect <= TANGENT_SLACK * self.delta

    def band_mask(self, D: float) -> np.ndarray:
        """Pairs with d in [D, 2D)."""
        return (self.d >= D) & (self.d < 2 * D)

    def dyadic_D(self) -> list[float]:
        """Dyadic distances delta * 2^k intersecting the observed range."""
        if len(self.d) == 0 or self.d.max() == 0:  # no pairs, or only coincident ones
            return []
        lo = max(int(math.floor(math.log2(max(self.d.min(), self.delta) / self.delta))), 0)
        hi = int(math.floor(math.log2(self.d.max() / self.delta)))
        return [self.delta * 2.0 ** k for k in range(lo, hi + 1)]


def classify_pairs(config: CircleConfig) -> PairTable:
    """All unordered pairs with separation d and tangency defect Delta."""
    c = config.circles
    n = len(c)
    if n < 2:
        empty = np.empty(0)
        return PairTable(empty.astype(int), empty.astype(int), empty, empty, config.delta)
    i, j = np.triu_indices(n, k=1)
    dv = c[i] - c[j]
    planar = np.sqrt(np.sum(dv[:, :2] * dv[:, :2], axis=1))
    radial = np.abs(dv[:, 2])
    return PairTable(i, j, planar + radial, np.abs(planar - radial), config.delta)


def pair_count(config: CircleConfig, table: PairTable, D: float) -> dict:
    """Tangent pairs at separation ~D against the plank-multiplicity bound.

    ratio = |pairs with d in [D, 2D), Delta <= 2 delta|
            / (gamma^(1/2) (D/delta)^(1/2) |X|)
    with gamma the doubled-plank multiplicity at tau_D = sqrt(delta/D), and
    table = classify_pairs(config), built once for all bands.
    """
    if D < 8 * config.delta:
        raise ValueError("D below 8*delta")
    count = int(np.sum(table.band_mask(D) & table.tangent_mask()))
    tau_D = math.sqrt(config.delta / D)
    gamma = max(gamma_tau(config, tau_D), 1)
    denom = math.sqrt(gamma) * math.sqrt(D / config.delta) * max(config.count, 1)
    return {
        "D": D,
        "count": count,
        "gamma": gamma,
        "tau_D": tau_D,
        "denominator": denom,
        "ratio": count / denom,
    }


def nu_multiplicity(config: CircleConfig, cores: np.ndarray, dirs: np.ndarray,
                    tau: float) -> np.ndarray:
    """Per rectangle, the number of circles whose delta-annulus contains it.

    The rectangles are given as (n, 3) cores and (n, 2) unit arc directions
    at the configuration's delta.  Containment is checked on each
    rectangle's sample points; a circle can only qualify if the arc point
    a0 lies in its delta-annulus, so only the (rectangle, circle) pairs that
    pass that test go on.  Of those, a circle equal to the core with height
    above delta counts at once: every sample point lies at radius
    v3 +- delta about its centre, up to rounding far inside the slack.  The
    rest test the four corner points first, from `corner_polar`, and build
    and test the other 76 only if all four hold.  Rectangles are taken
    NU_BLOCK at a time, so memory is bounded by the block, not by n.

    The a0 test itself only sees the circles whose radius can pass it.
    With m the midpoint of the centres' bounding box and rho the largest
    |w' - m|, the triangle inequality puts |a0 - w'| within rho of
    |a0 - m|, so a passing circle has w3 within rho + delta + COORD_TOL of
    |a0 - m|.  The circles are sorted by radius and each rectangle tests
    the run of radii in that window, widened by 1e-12 (1 + |a0 - m| + rho),
    thousands of times the few ulps of rounding in either distance.
    """
    delta = config.delta
    cores, dirs = np.reshape(cores, (-1, 3)), np.reshape(dirs, (-1, 2))
    counts = np.zeros(len(cores), dtype=np.intp)
    if not config.count:
        return counts
    # the circles by radius, one contiguous column per coordinate
    cx, cy, cr = config.circles[np.argsort(config.circles[:, 2])].T.copy()
    mid = 0.5 * (cx.min() + cx.max()), 0.5 * (cy.min() + cy.max())
    rho = float(np.max(np.hypot(cx - mid[0], cy - mid[1])))
    for b0 in range(0, len(cores), NU_BLOCK):
        core, unit = cores[b0:b0 + NU_BLOCK], dirs[b0:b0 + NU_BLOCK]
        ax, ay = (core[:, :2] + core[:, 2:3] * unit).T
        dist = np.hypot(ax - mid[0], ay - mid[1])
        reach = rho + delta + COORD_TOL + 1e-12 * (1.0 + dist + rho)
        lo = np.searchsorted(cr, dist - reach)
        count = np.searchsorted(cr, dist + reach, side="right") - lo
        rect = np.repeat(np.arange(len(core)), count)
        circle = np.arange(len(rect)) + np.repeat(lo + count - np.cumsum(count), count)
        band_a0 = np.abs(np.hypot(np.repeat(ax, count) - cx[circle],
                                  np.repeat(ay, count) - cy[circle]) - cr[circle])
        hit = band_a0 <= delta + COORD_TOL
        rect, circle = rect[hit], circle[hit]
        own = ((cx[circle] == core[rect, 0]) & (cy[circle] == core[rect, 1])
               & (cr[circle] == core[rect, 2]) & (core[rect, 2] > delta))
        counts[b0:b0 + len(core)] = np.bincount(rect[own], minlength=len(core))
        rect, circle = rect[~own], circle[~own]
        for polar, cols in _STAGES:
            if not len(rect):
                break
            sampled, at = np.unique(rect, return_inverse=True)
            radius, angle = polar(core[sampled], unit[sampled], delta, tau)
            pts = polar_points(core[sampled], radius[:, cols], angle[:, cols])[at]
            dx, dy = pts[..., 0] - cx[circle, None], pts[..., 1] - cy[circle, None]
            band = np.abs(np.sqrt(dx * dx + dy * dy) - cr[circle, None])
            hit = np.all(band <= delta + 1e-7 * delta + COORD_TOL, axis=1)
            rect, circle = rect[hit], circle[hit]
        counts[b0:b0 + len(core)] += np.bincount(rect, minlength=len(core))
    return counts


def main_geom_check(config: CircleConfig) -> dict:
    """Multiplicity histogram over candidate rectangles with incidence bounds.

    For each dyadic multiplicity class M (rectangles contained in [M, 2M)
    annuli) a maximal pairwise A-incomparable subfamily R_M is extracted
    with A = delta^(-GEOM_EPS), and the largest normalized count
    M^(3/2) |R_M| tau / |X| is reported raw and divided by the two
    candidate logarithmic normalizations, at tau = sqrt(delta).
    """
    delta = config.delta
    tau = math.sqrt(delta)
    if not delta <= tau <= 1:
        raise ValueError("tau must lie in [delta, 1]")
    A = delta ** (-GEOM_EPS)
    # one candidate per circle and per arc node at spacing tau; the arc
    # directions are normalised as DeltaTauRectangle normalises them
    n_arc = max(4, int(math.ceil(2 * math.pi / tau)))
    angles = np.arange(n_arc) * (2 * math.pi / n_arc)
    arcs = zip(np.cos(angles).tolist(), np.sin(angles).tolist())
    units = np.array([(x / math.hypot(x, y), y / math.hypot(x, y)) for x, y in arcs])
    circles = config.circles
    cores, dirs = np.repeat(circles, n_arc, axis=0), np.tile(units, (len(circles), 1))
    mult = nu_multiplicity(config, cores, dirs, tau)
    buckets = []
    worst = 0.0
    m = 1
    while m <= max(int(mult.max(initial=0)), 1):
        sel = (m <= mult) & (mult < 2 * m)
        family = RectangleFamily(cores[sel], dirs[sel], delta, tau)
        if len(family):
            kept = greedy_maximal_incomparable(family, A)
            value = (m ** 1.5) * len(kept) * tau / max(config.count, 1)
            buckets.append({"M": m, "candidates": len(family),
                            "incomparable": len(kept), "value": value})
            worst = max(worst, value)
        m *= 2
    logs = math.log2(1.0 / delta)
    return {
        "delta": delta,
        "tau": tau,
        "A": A,
        "buckets": buckets,
        "max_value": worst,
        "log3_normalized": worst / max(logs, 1.0) ** 3,
        "eps_normalized": worst * delta ** GEOM_EPS,
    }
