"""Point-circle duality and lightplank geometry.

A point x = (x', x3) in R^2 x (0, inf), three floats (x, y, h), is
identified with the circle of center x' and radius x3.  Throughout, the
"cone" is the graph Gamma_0 = {(x', x3): |x'| = |x3|}, whose upper nappe
carries the circle duality: displacements along a generator of Gamma_0
correspond to internally tangent circles.

Conventions fixed here once and used everywhere:

* circle distance      d(v, w)  = |v' - w'| + |v3 - w3|
* tangency defect      Delta(v, w) = | |v' - w'| - |v3 - w3| |
* the lightlike frame of a planar unit vector e, :func:`lightlike_frame`:
      e_s = (-e, -1)/sqrt(2)      (short axis)
      e_m = (rot90(e), 0)         (middle axis, rot90 = CCW quarter turn)
      e_l = (-e, +1)/sqrt(2)      (long axis, increasing height)
  The triple (e_s, e_m, e_l) is orthonormal; e_s is e_l reflected in
  the plane {x3 = 0}.  Lightplanks and every plank-mass scan use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for geometric comparisons; coordinates stay below ~1e3.
COORD_TOL = 1e-9

SQRT2 = math.sqrt(2.0)


def as_point(p) -> tuple[float, float, float]:
    """A point (x, y, h), given as any length-3 sequence, as three Python floats."""
    a = np.asarray(p, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"a point is three floats (x, y, h), got shape {a.shape}")
    return tuple(a.tolist())


def _as_points(p) -> np.ndarray:
    """Coerce a point or batch of points to an (..., 3) float array."""
    a = np.asarray(p, dtype=float)
    if a.shape[-1] != 3:
        raise ValueError(f"expected trailing dimension 3, got shape {a.shape}")
    return a


def lightlike_frame(c, s) -> np.ndarray:
    """Rows (e_s, e_m, e_l) for the planar unit vector (c, s).

    Arrays c and s of one shape give one frame per entry, shape (..., 3, 3);
    each entry equals the frame of that direction alone, bit for bit.
    """
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    rt = 1.0 / SQRT2
    frame = np.zeros(c.shape + (3, 3))
    frame[..., 0, 0] = frame[..., 2, 0] = -c * rt
    frame[..., 0, 1] = frame[..., 2, 1] = -s * rt
    frame[..., 0, 2], frame[..., 2, 2] = -rt, rt
    frame[..., 1, 0], frame[..., 1, 1] = -s, c
    return frame


@dataclass(frozen=True)
class Lightplank:
    """Axis-aligned box in the lightlike frame of a planar unit direction.

    half_dims = (h_s, h_m, h_l) are half edge lengths along (e_s, e_m, e_l);
    canonical planks have ratios (1 : A : A^2).
    """

    center: tuple[float, float, float]
    direction: tuple[float, float]
    half_dims: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        n = math.hypot(*self.direction)
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"direction must be a unit vector, got norm {n}")
        hs, hm, hl = self.half_dims
        if not (0 < hs <= hm * (1 + 1e-12) and hm <= hl * (1 + 1e-12)):
            raise ValueError(f"half_dims must be positive and ordered, got {self.half_dims}")

    def local_coords(self, x) -> np.ndarray:
        """Coordinates of x - center in the (e_s, e_m, e_l) frame, shape (..., 3)."""
        d = _as_points(x) - np.asarray(self.center)
        return d @ lightlike_frame(*self.direction).T

    def corners(self) -> np.ndarray:
        """The 8 corner points, shape (8, 3)."""
        hs, hm, hl = self.half_dims
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        local = signs * np.array([hs, hm, hl])
        return np.asarray(self.center) + local @ lightlike_frame(*self.direction)


def membership_dilation(plank: Lightplank, x):
    """Smallest dilation factor at which x belongs to the plank."""
    loc = np.abs(plank.local_coords(x))
    out = np.max(loc / np.asarray(plank.half_dims), axis=-1)
    return float(out) if out.ndim == 0 else out
