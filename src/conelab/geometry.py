"""Point-circle duality and the lightlike frame.

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
  the plane {x3 = 0}.  Every plank-mass scan uses it.
"""

from __future__ import annotations

import math

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
