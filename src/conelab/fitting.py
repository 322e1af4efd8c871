"""Log-log regression for scaling exponents.

Every asymptotic claim under test has the shape value ~ scale^s up to
logarithmic factors; a least-squares line through (log scale, log value)
realizes s as a fitted slope that acceptance compares against a ceiling.
The maximal residual is always carried alongside the slope so a poor fit
cannot hide behind a small exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line ln(value) = slope * ln(scale) + intercept."""

    slope: float
    intercept: float
    residual_max: float


def fit_exponent(xs, ys) -> ScalingFit:
    """Fit the scaling exponent of ys against xs in log-log coordinates.

    Requires at least 3 paired positive values; the slope is the exponent
    estimate and residual_max the largest absolute log-residual.
    """
    x = np.asarray(xs, dtype=float).reshape(-1)
    y = np.asarray(ys, dtype=float).reshape(-1)
    if len(x) != len(y):
        raise ValueError("xs and ys must pair up")
    if len(x) < 3:
        raise ValueError("need at least 3 points for a slope")
    if np.any(x <= 0) or np.any(y <= 0) or not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("log-log fit needs finite positive values")
    if x.min() == x.max():
        raise ValueError("need at least 2 distinct x values for a slope")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return ScalingFit(float(slope), float(intercept), float(np.max(np.abs(resid))))
