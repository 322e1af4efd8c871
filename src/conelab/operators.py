"""Extension operator as a matrix: norms, L1/L2 duality, transference.

The extension from the cone segment to a cube measure nu discretizes to a
matrix A with one row per midpoint sample (m^3 per cube) and one column per
quadrature node,

    A[p, n] = sqrt(1/m^3) exp(2 pi i x_p . xi_n) sqrt(a_n w_n),

so that ||A c||^2 with c = sqrt(a w) f equals the per-cube average of
|Ef|^2 (the weighted L^2 integral) while ||c||^2 equals |f|^2_{L2(dsigma)}.
The largest singular value of A is therefore the L2(dsigma) -> L2(dnu)
operator norm, estimated by power iteration with a certified bracket:
Rayleigh quotients from below, matrix norm bounds from above.

The L1(dnu) constant is sup-based and only ever lower-bracketed, by random
unit densities plus dual-ascent iterates f <- A*(sign pattern).  The
level-set check realizes the dyadic pigeonholing that converts between the
L1 and L2 forms of the estimate, and the transference report verifies the
monotonicity mechanism (h nu stays a positive measure for 0 <= h <= 1) on
the same built operator.  Each density is applied once; its image gives both norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fourier import cube_midpoints, extension_bandwidths, make_quadrature
from .measures import CubeMeasure, max_plank_mass

POWER_TOL = 1e-8
POWER_MAX_ITERS = 10 ** 4
MAX_COLUMNS = 4000
DUAL_ITERS = 20


@dataclass(frozen=True)
class DiscreteExtensionOperator:
    """Matrix of the extension operator from quadrature nodes to nu samples."""

    nu: CubeMeasure
    matrix: np.ndarray          # (mass * m^3, n_nodes) complex
    node_weight: np.ndarray     # a_n w_n per kept node, rescaled if subsampled
    rho: np.ndarray
    phi: np.ndarray
    m: int
    meta: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def apply(self, f_nodes: np.ndarray) -> np.ndarray:
        """Image of the density f (values on kept nodes): sqrt(1/m^3) Ef at samples."""
        return self.matrix @ (np.sqrt(self.node_weight) * f_nodes)

    def image_l2(self, y: np.ndarray) -> float:
        """integral |Ef|^2 dnu of an image y = apply(f)."""
        return float(np.sum(np.abs(y) ** 2))

    def image_l1(self, y: np.ndarray, h: np.ndarray | None = None) -> float:
        """integral |Ef| d(h nu) of an image y = apply(f); h per cube, default 1."""
        mags = np.abs(y) if h is None else np.abs(y).reshape(self.nu.mass, -1) * h[:, None]
        return float(np.sum(mags)) / math.sqrt(self.m ** 3)

    def density_norm(self, f_nodes: np.ndarray) -> float:
        """|f|_{L2(dsigma)} of the node density."""
        return math.sqrt(float(np.sum(self.node_weight * np.abs(f_nodes) ** 2)))


def build_extension_operator(nu: CubeMeasure, q: float = 2.0, m: int = 4,
                             max_columns: int = MAX_COLUMNS,
                             seed: int = 0) -> DiscreteExtensionOperator:
    """Assemble the operator matrix for nu at m^3 midpoint samples per cube.

    Columns beyond max_columns are subsampled uniformly at random (seeded)
    with node weights rescaled by kept/total so weighted sums stay unbiased;
    the subsampling is recorded in `meta`.
    """
    pts = cube_midpoints(nu, m)
    quad = make_quadrature(*extension_bandwidths(pts), q)
    rho = np.repeat(quad.rho, len(quad.phi))
    phi = np.tile(quad.phi, len(quad.rho))
    weight = np.repeat(quad.amplitude * quad.radial_weight, len(quad.phi)) * quad.dphi
    total = len(rho)
    meta = {"nodes_total": total, "nodes_kept": total, "q": q, "seed": seed}
    if total > max_columns:
        idx = np.sort(np.random.default_rng(seed).choice(total, max_columns, replace=False))
        rho, phi, weight = rho[idx], phi[idx], weight[idx]
        weight = weight * (total / max_columns)
        meta["nodes_kept"] = max_columns
    u = pts[:, 0, None] * np.cos(phi)[None, :] + pts[:, 1, None] * np.sin(phi)[None, :] \
        + pts[:, 2, None]
    matrix = np.exp((2j * math.pi) * (rho[None, :] * u)) * np.sqrt(weight)[None, :]
    matrix *= 1.0 / math.sqrt(m ** 3)
    return DiscreteExtensionOperator(nu, matrix, weight, rho, phi, m, meta)


class PowerIterationError(RuntimeError):
    """Raised when the singular-value iteration fails to converge; carries
    the bracket reached so far as (lower, upper)."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


def _norm_upper(matrix: np.ndarray) -> float:
    """min(Frobenius, sqrt(|A|_1 |A|_inf)) — certified singular value ceiling."""
    absm = np.abs(matrix)
    frob = float(np.sqrt(np.sum(absm ** 2)))
    holder = float(np.sqrt(absm.sum(axis=0).max() * absm.sum(axis=1).max()))
    return min(frob, holder)


def operator_norm(op: DiscreteExtensionOperator, tol: float = POWER_TOL,
                  max_iters: int = POWER_MAX_ITERS, seed: int = 0) -> dict:
    """Largest singular value by power iteration on A*A with a bracket.

    Returns a dict with the Rayleigh lower bound (`lower`, also `estimate`),
    the norm-bound ceiling (`upper`), the iteration count and the unit right
    singular vector (`vector`); non-convergence raises PowerIterationError
    carrying the bracket so far.
    """
    a = op.matrix
    a_adj = a.conj().T
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    upper = _norm_upper(a)
    sigma = 0.0
    for k in range(1, max_iters + 1):
        w = a @ v
        s = float(np.linalg.norm(w))
        if s == 0.0:
            sigma = 0.0
            break
        v_next = a_adj @ w
        v_next /= np.linalg.norm(v_next)
        converged = abs(s - sigma) <= tol * max(s, 1e-300)
        sigma, v = s, v_next
        if converged:
            break
    else:
        raise PowerIterationError(
            f"no convergence in {max_iters} iterations; bracket [{sigma}, {upper}]",
            (sigma, upper))
    return {"estimate": sigma, "lower": sigma, "upper": upper, "iterations": k,
            "vector": v}


def l1_constant(op: DiscreteExtensionOperator, trials: int = 100, seed: int = 0) -> float:
    """Lower bracket of the L1(dnu) constant: max |Ef|_{L1} over unit f.

    Random complex Gaussian densities plus dual-ascent iterates
    f <- A*(sign(Af)); every trial asserts the Cauchy-Schwarz ceiling
    |Ef|_{L1} <= |Ef|_{L2} mass^(1/2).
    """
    if trials < 100:
        raise ValueError("need at least 100 trials for a stable lower bracket")
    rng = np.random.default_rng(seed)
    sqrt_mass = math.sqrt(max(op.nu.mass, 1))
    ncols = op.shape[1]

    def score(f):
        norm = op.density_norm(f)
        if norm == 0.0:
            return 0.0, None
        y = op.apply(f / norm)
        l1 = op.image_l1(y)
        l2 = math.sqrt(op.image_l2(y))
        if l1 > l2 * sqrt_mass * (1 + 1e-9):
            raise RuntimeError("L1 trial exceeded its Cauchy-Schwarz ceiling")
        return l1, y

    best, best_y = 0.0, None
    for _ in range(trials):
        l1, y = score(rng.standard_normal(ncols) + 1j * rng.standard_normal(ncols))
        if l1 >= best:
            best, best_y = l1, y
    if best_y is None:
        return 0.0
    y = best_y
    a_adj = op.matrix.conj().T
    w = np.sqrt(op.node_weight)
    for _ in range(DUAL_ITERS):
        mags = np.abs(y)
        sign = np.where(mags > 0, y / np.where(mags > 0, mags, 1.0), 0.0)
        g = a_adj @ sign
        f_new = np.divide(g, w, out=np.zeros_like(g), where=w > 0)  # back to density values
        l1, y_new = score(f_new)
        if l1 <= best:
            break
        best, y = l1, y_new
    return best


def dyadic_levels(z_max: float, z_min: float) -> np.ndarray:
    """sqrt(2)-spaced thresholds from z_max down to below z_min."""
    steps = max(int(math.ceil(2 * math.log2(z_max / z_min))), 0) + 1
    return z_max * 2.0 ** (-0.5 * np.arange(1, steps + 1))


def bbcr_equivalence_check(op: DiscreteExtensionOperator, seed: int = 0) -> dict:
    """Dyadic pigeonholing on the worst density plus the L1/L2 consistency ratio.

    For the top singular vector f: per-cube RMS values z of Ef satisfy
    sum z^2 = |Ef|^2_{L2(dnu)}; with sqrt(2)-spaced levels between max z and
    min positive z, the maximizing level lambda* obeys

        |Ef|^2_{L2(dnu)} <= (2 + 2 log2 DR) lambda*^2 nu(|Ef| > lambda*),

    DR the realized squared dynamic range of the level grid — asserted, and
    the report carries the ratio U_L2^(1/2) / (U_L1 / mass^(1/2)) that the
    L1<->L2 equivalence keeps bounded both ways.
    """
    nu = op.nu
    norm = operator_norm(op, seed=seed)
    y = op.matrix @ norm["vector"]  # the vector is already a unit coefficient vector
    per_cube = np.sum(np.abs(y.reshape(nu.mass, -1)) ** 2, axis=1)
    z = np.sqrt(per_cube)  # per-cube RMS of Ef; sum z^2 = weighted L2
    l2_sq = float(np.sum(per_cube))
    z_pos = z[z > 0]
    z_max, z_min = float(z_pos.max()), float(z_pos.min())
    levels = dyadic_levels(z_max, z_min)
    masses = np.array([int(np.sum(z > lam)) for lam in levels])
    scores = levels ** 2 * masses
    k = int(np.argmax(scores))
    lam_star, level_mass = float(levels[k]), int(masses[k])
    dr = float((z_max / levels[-1]) ** 2)
    bound = (2 + 2 * math.log2(dr)) * scores[k]
    if l2_sq > bound * (1 + 1e-9):
        raise RuntimeError("level-set bound violated by the dyadic pigeonhole")
    u_l1 = l1_constant(op, seed=seed)
    ratio = norm["estimate"] / (u_l1 / math.sqrt(max(nu.mass, 1)))
    return {
        "lambda_star": lam_star,
        "level_mass": level_mass,
        "l2_sq": l2_sq,
        "bound": float(bound),
        "dynamic_range": dr,
        "U_L2": norm["estimate"] ** 2,
        "U_L2_upper": norm["upper"] ** 2,
        "U_L1": u_l1,
        "ratio": float(ratio),
        "mass": nu.mass,
    }


def transference_check(op: DiscreteExtensionOperator, subweights, trials: int = 20,
                       seed: int = 0) -> dict:
    """Monotonicity of mass, plank mass, and L1 norms under densities h.

    Each h (array over cubes of op.nu, values in [0, 1]) defines the positive
    measure h nu; the report asserts mass(h nu) <= mass(nu), P_upper(h nu) <=
    P_upper(nu), and per random trial f (seeded) that
    |Ef|_{L1(h nu)} <= |Ef|_{L1(nu)}.
    """
    nu = op.nu
    hs = [np.asarray(h, dtype=float).reshape(-1) for h in subweights]
    for h in hs:
        if len(h) != nu.mass:
            raise ValueError("h must assign one value per cube")
        if h.min(initial=0.0) < 0.0 or h.max(initial=0.0) > 1.0:
            raise ValueError("h values must lie in [0, 1]")
    rng, n = np.random.default_rng(seed), op.shape[1]
    fs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(trials)]
    images = [op.apply(f / op.density_norm(f)) for f in fs]
    base_l1 = [op.image_l1(y) for y in images]
    _, p_upper = max_plank_mass(nu)
    rows = []
    for h in hs:
        _, p_upper_h = max_plank_mass(nu, weights=h)
        l1_h = [op.image_l1(y, h) for y in images]
        ok = (float(h.sum()) <= nu.mass + 1e-9
              and p_upper_h <= p_upper + 1e-9
              and all(a <= b + 1e-9 * max(b, 1) for a, b in zip(l1_h, base_l1)))
        rows.append({
            "mass": float(h.sum()),
            "p_upper": float(p_upper_h),
            "l1_max": max(l1_h, default=0.0),
            "ok": bool(ok),
        })
    return {
        "mass": nu.mass,
        "p_upper": float(p_upper),
        "l1_max": max(base_l1, default=0.0),
        "sub": rows,
        "ok": all(r["ok"] for r in rows),
    }
