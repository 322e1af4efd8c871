"""Extension operator through its Gram matrix: norms, L1/L2 duality, transference.

The extension from the cone segment to a cube measure nu discretizes to the
node matrix A, one row per midpoint sample x_p (m^3 per cube), one column
per node xi_n of make_quadrature(*extension_bandwidths(x), q):

    A[p, n] = sqrt(1/m^3) exp(2 pi i x_p . xi_n) sqrt(a_n w_n),

so |A c|^2 with c = sqrt(a w) f is the per-cube average of |Ef|^2 and |c|
is |f|_{L2(dsigma)}.  A is never formed: G = A A* = m^-3 E1(x_p - x_q) comes
from one fourier.e1_grid table over the distinct differences, which are
exact integers in units 1/(2m), on the same rho rule (the phi sum of A A*
is that J0 up to aliasing terms below 1e-15).  A Lanczos iteration on G
gives the squared norm lambda, bracketed above by the residual
|Gx - lambda x| of its Ritz vector x (Parlett).  Every product is a numpy
one: scipy loads a second OpenBLAS with its own thread pool, and switching
between the two pools costs far more than the products themselves.

No factor of G is needed either.  B = G^(1/2) maps the unit ball onto
{A c : |c| <= 1}, and the unit density g = B s / |B s| has the image
B g = G s / (s* G s)^(1/2); the L1(dnu) constant is lower-bracketed by such
images of seeded unimodular s plus dual-ascent iterates s <- sign(G s).  The
level-set check realizes the dyadic pigeonholing between the L1 and L2 forms
of the estimate; the transference report checks monotonicity under h nu,
0 <= h <= 1, on the same operator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fourier import MIDPOINTS, cube_midpoints, e1_grid, extension_bandwidths, make_quadrature
from .measures import CubeMeasure, _lightplank_scan

DUAL_ITERS = 20
L1_TRIALS = 100  # seeded unit densities behind the L1 lower bracket
TRANSFERENCE_TRIALS = 20  # seeded unit densities the transference check compares
LANCZOS_ITERS = 300  # cap on the Krylov dimension of the norm iteration
LANCZOS_TOL = 1e-13  # Ritz residual, relative to the Ritz value, that stops it
ROW_BLOCK = 256  # Gram rows filled per table lookup


@dataclass(frozen=True)
class DiscreteExtensionOperator:
    """The extension operator of nu through its Gram matrix G = A A*."""

    nu: CubeMeasure
    gram: np.ndarray            # G, (mass * m^3, mass * m^3) complex Hermitian
    m: int
    seed: int
    u_l2: float                 # squared norm: the top eigenvalue of G
    u_l2_upper: float           # u_l2 + |G x - u_l2 x| for its unit Ritz vector x
    top: np.ndarray             # image of the top unit density: sqrt(u_l2) x

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """B = G^(1/2) from a full eigen-solve, computed on first access.

        No code in src/ reads it.  perfbench's check_duality compares the
        norm with svds of it, and the traced benchmark counts its size; the
        benchmark change that gives check_duality an independent norm
        deletes it.  Eigenvalues within the solver's roundoff of 0 carry only
        its noise and are dropped; B is Hermitian, so it does not depend on
        eigenvector phases.
        """
        w, u = np.linalg.eigh(self.gram)
        w = np.where(w > len(w) * np.finfo(float).eps * w[-1], w, 0.0)
        return (u * np.sqrt(w)) @ np.conjugate(u, out=u).T  # U* overwrites U once U w^(1/2) is built

    def image_l1(self, y: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
        """integral |Ef| d(h nu) per image column of y; h per cube, default 1."""
        mags = np.abs(y).reshape(self.nu.mass, self.m ** 3, -1)
        if h is not None:
            mags = mags * h[:, None, None]
        return mags.sum(axis=(0, 1)) / math.sqrt(self.m ** 3)


def _top_eigenpair(gram: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Top eigenvalue of Hermitian PSD G and its unit Ritz vector, by Lanczos.

    Full reorthogonalisation (classical Gram-Schmidt, twice) from a seeded
    complex Gaussian start; stops when the Ritz residual |beta_k s_k| falls
    to LANCZOS_TOL times the Ritz value, or after LANCZOS_ITERS steps.
    Returns the Rayleigh quotient of the Ritz vector x, x, and G x, which
    the caller's residual reuses.
    """
    n = len(gram)
    # a structured start such as ones can be orthogonal to the top eigenvector
    # of a symmetric measure (it is on vertical_tube R=16)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis = np.empty((min(LANCZOS_ITERS, n), n), dtype=complex)
    basis[0] = v / np.linalg.norm(v)
    alpha, beta = [], []
    for k in range(len(basis)):
        w = gram @ basis[k]
        alpha.append(np.vdot(basis[k], w).real)
        q = basis[:k + 1]
        for _ in range(2):
            w -= (q @ w.conj()).conj() @ q
        b = float(np.linalg.norm(w))
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        if b * abs(s[-1, -1]) <= LANCZOS_TOL * theta[-1] or k + 1 == len(basis):
            break
        beta.append(b)
        basis[k + 1] = w / b
    x = s[:, -1] @ basis[:k + 1]
    x /= np.linalg.norm(x)
    gx = gram @ x
    return float(np.vdot(x, gx).real), x, gx


def operator_from_gram(nu: CubeMeasure, gram: np.ndarray, m: int,
                       seed: int = 0) -> DiscreteExtensionOperator:
    """The operator of the Gram matrix G = A A*, with its norm bracket."""
    if not nu.mass:
        raise ValueError("the extension operator of an empty measure (no cubes) is undefined")
    lam, x, gx = _top_eigenpair(gram)
    residual = float(np.linalg.norm(gx - lam * x))
    return DiscreteExtensionOperator(nu, gram, m, seed, lam, lam + residual,
                                     math.sqrt(lam) * x)


def gram_grid(pts: np.ndarray, m: int):
    """Distinct planar radii r and heights z of the midpoint differences x_p - x_q.

    Returns (r, z, index): index(rows) gives, for those rows of G, the
    (r, z) table positions of every entry.  Keys are exact: twice m times a
    midpoint is an odd integer, so differences are integers in units 1/(2m),
    built from the distinct planar points and heights alone.
    """
    k = np.rint(2 * m * pts).astype(np.int64)
    xy, a = np.unique(k[:, :2], axis=0, return_inverse=True)
    zs, b = np.unique(k[:, 2], return_inverse=True)
    a, b = a.reshape(-1), b.reshape(-1)
    r2, ri = np.unique(((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2),
                       return_inverse=True)
    dz, zi = np.unique(zs[:, None] - zs[None, :], return_inverse=True)
    ri, zi = ri.reshape(len(xy), len(xy)), zi.reshape(len(zs), len(zs))

    def index(rows):
        return ri[a[rows]][:, a], zi[b[rows]][:, b]

    return np.sqrt(r2) / (2 * m), dz / (2 * m), index


def gram_matrix(nu: CubeMeasure, q: float, m: int) -> np.ndarray:
    """G = A A* for nu at m^3 midpoint samples per cube, on the full quadrature.

    Filled in blocks of ROW_BLOCK rows from one E1 table, so no index array
    reaches n^2 entries.
    """
    pts = cube_midpoints(nu, m)
    quad = make_quadrature(*extension_bandwidths(pts), q)
    r, z, index = gram_grid(pts, m)
    table = e1_grid(r, z, quad) / m ** 3
    gram = np.empty((len(pts), len(pts)), dtype=complex)
    for s in range(0, len(pts), ROW_BLOCK):
        gram[s:s + ROW_BLOCK] = table[index(slice(s, s + ROW_BLOCK))]
    return gram


def build_extension_operator(nu: CubeMeasure, q: float = 2.0, m: int = MIDPOINTS,
                             seed: int = 0) -> DiscreteExtensionOperator:
    """The operator of gram_matrix(nu, q, m); `seed` seeds its random trials."""
    return operator_from_gram(nu, gram_matrix(nu, q, m), m, seed)


def _images(op: DiscreteExtensionOperator, s: np.ndarray) -> np.ndarray:
    """Images G s / (s* G s)^(1/2) per column of s: B g for the unit g = B s / |B s|."""
    gs = op.gram @ s
    return gs / np.sqrt(np.sum(s.conj() * gs, axis=0).real)


def _unit_trials(op: DiscreteExtensionOperator, trials: int) -> np.ndarray:
    """Images of `trials` unit densities from seeded unimodular s, one per column."""
    rng = np.random.default_rng(op.seed)
    return _images(op, np.exp(2j * np.pi * rng.random((len(op.gram), trials))))


def l1_constant(op: DiscreteExtensionOperator) -> float:
    """Lower bracket of the L1(dnu) constant: max |Ef|_{L1} over unit f.

    L1_TRIALS seeded trial images plus dual-ascent iterates
    y <- G s / (s* G s)^(1/2) for s = sign(y), the image of
    g <- B sign(B g) / |B sign(B g)|; every trial asserts the Cauchy-Schwarz
    ceiling |Ef|_{L1} <= |Ef|_{L2} mass^(1/2).
    """
    sqrt_mass = math.sqrt(op.nu.mass)

    def score(ys):
        l1 = op.image_l1(ys)
        if np.any(l1 > np.linalg.norm(ys, axis=0) * sqrt_mass * (1 + 1e-9)):
            raise RuntimeError("L1 trial exceeded its Cauchy-Schwarz ceiling")
        return l1

    ys = _unit_trials(op, L1_TRIALS)
    l1 = score(ys)
    k = int(np.argmax(l1))
    best, y = float(l1[k]), ys[:, k]
    for _ in range(DUAL_ITERS):
        # s* G s > 0: y is an image of G and s* y = |y|_1
        y_new = _images(op, np.exp(1j * np.angle(y)))
        l1_new = float(score(y_new[:, None])[0])
        if l1_new <= best:
            break
        best, y = l1_new, y_new
    return best


def dyadic_levels(z_max: float, z_min: float) -> np.ndarray:
    """sqrt(2)-spaced thresholds from z_max down to below z_min."""
    steps = max(int(math.ceil(2 * math.log2(z_max / z_min))), 0) + 1
    return z_max * 2.0 ** (-0.5 * np.arange(1, steps + 1))


def bbcr_equivalence_check(op: DiscreteExtensionOperator) -> dict:
    """Dyadic pigeonholing on the worst density plus the L1/L2 consistency ratio.

    For the top unit density f: per-cube RMS values z of Ef satisfy
    sum z^2 = |Ef|^2_{L2(dnu)}; with sqrt(2)-spaced levels between max z and
    min positive z, the maximizing level lambda* obeys

        |Ef|^2_{L2(dnu)} <= (2 + 2 log2 DR) lambda*^2 nu(|Ef| > lambda*),

    DR the realized squared dynamic range of the level grid — asserted, and
    the report carries the ratio U_L2^(1/2) / (U_L1 / mass^(1/2)) that the
    L1<->L2 equivalence keeps bounded both ways.
    """
    nu = op.nu
    per_cube = np.sum(np.abs(op.top.reshape(nu.mass, -1)) ** 2, axis=1)
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
    u_l1 = l1_constant(op)
    ratio = math.sqrt(op.u_l2) / (u_l1 / math.sqrt(max(nu.mass, 1)))
    return {"lambda_star": lam_star, "level_mass": level_mass, "l2_sq": l2_sq,
            "bound": float(bound), "dynamic_range": dr, "U_L2": op.u_l2,
            "U_L2_upper": op.u_l2_upper, "U_L1": u_l1, "ratio": float(ratio),
            "mass": nu.mass}


def transference_check(op: DiscreteExtensionOperator, subweights) -> dict:
    """Monotonicity of mass, plank mass, and L1 norms under densities h.

    Each h (array over cubes of op.nu, values in [0, 1]) defines the positive
    measure h nu; the report asserts mass(h nu) <= mass(nu), P_upper(h nu) <=
    P_upper(nu), and per random trial f (TRANSFERENCE_TRIALS of them, seeded
    by the operator) that |Ef|_{L1(h nu)} <= |Ef|_{L1(nu)}.  P_upper of nu
    and of every h nu come from one scan of the doubled planks (the upper
    bracket of max_plank_mass; the lower bracket is not computed).
    """
    nu = op.nu
    hs = [np.asarray(h, dtype=float).reshape(-1) for h in subweights]
    for h in hs:
        if len(h) != nu.mass:
            raise ValueError("h must assign one value per cube")
        if h.min(initial=0.0) < 0.0 or h.max(initial=0.0) > 1.0:
            raise ValueError("h values must lie in [0, 1]")
    images = _unit_trials(op, TRANSFERENCE_TRIALS)
    base_l1 = op.image_l1(images)
    # one scan of the doubled planks: row 0 weighs nu by ones, row i + 1 by hs[i]
    uppers = _lightplank_scan(nu, (2,), np.vstack([np.ones(nu.mass), *hs]))[0]
    p_upper = uppers[0]
    rows = []
    for h, p_upper_h in zip(hs, uppers[1:]):
        l1_h = op.image_l1(images, h)
        ok = (float(h.sum()) <= nu.mass + 1e-9
              and p_upper_h <= p_upper + 1e-9
              and bool(np.all(l1_h <= base_l1 + 1e-9 * np.maximum(base_l1, 1))))
        rows.append({"mass": float(h.sum()), "p_upper": float(p_upper_h),
                     "l1_max": float(l1_h.max(initial=0.0)), "ok": bool(ok)})
    return {"mass": nu.mass, "p_upper": float(p_upper),
            "l1_max": float(base_l1.max(initial=0.0)), "sub": rows,
            "ok": all(r["ok"] for r in rows)}
