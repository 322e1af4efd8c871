"""Fourier extension from the truncated cone and decay means of cube measures.

The cone segment is parameterized in polar coordinates xi = (rho e(phi), rho)
with rho in [1, 2] and e(phi) = (cos phi, sin phi); the extension of a
density f against the smooth amplitude a(rho) is

    Ef(x) = integral f(rho, phi) a(rho) exp(2 pi i rho (x' . e(phi) + x3))
            rho drho dphi.

All integrals use a tensor grid: midpoint nodes in rho (the amplitude
vanishes to infinite order at both endpoints) and uniform nodes in phi
(periodic), so quadrature error decays faster than any power once the node
spacing resolves the integrand's bandwidth; callers state the bandwidth and
an oversampling factor.

For purely angular f = h(phi) the phi sum factors through the radial
transform G(u) = sum_rho a rho drho exp(2 pi i rho u), which is sampled
exactly on a fine u-grid, only as far as the lookups reach, by a direct sum
over rho that splits each sample index into two short geometric tables, and
then interpolated; Ef(x) = sum_phi h(phi) dphi G(x' . e(phi) + x3), which
agrees with the full tensor sum to the interpolation error.  For f = 1 the
phi integral is exact, E1 being radial:
E1(r, x3) = sum_rho 2 pi a rho drho J0(2 pi rho r) exp(2 pi i rho x3), one
matrix product over distinct radii and heights (sigma-check, Gram matrices).
J0 is a numpy port of Cephes' j0, the algorithm behind scipy.special.j0 and
bitwise equal to it, so the library needs no scipy.

Cube measures enter through their exact transform: a union of unit cubes
with centers c has hat(nu)(xi) = prod_j sinc(xi_j) * sum_c exp(-2 pi i c.xi),
and the decay mean integral(|hat(nu)|^2 dsigma) over the segment is
accumulated over blocks of phi nodes, each one batched product of baby-step
and giant-step tables of the cube phases in rho (about 2 sqrt(n_rho)
entries per phi node and cube), with the block sized by a memory budget.
The sines of its sinc form factors come from baby-step and giant-step
tables too, and their denominators from the radial weight and a factor
per phi row, so no node takes a sine or an exponential of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import CubeMeasure, max_plank_mass

BUMP_ORDER = 2  # Gevrey exponent of the amplitude's flatness at rho = 1, 2
# decay_mean: complex entries (4 MB) of one phi block's step tables, cube sums
# and sine tables; random_frostman takes 75 phi nodes a block at R=64, 11 at R=256
DECAY_BLOCK_BUDGET = 1 << 18
J0_BLOCK = 1 << 14  # e1_grid evaluates J0 on blocks of rows of this many entries
SAMPLES_PER_UNIT = 1024  # radial-table samples per unit of u, at least
# extension_separable: (point, phi) lookups per chunk of points (1 MB of complex)
SEPARABLE_CHUNK = 1 << 16
# midpoint samples per cube axis of weighted_l2 and the extension operator;
# |A c|^2 equals weighted_l2 only when both use the same m
MIDPOINTS = 4
SIGMA_RADII = (10, 20, 50, 100, 200)  # stationary_phase_diagnostic: on-cone |x|
SIGMA_DISTANCES = (0, 1, 2, 5, 10, 20)  # and cone distances from |x| = 50


def smooth_bump(rho) -> np.ndarray:
    """C-infinity amplitude supported in (1, 2), peaking at 1 mid-segment.

    a(rho) = exp(1 - (1 - t^2)^(-BUMP_ORDER)) with t = 2 rho - 3; the
    squared reciprocal makes the Fourier tail decay like
    exp(-c f^(2/3)), fast enough that the extension is negligible a few
    units away from the light cone.
    """
    rho = np.asarray(rho, dtype=float)
    t = 2.0 * rho - 3.0
    out = np.zeros_like(rho)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(1.0 - (1.0 - t[inside] ** 2) ** (-BUMP_ORDER))
    return out


@dataclass(frozen=True)
class ConeQuadrature:
    """Midpoint-rho x uniform-phi tensor rule with the amplitude tabulated."""

    rho: np.ndarray
    phi: np.ndarray
    drho: float
    dphi: float
    amplitude: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.rho) * len(self.phi)

    @property
    def radial_weight(self) -> np.ndarray:
        """Jacobian weight rho * drho per radial node (amplitude excluded)."""
        return self.rho * self.drho


def make_quadrature(bandwidth_rho: float, bandwidth_phi: float, q: float = 2.0) -> ConeQuadrature:
    """Rule resolving integrands of the stated bandwidths with oversampling q.

    bandwidth_rho bounds |d(phase)/d(rho)| / (2 pi) over the integrand,
    bandwidth_phi the same in phi; node spacings are 1/(q * bandwidth).
    """
    n_rho = max(int(math.ceil(q * max(bandwidth_rho, 8.0))), 16)
    n_phi = max(int(math.ceil(2 * math.pi * q * max(bandwidth_phi, 8.0))), 16)
    drho = 1.0 / n_rho
    rho = 1.0 + (np.arange(n_rho) + 0.5) * drho
    dphi = 2 * math.pi / n_phi
    phi = np.arange(n_phi) * dphi
    return ConeQuadrature(rho, phi, drho, dphi, smooth_bump(rho))


def extension_bandwidths(points) -> tuple[float, float]:
    """Bandwidths of x . xi over the segment for the given evaluation points."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    planar = np.hypot(pts[:, 0], pts[:, 1])
    b_rho = float(np.max(planar + np.abs(pts[:, 2]), initial=0.0)) + 16.0
    b_phi = 2.0 * float(np.max(planar, initial=0.0)) + 16.0
    return b_rho, b_phi


@dataclass(frozen=True)
class RadialTable:
    """Samples of G(u) = sum_rho c_rho exp(2 pi i rho u) on a uniform u-grid.

    Sampling is exact (a direct sum, see radial_transform_table); lookups
    interpolate linearly and use G(-u) = conj(G(u)), which requires real
    radial coefficients.
    """

    du: float
    values: np.ndarray

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        au = np.abs(u) / self.du
        if np.any(au > len(self.values) - 1.001):
            raise ValueError("radial table lookup out of range")
        idx = np.minimum(au.astype(int), len(self.values) - 2)
        frac = au - idx
        vals = self.values.take(idx, out=np.empty(u.shape, dtype=complex))
        vals *= 1 - frac
        idx += 1
        upper = self.values.take(idx)
        upper *= frac
        vals += upper
        np.negative(vals.imag, out=vals.imag, where=u < 0)  # G(-u) = conj(G(u))
        return vals


def radial_grid(quad: ConeQuadrature, u_max: float) -> tuple[float, int]:
    """Step du and sample count of quad's radial table for lookups at |u| <= u_max.

    du = 1 / (drho 2^k) with the least k that gives SAMPLES_PER_UNIT samples
    per unit of u.  The count keeps one sample past the interval of u_max, so
    a lookup whose u_max / du has a fractional part near 1 stays in range.
    """
    du = 1.0 / (quad.drho * (1 << int(math.ceil(math.log2(SAMPLES_PER_UNIT / quad.drho)))))
    return du, int(u_max / du) + 3


def radial_transform_table(quad: ConeQuadrature, u_max: float) -> RadialTable:
    """Tabulate the radial transform of the amplitude out to |u| <= u_max.

    G(k du) = sum_j c_j z_j^k with z_j = exp(2 pi i rho_j du).  The index
    k = a + n_low b splits z_j^k into z_j^a (z_j^n_low)^b: two geometric
    tables of about sqrt(n_keep) x n_rho entries, each entry the exponential
    of its own angle, whose contraction over j gives every sample.  Every
    product is an einsum: the contraction, because a BLAS product this small
    stalls when BLAS runs more than one thread, and the outer products of the
    angles, because a broadcast ufunc takes a buffer of about a table's size.
    """
    du, n_keep = radial_grid(quad, u_max)
    n_low, n_high = rho_split(n_keep)
    turn = 2j * math.pi * du * quad.rho
    low = np.einsum("a,j->aj", np.arange(n_low, dtype=complex), turn)
    np.exp(low, out=low)
    low *= quad.amplitude * quad.radial_weight  # before high exists: its buffer, too
    high = np.einsum("b,j->bj", n_low * np.arange(n_high, dtype=complex), turn)
    np.exp(high, out=high)
    values = np.einsum("bj,aj->ba", high, low).reshape(-1)[:n_keep]
    return RadialTable(du, values)


def _lookup_u(pts: np.ndarray, phi: np.ndarray):
    """Chunks of u = x' . e(phi) + x3, SEPARABLE_CHUNK (point, phi) pairs at most.

    Yields each chunk's slice of the points with its (points, phi) array.
    """
    e1, e2 = np.cos(phi), np.sin(phi)
    chunk = max(1, SEPARABLE_CHUNK // max(len(phi), 1))
    for s in range(0, len(pts), chunk):
        p = pts[s:s + chunk]
        yield slice(s, s + chunk), p[:, 0, None] * e1 + p[:, 1, None] * e2 + p[:, 2, None]


def lookup_reach(points, phi) -> float:
    """Largest |u| that extension_separable looks up at these points and phi nodes."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    return max((float(np.max(np.abs(u), initial=0.0)) for _, u in _lookup_u(pts, phi)),
               default=0.0)


def extension_separable(points, quad: ConeQuadrature, h_phi=None) -> np.ndarray:
    """Ef for f(rho, phi) = h(phi) via the tabulated radial transform.

    Only the phi nodes with h != 0 are summed (a sector's support); the
    dropped terms are exact zeros.  A first pass over the lookups finds
    their largest |u|, and the table reaches exactly that far.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    h = np.ones_like(quad.phi) if h_phi is None else np.asarray(h_phi(quad.phi))
    keep = h != 0
    h, phi = h[keep], quad.phi[keep]
    table = radial_transform_table(quad, lookup_reach(pts, phi))
    out = np.empty(len(pts), dtype=complex)
    for rows, u in _lookup_u(pts, phi):
        out[rows] = (table(u) * (h * quad.dphi)).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Bessel J0: Cephes j0 (S. L. Moshier, 1989), the algorithm and coefficients
# that scipy.special.j0 evaluates

# |x| <= 5: J0 = (z - DR1) (z - DR2) RP(z) / RQ(z) with z = x^2, where DR1 and
# DR2 are the squares of J0's first two zeros
_J0_DR1 = 5.78318596294678452118e0
_J0_DR2 = 3.04712623436620863991e1
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12, -2.49248344360967716204e14,
          9.70862251047306323952e15)
# monic: Horner from a leading 1 is exactly Cephes' p1evl (1 * z is exact)
_J0_RQ = (1.0, 4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7,
          1.11855537045356834862e10, 2.11277520115489217587e12, 3.10518229857422583814e14,
          3.18121955943204943306e16, 1.71086294081043136091e18)
# |x| > 5: P = PP/PQ and Q = QP/QQ at 25 / x^2
_J0_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0,
          5.44725003058768775090e0, 8.74716500199817011941e0, 5.30324038235394892183e0,
          9.99999999999999997821e-1)
_J0_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0,
          5.47097740330417105182e0, 8.76190883237069594232e0, 5.30605288235394617618e0,
          1.00000000000000000218e0)
_J0_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1,
          -9.32060152123768231369e1, -1.77681167980488050595e2, -1.47077505154951170175e2,
          -5.14105326766599330220e1, -6.05014350600728481186e0)
_J0_QQ = (1.0, 6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3,
          7.24046774195652478189e3, 5.93072701187316984827e3, 2.06209331660327847417e3,
          2.42005740240291393179e2)
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2 / pi)


def _polevl(coef, x: np.ndarray) -> np.ndarray:
    """coef[0] x^n + ... + coef[n] in Cephes polevl's order of operations."""
    out = coef[0] * x
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def j0(x) -> np.ndarray:
    """Bessel J0 elementwise, bitwise equal to scipy.special.j0.

    Each Cephes step is one numpy operation in C's order, so every rounding
    is the same; steps go in place where that keeps J0's temporaries few.
    |x| <= 5 takes the rational form, the rest the asymptotic form
    sqrt(2/(pi x)) (P cos xn - (5/x) Q sin xn).
    """
    x = np.asarray(x, dtype=float)
    out = np.abs(x, out=np.empty_like(x))
    small = out <= 5.0  # NaN goes to the asymptotic form, as in C
    x = out[small]
    z = x * x
    p = z - _J0_DR1
    p *= z - _J0_DR2
    p *= _polevl(_J0_RP, z)
    p /= _polevl(_J0_RQ, z)
    tiny = x < 1e-5
    p[tiny] = 1.0 - z[tiny] / 4.0
    out[small] = p
    x = out[~small]
    with np.errstate(over="ignore"):  # x^2 = inf gives 25 / x^2 = 0, as in C
        z = 25.0 / (x * x)
    p = _polevl(_J0_PP, z)
    p /= _polevl(_J0_PQ, z)
    q = _polevl(_J0_QP, z)
    q /= _polevl(_J0_QQ, z)
    z = x - math.pi / 4
    p *= np.cos(z)
    q *= 5.0 / x
    q *= np.sin(z)
    p -= q
    p *= _SQ2OPI
    p /= np.sqrt(x)
    out[~small] = p
    return out


def e1_grid(r, z, quad: ConeQuadrature) -> np.ndarray:
    """E1 at planar radius r_i and height z_j, shape (len(r), len(z)), on quad's rho rule.

    J0(2 pi r_i rho_j) fills one preallocated table a block of rows at a
    time (J0_BLOCK entries), each scaled in place by 2 pi a w, so J0's
    temporaries do not grow with len(r).
    """
    r = np.asarray(r, dtype=float)
    weight = 2 * math.pi * quad.amplitude * quad.radial_weight
    bessel = np.empty((len(r), len(quad.rho)))
    rows = max(1, J0_BLOCK // len(quad.rho))
    for s in range(0, len(r), rows):
        block = bessel[s:s + rows]
        np.multiply.outer(r[s:s + rows], quad.rho, out=block)
        block *= 2 * math.pi
        block[:] = j0(block)
        block *= weight
    return bessel @ np.exp(2j * math.pi * np.outer(quad.rho, z))


def sigma_check(points, q: float = 3.0) -> np.ndarray:
    """sigma-check = E1, the inverse transform of the cone measure, by e1_grid."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    quad = make_quadrature(*extension_bandwidths(pts), q)
    r, ri = np.unique(np.hypot(pts[:, 0], pts[:, 1]), return_inverse=True)
    z, zi = np.unique(pts[:, 2], return_inverse=True)
    return e1_grid(r, z, quad)[ri.reshape(-1), zi.reshape(-1)]


def rho_split(n_rho: int) -> tuple[int, int]:
    """Step counts n_baby = ceil(sqrt(n_rho)), n_baby * n_giant >= n_rho.

    decay_mean splits its rho nodes so, and radial_transform_table its samples.
    """
    n_baby = math.isqrt(n_rho - 1) + 1
    return n_baby, -(-n_rho // n_baby)


def _sine_table(x: np.ndarray, rho0: float, drho: float, n_baby: int, n_giant: int) -> np.ndarray:
    """sin(pi rho_j x) at rho_j = rho0 + j drho, shape (len(x), n_giant, n_baby).

    j = i + n_baby t splits the angle into a giant step g_t = pi x (rho0 +
    n_baby t drho) and a baby step b_i = pi x i drho, and sin(g + b) =
    sin g cos b + cos g sin b is one batched product of the sines and cosines
    of the two step tables; both terms keep their relative accuracy as x -> 0.
    """
    x = x[:, None]
    baby = (math.pi * drho * np.arange(n_baby)) * x
    giant = (math.pi * (rho0 + n_baby * drho * np.arange(n_giant))) * x
    return (np.stack([np.sin(giant), np.cos(giant)], axis=2)
            @ np.stack([np.cos(baby), np.sin(baby)], axis=1))


def decay_mean(nu: CubeMeasure, q: float = 2.0) -> float:
    """integral over the segment of |hat(nu)|^2 dsigma, dsigma = a rho drho dphi.

    Bandwidths are the extension's at the centers' spread (the largest
    center difference per coordinate).  rho index j + n_baby t has cube phase
    z0 (step^n_baby)^t step^j: the giant-step table times the baby-step table
    gives every cube sum, at two exponentials per (phi, cube).  The squared
    form factor (sinc(rho c) sinc(rho s) sinc(rho))^2, c = cos phi and
    s = sin phi, is sin^2(pi rho c) sin^2(pi rho s) from the step tables of
    _sine_table, times sinc(rho)^2 / (pi rho)^4 in the radial weight, over
    (c s)^2 per phi row, so each row's sum is one product with that weight;
    rows with c s = 0 exactly (phi = 0) take np.sinc instead.  phi nodes go
    in blocks within DECAY_BLOCK_BUDGET; the cube tables are step-major,
    (step, phi, cube), so each step is one contiguous product.  The row sums
    are added once at the end, in an order the block size does not change.
    """
    if nu.mass == 0:
        return 0.0
    centers = nu.centers
    quad = make_quadrature(*extension_bandwidths(np.ptp(centers, axis=0)), q)
    rho = quad.rho
    w_rho = quad.amplitude * quad.radial_weight
    sinc_rho = np.sinc(rho)
    n_baby, n_giant = rho_split(len(rho))
    # the sums run over n_baby * n_giant >= n_rho indices; the padding weighs 0
    weight = np.zeros(n_baby * n_giant)
    weight[:len(rho)] = w_rho * sinc_rho ** 2 / (math.pi * rho) ** 4
    # complex entries per phi node: the cube and sine step tables, then the
    # cube sums, their |.|^2 and the two sine tables (real, two to an entry)
    per_phi = (n_baby + n_giant) * (nu.mass + 2) + 3 * n_baby * n_giant
    block = min(max(1, DECAY_BLOCK_BUDGET // per_phi), len(quad.phi))
    baby_table = np.empty((n_baby, block, nu.mass), dtype=complex)
    giant_table = np.empty((n_giant, block, nu.mass), dtype=complex)
    rows = np.empty(len(quad.phi))
    for s in range(0, len(quad.phi), block):
        phi = quad.phi[s:s + block]
        cos, sin = np.cos(phi), np.sin(phi)
        k = centers[:, 0] * cos[:, None] + centers[:, 1] * sin[:, None] + centers[:, 2]
        step = np.exp(-2j * math.pi * quad.drho * k)  # (b, nc)
        baby, giant = baby_table[:, :len(phi)], giant_table[:, :len(phi)]
        baby[0] = 1.0
        for j in range(1, n_baby):
            np.multiply(baby[j - 1], step, out=baby[j])  # step^j
        giant[0] = np.exp(-2j * math.pi * rho[0] * k)
        giant_step = baby[-1] * step
        for t in range(1, n_giant):
            np.multiply(giant[t - 1], giant_step, out=giant[t])  # z0 step^(n_baby t)
        s_sum = (giant.transpose(1, 0, 2) @ baby.transpose(1, 2, 0)).reshape(len(phi), -1)
        power = np.square(s_sum.real)
        power += np.square(s_sum.imag)
        sines = _sine_table(np.concatenate([cos, sin]), rho[0], quad.drho, n_baby, n_giant)
        both = sines[:len(phi)]
        both *= sines[len(phi):]
        both *= both
        power *= both.reshape(len(phi), -1)
        cs = cos * sin
        zero = np.flatnonzero(cs == 0)
        cs[zero] = 1.0  # their sines vanish; np.sinc's limit replaces them below
        row = rows[s:s + block]
        np.matmul(power, weight, out=row)
        row /= cs * cs
        form = np.sinc(rho * cos[zero, None]) * np.sinc(rho * sin[zero, None]) * sinc_rho
        row[zero] = (np.abs(s_sum[zero, :len(rho)]) ** 2 * form ** 2) @ w_rho
    return float(np.sum(rows)) * quad.dphi


def decay_ratio(nu: CubeMeasure, q: float = 2.0) -> dict:
    """Decay mean against the plank-mass bound sqrt(P_lower) * mass."""
    mean = decay_mean(nu, q)
    lower, upper = max_plank_mass(nu)
    denom = math.sqrt(max(lower, 1)) * max(nu.mass, 1)
    return {
        "R": nu.R,
        "mass": nu.mass,
        "decay_mean": mean,
        "plank_lower": lower,
        "plank_upper": upper,
        "ratio": mean / denom,
    }


# ---------------------------------------------------------------------------
# Knapp example: an angular sector concentrates on a dual lightplank


def knapp_sector(gamma: float):
    """Angular indicator of width gamma^(-1/2) centered at phi = 0."""
    width = gamma ** -0.5

    def h(phi):
        wrapped = np.minimum(np.asarray(phi), 2 * math.pi - np.asarray(phi))
        return (np.abs(wrapped) <= width / 2).astype(float)

    return h, width


def knapp_center(R: int) -> np.ndarray:
    """Anchor cube center for the Knapp tube, mid-height in B_R."""
    return np.array([R / 2 - 0.5, R / 2 + 0.5, 1.5 * R + 0.5])


def knapp_tube_measure(R: int, gamma: int) -> CubeMeasure:
    """Light tube of length gamma along the plank's long axis.

    Its cube centers are c0 + k(-1, 0, 1), so the modulated sector
    extension is coherent on it.
    """
    if not 1 <= gamma <= R:
        raise ValueError("gamma must lie in [1, R]")
    c0 = knapp_center(R)
    ks = np.arange(gamma) - gamma // 2
    return CubeMeasure(R, np.column_stack([
        (c0[0] - 0.5 - ks).astype(np.int64),
        np.full(len(ks), int(c0[1] - 0.5)),
        (c0[2] - 0.5 + ks).astype(np.int64),
    ]))


def cube_midpoints(nu: CubeMeasure, m: int) -> np.ndarray:
    """m^3 midpoint samples per cube, flattened to (mass * m^3, 3)."""
    t = (np.arange(m) + 0.5) / m
    offs = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    return (nu.cubes[:, None, :] + offs[None, :, :]).reshape(-1, 3)


def weighted_l2(nu: CubeMeasure, h_phi=None, shift=None, q: float = 2.0,
                m: int = MIDPOINTS) -> float:
    """integral |Ef|^2 dnu: per-cube average of m^3 midpoint samples.

    f = h(phi) goes through the tabulated radial transform.  `shift`
    evaluates the modulation exp(-2 pi i shift . xi) f, i.e. Ef translated
    by shift.
    """
    if m < 2:
        raise ValueError("need at least 2 samples per axis")
    pts = cube_midpoints(nu, m)
    if shift is not None:
        pts = pts - np.asarray(shift, dtype=float)
    quad = make_quadrature(*extension_bandwidths(pts), q)
    vals = extension_separable(pts, quad, h_phi)
    return float(np.sum(np.abs(vals) ** 2)) / m ** 3


def knapp_sharpness(R: int, gamma: int, q: float = 2.0) -> dict:
    """Sharpness ratio of the weighted L^2 bound on the aligned light tube.

    ratio = integral(|Ef|^2 dnu) / (gamma^(1/2) |f|^2_{L2(dsigma)}) for the
    modulated sector f of angular width gamma^(-1/2) and the tube measure of
    mass gamma along the dual plank's long axis; the sharpness computation
    predicts a ratio bounded above and below uniformly in R and gamma.
    """
    nu = knapp_tube_measure(R, gamma)
    h_phi, width = knapp_sector(gamma)
    wl2 = weighted_l2(nu, h_phi, shift=knapp_center(R), q=q)
    quad = make_quadrature(8, 8, q)
    f_norm2 = float(np.sum(quad.amplitude * quad.radial_weight)) * width
    ratio = wl2 / (math.sqrt(gamma) * f_norm2)
    return {
        "R": R,
        "gamma": gamma,
        "weighted_l2": wl2,
        "f_norm2": f_norm2,
        "ratio": ratio,
    }


def diagnostic_points(radii=SIGMA_RADII, distances=SIGMA_DISTANCES) -> np.ndarray:
    """Points at |x| = radii on the cone, then at `distances` off it from |x| = 50."""
    e_cone = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    e_perp = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    return np.vstack([np.asarray(radii, dtype=float)[:, None] * e_cone,
                      50.0 * e_cone + np.asarray(distances, dtype=float)[:, None] * e_perp])


def stationary_phase_diagnostic(q: float = 8.0, radii=SIGMA_RADII,
                                distances=SIGMA_DISTANCES) -> dict:
    """Decay profile of sigma_check on and transverse to the light cone.

    Stationary phase gives |sigma_check(x)| ~ |x|^(-1/2) along the cone
    {|x'| = x3} and decay faster than any power in the distance to the cone
    (the amplitude is Gevrey-smooth).  Samples the on-cone profile with a
    log-log slope fit, the transverse profile starting from |x| = 50 on the
    cone, and repeats everything at doubled quadrature density.
    """
    pts = diagnostic_points(radii, distances)
    radii = np.asarray(radii, dtype=float)
    distances = np.asarray(distances, dtype=float)
    vals = np.abs(sigma_check(pts, q=q))
    vals2 = np.abs(sigma_check(pts, q=2.0 * q))
    on, off = vals[:len(radii)], vals[len(radii):]
    slope = float(np.polyfit(np.log(radii), np.log(on), 1)[0])
    return {
        "radii": radii,
        "on_cone": on,
        "slope": slope,
        "distances": distances,
        "transverse": off,
        "transverse_ratio": float(off[-1] / off[0]),
        "doubling_rel": float(np.max(np.abs(vals2 - vals) / vals)),
    }

