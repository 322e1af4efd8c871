"""Cube measures in B_R, circle configurations in Q, and their generators.

A cube measure is a union of unit lattice cubes inside
B_R = [0, R]^2 x [R, 2R]; the measure of a set is the number of cube
centers it contains (one unit of mass per cube).  Rescaling x -> x/R
followed by the similarity of ratio 2*alpha0 per block places the dual
circle configuration inside

    Q = [0, 2*alpha0]^2 x [1 - alpha0, 1 + alpha0],

with unit cubes mapping to resolution delta = 2*alpha0 / R.  Both blocks
are scaled by the same factor so circle distances d and tangency defects
Delta transform by exactly that factor and lightlike displacements stay
lightlike.

Plank mass P(nu) is the largest nu-measure of a 1 x sqrt(R) x R lightplank
(full dimensions).  It is bracketed by scanning a finite plank family:
directions spaced sqrt(1/R)/2, centers c on the half-dimension lattice in
plank coordinates, each plank the half-open cell c - h <= x < c + h per axis
for half dims h.  The lower value scans unit planks, each inside the closed
plank of its center, so lower <= P(nu).  The upper scans the doubled family:
in plank units a unit plank centered at x spans [x - 1, x + 1] on an axis,
inside the open (c - 2, c + 2) of the lattice point c nearest x with a
margin of at least 1/2, so the bound uses no boundary point.  So P(nu) lies
in [lower, upper], and upper <= 27 P(nu) by splitting a doubled plank into
shifted unit planks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
# numpy loads these lazily (np.unique reads np.ma); load them here, not in a sweep point
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .geometry import lightlike_frame

ALPHA0 = 1.0 / 100.0

# Q box bounds: planar in [0, 2*alpha0]^2, radii in [1 -/+ alpha0].
Q_PLANAR = (0.0, 2 * ALPHA0)
Q_RADII = (1.0 - ALPHA0, 1.0 + ALPHA0)
# Domain for the circular maximal function: annuli of radius ~1 around
# near-origin centers, so rasters on [-1.1, 1.1]^2 contain every annulus;
# the planar box is wide enough for tangencies at separations >> delta.
MAXIMAL_RADII = (0.5, 1.0)
MAXIMAL_PLANAR = (-0.05, 0.05)

# cube-measure kind -> (the one size it reads, in [1, R], and its default at R)
GENERATOR_PARAMS = {
    "light_tube": ("gamma", lambda R: int(round(math.sqrt(R)))),
    "vertical_tube": ("length", lambda R: R),
    "knapp_pair": ("gamma", lambda R: int(round(math.sqrt(R)))),
    "wolff_radii": ("n", lambda R: R),
    "random_frostman": ("n", lambda R: R),
}

# plank-scan block size: a block holds as many directions as keep
# (key entries + dense box cells) x weight rows within this budget, where a
# direction has points x (2 widen)^3 entries and its box is bounded from the
# point cloud's diameter.  Light tubes at R <= 128 (51-143 directions) take
# one block, or 1-3 with the 4 rows of a transference scan; random_frostman
# takes one direction per block at R >= 256 (R >= 128 with 4 rows), since a
# direction's box grows as R^1.5 (four directions a block would hold up to
# 23 MB of keys and counts at R=512).
PLANK_SCAN_BUDGET = 1 << 19
_KEY_BITS = 19  # bits per lattice coordinate in a packed Frostman-sampler key
_KEY_BIAS = 1 << (_KEY_BITS - 1)
_KEY_FIELDS = np.array([1 << 2 * _KEY_BITS, 1 << _KEY_BITS, 1])  # weight of i, j, k in a key
# Frostman-sampler batch: at most this many (draw, level, ring node) entries,
# 64 KB a float array.  A memory cap only: the draws made and their outcome
# do not depend on it.
SAMPLER_BATCH_ENTRIES = 1 << 13


@dataclass
class CubeMeasure:
    """Finitely many unit lattice cubes in B_R; `cubes` holds integer corners."""

    R: int
    cubes: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cubes, dtype=np.int64).reshape(-1, 3)
        c = np.unique(c, axis=0)
        if len(c):
            if c[:, 0].min() < 0 or c[:, 0].max() > self.R - 1 \
                    or c[:, 1].min() < 0 or c[:, 1].max() > self.R - 1 \
                    or c[:, 2].min() < self.R or c[:, 2].max() > 2 * self.R - 1:
                raise ValueError("cube corners outside [0,R-1]^2 x [R,2R-1]")
        c.setflags(write=False)
        self.cubes = c

    @property
    def mass(self) -> int:
        return len(self.cubes)

    @property
    def centers(self) -> np.ndarray:
        return self.cubes + 0.5


@dataclass
class CircleConfig:
    """Circles (a1, a2, r) at resolution delta, usually inside Q."""

    circles: np.ndarray
    delta: float
    nominal_R: int | None = None

    def __post_init__(self):
        c = np.asarray(self.circles, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(c)):
            raise ValueError("circles must be finite")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and positive, got {self.delta}")
        order = np.lexsort((c[:, 2], c[:, 1], c[:, 0]))
        c = c[order]
        c.setflags(write=False)
        self.circles = c

    @property
    def count(self) -> int:
        return len(self.circles)


def _max_lattice_plank_count(points: np.ndarray, half_dims, dir_spacing: float,
                             widens, weights=None):
    """Max point count (or weight sum per row) over planks on the half-dimension lattice.

    For each widen in `widens`, widen = 1 scans planks of the given half
    dims and widen = 2 the doubled family on the same center lattice.  In
    plank units a point q lies in the plank of integer center c when
    c - widen <= q < c + widen on every axis (a half-open cell), so in
    exactly the (2 widen)^3 planks with c - floor(q) in 1 - widen ... widen:
    those are its keys, with no distance test.  A direction's keys are dense
    offsets in its bounding box, stacked per block of as many directions as
    PLANK_SCAN_BUDGET allows (module comment).

    Returns one int count per widen when weights is None.  With a (k, n)
    weight stack it returns a (len(widens), k) array of weighted maxima
    from one bincount over keys offset per row.  Keys run point-major, so
    each plank sums its weights in point order.
    """
    nrow = 1 if weights is None else len(weights)
    n = len(points)
    best = [0] * len(widens) if weights is None else np.zeros((len(widens), nrow))
    if n == 0:
        return best
    half = np.asarray(half_dims, dtype=float)
    wide = max(widens)
    ndir = max(1, int(math.ceil(2 * math.pi / dir_spacing)))
    theta = np.arange(ndir) * dir_spacing
    frames = lightlike_frame(np.cos(theta), np.sin(theta))
    # a direction's box spans at most diam / half + 2 * wide + 1 cells per axis
    diam = float(np.linalg.norm(np.ptp(points, axis=0)))
    box = float(np.prod(np.floor(diam / half) + 2 * wide + 1))
    block = max(1, int(PLANK_SCAN_BUDGET // ((n * (2 * wide) ** 3 + box) * nrow)))
    for b0 in range(0, ndir, block):
        frame = frames[b0:b0 + block]
        q = (np.matmul(points, frame.transpose(0, 2, 1)) / half).transpose(0, 2, 1)
        base = np.floor(q).astype(np.int64)                        # (b, 3, n)
        lo = base.min(axis=2) + 1 - wide
        size = base.max(axis=2) + wide + 1 - lo                     # (b, 3)
        cells = size.prod(axis=1)
        total = int(cells.sum())
        # cell c of direction d: key (c - lo) . stride after the cells of earlier directions
        stride = np.column_stack([size[:, 1] * size[:, 2], size[:, 2], np.ones_like(cells)])
        start = np.cumsum(cells) - cells - (lo * stride).sum(axis=1)
        at = (base * stride[:, :, None]).sum(axis=1) + start[:, None]   # (b, n), key of base
        for i, widen in enumerate(widens):
            step = np.arange(1 - widen, widen + 1)[:, None] * stride[:, None]  # (b, 2w, 3)
            shift = step[:, :, None, None, 0] + step[:, None, :, None, 1] + step[:, None, None, :, 2]
            m3 = (2 * widen) ** 3
            keys = (at[:, :, None] + shift.reshape(-1, 1, m3)).ravel()
            if weights is None:
                best[i] = max(best[i], int(np.bincount(keys, minlength=total).max()))
                continue
            point = np.broadcast_to(np.arange(n)[:, None], (len(frame), n, m3)).ravel()
            row_keys = (keys + total * np.arange(nrow)[:, None]).ravel()
            sums = np.bincount(row_keys, weights=weights[:, point].ravel(), minlength=nrow * total)
            best[i] = np.maximum(best[i], sums.reshape(nrow, total).max(axis=1))
    return best


def _lightplank_scan(nu: CubeMeasure, widens, weights=None):
    """The 1 x sqrt(R) x R plank family of nu: half dims and direction spacing."""
    half = (0.5, 0.5 * math.sqrt(nu.R), 0.5 * nu.R)
    return _max_lattice_plank_count(nu.centers, half, 0.5 / math.sqrt(nu.R), widens, weights)


def max_plank_mass(nu: CubeMeasure) -> tuple[int, int]:
    """Bracket [lower, upper] for the largest 1 x sqrt(R) x R plank mass, from one scan."""
    return tuple(_lightplank_scan(nu, (1, 2)))


def gamma_tau(config: CircleConfig, tau: float) -> int:
    """Doubled-plank upper value for the plank multiplicity gamma_tau.

    gamma_tau is the largest circle count in a delta x delta/tau x
    delta/tau^2 plank; the scan runs the doubled family of such planks.
    """
    d = config.delta
    return _max_lattice_plank_count(config.circles, (d, d / tau, d / tau ** 2), 0.5 * tau, (2,))[0]


def rescale_to_Q(nu: CubeMeasure) -> CircleConfig:
    """Map cube centers into Q by x -> x/R followed by the 2*alpha0 similarity.

    (x', x3) -> (2*alpha0*x', 1 - alpha0 + 2*alpha0*(x3 - 1)); both blocks
    carry the same factor 2*alpha0/R from cube scale, so one unit cube maps
    to resolution delta = 2*alpha0/R.
    """
    t = nu.centers / nu.R
    circles = np.column_stack([
        2 * ALPHA0 * t[:, 0],
        2 * ALPHA0 * t[:, 1],
        1.0 - ALPHA0 + 2 * ALPHA0 * (t[:, 2] - 1.0),
    ])
    return CircleConfig(circles, delta=2 * ALPHA0 / nu.R, nominal_R=nu.R)


# ---------------------------------------------------------------------------
# generators


def _random_direction_footprint(rng, R: int, gamma: int) -> tuple[float, np.ndarray]:
    for _ in range(256):
        theta = rng.uniform(0.0, 2 * math.pi)
        u = np.array([math.cos(theta), math.sin(theta)])
        span = np.abs(u) * (gamma - 1)
        if np.all(span <= R - 1):
            lo = np.maximum(0, -np.floor(u * (gamma - 1)))
            hi = R - 1 - np.maximum(0, np.ceil(u * (gamma - 1)))
            base = np.array([rng.integers(int(lo[k]), int(hi[k]) + 1) for k in range(2)])
            return theta, base
    raise ValueError(f"no lightlike footprint for gamma={gamma} in R={R}")


def _light_tube(rng, R: int, gamma: int) -> np.ndarray:
    theta, base = _random_direction_footprint(rng, R, gamma)
    k = np.arange(gamma)
    x = base[0] + np.round(k * math.cos(theta)).astype(np.int64)
    y = base[1] + np.round(k * math.sin(theta)).astype(np.int64)
    return np.column_stack([x, y, R + k])


def _vertical_tube(rng, R: int, length: int) -> np.ndarray:
    a = rng.integers(0, R, size=2)
    k = np.arange(length)
    return np.column_stack([np.full(length, a[0]), np.full(length, a[1]), R + k])


def _pack_keys(level: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """One int64 per (level, i, j, k): 6 bits of level, then 19 biased bits per coordinate.

    Injective for 0 <= level < 64 and -2**18 <= i, j, k < 2**18.  The sampler
    refuses nodes outside that box instead of letting keys collide; its
    levels stay below 64 because it keeps only capacities 4 * 2**level <= n - 1.
    The key is linear in the coordinates, so a node's key is its ring
    centre's key plus the ring offset's `@ _KEY_FIELDS`.
    """
    return (level << 3 * _KEY_BITS) + (nodes + _KEY_BIAS) @ _KEY_FIELDS


def _frostman_sample(draw, n: int, base: float, span: float, max_attempts: int) -> list:
    """Rejection sampling down a dyadic tree of balls with per-node capacity 4 r/base.

    `draw()` proposes one point; a point already placed is skipped.  Every
    accepted point increments the counters of all (r/2)-grid balls
    containing it at each dyadic level r >= base; any true ball B(x, r)
    sits inside some tree ball of radius 2r, giving a Frostman constant
    <= 8 at base scale `base`.  Stops after n points or `max_attempts`
    draws, whichever comes first.  Levels whose capacity exceeds n - 1 are
    skipped: no count there can reach it.

    The draws are made in batches of at most SAMPLER_BATCH_ENTRIES node
    entries, never more draws than points still wanted or attempts left, so
    `draw()` is called as often as one draw at a time.  A batch's ring nodes
    are computed as one (3, draws, levels, 125) array and its in-ball nodes
    kept as packed int64 keys (a draw outside the key range raises once its
    batch is drawn).  The draws are then decided in order: a draw is refused
    if its point is placed or one of its keys is full, and otherwise its
    keys' counts go up and those that reach capacity become full.
    """
    levels = base * 2.0 ** np.arange(int(math.ceil(math.log2(span / base * 2))) + 2)
    levels = levels[4 * (levels / base) <= n - 1]
    steps = 0.5 * levels[:, None]
    ring = np.array([[i, j, k] for i in range(-2, 3) for j in range(-2, 3) for k in range(-2, 3)])
    # keys are linear in the node: a node's key is its ring centre's `@ _KEY_FIELDS`
    # plus the key of its level and ring offset
    ring_keys = _pack_keys(np.arange(len(levels))[:, None], ring)
    ring_axes = ring.T[:, None, None, :].astype(float)  # (3, 1, 1, 125)
    max_batch = max(1, SAMPLER_BATCH_ENTRIES // (len(ring) * max(1, len(levels))))
    count = {}  # accepted points per node key
    full = set()  # the keys at capacity 4 << level
    out = []
    seen = set()
    attempts = 0
    while len(out) < n and attempts < max_attempts:
        more = min(max_batch, n - len(out), max_attempts - attempts)
        attempts += more
        fresh = [draw() for _ in range(more)]
        p = np.array(fresh, dtype=float).T[:, :, None, None]  # (3, draws, 1, 1)
        # axis first: each coordinate's (draws, levels, 125) block is contiguous
        centre = np.rint(p / steps)  # np.round at 0 decimals
        nodes = centre[..., 0].astype(np.int64)  # the ring centres
        level0 = nodes[:, :, :1]
        if len(levels) and (np.minimum.reduce(level0, axis=None) < 2 - _KEY_BIAS
                            or np.maximum.reduce(level0, axis=None) >= _KEY_BIAS - 2):
            far = ((level0 < 2 - _KEY_BIAS) | (level0 >= _KEY_BIAS - 2)).any(axis=(0, 2))
            raise ValueError(f"point {fresh[int(np.argmax(far))]} lies outside the "
                             f"sampler's key range at base {base}")
        # float(centre) + float(offset) is the whole node exactly
        x = (centre + ring_axes) * steps - p
        x *= x
        inside = np.sqrt(x[0] + x[1] + x[2]) <= levels[:, None]
        centre_keys = (_KEY_FIELDS @ nodes.reshape(3, -1)).reshape(more, len(levels), 1)
        keys = (centre_keys + ring_keys)[inside]
        caps = (4 << (keys >> 3 * _KEY_BITS)).tolist()  # 4 << level
        keys = keys.tolist()
        ends = inside.sum(axis=(1, 2)).cumsum().tolist()
        for point, q, start, end in zip(fresh, map(tuple, p[..., 0, 0].T.tolist()),
                                        [0] + ends, ends):
            mine = keys[start:end]
            if q in seen or not full.isdisjoint(mine):
                continue
            for k, cap in zip(mine, caps[start:end]):
                count[k] = c = count.get(k, 0) + 1
                if c >= cap:
                    full.add(k)
            out.append(point)
            seen.add(q)
    return out


def generate(kind: str, R: int, seed: int = 0, **params) -> CubeMeasure:
    """Seeded test-family generator; every family has Frostman constant <= 8 at unit scale.

    Each kind reads the one size GENERATOR_PARAMS names and refuses any other
    parameter; knapp_pair(gamma) adds a vertical tube of length R - gamma and
    wolff_radii(n) uses distinct heights.
    """
    if kind not in GENERATOR_PARAMS:
        raise ValueError(f"unknown kind {kind!r}, expected one of {tuple(GENERATOR_PARAMS)}")
    name, default = GENERATOR_PARAMS[kind]
    unread = sorted(set(params) - {name})
    if unread:
        raise ValueError(f"{kind} reads {name}, not {', '.join(unread)}")
    if R < 8:
        raise ValueError("R too small")
    size = int(params.get(name, default(R)))
    if not 1 <= size <= R:
        raise ValueError(f"{name} must lie in [1, R]")
    rng = np.random.default_rng(seed)
    if kind == "light_tube":
        return CubeMeasure(R, _light_tube(rng, R, size))
    if kind == "vertical_tube":
        return CubeMeasure(R, _vertical_tube(rng, R, size))
    if kind == "knapp_pair":
        tube = _light_tube(rng, R, size)
        for _ in range(64):
            vert = _vertical_tube(rng, R, R - size)
            both = np.vstack([tube, vert])
            if len(np.unique(both, axis=0)) == len(both):
                return CubeMeasure(R, both)
        raise RuntimeError("could not place disjoint knapp pair")
    if kind == "wolff_radii":
        heights = rng.choice(np.arange(R, 2 * R), size=size, replace=False)
        xy = rng.integers(0, R, size=(size, 2))
        return CubeMeasure(R, np.column_stack([xy, heights]))

    def corner_center():
        corner = (rng.integers(0, R), rng.integers(0, R), rng.integers(R, 2 * R))
        return np.array(corner, dtype=float) + 0.5

    centers = _frostman_sample(corner_center, size, 1.0, R, 500 * size)
    if len(centers) < size:
        raise RuntimeError("frostman sampler failed to place points")
    return CubeMeasure(R, np.floor(centers).astype(np.int64))


def generate_config(kind: str, delta: float, n: int, seed: int = 0,
                    radius_band: tuple[float, float] = Q_RADII) -> CircleConfig:
    """Unit-scale circle configurations of centers and radii.

    Centers lie in the Q planar box for the Q radius band and in the wider
    maximal-function box otherwise.  wolff_radii places one radius in each
    of n distinct delta-intervals of the band and refuses n above their
    count; random_frostman rejection-samples against a dyadic ball tree at
    base scale delta (capacity 4 r/delta); it refuses, before drawing, n above
    the capacity of the smallest tree ball holding the box, and n it cannot place.
    """
    rng = np.random.default_rng(seed)
    lo, hi = radius_band
    planar_box = Q_PLANAR if radius_band == Q_RADII else MAXIMAL_PLANAR
    if kind == "wolff_radii":
        capacity = int((hi - lo) / delta)
        if n > capacity:
            raise ValueError(f"wolff_radii: n={n} exceeds the {capacity} delta-intervals "
                             f"of radius band {radius_band} at delta={delta}")
        bins = np.sort(rng.choice(capacity, size=n, replace=False))
        radii = lo + (bins + rng.uniform(0.05, 0.95, size=n)) * delta
        centers = rng.uniform(planar_box[0], planar_box[1], size=(n, 2))
        return CircleConfig(np.column_stack([centers, radii]), delta=delta)
    if kind != "random_frostman":
        raise ValueError(f"unknown config kind {kind!r}")
    # every draw lies within r of the level-r node nearest the box centre, a node
    # of its +-2 ring (tested with the sampler's own in-ball arithmetic), so that
    # node's capacity 4 r/delta caps n
    corners = np.array([(x, y, z) for x in planar_box for y in planar_box for z in (lo, hi)])
    r = delta
    while True:
        node = np.round(corners.mean(axis=0) / (0.5 * r)) * (0.5 * r)
        if np.sqrt(np.add.reduce((node - corners) ** 2, axis=1)).max() <= r:
            break
        r *= 2.0
    capacity = int(4 * r / delta)
    if n > capacity:
        raise ValueError(f"random_frostman: n={n} exceeds {capacity} = 4 r/delta, the capacity "
                         f"of the sampler ball of radius r={r} that holds every draw at "
                         f"delta={delta}")
    span = max(hi - lo, planar_box[1] - planar_box[0])
    out = _frostman_sample(
        lambda: np.array([rng.uniform(*planar_box), rng.uniform(*planar_box), rng.uniform(lo, hi)]),
        n, delta, span, 2000 * n)
    if len(out) < n:
        raise ValueError(f"random_frostman: placed only {len(out)}/{n} circles at "
                         f"delta={delta} within the Frostman bound")
    return CircleConfig(np.array(out), delta=delta)


# ---------------------------------------------------------------------------
# persistence: header line, then one triple per line


def save_measure(path: str | Path, nu: CubeMeasure) -> None:
    lines = [f"R={nu.R}"]
    lines += [f"{v[0]} {v[1]} {v[2]}" for v in nu.cubes]
    Path(path).write_text("\n".join(lines) + "\n")


def load_measure(path: str | Path) -> CubeMeasure:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("R="):
        raise ValueError(f"{path}: missing R= header")
    R = int(lines[0][2:])
    cubes = np.array([[int(t) for t in ln.split()] for ln in lines[1:]], dtype=np.int64)
    return CubeMeasure(R, cubes.reshape(-1, 3))


def save_config(path: str | Path, config: CircleConfig) -> None:
    lines = [f"delta={config.delta:.17g}"]
    if config.nominal_R is not None:
        lines.append(f"R={config.nominal_R}")
    lines += [f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}" for v in config.circles]
    Path(path).write_text("\n".join(lines) + "\n")


def load_config(path: str | Path) -> CircleConfig:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("delta="):
        raise ValueError(f"{path}: missing delta= header")
    delta = float(lines[0][6:])
    nominal = None
    body = lines[1:]
    if body and body[0].startswith("R="):
        nominal = int(body[0][2:])
        body = body[1:]
    circles = np.array([[float(t) for t in ln.split()] for ln in body])
    return CircleConfig(circles.reshape(-1, 3), delta=delta, nominal_R=nominal)
