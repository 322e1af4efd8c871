"""Output checks: independent computations and properties the mathematics requires.

Each check reads what a round wrote (its CSVs, plus the geometry reports it
recorded), rebuilds the inputs from the workload seed, and returns a list of
failure messages.  Nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path

import numpy as np
from scipy import integrate, special
from scipy.sparse.linalg import svds

from conelab import fourier, maximal, measures, operators, rectangles
from conelab.experiments import CONFIG_KINDS

import workloads as wl


def _rows(path: Path, kind: str = "data") -> list[dict]:
    with open(path, newline="") as fh:
        return [r for r in csv.DictReader(fh) if r["row"] == kind]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Report:
    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, message: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# fourier


def _measure(kind: str, R: int, seed: int):
    params = {"n": R} if kind == "random_frostman" else {}
    return measures.generate(kind, R, seed, **params)


def direct_decay_mean(nu, q: float) -> float:
    """Direct sum of |sum_c e^{-2 pi i c.xi}|^2 sinc^2 a rho drho dphi over the nodes."""
    c = nu.centers
    planar = math.hypot(float(np.ptp(c[:, 0])), float(np.ptp(c[:, 1])))
    quad = fourier.make_quadrature(planar + float(np.ptp(c[:, 2])) + 16.0,
                                   2 * planar + 16.0, q)
    rho = quad.rho[:, None]
    weight = quad.amplitude[:, None] * quad.rho[:, None] * quad.drho * quad.dphi
    chunk = max(1, int(2e6 // (len(c) * len(quad.rho))))
    total = 0.0
    for s in range(0, len(quad.phi), chunk):
        phi = quad.phi[None, s:s + chunk]
        xi = np.stack([rho * np.cos(phi), rho * np.sin(phi), rho + 0 * phi], axis=-1)
        sums = np.exp(-2j * math.pi * (xi @ c.T)).sum(axis=-1)
        form = np.sinc(xi[..., 0]) * np.sinc(xi[..., 1]) * np.sinc(xi[..., 2])
        total += float(np.sum(np.abs(sums) ** 2 * form ** 2 * weight))
    return total


def j0_sigma(x) -> complex:
    """2 pi int a(rho) rho e^{2 pi i rho x3} J0(2 pi rho |x'|) drho by adaptive quadrature."""
    xp, x3 = math.hypot(x[0], x[1]), x[2]

    def part(rho, phase):
        base = float(fourier.smooth_bump(np.array([rho]))[0]) * rho * special.j0(2 * math.pi * rho * xp)
        return base * phase(2 * math.pi * rho * x3)

    edges = np.linspace(1.0, 2.0, int(2 * (xp + abs(x3))) + 5)
    value = 0.0j
    with warnings.catch_warnings():
        # pieces where the integrand nearly cancels hit the roundoff floor;
        # the comparison below, not quad's own estimate, is what counts
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(edges[:-1], edges[1:]):
            re = integrate.quad(part, a, b, args=(math.cos,), epsabs=0.0, epsrel=1e-11, limit=100)[0]
            im = integrate.quad(part, a, b, args=(math.sin,), epsabs=0.0, epsrel=1e-11, limit=100)[0]
            value += complex(re, im)
    return 2 * math.pi * value


def check_decay(out: Path, seed: int, record: dict, rep: Report) -> None:
    """Direct sums for masses <= 32, plank-mass bracket, pooled slope."""
    decay = _rows(out / "decay" / "decay_ratio.csv")
    rep.expect(len(decay) == len(wl.DECAY_R) * len(wl.DECAY_KINDS),
               f"decay: {len(decay)} data rows")
    for r in decay:
        R, mass = int(r["R"]), int(r["mass"])
        lower, upper = int(r["plank_lower"]), int(r["plank_upper"])
        where = f"decay {r['kind']} R={R} seed={r['seed']}"
        rep.expect(1 <= lower <= upper <= mass, f"{where}: plank bracket {lower}, {upper}, mass {mass}")
        if mass <= 32:
            nu = _measure(r["kind"], R, int(r["seed"]))
            ref = direct_decay_mean(nu, wl.DECAY_Q)
            rep.expect(nu.mass == mass and _rel(float(r["decay_mean"]), ref) <= 1e-9,
                       f"{where}: decay_mean {r['decay_mean']} vs direct sum {ref!r}")
    pooled = [r for r in _rows(out / "decay" / "decay_ratio.csv", "fit") if r["kind"] == "pooled"]
    rep.expect(len(pooled) == 1 and float(pooled[0]["slope"]) <= 0.30,
               f"decay: pooled slope {pooled and pooled[0]['slope']} > 0.30")
    rep.expect(max(float(r["ratio"]) for r in decay) <= 1e3, "decay: ratio above 1e3")


def check_sigma(out: Path, seed: int, record: dict, rep: Report) -> None:
    """J0 radial integral at every sampled point, slope and off-cone windows."""
    e_cone = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    e_perp = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    on = _rows(out / "sigma" / "sigma_oncone.csv")
    tr = _rows(out / "sigma" / "sigma_transverse.csv")
    points = [(float(r["radius"]) * e_cone, float(r["value"])) for r in on]
    points += [(50.0 * e_cone + float(r["distance"]) * e_perp, float(r["value"])) for r in tr]
    rep.expect(len(points) == 11, f"sigma: {len(points)} sampled points")
    for x, value in points:
        ref = abs(j0_sigma(x))
        rep.expect(_rel(value, ref) <= 1e-6, f"sigma at {x.tolist()}: {value!r} vs J0 route {ref!r}")
    slope = float(_rows(out / "sigma" / "sigma_oncone.csv", "fit")[0]["slope"])
    rep.expect(-0.65 <= slope <= -0.35, f"sigma: on-cone slope {slope}")
    summary = _rows(out / "sigma" / "sigma_transverse.csv", "check")[0]
    rep.expect(float(summary["transverse_ratio"]) <= 1e-4,
               f"sigma: transverse ratio {summary['transverse_ratio']}")
    rep.expect(float(summary["doubling_rel"]) < 0.01, f"sigma: doubling shift {summary['doubling_rel']}")


def check_sharpness(out: Path, seed: int, record: dict, rep: Report) -> None:
    """Knapp ratio and branch-slope windows."""
    knapp = _rows(out / "sharpness" / "knapp_sharpness.csv")
    rep.expect(len(knapp) == 2 * len(wl.SHARPNESS_R), f"sharpness: {len(knapp)} data rows")
    for r in knapp:
        rep.expect(0.01 <= float(r["ratio"]) <= 100,
                   f"sharpness {r['branch']} R={r['R']}: ratio {r['ratio']}")
    for r in _rows(out / "sharpness" / "knapp_sharpness.csv", "fit"):
        rep.expect(-0.2 <= float(r["slope"]) <= 0.2, f"sharpness {r['branch']}: slope {r['slope']}")


# ---------------------------------------------------------------------------
# duality


def check_duality(out: Path, seed: int, record: dict, rep: Report) -> None:
    """Norm against its bracket and an SVD, Cauchy-Schwarz, ratio window, transference."""
    rows = _rows(out / "duality" / "duality.csv")
    rep.expect(len(rows) == len(wl.DUALITY_R) * len(wl.DUALITY_KINDS), f"duality: {len(rows)} data rows")
    for r in rows:
        where = f"duality {r['kind']} R={r['R']} seed={r['seed']}"
        u_l2, u_l2_upper = float(r["u_l2_lower"]), float(r["u_l2_upper"])
        u_l1, mass = float(r["u_l1_lower"]), int(r["mass"])
        rep.expect(u_l2 <= u_l2_upper, f"{where}: norm^2 {u_l2} above its upper bracket {u_l2_upper}")
        nu = _measure(r["kind"], int(r["R"]), int(r["seed"]))
        op = operators.build_extension_operator(nu, q=wl.DUALITY_Q, seed=int(r["seed"]))
        top = float(svds(op.matrix, k=1, return_singular_vectors=False, tol=1e-14)[0])
        rep.expect(_rel(math.sqrt(u_l2), top) <= 1e-6,
                   f"{where}: norm {math.sqrt(u_l2)!r} vs top singular value {top!r}")
        rep.expect(u_l1 <= math.sqrt(u_l2) * math.sqrt(mass) * (1 + 1e-9),
                   f"{where}: U_L1 {u_l1} above sqrt(U_L2 mass)")
        rep.expect(1 / 64 <= float(r["ratio"]) <= 64, f"{where}: duality ratio {r['ratio']}")
        rep.expect(r["transference_ok"] == "true", f"{where}: transference failed")


# ---------------------------------------------------------------------------
# circles


def _config(kind: str, delta: float, seed: int):
    return measures.generate_config(kind, delta, int(round(0.5 / delta)), seed,
                                    radius_band=measures.MAXIMAL_RADII)


def tangent_pair_count(circles: np.ndarray, delta: float, D: float) -> int:
    """O(n^2) count of pairs with d in [D, 2D) and Delta <= 2 delta."""
    count = 0
    for i in range(len(circles) - 1):
        rest = circles[i + 1:]
        planar = np.sqrt(np.sum((rest[:, :2] - circles[i, :2]) ** 2, axis=1))
        radial = np.abs(rest[:, 2] - circles[i, 2])
        d = planar + radial
        count += int(np.sum((d >= D) & (d < 2 * D) & (np.abs(planar - radial) <= 2 * delta)))
    return count


def check_maximal(out: Path, seed: int, record: dict, rep: Report) -> None:
    """Raster area, dyadic bracket, per-seed slope."""
    rows = _rows(out / "maximal" / "wolff_ratio.csv")
    rep.expect(len(rows) == len(wl.MAXIMAL_DELTAS) * len(CONFIG_KINDS),
               f"maximal: {len(rows)} data rows")
    for r in rows:
        delta = float(r["delta"])
        where = f"maximal {r['kind']} delta={delta} seed={r['seed']}"
        norm, dyadic = float(r["l32_norm"]), float(r["l32_dyadic"])
        rep.expect(dyadic * (1 - 1e-11) <= norm <= 2 ** 1.5 * dyadic * (1 + 1e-11),
                   f"{where}: l32 {norm} not within [1, 2^1.5] of dyadic {dyadic}")
        config = _config(r["kind"], delta, int(r["seed"]))
        field, grid = maximal.multiplicity_field(config)
        area = float(field.sum(dtype=np.int64)) * grid.cell_area
        exact = float(np.sum(4 * math.pi * config.circles[:, 2] * delta))
        rep.expect(_rel(area, exact) <= 1e-3, f"{where}: raster area {area} vs {exact}")
    for r in _rows(out / "maximal" / "wolff_ratio.csv", "fit"):
        rep.expect(float(r["slope"]) <= 0.25, f"maximal {r['kind']} seed={r['seed']}: slope {r['slope']}")


def check_pairs(out: Path, seed: int, record: dict, rep: Report) -> None:
    """Brute-force tangent-pair counts per band and the log^3 ceiling."""
    pairs = _rows(out / "pairs" / "pair_counts.csv")
    rep.expect(len(pairs) > 0, "pairs: no band rows")
    configs = {}
    for r in pairs:
        delta, D = float(r["delta"]), float(r["D"])
        key = (r["kind"], delta, int(r["seed"]))
        if key not in configs:
            configs[key] = _config(*key)
        brute = tangent_pair_count(configs[key].circles, delta, D)
        where = f"pairs {r['kind']} delta={delta} seed={r['seed']} D={D}"
        rep.expect(int(r["count"]) == brute, f"{where}: count {r['count']} vs brute force {brute}")
        rep.expect(float(r["ratio"]) <= 32 * math.log2(1 / delta) ** 3, f"{where}: ratio {r['ratio']}")


def check_geom(kind: str):
    """Candidate total, kept <= candidates, sampled pairwise incomparability."""
    def check(out: Path, seed: int, record: dict, rep: Report) -> None:
        report, kept = (record[f"main_geom_check/{kind}"][k] for k in ("report", "kept"))
        n = wl.geom_config(kind, seed).count
        n_arc = max(4, math.ceil(2 * math.pi / report["tau"]))
        total = sum(b["candidates"] for b in report["buckets"])
        rep.expect(total == n * n_arc, f"main_geom_check {kind}: {total} candidates, expected {n * n_arc}")
        rep.expect(len(kept) == len(report["buckets"]), f"main_geom_check {kind}: kept lists")
        rng = np.random.default_rng(seed)
        for bucket, members in zip(report["buckets"], kept):
            where = f"main_geom_check {kind} M={bucket['M']}"
            rep.expect(len(members) == bucket["incomparable"] <= bucket["candidates"],
                       f"{where}: {len(members)} kept, {bucket['candidates']} candidates")
            if len(members) < 2:
                continue
            i = rng.integers(0, len(members), size=2000)
            j = rng.integers(0, len(members), size=2000)
            bad = [(a, b) for a, b in zip(i, j) if a != b
                   and rectangles.comparable(members[a], members[b], report["A"]) is not None]
            rep.expect(not bad, f"{where}: kept members {bad[:3]} are comparable")
    return check


# operation name (see workloads.operations) -> check of its outputs
CHECKS = {
    "decay": check_decay,
    "sigma": check_sigma,
    "sharpness": check_sharpness,
    "duality": check_duality,
    "maximal": check_maximal,
    "pairs": check_pairs,
    **{f"main_geom_check/{kind}": check_geom(kind) for kind in wl.GEOM_KINDS},
}


def run(operations: list[str], out: Path, seed: int, record: dict) -> Report:
    """Check the outputs of the given operations (those that did not fail)."""
    rep = Report()
    for name in operations:
        CHECKS[name](out, seed, record, rep)
    return rep
