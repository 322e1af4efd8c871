"""Experiment pipelines: parameter sweeps, CSV tables, SVG figures, manifests.

Each pipeline evaluates one family of metrics over an R- or delta-sweep,
writes one CSV per metric (data rows plus `fit` rows carrying the log-log
slope), one SVG per CSV, and a flat key=value manifest echoing the full
configuration and versions.  All numbers are formatted with %.12g and all
randomness is seeded per task, so reruns with the same configuration are
byte-identical; sweep points may evaluate in parallel worker processes
without affecting the output.

Five pipelines are sweeps run by `run_sweep` from two tables: `DEFAULTS`
(what each pipeline sweeps when the configuration leaves it open, shared
with the evaluation budget) and `SWEEPS` (each sweep's point function and
output layout).  `sigma` profiles one fixed set of points instead.
"""

from __future__ import annotations

import csv
import itertools
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from .fitting import fit_exponent
from .fourier import (MAX_KERNEL_EVALS, MIDPOINTS, cube_midpoints, decay_ratio,
                      diagnostic_points, extension_bandwidths, knapp_center, knapp_sector,
                      knapp_sharpness, knapp_tube_measure, make_quadrature, radial_fft_length,
                      rho_split, stationary_phase_diagnostic)
from .maximal import wolff_example_check
from .measures import MAXIMAL_RADII, generate, generate_config
from .operators import (SAMPLES, bbcr_equivalence_check, build_extension_operator,
                        gram_grid, transference_check)
from .svgplot import svg_scatter
from .tangency import classify_pairs, pair_count

VALID_R = (16, 32, 64, 128, 256)
DECAY_KINDS = ("light_tube", "vertical_tube", "knapp_pair", "random_frostman")
CONFIG_KINDS = ("wolff_radii", "random_frostman")
PIPELINE_NAMES = ("decay", "maximal", "pairs", "sharpness", "sigma", "duality")
MAX_GRAM_ROWS = 4096  # duality: G is one n x n complex array, 268 MB at this n


class BudgetExceededError(ValueError):
    """Estimated kernel evaluations or Gram rows exceed the budget and force is off."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One pipeline run: sweep values, generator family, seeds, output."""

    experiment: str
    R: tuple = ()
    delta: tuple = ()
    kinds: tuple = ()
    seeds: tuple = (0,)
    n: int | None = None
    gamma: str = "both"          # sharpness branch: 'sqrt', 'full', 'both', or an int
    q: float | None = None       # None = per-pipeline default
    out: str = "runs"
    workers: int = 1
    force: bool = False

    def __post_init__(self):
        object.__setattr__(self, "R", tuple(int(r) for r in self.R))
        object.__setattr__(self, "delta", tuple(float(d) for d in self.delta))
        object.__setattr__(self, "kinds", tuple(self.kinds))
        seeds = tuple(int(s) for s in self.seeds) or (0,)
        object.__setattr__(self, "seeds", seeds)
        if self.experiment not in PIPELINE_NAMES + ("all",):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for k in self.kinds:
            if k not in DECAY_KINDS + CONFIG_KINDS:
                raise ValueError(f"unknown kind {k!r}")
        for r in self.R:
            if r not in VALID_R:
                raise ValueError(f"R={r}: must be a power of two in [16, 256]")
        for d in self.delta:
            if not 0 < d < 1:
                raise ValueError(f"delta={d}: must lie in (0, 1)")
        if self.R and self.delta:
            if len(self.R) != len(self.delta) or any(
                    abs(d * r - 1.0) > 1e-12 for r, d in zip(self.R, self.delta)):
                raise ValueError("when both are given, delta must equal 1/R pairwise")


@dataclass(frozen=True)
class Defaults:
    """What a pipeline sweeps where its configuration leaves it open."""

    axis: str = "R"            # the ExperimentConfig field holding the sweep values
    values: tuple = ()
    kinds: tuple = ()          # the generator kinds the pipeline understands
    q: float | None = None     # quadrature oversampling


DEFAULTS = {
    "decay": Defaults("R", (16, 32, 64, 128), DECAY_KINDS, 2.0),
    "maximal": Defaults("delta", tuple(2.0 ** -k for k in range(5, 9)), CONFIG_KINDS),
    "pairs": Defaults("delta", (2.0 ** -6, 2.0 ** -8), CONFIG_KINDS),
    "sharpness": Defaults("R", (16, 32, 64), q=8.0),
    "sigma": Defaults(q=8.0),
    "duality": Defaults("R", (32,), DECAY_KINDS, 2.0),
}


def _scope(experiment: str, cfg: ExperimentConfig) -> tuple:
    """(sweep values, kinds, q) of one pipeline: configured, else its defaults.

    Kinds the pipeline does not understand are skipped, so a shared config
    (the `all` experiment) can name kinds that other sweeps own.
    """
    d = DEFAULTS[experiment]
    kinds = tuple(k for k in cfg.kinds if k in d.kinds) or d.kinds
    return getattr(cfg, d.axis) or d.values, kinds, cfg.q or d.q


# ---------------------------------------------------------------------------
# formatting and file helpers


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def write_csv(path, header, rows) -> None:
    """RFC-quoted CSV with one header row; missing keys write as empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(row[k]) if k in row and row[k] is not None
                             else "" for k in header])


def _write_pair(out: Path, stem: str, header, rows, series, lines=(), **labels) -> list:
    """Write the table <stem>.csv and its figure <stem>.svg; returns both names."""
    write_csv(out / f"{stem}.csv", header, rows)
    svg_scatter(out / f"{stem}.svg", series, lines, **labels)
    return [f"{stem}.csv", f"{stem}.svg"]


def config_items(cfg: ExperimentConfig) -> list:
    items = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            v = ",".join(format_value(x) for x in v)
        elif v is None:
            v = ""
        else:
            v = format_value(v)
        items.append((f.name, v))
    return items


def write_manifest(path, cfg: ExperimentConfig, wall: dict, files: list) -> None:
    lines = [f"{k}={v}" for k, v in config_items(cfg)]
    lines.append(f"python={platform.python_version()}")
    lines.append(f"numpy={np.__version__}")
    lines.append(f"scipy={scipy.__version__}")
    for name, seconds in wall.items():
        lines.append(f"wall_seconds_{name}={seconds:.3f}")
    for name in files:
        lines.append(f"file={name}")
    Path(path).write_text("\n".join(lines) + "\n")


def _run_tasks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _fit_rows(groups, x) -> list:
    """One `fit` row (log-log ratio against x) per (label, rows) group.

    A group is fitted when it has 3 points and at least 2 distinct x values;
    its fit row carries the label fields.
    """
    out = []
    for label, pts in groups:
        xs = [x(r) for r in pts]
        if len(xs) >= 3 and min(xs) < max(xs):
            fit = fit_exponent(xs, [r["ratio"] for r in pts])
            out.append({"row": "fit", **label, "slope": fit.slope,
                        "intercept": fit.intercept, "residual_max": fit.residual_max})
    return out


def _gamma_branches(spec: str):
    if spec == "both":
        return [("sqrt", None), ("full", None)]
    if spec in ("sqrt", "full"):
        return [(spec, None)]
    return [("fixed", int(spec))]


def _branch_gamma(branch: str, fixed, R: int) -> int:
    if branch == "sqrt":
        return int(round(math.sqrt(R)))
    if branch == "full":
        return R
    return int(fixed)


def _circle_count(n, delta: float) -> int:
    """Configured circle count, else 1/(2 delta)."""
    return n or int(round(0.5 / delta))


# ---------------------------------------------------------------------------
# kernel-evaluation budget


def estimate_evals(experiment: str, cfg: ExperimentConfig) -> float:
    """Kernel evaluations of one pipeline at cfg's scope, sized by the calls it makes.

    A duality point with more than MAX_GRAM_ROWS Gram rows raises
    BudgetExceededError unless cfg.force is set.
    """
    values, kinds, q = _scope(experiment, cfg)
    seeds = len(cfg.seeds)
    total = 0.0
    if experiment == "decay":
        # per phi node and cube: decay_mean's two step tables and their product
        for kind, R, seed in itertools.product(kinds, values, cfg.seeds):
            nu = _swept_measure(kind, R, seed, cfg.n)[0]
            quad = make_quadrature(*extension_bandwidths(np.ptp(nu.centers, axis=0)), q)
            n_baby, n_giant = rho_split(len(quad.rho))
            total += len(quad.phi) * nu.mass * (n_baby * n_giant + n_baby + n_giant)
    elif experiment == "sharpness":
        # per point: one radial-table lookup per midpoint sample and sector
        # node (extension_separable skips the nodes off the sector), plus the
        # table's padded FFT, sized as weighted_l2 sizes them
        for R in values:
            for branch, fixed in _gamma_branches(cfg.gamma):
                g = _branch_gamma(branch, fixed, R)
                pts = cube_midpoints(knapp_tube_measure(R, g), MIDPOINTS) - knapp_center(R)
                quad = make_quadrature(*extension_bandwidths(pts), q)
                h_phi, _ = knapp_sector(g)
                support = np.count_nonzero(h_phi(quad.phi))
                total += len(pts) * support + radial_fft_length(quad)
    elif experiment == "sigma":
        # J0 and exponential tables over at most one radius and height per
        # point, n_rho entries each, at q and 2q
        pts = diagnostic_points()
        total = sum(len(make_quadrature(*extension_bandwidths(pts), qq).rho) * 2 * len(pts)
                    for qq in (q, 2 * q))
    elif experiment == "maximal":
        for d in values:
            n = _circle_count(cfg.n, d)
            # span raster touches ~4*pi*r*delta/h^2 cells per annulus
            # (h = delta/4) plus one cumsum over the grid per config
            total += len(kinds) * seeds * (n * 160.0 / d + (8.8 / d) ** 2)
    elif experiment == "pairs":
        for d in values:
            n = _circle_count(cfg.n, d)
            total += len(kinds) * seeds * (n * n + n / d)
    elif experiment == "duality":
        # J0 and exponential tables over the distinct difference radii and
        # heights, n_rho entries each, plus the n^2 Gram entries
        for kind, R, seed in itertools.product(kinds, values, cfg.seeds):
            pts = cube_midpoints(_swept_measure(kind, R, seed, cfg.n)[0], SAMPLES)
            n = len(pts)
            if n > MAX_GRAM_ROWS and not cfg.force:
                raise BudgetExceededError(
                    f"duality: {kind} R={R} seed={seed} has n = {n} Gram rows, over the "
                    f"{MAX_GRAM_ROWS} budget; G alone takes {16 * n * n / 1e9:.2g} GB; "
                    f"rerun with force enabled")
            r, z, _ = gram_grid(pts, SAMPLES)
            n_rho = len(make_quadrature(*extension_bandwidths(pts), q).rho)
            total += n_rho * (len(r) + len(z)) + n ** 2
    return total


def check_budget(experiment: str, cfg: ExperimentConfig) -> float:
    est = estimate_evals(experiment, cfg)
    if est > MAX_KERNEL_EVALS / 2 and not cfg.force:
        raise BudgetExceededError(
            f"{experiment}: estimated {est:.3g} kernel evaluations exceeds the "
            f"{MAX_KERNEL_EVALS / 2:.0g} budget; rerun with force enabled")
    return est


# ---------------------------------------------------------------------------
# sweep points (top-level functions so worker processes can import them);
# each takes one task tuple and returns its data rows


def _swept_measure(kind: str, R: int, seed: int, n):
    """Cube measure of a sweep point and its generator parameter as text.

    random_frostman takes the configured n (default R); the tube families
    keep their generator defaults.
    """
    if kind == "random_frostman":
        return generate(kind, R, seed, n=n or R), f"n={n or R}"
    param = f"length={R}" if kind == "vertical_tube" else f"gamma={int(round(math.sqrt(R)))}"
    return generate(kind, R, seed), param


def _swept_config(kind: str, delta: float, seed: int, n):
    """Circle configuration of a sweep point, in the maximal-function band."""
    return generate_config(kind, delta, _circle_count(n, delta), seed,
                           radius_band=MAXIMAL_RADII)


def _decay_point(task):
    kind, R, seed, n, q = task
    nu, params = _swept_measure(kind, R, seed, n)
    rep = decay_ratio(nu, q)
    return [{"row": "data", "kind": kind, "R": R, "seed": seed, "params": params,
             "mass": rep["mass"], "decay_mean": rep["decay_mean"],
             "plank_lower": rep["plank_lower"], "plank_upper": rep["plank_upper"],
             "ratio": rep["ratio"]}]


def _maximal_point(task):
    kind, delta, seed, n, _ = task
    config = _swept_config(kind, delta, seed, n)
    rep = wolff_example_check(config)
    return [{"row": "data", "kind": kind, "delta": delta, "seed": seed,
             "params": f"n={config.count}", "count": config.count,
             "l32_norm": rep["l32_norm"], "l32_dyadic": rep["l32_dyadic"],
             "ratio": rep["ratio"], "ratio_dyadic": rep["ratio_dyadic"]}]


def _pairs_point(task):
    kind, delta, seed, n, _ = task
    config = _swept_config(kind, delta, seed, n)
    table = classify_pairs(config)
    rows = []
    bound = 32.0 * math.log2(1.0 / delta) ** 3
    for D in table.dyadic_D():
        if D < 8 * delta:
            continue
        rep = pair_count(config, table, D)
        rows.append({"row": "data", "kind": kind, "delta": delta, "seed": seed,
                     "params": f"n={config.count}", "D": rep["D"],
                     "count": rep["count"], "gamma": rep["gamma"],
                     "tau_D": rep["tau_D"], "ratio": rep["ratio"],
                     "log_bound": bound})
    return rows


def _sharpness_point(task):
    branch, R, gamma, q = task
    rep = knapp_sharpness(R, gamma, q=q)
    return [{"row": "data", "branch": branch, "R": R, "gamma": gamma,
             "weighted_l2": rep["weighted_l2"], "f_norm2": rep["f_norm2"],
             "ratio": rep["ratio"]}]


def _duality_point(task):
    kind, R, seed, n, q = task
    nu, _ = _swept_measure(kind, R, seed, n)
    op = build_extension_operator(nu, q=q, seed=seed)
    rep = bbcr_equivalence_check(op)
    rng = np.random.default_rng(seed)
    subs = [np.ones(nu.mass), (np.arange(nu.mass) % 2).astype(float), rng.random(nu.mass)]
    trans = transference_check(op, subs)
    return [{"row": "data", "kind": kind, "R": R, "seed": seed,
             "mass": nu.mass, "u_l2_lower": rep["U_L2"], "u_l2_upper": rep["U_L2_upper"],
             "u_l1_lower": rep["U_L1"], "ratio": rep["ratio"],
             "lambda_star": rep["lambda_star"], "transference_ok": trans["ok"]}]


# ---------------------------------------------------------------------------
# sweep summaries: (data rows, fit rows) -> the entries after "files"


def _decay_summary(rows, fits) -> dict:
    return {"fits": {f["kind"]: f["slope"] for f in fits if f["kind"] != "pooled"},
            "pooled_slope": next((f["slope"] for f in fits if f["kind"] == "pooled"), None),
            "max_ratio": max(r["ratio"] for r in rows)}


def _maximal_summary(rows, fits) -> dict:
    slopes = {f"{f['kind']}/{f['seed']}": f["slope"] for f in fits}
    return {"max_slope": max(slopes.values(), default=None), "slopes": slopes}


def _pairs_summary(rows, fits) -> dict:
    return {"max_ratio_over_bound":
            max((r["ratio"] / r["log_bound"] for r in rows), default=0.0)}


def _sharpness_summary(rows, fits) -> dict:
    return {"ratios": [r["ratio"] for r in rows],
            "slopes": {f["branch"]: f["slope"] for f in fits}}


def _duality_summary(rows, fits) -> dict:
    return {"ratios": [r["ratio"] for r in rows],
            "transference_ok": all(r["transference_ok"] for r in rows)}


# ---------------------------------------------------------------------------
# pipelines


@dataclass(frozen=True)
class Sweep:
    """How a sweep turns its points into one CSV/SVG pair and a summary.

    The figure plots `y` against `x`, one series per value of the row field
    `series`: a generator kind, or for sharpness a gamma branch.  `fit`
    selects the log-log fits of ratio against x written as `fit` rows: one
    per series ("series"), one per series and seed ("seed"), or none;
    `pooled` adds one over all rows, labelled "pooled".  The figure draws
    the pooled fit when there is one, else the per-series fits.
    """

    point: Callable              # task -> data rows
    stem: str                    # writes <stem>.csv and <stem>.svg
    header: tuple
    title: str
    xlabel: str
    summary: Callable            # (data rows, fit rows) -> summary entries
    x: Callable = lambda r: r["R"]
    y: Callable = lambda r: r["ratio"]
    series: str = "kind"
    fit: str | None = None
    pooled: bool = False


SWEEPS = {
    "decay": Sweep(
        _decay_point, "decay_ratio",
        ("row", "kind", "R", "seed", "params", "mass", "decay_mean", "plank_lower",
         "plank_upper", "ratio", "slope", "intercept", "residual_max"),
        "decay mean over sqrt(P) * mass", "R", _decay_summary,
        fit="series", pooled=True),
    "maximal": Sweep(
        _maximal_point, "wolff_ratio",
        ("row", "kind", "delta", "seed", "params", "count", "l32_norm", "l32_dyadic",
         "ratio", "ratio_dyadic", "slope", "intercept", "residual_max"),
        "L3/2 multiplicity over (delta n)^(2/3)", "1/delta", _maximal_summary,
        x=lambda r: 1.0 / r["delta"], fit="seed"),
    "pairs": Sweep(
        _pairs_point, "pair_counts",
        ("row", "kind", "delta", "seed", "params", "D", "count", "gamma", "tau_D",
         "ratio", "log_bound"),
        "tangent pairs over gamma^(1/2) (D/delta)^(1/2) n", "D/delta", _pairs_summary,
        x=lambda r: r["D"] / r["delta"], y=lambda r: max(r["ratio"], 1e-12)),
    "sharpness": Sweep(
        _sharpness_point, "knapp_sharpness",
        ("row", "branch", "R", "gamma", "weighted_l2", "f_norm2", "ratio", "slope",
         "intercept", "residual_max"),
        "Knapp ratio: weighted L2 over gamma^(1/2) |f|^2", "R", _sharpness_summary,
        series="branch", fit="series"),
    "duality": Sweep(
        _duality_point, "duality",
        ("row", "kind", "R", "seed", "mass", "u_l2_lower", "u_l2_upper", "u_l1_lower",
         "ratio", "lambda_star", "transference_ok"),
        "L2 norm over L1 constant / mass^(1/2)", "R", _duality_summary),
}


def run_sweep(cfg: ExperimentConfig, out: Path) -> dict:
    """Run the sweep `cfg.experiment` and write its CSV/SVG pair under `out`."""
    sweep = SWEEPS[cfg.experiment]
    values, kinds, q = _scope(cfg.experiment, cfg)
    if sweep.series == "branch":
        branches = _gamma_branches(cfg.gamma)
        tasks = [(branch, R, _branch_gamma(branch, fixed, R), q)
                 for branch, fixed in branches for R in values]
        labels = sorted(branch for branch, _ in branches)
    else:
        tasks = [(kind, v, seed, cfg.n, q)
                 for kind in kinds for v in values for seed in cfg.seeds]
        labels = kinds
    rows = [row for chunk in _run_tasks(sweep.point, tasks, cfg.workers) for row in chunk]
    series = {s: [r for r in rows if r[sweep.series] == s] for s in labels}
    groups = []
    if sweep.fit == "series":
        groups = [({sweep.series: s}, pts) for s, pts in series.items()]
    elif sweep.fit == "seed":
        groups = [({sweep.series: s, "seed": seed}, [r for r in pts if r["seed"] == seed])
                  for s, pts in series.items() for seed in cfg.seeds]
    if sweep.pooled:
        groups.append(({sweep.series: "pooled"}, rows))
    fits = _fit_rows(groups, sweep.x)
    if sweep.pooled:
        drawn = [f for f in fits if f[sweep.series] == "pooled"]
    else:
        drawn = fits if sweep.fit == "series" else []
    files = _write_pair(
        out, sweep.stem, sweep.header, rows + fits,
        [(s, [sweep.x(r) for r in pts], [sweep.y(r) for r in pts])
         for s, pts in series.items()],
        [(f[sweep.series], f["slope"], f["intercept"]) for f in drawn],
        title=sweep.title, xlabel=sweep.xlabel, ylabel="ratio")
    return {"files": files, **sweep.summary(rows, fits)}


def sigma_decay(cfg: ExperimentConfig, out: Path) -> dict:
    rep = stationary_phase_diagnostic(q=cfg.q or DEFAULTS["sigma"].q)
    on_rows = [{"row": "data", "radius": float(r), "value": float(v)}
               for r, v in zip(rep["radii"], rep["on_cone"])]
    fit = fit_exponent(rep["radii"], rep["on_cone"])
    on_rows.append({"row": "fit", "slope": fit.slope, "intercept": fit.intercept,
                    "residual_max": fit.residual_max})
    files = _write_pair(out, "sigma_oncone",
                        ["row", "radius", "value", "slope", "intercept", "residual_max"],
                        on_rows, [("on-cone", rep["radii"], rep["on_cone"])],
                        [("fit", fit.slope, fit.intercept)],
                        title="sigma_check decay along the cone", xlabel="|x|",
                        ylabel="|value|")
    tr_rows = [{"row": "data", "distance": float(d), "value": float(v)}
               for d, v in zip(rep["distances"], rep["transverse"])]
    tr_rows.append({"row": "check", "transverse_ratio": rep["transverse_ratio"],
                    "doubling_rel": rep["doubling_rel"]})
    files += _write_pair(out, "sigma_transverse",
                         ["row", "distance", "value", "transverse_ratio", "doubling_rel"],
                         tr_rows,
                         [("|x|=50", [max(d, 0.5) for d in rep["distances"]],
                           rep["transverse"])],
                         title="sigma_check decay off the cone",
                         xlabel="cone distance (0 plotted at 0.5)", ylabel="|value|")
    return {"files": files, "slope": fit.slope, "transverse_ratio": rep["transverse_ratio"],
            "doubling_rel": rep["doubling_rel"]}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured pipeline(s); returns the summary per pipeline.

    Output land in <out>/<pipeline>/ as CSV + SVG pairs plus manifest.txt.
    """
    names = PIPELINE_NAMES if cfg.experiment == "all" else (cfg.experiment,)
    summaries = {}
    for name in names:
        check_budget(name, cfg)
        out = Path(cfg.out) / name
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        one = replace(cfg, experiment=name)
        summary = (sigma_decay if name == "sigma" else run_sweep)(one, out)
        wall = {name: time.perf_counter() - start}
        write_manifest(out / "manifest.txt", one, wall, summary["files"])
        summaries[name] = summary
    return summaries
