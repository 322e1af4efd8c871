"""Experiment pipelines: parameter sweeps, CSV tables, SVG figures, manifests.

Each pipeline evaluates one family of metrics over an R- or delta-sweep,
writes one CSV per metric (data rows plus `fit` rows carrying the log-log
slope), one SVG per CSV, and a flat key=value manifest echoing the full
configuration and versions.  All numbers are formatted with %.12g and all
randomness is seeded per task, so reruns with the same configuration are
byte-identical; sweep points may evaluate in parallel worker processes
without affecting the output.

Five pipelines are sweeps, each one entry of `SWEEPS`: its default scope,
its point function and the point's cost in kernel evaluations, and its
output layout.  `run_sweep` runs the tasks `_tasks` lists, and the budget
sums their costs.  `sigma` profiles one fixed set of points instead.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import platform
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .fitting import fit_exponent
from .fourier import (MIDPOINTS, cube_midpoints, decay_ratio, diagnostic_points,
                      extension_bandwidths, knapp_center, knapp_sector, knapp_sharpness,
                      knapp_tube_measure, lookup_reach, make_quadrature, radial_grid,
                      rho_split, stationary_phase_diagnostic)
from .maximal import default_grid, wolff_example_check
from .measures import (GENERATOR_PARAMS, MAXIMAL_PLANAR, MAXIMAL_RADII, generate,
                       generate_config)
from .operators import (bbcr_equivalence_check, build_extension_operator, gram_grid,
                        transference_check)
from .svgplot import svg_scatter
from .tangency import classify_pairs, pair_count

VALID_R = (16, 32, 64, 128, 256)
DECAY_KINDS = ("light_tube", "vertical_tube", "knapp_pair", "random_frostman")
CONFIG_KINDS = ("wolff_radii", "random_frostman")
PIPELINE_NAMES = ("decay", "maximal", "pairs", "sharpness", "sigma", "duality")
MAX_KERNEL_EVALS = 2 * 10 ** 9  # a pipeline refuses estimates above half of this
MAX_GRAM_ROWS = 4096  # duality: G is one n x n complex array, 268 MB at this n
SIGMA_Q = 8.0  # sigma's quadrature oversampling where the configuration leaves q open
# the environment sweep workers start with: one BLAS thread per process
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


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
            if k not in GENERATOR_PARAMS:
                raise ValueError(f"unknown kind {k!r}")
        for r in self.R:
            if r not in VALID_R:
                raise ValueError(f"R={r}: must be a power of two in [16, 256]")
        for d in self.delta:
            if not 0 < d < 1:
                raise ValueError(f"delta={d}: must lie in (0, 1)")


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
    """Write the table <stem>.csv and its figure <stem>.svg; returns both names.

    `out` is made here, at the first file a pipeline writes, so a refusal
    raised by a point leaves no directory behind.
    """
    out.mkdir(parents=True, exist_ok=True)
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
    for name, seconds in wall.items():
        lines.append(f"wall_seconds_{name}={seconds:.3f}")
    for name in files:
        lines.append(f"file={name}")
    Path(path).write_text("\n".join(lines) + "\n")


def _run_tasks(fn, tasks, workers: int):
    """fn over tasks, in at most min(workers, len(tasks)) spawned processes.

    The workers start with one BLAS and OpenMP thread each, so a pool does
    not run each worker's own BLAS threads on the same cores; the parent's
    environment is restored.  The pool is capped at the task count.  The
    pool modules are imported here, so a serial run never loads them.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    saved = {k: os.environ.get(k) for k in WORKER_ENV}
    os.environ.update(WORKER_ENV)
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, tasks))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


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


def _circle_count(n, delta: float) -> int:
    """Configured circle count, else floor(1/(2 delta)), the wolff_radii capacity of the band."""
    return n or int(0.5 / delta)


# ---------------------------------------------------------------------------
# sweep points (top-level functions so worker processes can import them);
# each takes one task tuple and returns its data rows; its cost, next to it,
# takes (task, force) and returns the kernel evaluations of its calls


@functools.cache
def _swept_measure(kind: str, R: int, seed: int, n):
    """Cube measure of a sweep point and its generator parameter as text.

    A kind that reads n takes the configured n; every other parameter, and
    n when none is configured, takes its GENERATOR_PARAMS default.  Cached
    for one run_experiment call, so a point's cost and the point build the
    measure once (its cubes are read-only).
    """
    name, default = GENERATOR_PARAMS[kind]
    value = n if name == "n" and n else default(R)
    return generate(kind, R, seed, **{name: value}), f"{name}={value}"


def _swept_config(kind: str, delta: float, seed: int, n):
    """Circle configuration of a sweep point, in the maximal-function band."""
    return generate_config(kind, delta, _circle_count(n, delta), seed,
                           radius_band=MAXIMAL_RADII)


def _decay_point(task):
    kind, R, seed, n, q = task
    nu, params = _swept_measure(kind, R, seed, n)
    return [{"row": "data", "kind": kind, "R": R, "seed": seed, "params": params,
             **decay_ratio(nu, q)}]


def _decay_cost(task, force):
    # per phi node and cube: decay_mean's two step tables and their product
    kind, R, seed, n, q = task
    nu = _swept_measure(kind, R, seed, n)[0]
    quad = make_quadrature(*extension_bandwidths(np.ptp(nu.centers, axis=0)), q)
    n_baby, n_giant = rho_split(len(quad.rho))
    return len(quad.phi) * nu.mass * (n_baby * n_giant + n_baby + n_giant)


def _maximal_point(task):
    kind, delta, seed, n, _ = task
    config = _swept_config(kind, delta, seed, n)
    return [{"row": "data", "kind": kind, "delta": delta, "seed": seed,
             "params": f"n={config.count}", **wolff_example_check(config)}]


def _maximal_cost(task, force):
    # the span events of the level counts: an annulus at the top r of the
    # radius band meets at most 2 (r + delta) / h + 1 grid rows, in at most
    # 2 spans a row, and each span gives 2 events
    _, delta, _, n, _ = task
    rows = 2 * (MAXIMAL_RADII[1] + delta) / default_grid(delta).h + 1
    return _circle_count(n, delta) * rows * 2 * 2


def _pairs_point(task):
    kind, delta, seed, n, _ = task
    config = _swept_config(kind, delta, seed, n)
    table = classify_pairs(config)
    bound = 32.0 * math.log2(1.0 / delta) ** 3
    return [{"row": "data", "kind": kind, "delta": delta, "seed": seed,
             "params": f"n={config.count}", **pair_count(config, table, D), "log_bound": bound}
            for D in table.dyadic_D() if D >= 8 * delta]


def _pairs_cost(task, force):
    # the pair table plus each band's gamma_tau scan at spacing tau_D / 2, for
    # D = delta 2^k from 8 delta up to the widest separation in the
    # maximal-function box: the scan builds (2 * 2)^3 keys per circle and direction
    _, delta, _, n, _ = task
    n = _circle_count(n, delta)
    planar = MAXIMAL_PLANAR[1] - MAXIMAL_PLANAR[0]
    d_max = MAXIMAL_RADII[1] - MAXIMAL_RADII[0] + math.sqrt(2) * planar
    dirs = sum(math.ceil(2 * math.pi / (0.5 * math.sqrt(delta / (delta * 2.0 ** k))))
               for k in range(3, int(math.log2(d_max / delta)) + 1))
    return n * n + n * 4 ** 3 * dirs


def _sharpness_point(task):
    branch, R, gamma, q = task
    return [{"row": "data", "branch": branch, "R": R, "gamma": gamma,
             **knapp_sharpness(R, gamma, q=q)}]


def _sharpness_cost(task, force):
    # one radial-table lookup per midpoint sample and sector node
    # (extension_separable skips the nodes off the sector), plus the table's
    # fill: its samples and its two geometric tables, n_rho entries each, out
    # to the lookups' reach, all sized as weighted_l2 sizes them
    _, R, gamma, q = task
    pts = cube_midpoints(knapp_tube_measure(R, gamma), MIDPOINTS) - knapp_center(R)
    quad = make_quadrature(*extension_bandwidths(pts), q)
    phi = quad.phi[knapp_sector(gamma)[0](quad.phi) != 0]
    n_keep = radial_grid(quad, lookup_reach(pts, phi))[1]
    return len(pts) * len(phi) + (n_keep + sum(rho_split(n_keep))) * len(quad.rho)


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


def _duality_cost(task, force):
    # J0 and exponential tables over the distinct difference radii and
    # heights, n_rho entries each, plus the n^2 Gram entries; a point with
    # more than MAX_GRAM_ROWS Gram rows is refused unless forced
    kind, R, seed, n, q = task
    pts = cube_midpoints(_swept_measure(kind, R, seed, n)[0], MIDPOINTS)
    n = len(pts)
    if n > MAX_GRAM_ROWS and not force:
        raise BudgetExceededError(
            f"duality: {kind} R={R} seed={seed} has n = {n} Gram rows, over the "
            f"{MAX_GRAM_ROWS} budget; G alone takes {16 * n * n / 1e9:.2g} GB; "
            f"rerun with force enabled")
    r, z, _ = gram_grid(pts, MIDPOINTS)
    n_rho = len(make_quadrature(*extension_bandwidths(pts), q).rho)
    return n_rho * (len(r) + len(z)) + n ** 2


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
    """One sweep: its scope, its points and their cost, its CSV/SVG pair and summary.

    The figure plots `y` against `x`, one series per value of the row field
    `series`: a generator kind, or for sharpness a gamma branch.  `fit`
    selects the log-log fits of ratio against x written as `fit` rows: one
    per series ("series"), one per series and seed ("seed"), or none;
    `pooled` adds one over all rows, labelled "pooled".  The figure draws
    the pooled fit when there is one, else the per-series fits.
    """

    point: Callable              # task -> data rows
    cost: Callable               # (task, force) -> kernel evaluations of the point
    stem: str                    # writes <stem>.csv and <stem>.svg
    header: tuple
    title: str
    xlabel: str
    summary: Callable            # (data rows, fit rows) -> summary entries
    axis: str = "R"              # the ExperimentConfig field holding the sweep values
    values: tuple = ()           # swept where the configuration leaves them open
    kinds: tuple = ()            # the generator kinds the sweep understands
    q: float | None = None       # default quadrature oversampling
    x: Callable = lambda r: r["R"]
    y: Callable = lambda r: r["ratio"]
    series: str = "kind"
    fit: str | None = None
    pooled: bool = False


SWEEPS = {
    "decay": Sweep(
        _decay_point, _decay_cost, "decay_ratio",
        ("row", "kind", "R", "seed", "params", "mass", "decay_mean", "plank_lower",
         "plank_upper", "ratio", "slope", "intercept", "residual_max"),
        "decay mean over sqrt(P) * mass", "R", _decay_summary,
        values=(16, 32, 64, 128), kinds=DECAY_KINDS, q=2.0, fit="series", pooled=True),
    "maximal": Sweep(
        _maximal_point, _maximal_cost, "wolff_ratio",
        ("row", "kind", "delta", "seed", "params", "count", "l32_norm", "l32_dyadic",
         "ratio", "ratio_dyadic", "slope", "intercept", "residual_max"),
        "L3/2 multiplicity over (delta n)^(2/3)", "1/delta", _maximal_summary,
        axis="delta", values=tuple(2.0 ** -k for k in range(5, 9)), kinds=CONFIG_KINDS,
        x=lambda r: 1.0 / r["delta"], fit="seed"),
    "pairs": Sweep(
        _pairs_point, _pairs_cost, "pair_counts",
        ("row", "kind", "delta", "seed", "params", "D", "count", "gamma", "tau_D",
         "ratio", "log_bound"),
        "tangent pairs over gamma^(1/2) (D/delta)^(1/2) n", "D/delta", _pairs_summary,
        axis="delta", values=(2.0 ** -6, 2.0 ** -8), kinds=CONFIG_KINDS,
        x=lambda r: r["D"] / r["delta"], y=lambda r: max(r["ratio"], 1e-12)),
    "sharpness": Sweep(
        _sharpness_point, _sharpness_cost, "knapp_sharpness",
        ("row", "branch", "R", "gamma", "weighted_l2", "f_norm2", "ratio", "slope",
         "intercept", "residual_max"),
        "Knapp ratio: weighted L2 over gamma^(1/2) |f|^2", "R", _sharpness_summary,
        values=(16, 32, 64), q=8.0, series="branch", fit="series"),
    "duality": Sweep(
        _duality_point, _duality_cost, "duality",
        ("row", "kind", "R", "seed", "mass", "u_l2_lower", "u_l2_upper", "u_l1_lower",
         "ratio", "lambda_star", "transference_ok"),
        "L2 norm over L1 constant / mass^(1/2)", "R", _duality_summary,
        values=(32,), kinds=DECAY_KINDS, q=2.0),
}


def _tasks(sweep: Sweep, cfg: ExperimentConfig) -> list:
    """The sweep's point tasks at cfg's scope, in output order.

    Kinds the sweep does not understand are skipped, so a shared config
    (the `all` experiment) can name kinds that other sweeps own.
    """
    values, q = getattr(cfg, sweep.axis) or sweep.values, cfg.q or sweep.q
    if sweep.series == "branch":  # sharpness: gamma = sqrt(R), R, or a fixed integer
        gammas = {"sqrt": lambda R: int(round(math.sqrt(R))), "full": lambda R: R}
        if cfg.gamma != "both":
            gammas = ({cfg.gamma: gammas[cfg.gamma]} if cfg.gamma in gammas
                      else {"fixed": lambda R: int(cfg.gamma)})
        return [(b, R, g(R), q) for b, g in gammas.items() for R in values]
    kinds = tuple(k for k in cfg.kinds if k in sweep.kinds) or sweep.kinds
    return [(kind, v, seed, cfg.n, q) for kind in kinds for v in values for seed in cfg.seeds]


def estimate_evals(experiment: str, cfg: ExperimentConfig) -> float:
    """Kernel evaluations of one pipeline at cfg's scope: the sum of its points' costs.

    A duality point with more than MAX_GRAM_ROWS Gram rows raises
    BudgetExceededError unless cfg.force is set.
    """
    if experiment == "sigma":
        # J0 and exponential tables over at most one radius and height per
        # point, n_rho entries each, at q and 2q
        pts, q = diagnostic_points(), cfg.q or SIGMA_Q
        return float(sum(len(make_quadrature(*extension_bandwidths(pts), qq).rho)
                         * 2 * len(pts) for qq in (q, 2 * q)))
    sweep = SWEEPS[experiment]
    return float(sum(sweep.cost(t, cfg.force) for t in _tasks(sweep, cfg)))


def check_budget(experiment: str, cfg: ExperimentConfig) -> float:
    est = estimate_evals(experiment, cfg)
    if est > MAX_KERNEL_EVALS / 2 and not cfg.force:
        raise BudgetExceededError(
            f"{experiment}: estimated {est:.3g} kernel evaluations exceeds the "
            f"{MAX_KERNEL_EVALS / 2:.0g} budget; rerun with force enabled")
    return est


def run_sweep(cfg: ExperimentConfig, out: Path) -> dict:
    """Run the sweep `cfg.experiment` and write its CSV/SVG pair under `out`."""
    sweep = SWEEPS[cfg.experiment]
    tasks = _tasks(sweep, cfg)
    labels = list(dict.fromkeys(t[0] for t in tasks))
    if sweep.series == "branch":
        labels.sort()
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
    rep = stationary_phase_diagnostic(q=cfg.q or SIGMA_Q)
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


def _refuse_unread(cfg: ExperimentConfig) -> None:
    """Raise ValueError naming the settings cfg gives that no point of its pipeline reads.

    A sweep reads its own axis, workers, q where it has a default q, gamma
    when its series are gamma branches, its kinds and seeds when it sweeps
    generator kinds, and n when one of the kinds it sweeps reads n
    (GENERATOR_PARAMS; both configuration kinds do); sigma reads only q.  A
    setting counts as given when it differs from its ExperimentConfig default.
    """
    sweep = SWEEPS.get(cfg.experiment)
    swept, read = (), {"q"}
    if sweep is not None:
        swept, read = sweep.kinds, {sweep.axis, "workers"}
        if sweep.q is not None:
            read.add("q")
        if sweep.series == "branch":
            read.add("gamma")
        if swept:
            read |= {"kinds", "seeds"}
    stray = [k for k in cfg.kinds if k not in swept]
    if stray:
        raise ValueError(f"{cfg.experiment}: kind {stray[0]!r} is not swept by this pipeline "
                         f"(it sweeps {', '.join(swept) or 'no kinds'})")
    if any(GENERATOR_PARAMS[k][0] == "n" for k in cfg.kinds or swept):
        read.add("n")
    unread = [f.name for f in fields(cfg)
              if f.name in ("R", "delta", "seeds", "n", "gamma", "q", "workers")
              and f.name not in read and getattr(cfg, f.name) != f.default]
    if unread:
        raise ValueError(f"{cfg.experiment}: no point of this pipeline reads {', '.join(unread)} "
                         f"(it reads {', '.join(sorted(read))})")


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured pipeline(s); returns the summary per pipeline.

    Output land in <out>/<pipeline>/ as CSV + SVG pairs plus manifest.txt.
    A single pipeline refuses settings it does not read (`_refuse_unread`);
    `all` skips, per sweep, the kinds it does not sweep.
    """
    names = PIPELINE_NAMES if cfg.experiment == "all" else (cfg.experiment,)
    _swept_measure.cache_clear()  # a run shares its measures with no other run
    if cfg.experiment != "all":
        _refuse_unread(cfg)
    summaries = {}
    for name in names:
        check_budget(name, cfg)
        out = Path(cfg.out) / name
        start = time.perf_counter()
        one = replace(cfg, experiment=name)
        summary = (sigma_decay if name == "sigma" else run_sweep)(one, out)
        wall = {name: time.perf_counter() - start}
        write_manifest(out / "manifest.txt", one, wall, summary["files"])
        summaries[name] = summary
    return summaries
