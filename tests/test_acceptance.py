"""Acceptance suite: one test and one reported pass/fail line per criterion.

Each criterion pins the quantitative window it certifies:

1. Knapp sharpness ratios bounded and R-flat at q=8.
2. Decay-mean over sqrt(P) * mass scales like R^eps (pooled slope <= 0.30).
3. L^{3/2} multiplicity ratio slope <= 0.25 per seed over a delta sweep.
4. Surface-measure transform: |x|^{-1/2} on the cone, rapid decay off it.
5. Tangent pair counts within 32 (log2(1/delta))^3 of the gamma bound.
6. Seven geometry oracle suites, >= 10^3 seeded instances, zero violations.
7. Quadrature, pair-sum, and classwise decay routes agree within 2%.
8. L1/L2 duality ratio in [1/64, 64] plus transference monotonicity at R=32.
9. Reruns of every pipeline produce byte-identical CSVs.

Runtime limits are part of the criteria and asserted alongside the values.
"""

import math
import time
from pathlib import Path

from conftest import acceptance_lines
from oracle_suites import (
    angle_suite,
    annuli_area_suite,
    decay_by_classes,
    dictionary_suite,
    duality_roundtrip_suite,
    engulfing_suite,
    packing_suite,
    transitivity_suite,
)

import numpy as np

from conelab.experiments import ExperimentConfig, run_experiment
from conelab.fitting import fit_exponent
from conelab.fourier import (
    decay_mean,
    decay_ratio,
    knapp_sharpness,
    stationary_phase_diagnostic,
)
from conelab.maximal import wolff_example_check
from conelab.measures import MAXIMAL_RADII, generate, generate_config
from conelab.operators import bbcr_equivalence_check, build_extension_operator, transference_check
from conelab.tangency import classify_pairs, pair_count

DECAY_FAMILIES = (
    ("light_tube", (0,)),
    ("vertical_tube", (0,)),
    ("knapp_pair", (0,)),
    ("random_frostman", (0, 1, 2, 3, 4)),
)


def record(num, name, ok, detail, elapsed, limit=None):
    """Append the criterion verdict to the session summary, then assert it."""
    if limit is not None and elapsed > limit:
        ok = False
        detail += f"; OVER TIME LIMIT {limit:.0f}s"
    verdict = "PASS" if ok else "FAIL"
    budget = f"{elapsed:.1f}s" + (f"/{limit:.0f}s" if limit is not None else "")
    line = f"criterion {num} ({name}): {verdict} [{budget}] {detail}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def _measure(kind, R, seed):
    params = {"n": R} if kind == "random_frostman" else {}
    return generate(kind, R, seed, **params)


def test_criterion_1_knapp_sharpness():
    start = time.perf_counter()
    branches = {"sqrt": [], "full": []}
    ratios = []
    for R in (16, 32, 64):
        for branch, gamma in (("sqrt", math.sqrt(R)), ("full", float(R))):
            res = knapp_sharpness(R, gamma, q=8.0)
            branches[branch].append((R, res["ratio"]))
            ratios.append(res["ratio"])
    in_window = all(0.01 <= r <= 100.0 for r in ratios)
    slopes = {b: fit_exponent([p[0] for p in pts], [p[1] for p in pts]).slope
              for b, pts in branches.items()}
    flat = all(-0.2 <= s <= 0.2 for s in slopes.values())
    record(1, "knapp sharpness", in_window and flat,
           f"ratios [{min(ratios):.3f}, {max(ratios):.3f}] in [0.01, 100]; "
           f"slopes sqrt={slopes['sqrt']:+.3f} full={slopes['full']:+.3f} in [-0.2, 0.2]",
           time.perf_counter() - start, limit=600)


def test_criterion_2_upper_bound_scaling():
    start = time.perf_counter()
    xs, ys = [], []
    for kind, seeds in DECAY_FAMILIES:
        for seed in seeds:
            for R in (16, 32, 64, 128):
                res = decay_ratio(_measure(kind, R, seed))
                xs.append(R)
                ys.append(res["ratio"])
    slope = fit_exponent(xs, ys).slope
    worst = max(ys)
    ok = slope <= 0.30 and worst <= 1e3
    record(2, "upper-bound scaling", ok,
           f"pooled slope {slope:+.3f} <= 0.30 over {len(ys)} runs; "
           f"max ratio {worst:.3g} <= 1e3",
           time.perf_counter() - start, limit=1800)


def test_criterion_3_maximal_scaling():
    start = time.perf_counter()
    deltas = tuple(2.0 ** -k for k in range(5, 9))
    slopes = {}
    for kind in ("wolff_radii", "random_frostman"):
        for seed in (0, 1, 2):
            ratios = []
            for delta in deltas:
                config = generate_config(kind, delta, int(round(0.5 / delta)),
                                         seed, radius_band=MAXIMAL_RADII)
                ratios.append(wolff_example_check(config)["ratio"])
            slopes[(kind, seed)] = fit_exponent([1.0 / d for d in deltas], ratios).slope
    worst = max(slopes.values())
    record(3, "maximal-function scaling", worst <= 0.25,
           f"max per-seed slope {worst:+.3f} <= 0.25 over {len(slopes)} kind/seed sweeps",
           time.perf_counter() - start, limit=600)


def test_criterion_4_sigma_decay():
    start = time.perf_counter()
    res = stationary_phase_diagnostic(q=8.0)
    slope_ok = -0.65 <= res["slope"] <= -0.35
    off_ok = res["transverse_ratio"] <= 1e-4
    stable = res["doubling_rel"] < 0.01
    record(4, "sigma-check decay", slope_ok and off_ok and stable,
           f"on-cone slope {res['slope']:+.3f} in [-0.65, -0.35]; "
           f"distance-20/distance-0 {res['transverse_ratio']:.2e} <= 1e-4; "
           f"doubling moves <= {res['doubling_rel']:.2e} < 1%",
           time.perf_counter() - start, limit=300)


def test_criterion_5_pair_count_bound():
    start = time.perf_counter()
    worst_rel, bands = 0.0, 0
    for delta in (2.0 ** -6, 2.0 ** -8):
        bound = 32.0 * math.log2(1.0 / delta) ** 3
        for kind in ("wolff_radii", "random_frostman"):
            for seed in range(5):
                config = generate_config(kind, delta, int(round(0.5 / delta)),
                                         seed, radius_band=MAXIMAL_RADII)
                table = classify_pairs(config)
                for D in table.dyadic_D():
                    if D < 8 * delta:
                        continue
                    ratio = pair_count(config, table, D)["ratio"]
                    worst_rel = max(worst_rel, ratio / bound)
                    bands += 1
    record(5, "pair-count bound", worst_rel <= 1.0,
           f"max band ratio at {worst_rel:.2e} of the 32 log2(1/delta)^3 ceiling "
           f"over {bands} D-bands",
           time.perf_counter() - start, limit=300)


def test_criterion_6_geometry_oracles():
    start = time.perf_counter()
    reports = {
        "duality round-trip": duality_roundtrip_suite(1000, seed=11),
        "engulfing": engulfing_suite(1000, seed=12),
        "almost-transitivity": transitivity_suite(1000, seed=13),
        "comparability dictionary": dictionary_suite(1000, seed=14),
        "packing ceiling": packing_suite(range(1000)),
        "angle ~ sqrt(d Delta)": angle_suite(1000, seed=15),
        "annuli area": annuli_area_suite(1000, seed=16),
    }
    enough = all(r["instances"] >= 1000 for r in reports.values())
    clean = all(r["violations"] == 0 for r in reports.values())
    mc = reports["annuli area"].get("mc_violations", 0) == 0
    record(6, "geometry oracle suites", enough and clean and mc,
           "zero violations in " + ", ".join(
               f"{name} ({r['instances']})" for name, r in reports.items()) +
           f"; engulf A1 {reports['engulfing']['max_A1']:.3f} <= 8, "
           f"transitivity C {reports['almost-transitivity']['max_C']:.3f} <= 12, "
           f"packing max {reports['packing ceiling']['max_count']} <= 4096, "
           f"angle ratio in [{reports['angle ~ sqrt(d Delta)']['ratio_range'][0]:.3f}, "
           f"{reports['angle ~ sqrt(d Delta)']['ratio_range'][1]:.3f}], "
           f"annuli const {reports['annuli area']['max_measured_const']:.3f} <= 8",
           time.perf_counter() - start, limit=300)


def test_criterion_7_route_equivalence():
    start = time.perf_counter()
    instances, worst = 0, 0.0
    for kind, seeds in DECAY_FAMILIES:
        for seed in seeds:
            for R in (16, 32, 64, 128):
                nu = _measure(kind, R, seed)
                if nu.mass > 32:
                    continue
                mean = decay_mean(nu)
                cls = decay_by_classes(nu)
                pair = cls["total"]
                classwise = cls["diag"] + cls["near"] + sum(cls["bands"].values())
                rel = max(abs(mean - pair), abs(mean - classwise)) / abs(pair)
                worst = max(worst, rel)
                instances += 1
    record(7, "route equivalence", instances > 0 and worst <= 0.02,
           f"max relative gap {worst:.2e} <= 2% across {instances} measures "
           f"with mass <= 32",
           time.perf_counter() - start, limit=300)


def test_criterion_8_duality_transference():
    start = time.perf_counter()
    ratios, rayleigh_ok, trans_ok = [], True, True
    for kind, seeds in DECAY_FAMILIES:
        for seed in seeds:
            nu = _measure(kind, 32, seed)
            op = build_extension_operator(nu, q=2.0, seed=seed)
            bb = bbcr_equivalence_check(op)
            ratios.append(bb["ratio"])
            # norm^2 agrees with the weighted L2 of the top eigenvector's
            # image and stays inside the certified bracket
            rayleigh_ok &= abs(bb["l2_sq"] - bb["U_L2"]) <= 1e-6 * bb["U_L2"]
            rayleigh_ok &= bb["U_L2"] <= bb["U_L2_upper"] * (1 + 1e-12)
            rng = np.random.default_rng(seed)
            subs = [np.ones(nu.mass), (np.arange(nu.mass) % 2).astype(float),
                    rng.random(nu.mass)]
            trans_ok &= transference_check(op, subs)["ok"]
    in_window = all(1 / 64 <= r <= 64 for r in ratios)
    record(8, "duality and transference", in_window and rayleigh_ok and trans_ok,
           f"bbcr ratios [{min(ratios):.3f}, {max(ratios):.3f}] in [1/64, 64] "
           f"on {len(ratios)} R=32 measures; top image matches norm^2; "
           f"transference monotone",
           time.perf_counter() - start, limit=600)


REDUCED_SCOPE = {
    "decay": dict(R=(16,), kinds=("light_tube", "vertical_tube", "knapp_pair",
                                  "random_frostman"), seeds=(0, 1), q=2.0),
    "maximal": dict(delta=(2.0 ** -5,), kinds=("wolff_radii", "random_frostman"),
                    seeds=(0, 1), n=16),
    "pairs": dict(delta=(2.0 ** -6,), kinds=("wolff_radii", "random_frostman"),
                  seeds=(0, 1), n=32),
    "sharpness": dict(R=(16, 32, 64), gamma="both", q=2.0),
    "sigma": dict(q=2.0),
    "duality": dict(R=(16,), kinds=("light_tube", "vertical_tube"), seeds=(0,), q=2.0),
}


def test_criterion_9_determinism(tmp_path):
    start = time.perf_counter()
    mismatches, checked = [], 0
    for name, scope in REDUCED_SCOPE.items():
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            run_experiment(ExperimentConfig(experiment=name, out=str(out), **scope))
            outs.append(out / name)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs, f"{name} wrote no CSVs"
        for fname in csvs:
            checked += 1
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    record(9, "determinism", not mismatches,
           f"{checked} CSVs byte-identical across pipeline reruns"
           + (f"; MISMATCHES: {', '.join(mismatches)}" if mismatches else ""),
           time.perf_counter() - start)
