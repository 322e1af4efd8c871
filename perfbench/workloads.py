"""The three workloads: each round is a fixed list of operations on conelab.

Every operation is one public call: a `run_experiment` pipeline or a direct
`main_geom_check`.  The workload seed picks the measure and configuration
seeds; everything else is fixed, so every round attempts the same
operations.  Sizes were chosen so one round takes a few seconds on a 2-core
box; see README.md for the make-up and reference figures.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from conelab import experiments, measures, tangency
from conelab.experiments import ExperimentConfig

DECAY_R = (16, 32, 64)
# knapp_pair is left out: its quadrature is set by the random offset of its
# vertical tube, so its decay cost swings sixfold with the seed
DECAY_KINDS = ("light_tube", "vertical_tube", "random_frostman")
DECAY_Q = 2.0
SIGMA_Q = 1.25
SHARPNESS_R = (16, 32, 64)
SHARPNESS_Q = 4.0
DUALITY_R = (16, 32, 64, 128)
DUALITY_Q = 2.0
DUALITY_KINDS = ("light_tube",)
MAXIMAL_DELTAS = tuple(2.0 ** -k for k in range(5, 9))
PAIRS_DELTAS = (2.0 ** -6, 2.0 ** -8)
GEOM_DELTA = 2.0 ** -7
GEOM_KINDS = ("wolff_radii", "random_frostman")


def geom_config(kind: str, seed: int):
    """Circle family for `main_geom_check`: n = 1/(2 delta) in the maximal band."""
    return measures.generate_config(kind, GEOM_DELTA, int(round(0.5 / GEOM_DELTA)), seed,
                                    radius_band=measures.MAXIMAL_RADII)


def _pipeline(out: Path, **fields):
    def op(record):
        experiments.run_experiment(ExperimentConfig(out=str(out), **fields))
    return op


def _geom_check(kind: str, seed: int):
    def op(record):
        kept = []
        greedy = tangency.greedy_maximal_incomparable

        def keep(rects, A):
            members = greedy(rects, A)
            kept.append(members)
            return members

        tangency.greedy_maximal_incomparable = keep
        try:
            report = tangency.main_geom_check(geom_config(kind, seed))
        finally:
            tangency.greedy_maximal_incomparable = greedy
        record[f"main_geom_check/{kind}"] = {"report": report, "kept": kept}
    return op


def operations(workload: str, seed: int, out: Path) -> list:
    """(name, callable) pairs; each callable takes a dict it may record into."""
    if workload == "fourier":
        return [
            ("decay", _pipeline(out, experiment="decay", R=DECAY_R,
                                kinds=DECAY_KINDS, seeds=(seed,), q=DECAY_Q)),
            ("sigma", _pipeline(out, experiment="sigma", q=SIGMA_Q)),
            ("sharpness", _pipeline(out, experiment="sharpness", R=SHARPNESS_R,
                                    q=SHARPNESS_Q)),
        ]
    if workload == "duality":
        return [
            ("duality", _pipeline(out, experiment="duality", R=DUALITY_R,
                                  kinds=DUALITY_KINDS, seeds=(seed,), q=DUALITY_Q)),
        ]
    if workload == "circles":
        return [
            ("maximal", _pipeline(out, experiment="maximal", delta=MAXIMAL_DELTAS,
                                  kinds=experiments.CONFIG_KINDS, seeds=(seed,))),
            ("pairs", _pipeline(out, experiment="pairs", delta=PAIRS_DELTAS,
                                kinds=experiments.CONFIG_KINDS, seeds=(seed,))),
        ] + [(f"main_geom_check/{kind}", _geom_check(kind, seed)) for kind in GEOM_KINDS]
    raise ValueError(f"unknown workload {workload!r}")


def digests(out: Path, record: dict) -> dict:
    """sha256 of every CSV written under `out`, plus each geometry report."""
    found = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*.csv"))}
    for name, value in record.items():
        text = json.dumps(value["report"], sort_keys=True)
        found[name] = hashlib.sha256(text.encode()).hexdigest()
    return found
