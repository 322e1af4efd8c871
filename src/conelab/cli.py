"""Command line entry point.

    conelab <subcommand> [--config PATH] [--R 16,32,64] [--delta ...]
            [--kind a,b] [--seed 0,1] [--n N] [--gamma sqrt|full|both|G]
            [--q Q] [--workers N] [--out DIR] [--force]

Subcommands: gen (write a measure/configuration file per kind, value and
seed) plus the pipelines decay, maximal, pairs, sharpness, sigma, duality,
and all.  Flags are long-form only; values in the --config file (flat
key=value lines, same keys as the flags) override the flags.  gen and a
single pipeline refuse settings nothing they write reads, and each pipeline
refuses up front if its estimated kernel-evaluation count exceeds the
budget, unless forced.
"""

from __future__ import annotations

import argparse
import sys
from itertools import product
from pathlib import Path

from .experiments import (CONFIG_KINDS, ExperimentConfig, PIPELINE_NAMES, _swept_config,
                          format_value, run_experiment)
from .measures import GENERATOR_PARAMS, generate, save_config, save_measure

_LIST_KEYS = {"R": int, "delta": float, "kind": str, "seed": int}
_SCALAR_KEYS = {"n": int, "gamma": str, "q": float, "workers": int, "out": str}
# flag and config-file keys whose ExperimentConfig field has another name
_CONFIG_FIELDS = {"kind": "kinds", "seed": "seeds"}


def _parse_list(conv):
    def parse(text):
        return tuple(conv(t.strip()) for t in text.split(",") if t.strip())
    return parse


def parse_config_file(path) -> dict:
    """Flat key=value file with the same keys as the long flags."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        if key in _LIST_KEYS:
            values[key] = _parse_list(_LIST_KEYS[key])(raw)
        elif key in _SCALAR_KEYS:
            values[key] = _SCALAR_KEYS[key](raw)
        elif key == "force":
            values[key] = raw.lower() in ("1", "true", "yes")
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; overrides the flags below")
    p.add_argument("--R", type=_parse_list(int), help="comma-separated R sweep")
    p.add_argument("--delta", type=_parse_list(float), help="comma-separated delta sweep")
    p.add_argument("--kind", type=_parse_list(str), help="generator kinds")
    p.add_argument("--seed", type=_parse_list(int), help="comma-separated seeds")
    p.add_argument("--n", type=int, help="configuration size; wolff_radii takes at most 1/(2 delta)")
    p.add_argument("--gamma", help="sharpness branch: sqrt, full, both, or an integer")
    p.add_argument("--q", type=float, help="quadrature oversampling factor")
    p.add_argument("--workers", type=int, help="parallel sweep points")
    p.add_argument("--out", help="output directory (or file for gen)")
    p.add_argument("--force", action="store_true", help="ignore the evaluation budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Scaling experiments for weighted cone-extension estimates")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "gen": "generate a cube measure (--R) or circle configuration (--delta)",
        "decay": "Fourier decay means against the plank-mass bound",
        "maximal": "circular-maximal multiplicity norms over a delta sweep",
        "pairs": "tangent pair counts per dyadic separation band",
        "sharpness": "Knapp example ratio over an R sweep",
        "sigma": "surface-measure transform decay on and off the cone",
        "duality": "operator norms, L1/L2 equivalence, transference",
        "all": "run every pipeline",
    }
    for name in ("gen",) + PIPELINE_NAMES + ("all",):
        _add_common(sub.add_parser(name, help=helps[name]))
    return parser


def _collect(args: argparse.Namespace) -> dict:
    values = {}
    for key in list(_LIST_KEYS) + list(_SCALAR_KEYS):
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if args.force:
        values["force"] = True
    if args.config:
        values.update(parse_config_file(args.config))
    return values


def run_gen(values: dict) -> int:
    """Write one measure (--R) or configuration (--delta) file per kind, value and seed.

    A measure gets --n or an integer --gamma only if its kind reads it
    (GENERATOR_PARAMS); a configuration reads --n.  Before writing any file,
    raises ValueError for an unknown kind or naming the settings no file reads.
    """
    deltas, Rs = values.get("delta"), values.get("R")
    if not deltas and not Rs:
        print("gen: need --R (cube measure) or --delta (circle configuration)",
              file=sys.stderr)
        return 2
    kinds = values.get("kind") or ("random_frostman",)
    known = CONFIG_KINDS if deltas else tuple(GENERATOR_PARAMS)
    stray = [k for k in kinds if k not in known]
    if stray:
        raise ValueError(f"gen: unknown kind {stray[0]!r}, expected one of {', '.join(known)}")
    size = {k: "n" if deltas else GENERATOR_PARAMS[k][0] for k in kinds}
    read = {"delta" if deltas else "R", "kind", "seed", "out"}
    read |= set(size.values()) & set(_SCALAR_KEYS)  # the sizes a flag can set
    if not values.get("gamma", "0").isdigit():
        read.discard("gamma")
    unread = sorted(k for k in values if k not in read)
    if unread:
        raise ValueError(f"gen: no written file reads {', '.join(unread)} "
                         f"(it reads {', '.join(sorted(read))})")
    params = {k: {p: int(values[p])} if values.get(p) else {} for k, p in size.items()}
    out_dir = Path(values.get("out") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, value, seed in product(kinds, deltas or Rs, values.get("seed") or (0,)):
        if deltas:
            path = out_dir / f"{kind}_d{format_value(value)}_s{seed}.circles"
            save_config(path, _swept_config(kind, value, seed, values.get("n")))
        else:
            path = out_dir / f"{kind}_R{value}_s{seed}.cubes"
            save_measure(path, generate(kind, value, seed, **params[kind]))
        print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values = _collect(args)
        if args.command == "gen":
            return run_gen(values)
        cfg = ExperimentConfig(experiment=args.command,
                               **{_CONFIG_FIELDS.get(k, k): v for k, v in values.items()})
        summaries = run_experiment(cfg)
    except (ValueError, OSError) as err:
        print(f"conelab: {err}", file=sys.stderr)
        return 2
    for name, summary in summaries.items():
        files = ", ".join(summary["files"])
        print(f"{name}: wrote {files} under {Path(cfg.out) / name}")
        for key, value in summary.items():
            if key == "files":
                continue
            if isinstance(value, dict):
                body = " ".join(f"{k}={format_value(v)}" for k, v in value.items())
            elif isinstance(value, list):
                body = " ".join(format_value(v) for v in value)
            else:
                body = format_value(value)
            print(f"  {key}: {body}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
