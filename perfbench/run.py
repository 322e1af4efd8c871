"""conelab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload fourier|duality|circles --seed N
                             --seconds S --trace 0|1

Each round runs the workload's operations once in a fresh worker process
(users start conelab afresh for every sweep).  Rounds repeat until their
summed time reaches `--seconds`; the first round also checks its outputs.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end medians over rounds
(wall_s, setup_s, cpu_s, peak_rss_mb).  With `--trace 1` rounds alternate
untraced and traced, and the metrics are the per-layer medians over traced
rounds plus the tracing overhead (traced minus untraced median wall_s).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("fourier", "duality", "circles")
ROUND_TIMEOUT_S = 150

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_candidate"):
        return "ratio"
    return "count"


def source_digest() -> str:
    """Identifies what runs: sha256 over the files under src/ and the benchmark's code."""
    h = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if "__pycache__" not in p.parts]
    for p in sorted(files + list(HERE.glob("*.py"))):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def run_round(workload: str, seed: int, index: int, check: bool, traced: bool,
              env: dict) -> dict:
    out = OUT / "rounds" / f"{workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if check:
        cmd.append("--check")
    if traced:
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_dir / f"{workload}-seed{seed}-round{index}.json")]
    started = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, text=True)
    elapsed = time.monotonic() - started
    shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round {index} of {workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed - result.get("check_s", 0.0)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "conelab" / "__init__.py").is_file():
        print(f"benchmark: no conelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=nproc, OMP_NUM_THREADS=nproc)

    rounds, spent = [], 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        res = run_round(args.workload, args.seed, len(rounds), len(rounds) == 0, traced, env)
        res["traced"] = traced
        rounds.append(res)
        print(f"round {len(rounds) - 1}{' traced' if traced else ''}: wall {res['wall_s']:.3f} s, "
              f"setup {res['setup_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
              f"peak rss {res['peak_rss_mb']:.1f} MB", file=sys.stderr)
        spent += res["elapsed"]
        if spent >= args.seconds and (not args.trace or len(rounds) % 2 == 0):
            break

    problems = [f"check: {m}" for m in rounds[0]["check_failures"]]
    digests = rounds[0]["digests"]
    problems += [f"round {i}: CSV digests differ from round 0"
                 for i, r in enumerate(rounds) if r["digests"] != digests]
    store = OUT / "digests" / source_digest() / f"{args.workload}-seed{args.seed}.json"
    if store.is_file():
        if json.loads(store.read_text()) != digests:
            problems.append(f"CSV digests differ from an earlier run of this source ({store})")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": layer_unit(name)} for name in traced[0]["layers"]}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END.items()}

    for p in problems:
        print(p, file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{rounds[0]['checks']} output checks, {len(problems)} problems", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
