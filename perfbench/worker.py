"""One round of a workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed S --out DIR --spawned T
                                [--check] [--trace FILE]

`--spawned` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so `setup_s` covers interpreter start, the imports of conelab,
numpy and scipy, and preparing the output directory.  The timed window runs
from the first operation to the last output written; checks, digests and
trace output come after it.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import conelab
    if Path(conelab.__file__).resolve().parent != ROOT / "src" / "conelab":
        print(f"worker: conelab imported from {conelab.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = workloads.operations(args.workload, args.seed, out)
    record: dict = {}
    succeeded = []

    setup_s = time.monotonic() - args.spawned
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for name, op in ops:
        try:
            op(record)
        except Exception:
            print(f"worker: operation {name} failed", file=sys.stderr)
            traceback.print_exc()
        else:
            succeeded.append(name)
    wall_s = time.perf_counter() - start
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "attempted": len(ops),
        "failed": len(ops) - len(succeeded),
        "wall_s": wall_s,
        "setup_s": setup_s,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "digests": workloads.digests(out, record),
    }
    if args.check:
        import checks
        t = time.perf_counter()
        report = checks.run(succeeded, out, args.seed, record)
        result["checks"] = report.count
        result["check_failures"] = report.failures
        result["check_s"] = time.perf_counter() - t
    if tracer is not None:
        tracer.write(args.trace)
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
