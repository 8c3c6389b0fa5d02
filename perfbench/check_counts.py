"""Self-test: the traced run's work counts repeat exactly for one seed.

    python3 perfbench/check_counts.py [--workload NAME ...] [--seed N] [--seconds S]

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares every per-layer metric whose unit is ``count``, plus the
deterministic ratios, for exact equality (``run.py`` itself fails a
``verify-all`` run whose sweep does not report 4,209,037 pairs).  Exits 1
on any difference.  A ``verify-all``
pair takes about two minutes; the other workloads under a minute each.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXACT_RATIOS = ("bott.bott.nonzero_ratio",)
RUN_TIMEOUT_S = 900


def traced(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: traced run exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] == "count" or m["name"] in EXACT_RATIOS]

    ok = True
    for workload in workloads:
        first = traced(workload, args.seed, args.seconds)
        second = traced(workload, args.seed, args.seconds)
        differing = [name for name in exact if first[name]["value"] != second[name]["value"]]
        for name in exact:
            mark = "DIFFERS" if name in differing else "same"
            print(f"{workload:<14} {name:<42} {first[name]['value']:>14} "
                  f"{second[name]['value']:>14}  {mark}")
        ok = ok and not differing
    print("work counts repeat exactly" if ok else "work counts differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
