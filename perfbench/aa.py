"""A/A steadiness tool: the same code, run in alternating sets.

    python3 perfbench/aa.py --workload query-mix --runs 5 --sets 2

Runs ``run.py --trace 0`` ``runs`` times per set, alternating set A and set
B run by run, each run with its own seed.  For every end-to-end metric,
and for raw wall time beside its normalised counterpart, it prints each
set's median, quartiles and IQR/median, the shift of set B's median from
set A's, and whether the metric stays inside its bound from
``BENCHMARK.json``: the spread of every metric except ``setup_s`` within
a third of the bound, and the shift within the bound.  The bounds in
``BENCHMARK.json`` were derived from this tool's output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines:
        if line.startswith("context "):
            values["wall_raw_s"] = json.loads(line[len("context "):])["host.wall_raw_s"]
    return values


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, IQR / median)."""
    q1, mid, q3 = quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat for several workloads")
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    seed = args.first_seed
    for workload in args.workload:
        sets: list[list[dict]] = [[] for _ in range(args.sets)]
        for _ in range(args.runs):
            for runs in sets:
                runs.append(run_once(workload, seed, seconds))
                seed += 1
        print(f"\n{workload}: {args.runs} runs x {args.sets} sets, --seconds {seconds}")
        print(f"{'metric':<22}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}"
              f"{'shift':>8}{'bound':>7}  verdict")
        for name in list(bounds) + ["wall_raw_s"]:
            # raw wall time has no bound: it is shown beside wall_norm_s
            spec_m = bounds.get(name, {"better": "lower", "bound": None})
            bound = spec_m["bound"]
            first = None
            for label, runs in zip("AB", sets):
                mid, q1, q3, rel = spread([r[name] for r in runs])
                shift = verdict = ""
                if first is None:
                    first = mid
                else:
                    worse = (mid - first) if spec_m["better"] == "lower" else (first - mid)
                    shift = f"{worse / first:+.3f}"
                    if bound is not None and worse / first > bound:
                        verdict += "shift>bound "
                        ok = False
                if bound is not None and name != "setup_s" and rel > bound / 3:
                    verdict += "spread>bound/3"
                    ok = ok and rel <= bound
                print(f"{name:<22}{label:>4}{mid:>14.6g}{q1:>14.6g}{q3:>14.6g}{rel:>9.3f}"
                      f"{shift:>8}{'' if bound is None else bound:>7}  {verdict or 'ok'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
