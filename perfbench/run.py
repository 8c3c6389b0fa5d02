"""Benchmark for loccoh: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``loccoh`` from
``src/``; there is nothing to build.  Each run is one process, one thread,
one closed-loop client.  Every timed slice of work is scaled by a fixed
reference loop sampled before, after and while it runs (see ``hostref``),
every output is checked once the whole pass is over, and the last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The metric names and units are those of
``BENCHMARK.json``.  The exit status is 0 only when every output was
correct; it is 2 when the checkout holds no ``loccoh`` source.

With ``--trace 1`` the same workload first runs untraced in a child
process (for ``trace.overhead_ratio``), then traced in this one; the spans
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
from pathlib import Path
from statistics import mean, median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 170
# latency percentiles are the mean latency over these rank bands
P50_BAND = (0.45, 0.55)
P99_BAND = (0.985, 0.995)


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def measure_setup() -> float:
    """Median normalised time of a fresh interpreter that imports loccoh
    and runs the warm-up, over SETUP_REPEATS runs.  Each child times the
    reference loop itself, before the import and after the warm-up, on the
    CPU it runs on; those samples are subtracted from its wall time and,
    pooled over the repeats, give the normalisation."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import hostref\n"
        "refs = [hostref.reference_time() for _ in range(2)]\n"
        "import workloads; workloads.warm_up()\n"
        "refs += [hostref.reference_time() for _ in range(2)]\n"
        "print(refs)" % (str(SRC), str(BENCH_DIR))
    )
    raws, refs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = hostref.clock()
        child = subprocess.run([sys.executable, "-I", "-c", code], check=True, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        wall = hostref.clock() - t0
        samples = json.loads(child.stdout)
        raws.append(wall - sum(samples))
        refs.extend(samples)
    return median(raws) * hostref.REF_S / mean(refs)


def run_pass(ops, tracer=None):
    """Run every operation once, timing each; returns (outputs, slices).
    An operation that raises has its exception as its output.  Nothing
    else runs between the operations, so a timed call sees only the state
    that earlier timed calls left."""
    sampler = hostref.Sampler()
    if tracer is not None:
        sampler.on_sample = tracer.exclude
    slices = hostref.SliceClock(sampler)
    outs = []
    with sampler:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin()
            first = len(sampler.samples)
            t0 = hostref.clock()
            try:
                out = op.call()
            except Exception as exc:  # a failing request is counted, not fatal
                out = exc
            t1 = hostref.clock()
            if tracer is not None:
                tracer.end(i, op.kind, t0, t1)
            slices.record(t0, t1, t1 - t0 - sampler.interrupted(first, t0, t1))
            outs.append(out)
    slices.finish()
    return outs, slices


def count_failed(ops, outs) -> int:
    """Check every output after the pass; returns how many are wrong."""
    failed = 0
    for op, out in zip(ops, outs):
        if not passes(op, out):
            failed += 1
            print(f"FAIL {op.kind} {op.key!r}: {out!r:.200}", file=sys.stderr)
    return failed


def passes(op, out) -> bool:
    if isinstance(out, Exception):
        return False
    try:
        return bool(op.check(out))
    except Exception:  # a malformed output fails its check
        return False


def band_mean(values: list[float], lo: float, hi: float) -> float:
    """Mean of the values ranked between quantiles lo and hi (nearest rank,
    at least one value): a percentile smoothed over its neighbours, so
    that one operation hit by host jitter does not move it."""
    ordered = sorted(values)
    n = len(ordered)
    a = min(n - 1, max(0, math.ceil(lo * n) - 1))
    b = max(a + 1, math.ceil(hi * n))
    return sum(ordered[a:b]) / (b - a)


def end_to_end(ops, slices, failed: int, peak_rss_mb: float) -> tuple[dict, dict]:
    lat = slices.norm
    wall_norm = sum(slices.norm)
    values = {
        "wall_norm_s": wall_norm,
        "qps_norm": len(lat) / wall_norm,
        "latency_p50_norm_ms": 1e3 * band_mean(lat, *P50_BAND),
        "latency_p99_norm_ms": 1e3 * band_mean(lat, *P99_BAND),
        "setup_s": measure_setup(),
        "peak_rss_mb": peak_rss_mb,
    }
    context = {
        "host.wall_raw_s": sum(slices.raw),
        "host.ref_s": median(slices.slice_refs),
        "fail_ratio": failed / len(ops),
        "latency_samples": len(lat),
        "slices": len(slices.slice_refs),
        "repeat_share": workloads.repeat_share(ops),
    }
    return values, context


def per_layer(ops, outs, slices, tracer, untraced_wall_norm_s: float) -> dict:
    stats = tracer.stats
    values = {}
    for layer, st in stats.items():
        values[f"{layer}.calls"] = st.calls
        values[f"{layer}.items"] = st.items
        values[f"{layer}.self_s"] = st.self_s
        if layer.startswith("verify."):
            values[f"{layer}.s"] = st.total_s
    bott = stats["bott.bott"]
    values["bott.bott.nonzero_ratio"] = bott.nonzero / bott.calls if bott.calls else 0.0
    values["partitions.validate.calls"] = (
        stats["partitions.partition"].calls + stats["partitions.weight"].calls)
    values["verify.bott-predicate-agreement.pairs"] = sum(
        workloads.reported_pairs(out) or 0
        for op, out in zip(ops, outs) if op.kind == "run_suite" and isinstance(out, list))
    values["host.ref_s"] = median(slices.slice_refs)
    values["host.wall_raw_s"] = sum(slices.raw)
    values["trace.overhead_ratio"] = sum(slices.norm) / untraced_wall_norm_s
    return values


def untraced_wall_norm(args) -> float:
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"untraced run exited with {child.returncode}")
    return json.loads(child.stdout.splitlines()[-1])["metrics"]["wall_norm_s"]["value"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    ops = workloads.build(args.workload, args.seed, args.seconds)
    if args.trace:
        untraced = untraced_wall_norm(args)
        workloads.warm_up()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outs, slices = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        failed = count_failed(ops, outs)
        values = per_layer(ops, outs, slices, tracer, untraced)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "seconds": args.seconds})
    else:
        workloads.warm_up()
        outs, slices = run_pass(ops)
        # before the checks, whose recomputations are not the program's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = count_failed(ops, outs)
        values, context = end_to_end(ops, slices, failed, peak_rss_mb)
        print("context " + json.dumps(context))

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<45} {values[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # the library and the modules that import it load only after the
    # checkout is known to hold its source
    if not (SRC / "loccoh" / "__init__.py").is_file():
        print(f"error: no loccoh source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hostref
    import tracing
    import workloads
    from workloads import WORKLOADS

    if not Path(workloads.L.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported loccoh from {workloads.L.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
