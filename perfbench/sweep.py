"""Run the benchmark over many seeds and report each metric's spread.

    python3 perfbench/sweep.py [--seeds 10] [--first-seed 1] [--workloads a,b]
                               [--trace 0|1] [--out sweep.json] [--compare old.json]

From the root of a source checkout. Workloads are interleaved inside each
seed (seed 1: every workload, then seed 2: ...) so that slow drift of the
host spreads over all workloads instead of biasing one. For every workload
and metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile spread as a share of the median, next to the metric's bound
from BENCHMARK.json. ``--compare`` checks a second sweep against a first:
fingerprints of the same workload and seed must be identical, and each
median may not be worse than the first by more than the bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version()}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return {"workload": workload, "seed": seed, "error": proc.stderr[-2000:],
                "elapsed_s": elapsed}
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(line for line in lines if line.startswith("fingerprint: "))
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "elapsed_s": elapsed,
            "fingerprint": fingerprint[len("fingerprint: "):], **result}


def spread_table(runs, bench, trace):
    metrics = bench["per_layer" if trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    rows = []
    for workload in sorted({r["workload"] for r in runs}):
        ok = [r for r in runs if r["workload"] == workload and "metrics" in r]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in ok]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / abs(med) if med else 0.0
            rows.append({"workload": workload, "metric": name, "median": med,
                         "q1": q1, "q3": q3, "spread": share, "bound": bound,
                         "n": len(values)})
    return rows


def main():
    p = argparse.ArgumentParser(description="seed sweep of the rdsplit benchmark")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=".perfbench_work/sweep.json")
    p.add_argument("--compare", default=None)
    args = p.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            r = run_one(workload, seed, seconds, args.trace)
            runs.append(r)
            status = "ERROR" if "error" in r else f"correct={r['correct']}"
            print(f"seed {seed} {workload}: {status} ({r['elapsed_s']:.1f} s)", flush=True)
    rows = spread_table(runs, bench, args.trace)
    out = {"machine": machine(), "seconds": seconds, "trace": args.trace,
           "runs": runs, "spread": rows}
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1))

    print(f"machine: {out['machine']}")
    print(f"{'workload':14} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for r in rows:
        flag = ""
        if r["bound"] is not None and r["metric"] != "setup_s":
            flag = "ok" if r["spread"] < r["bound"] / 3 else (
                "WIDE" if r["spread"] > r["bound"] else "above bound/3")
        bound = "" if r["bound"] is None else f"{r['bound']:.2f}"
        print(f"{r['workload']:14} {r['metric']:28} {r['median']:12.6g} {r['q1']:12.6g} "
              f"{r['q3']:12.6g} {r['spread']:7.3f} {bound:>6} {flag}")
    errors = [r for r in runs if "error" in r or not r.get("correct")]
    print(f"runs: {len(runs)}, not correct or crashed: {len(errors)}")

    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        old_fp = {(r["workload"], r["seed"]): r.get("fingerprint") for r in old["runs"]}
        mismatched = [(r["workload"], r["seed"]) for r in runs
                      if (r["workload"], r["seed"]) in old_fp
                      and old_fp[(r["workload"], r["seed"])] != r.get("fingerprint")]
        print(f"fingerprint mismatches against {args.compare}: {mismatched or 'none'}")
        old_med = {(r["workload"], r["metric"]): r["median"] for r in old["spread"]}
        for r in rows:
            base = old_med.get((r["workload"], r["metric"]))
            if base and r["bound"] is not None:
                worse = (r["median"] - base) / base
                verdict = "WORSE beyond bound" if worse > r["bound"] else "within bound"
                print(f"  {r['workload']:14} {r['metric']:14} {worse:+.3f} {verdict}")


if __name__ == "__main__":
    main()
