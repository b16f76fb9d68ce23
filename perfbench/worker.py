"""One measuring process of the benchmark; run.py starts it, one at a time.

    python3 perfbench/worker.py --root DIR --workload W --seed N --setup-only
    python3 perfbench/worker.py --root DIR --workload W --seed N --seconds S --trace 0|1

It imports rdsplit from ``DIR/src``, builds the workload's inputs (the time
to that point is ``setup_s``) and, unless ``--setup-only``, runs repetitions
one after another (a closed loop with one client) until ``S`` seconds have
passed and at least MIN_REPS were made. Every repetition's output is checked;
a repetition that raises or fails a check is counted as failed, not fatal.
The last line of stdout is one JSON object for run.py.

With ``--trace 1`` untraced and traced repetitions alternate, so that host
drift is not mistaken for tracing overhead; the per-layer metrics are the
medians over the traced repetitions.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_REPS = 3
WORK_DIR = ".perfbench_work"


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_package(root: Path):
    """Import rdsplit from the checkout's own sources, never from elsewhere."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import rdsplit
    if Path(rdsplit.__file__).resolve().parent != (src / "rdsplit").resolve():
        raise SystemExit(f"rdsplit was imported from {rdsplit.__file__}, not from {src}")
    return rdsplit


def run_once(wl, inputs, reference):
    """One checked repetition: (rep or None, problems)."""
    try:
        rep = wl.rep(inputs)
        problems = wl.check(inputs, rep)
    except Exception as e:  # a failed run is counted, the benchmark goes on
        return None, [f"{type(e).__name__}: {e}"]
    if not problems and reference is not None and rep.fingerprint != reference:
        problems = [f"fingerprint {rep.fingerprint} differs from {reference}"]
    return rep, problems


def _percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure(wl, inputs, seconds):
    reps, problems, failed = [], [], 0
    reference = None
    start = time.perf_counter()
    while len(reps) + failed < MIN_REPS or time.perf_counter() - start < seconds:
        rep, probs = run_once(wl, inputs, reference)
        if probs:
            failed += 1
            problems += probs
            continue
        reference = reference or rep.fingerprint
        reps.append(rep)
    steps = [ms for rep in reps for ms in rep.step_ms]
    metrics = {}
    if reps:
        metrics = {
            "wall_s": statistics.median(rep.wall_s for rep in reps),
            "step_ms_p50": statistics.median(steps),
            "step_ms_p90": _percentile(steps, 90),
        }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"attempted": len(reps) + failed, "failed": failed, "problems": problems,
            "metrics": metrics, "fingerprint": reference,
            "samples": {"reps": len(reps), "steps": len(steps)},
            "raw": {"wall_s": [rep.wall_s for rep in reps],
                    "step_ms": [rep.step_ms for rep in reps]}}


def measure_traced(wl, inputs, seconds, spans_path):
    import tracing as trace
    tracer = trace.Tracer()
    required = trace.required_spans(wl)
    walls = {False: [], True: []}
    per_layer, counts = [], None
    problems, failed, reference = [], 0, None
    kept_spans = []
    start = time.perf_counter()
    while (min(len(w) for w in walls.values()) < 2
           or time.perf_counter() - start < seconds):
        traced = len(walls[False]) + failed > len(walls[True])
        if traced:
            tracer.install()
        try:
            rep, probs = run_once(wl, inputs, reference)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        if probs:
            failed += 1
            problems += probs
            continue
        reference = reference or rep.fingerprint
        walls[traced].append(rep.wall_s)
        if not traced:
            continue
        trace.check_complete(spans, required, wl, inputs, rep)
        rep_counts = trace.count_fingerprint(spans)
        if counts is not None and rep_counts != counts:
            problems.append("traced call counts differ between repetitions")
        counts = counts or rep_counts
        per_layer.append(trace.layer_metrics(spans, rep.wall_s, wl.threads))
        kept_spans.append(spans)
    metrics = {}
    if per_layer:
        metrics = {name: statistics.median(m[name] for m in per_layer) for name in per_layer[0]}
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
    trace.write_spans(kept_spans, spans_path)
    attempted = len(walls[False]) + len(walls[True]) + failed
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "fingerprint": reference, "counts": counts,
            "samples": {"untraced": len(walls[False]), "traced": len(walls[True])}}


def main(argv=None):
    args = _parse_args(argv)
    root = Path(args.root).resolve()
    rdsplit = _import_package(root)
    import numpy
    import workloads
    work_dir = root / WORK_DIR
    work_dir.mkdir(exist_ok=True)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, work_dir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        out = {"setup_s": setup_s}
    elif args.trace:
        out = measure_traced(wl, inputs, args.seconds,
                             work_dir / f"{args.workload}-seed{args.seed}.spans.csv")
    else:
        out = measure(wl, inputs, args.seconds)
    scipy = sys.modules.get("scipy")  # reported, never imported for the report
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "scipy": scipy.__version__ if scipy else None,
                       "rdsplit": rdsplit.__version__}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
