"""Smoke self-test of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/selftest.py        # from the root of a source checkout

Checks that every workload generator builds, runs and passes its own output
check for seed 0 and another seed, repeats its fingerprint, and traces
completely; that every check rejects a corrupted output; and that the tracer
fails loudly on a missing entry point or a span that never fires.
"""

import copy
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def expect(cond, msg):
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def workload_round_trip(name, wl, tracing, work_dir):
    for seed in (0, 7):
        inputs = wl.build(seed, work_dir)
        rep = wl.rep(inputs)
        expect(not wl.check(inputs, rep), f"{name} seed {seed}: {wl.check(inputs, rep)}")
        again = wl.rep(inputs)
        expect(again.fingerprint == rep.fingerprint, f"{name} seed {seed}: fingerprint moved")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = wl.rep(inputs)
        finally:
            tracer.uninstall()
        spans = tracer.take()
        expect(traced.fingerprint == rep.fingerprint, f"{name}: tracing changed the output")
        tracing.check_complete(spans, tracing.required_spans(wl), wl, inputs, traced)
        metrics = tracing.layer_metrics(spans, traced.wall_s, wl.threads)
        expect(all(v >= 0 for k, v in metrics.items() if k != "trace.overhead_s"),
               f"{name}: negative layer metric in {metrics}")
    return inputs, rep


def corrupted_outputs_are_rejected(name, wl, inputs, rep):
    bad = copy.deepcopy(rep)
    if wl.kind == "run":
        bad.output.energy[-1] = bad.output.energy[-2] + 1e-6
        expect(wl.check(inputs, bad), f"{name}: rising energy accepted")
        bad = copy.deepcopy(rep)
        bad.output.conserved[-1] += 1e-9
        expect(wl.check(inputs, bad), f"{name}: invariant drift accepted")
        bad = copy.deepcopy(rep)
        bad.output.min_values[-1, 0] = 0.0
        expect(wl.check(inputs, bad), f"{name}: zero minimum accepted")
    else:
        bad.output["codes"] = [0, 3]
        expect(wl.check(inputs, bad), f"{name}: failing exit code accepted")
        bad = copy.deepcopy(rep)
        ode_csv = "ode-convergence/ode_convergence.csv"
        lines = bad.output["files"][ode_csv].decode().splitlines()
        lines[-1] = ",".join(lines[-1].split(",")[:2] + ["1.5"])
        bad.output["files"][ode_csv] = ("\n".join(lines) + "\n").encode()
        expect(wl.check(inputs, bad), f"{name}: ODE order drop accepted")


def reference_check_of_cauchy(workloads):
    full = workloads.CliLadders()
    inputs = {"hs": [1 / 20, 1 / 30, 1 / 40, 1 / 50, 1 / 60]}

    def files_with(scale):
        files = {}
        for name in ("u", "v"):
            rows = ["label,error,order"]
            for k, d in enumerate(workloads.REF_LINEAR_DIFFS[name]):
                order = "" if k == 0 else repr(workloads.REF_LINEAR_ORDERS[name][k - 1])
                rows.append(f"pair{k},{d * scale!r},{order}")
            files[f"cauchy/cauchy_{name}.csv"] = ("\n".join(rows) + "\n").encode()
        return files

    expect(not full.check_cauchy(inputs, files_with(1.0)), "reference values rejected")
    expect(full.check_cauchy(inputs, files_with(1.5)), "differences 50 % off accepted")


def tracer_fails_loudly(tracing, workloads):
    entry = (workloads, "no_such_entry_point", "missing", None)
    tracing.ENTRY_POINTS.append(entry)
    try:
        tracing.Tracer().install()
    except tracing.TraceIncomplete:
        pass
    else:
        raise SystemExit("selftest FAILED: a missing entry point was not reported")
    finally:
        tracing.ENTRY_POINTS.remove(entry)
    wl = workloads.TINY_WORKLOADS["porous_n120"]
    try:
        tracing.check_complete([], tracing.required_spans(wl), wl, None, None)
    except tracing.TraceIncomplete:
        pass
    else:
        raise SystemExit("selftest FAILED: a trace without spans was accepted")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, wl in workloads.TINY_WORKLOADS.items():
            inputs, rep = workload_round_trip(name, wl, tracing, Path(tmp))
            corrupted_outputs_are_rejected(name, wl, inputs, rep)
            print(f"ok {name}")
    reference_check_of_cauchy(workloads)
    tracer_fails_loudly(tracing, workloads)
    print("selftest passed")


if __name__ == "__main__":
    main()
