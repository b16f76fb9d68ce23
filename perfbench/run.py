"""rdsplit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding
``BENCHMARK.json`` and ``src/rdsplit``). The workloads and the metrics to
report are read from ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics in a worker process with
tracing off, then times set-up (import rdsplit and build the inputs) in
SETUP_PROBES further fresh processes and reports their median. ``--trace 1``
runs a worker that alternates untraced and traced repetitions and reports the
per-layer metrics. Every repetition's output is checked; failures are counted
in ``attempted``/``failed`` (``error_rate = failed / attempted``).

The last line of stdout is the JSON result. Exit code 0 means a result was
printed; anything else (no sources, a worker that crashed or timed out, an
incomplete trace, a metric missing) exits 1 or 2 without a result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20


def _fail(msg: str, code: int = 1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _worker(root: Path, args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=root)
    except subprocess.TimeoutExpired:
        _fail(f"worker {' '.join(args)} did not finish within {timeout} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        _fail(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rdsplit benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        _fail(f"cannot read BENCHMARK.json in {root}: {e}", 2)
    if not (root / "src" / "rdsplit" / "__init__.py").is_file():
        _fail(f"no rdsplit sources under {root / 'src'}; run from a source checkout", 2)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        _fail(f"unknown workload {args.workload!r}", 2)
    if not args.seconds > 0:
        _fail("--seconds must be positive", 2)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    out = _worker(root, common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                  WORKER_TIMEOUT_S)
    measured = dict(out["metrics"])
    if "raw" in out:
        raw_path = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}.samples.json"
        raw_path.write_text(json.dumps(out.pop("raw")))
    if not args.trace:
        setups = [_worker(root, common + ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        measured["setup_s"] = statistics.median(setups)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        _fail("metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    v = out["versions"]
    print(f"machine: nproc={os.cpu_count()} arch={platform.machine()} python={v['python']} "
          f"numpy={v['numpy']} scipy={v['scipy']} rdsplit={v['rdsplit']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"samples {out['samples']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {out['failed']}/{out['attempted']}")
    for problem in out["problems"][:10]:
        print(f"  problem: {problem}")
    print("fingerprint: " + json.dumps({"outputs": out["fingerprint"],
                                        "counts": out.get("counts")}, sort_keys=True))
    correct = out["failed"] == 0 and not out["problems"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
