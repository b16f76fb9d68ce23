"""The benchmark's stock workloads at seed 0: output checks, exact counts and digests.

The workloads are those of perfbench/workloads.py, loaded from its file and
used as they are: one repetition each, in a temporary directory. Counts hold
on every machine. The digests hash output bits, which rest on numpy's SIMD
math, so they are asserted only on the machine key they were recorded on;
elsewhere that part is skipped, and the reason names the runner's key and
digest, to record or to trace the difference. Whatever the machine, a
process pinned to one CPU must give the digests of one that may use them all.
"""

import functools
import hashlib
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# (numpy version, platform.machine(), sha256[:16] of numpy's enabled CPU features)
RECORDED_KEY = ("2.4.6", "x86_64", "1a35e27c171a8c8a")
DIGESTS = {"linear_n256": "4bd382436cd03864", "porous_n120": "dfd161d7acf5cd9d",
           "cli_ladders": "f9c73fd67b740a63"}
COUNTS = {
    "linear_n256": {"steps": 12, "reaction_iters_avg": [0] + [5.0] * 12, "newton_iters": 0},
    "porous_n120": {"steps": 12, "reaction_iters_avg": [0] + [5.0] * 12, "newton_iters": 27},
    "cli_ladders": {"exit_codes": [0, 0], "levels": [5, 6], "point_steps": 2520},
}


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _machine_key():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    features = " ".join(sorted(name for name, on in __cpu_features__.items() if on))
    return np.__version__, platform.machine(), hashlib.sha256(features.encode()).hexdigest()[:16]


def test_every_workload_is_pinned():
    assert set(_workloads()) == set(COUNTS) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(COUNTS))
def test_stock_fingerprint(name, tmp_path):
    workload = _workloads()[name]
    inputs = workload.build(0, tmp_path)
    rep = workload.rep(inputs)
    assert workload.check(inputs, rep) == []
    fingerprint = dict(rep.fingerprint)
    digest = fingerprint.pop("digest")
    assert fingerprint == COUNTS[name]
    key = _machine_key()
    if key != RECORDED_KEY:
        pytest.skip(f"digest recorded on machine key {RECORDED_KEY}; this runner's key is "
                    f"{key}, its {name} digest {digest}")
    assert digest == DIGESTS[name]


# prints the seed-0 digests of the workloads named in argv[4:], pinned to one CPU
# before numpy is imported (so OpenBLAS starts one thread and no stage helper
# starts) where argv[1] is "pin"
_DIGESTS_SCRIPT = """
import os, sys
from pathlib import Path
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert "numpy" not in sys.modules
import importlib.util
spec = importlib.util.spec_from_file_location("perfbench_workloads", sys.argv[2])
module = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = module
spec.loader.exec_module(module)
for name in sys.argv[4:]:
    workload = module.WORKLOADS[name]
    print(name, workload.rep(workload.build(0, Path(sys.argv[3]))).fingerprint["digest"])
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity masks and at least 2 usable CPUs")
def test_digests_do_not_depend_on_the_cpu_count(tmp_path):
    """One CPU against all: BLAS threads must not split a sum, and the reaction
    stage helper, which serves most stages of the second linear_n256 run, must
    not move a bit."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def digests(mode, *names):
        proc = subprocess.run([sys.executable, "-c", _DIGESTS_SCRIPT, mode, str(WORKLOADS_PY),
                               str(tmp_path), *names],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return [tuple(line.split()) for line in proc.stdout.splitlines()]

    pinned = digests("pin", "porous_n120", "linear_n256")
    assert digests("all", "porous_n120", "linear_n256", "linear_n256") == pinned + pinned[-1:]
