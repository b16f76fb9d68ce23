"""The benchmark workloads: input generation, one timed repetition, output checks.

Every workload runs the ROADMAP matrix system (`cubic_autocatalysis_system`,
dt = 1/60, t_end = 0.2) or the package's own convergence studies, through
the public API only. A workload object has three methods:

- ``build(seed, work_dir)`` makes the inputs (this is the set-up that
  ``setup_s`` times);
- ``rep(inputs)`` runs the workload once and returns a :class:`Rep`;
- ``check(inputs, rep)`` returns a list of problems (empty when the output
  is correct).

Seed 0 reproduces the stock inputs exactly. Other seeds apply a small,
smooth, positive perturbation built through the public ``SystemSpec`` /
``Species`` API (or to ``ode.c0``); the Cauchy study ignores the seed
because its reference orders and differences are pinned to the stock data.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rdsplit import (Field, Grid, Species, SystemSpec, cubic_autocatalysis_system,
                     parse_config, run, steps_for)
from rdsplit.cli import main as cli_main

DT = 1 / 60
T_END = 0.2
EPS = float(np.finfo(float).eps)

# Reference values of the default linear Cauchy ladder, copied from
# tests/test_acceptance.py (REF_LINEAR_ORDERS, REF_LINEAR_DIFFS) together with
# that test's tolerances: orders within +-0.20, differences within 25 %.
REF_LINEAR_ORDERS = {"u": (1.8700, 1.9036, 1.9230), "v": (1.8705, 1.8950, 1.9197)}
REF_LINEAR_DIFFS = {"u": (4.1625e-3, 1.5357e-3, 7.3080e-4, 4.0386e-4),
                    "v": (3.6818e-3, 1.3581e-3, 6.4788e-4, 3.5830e-4)}
ORDER_TOL = 0.20
DIFF_TOL = 0.25
CLI_FILES = ("cauchy/cauchy_u.csv", "cauchy/cauchy_v.csv", "cauchy/config.resolved",
             "ode-convergence/ode_convergence.csv", "ode-convergence/config.resolved")


@dataclass
class Rep:
    """One repetition: its wall time, per-step times and determinism fingerprint.

    ``fingerprint`` holds exact counts and a digest of the outputs; it must be
    identical across repetitions of the same inputs, traced or not.
    """

    wall_s: float
    step_ms: list[float]
    fingerprint: dict
    output: object = None


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


def smooth_perturbation(grid: Grid, rng: np.random.Generator, amplitude: float) -> np.ndarray:
    """A periodic field of low Fourier modes with max |p| = amplitude."""
    coords = np.meshgrid(*(grid.axis_centers(ax) for ax in range(grid.dim)), indexing="ij")
    span = grid.upper[0] - grid.lower[0]
    p = np.zeros(grid.shape)
    for _ in range(4):
        k = rng.integers(-3, 4, grid.dim)
        if not k.any():
            k[0] = 1
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(2.0 * np.pi * kk * x / span for kk, x in zip(k, coords))
        p += rng.uniform(0.5, 1.0) * np.cos(arg + phase)
    return amplitude * p / np.abs(p).max()


class RunWorkload:
    """``run()`` on the autocatalysis system at one size and diffusion exponent."""

    kind = "run"
    threads = 1
    amplitude = 0.02  # max relative change of the seeded initial data

    def __init__(self, alpha_exp: int, n0: int):
        self.alpha_exp = alpha_exp
        self.n0 = n0

    def build(self, seed: int, work_dir: Path) -> SystemSpec:
        grid = Grid(dim=2, n0=self.n0, lower=-1.0, upper=1.0)
        system = cubic_autocatalysis_system(grid, alpha_exp=self.alpha_exp)
        if seed == 0:
            return system
        rng = np.random.default_rng(seed)
        species = [
            Species(s.name, s.law,
                    Field(grid, s.initial.values
                          * (1.0 + smooth_perturbation(grid, rng, self.amplitude))))
            for s in system.species]
        return SystemSpec(grid=grid, species=species, reaction=system.reaction)

    def rep(self, system: SystemSpec) -> Rep:
        n_steps = steps_for(T_END, DT)
        stamps = []
        observers = {k: (lambda state: stamps.append(time.perf_counter()))
                     for k in range(n_steps + 1)}
        start = time.perf_counter()
        report = run(system, DT, T_END, observers=observers)
        wall = time.perf_counter() - start
        step_ms = (np.diff(stamps) * 1e3).tolist()
        fingerprint = {
            "steps": n_steps,
            "reaction_iters_avg": report.reaction_iters_avg.tolist(),
            "newton_iters": int(report.diffusion_iters.sum()),
            "digest": _digest(report.energy.tobytes(), report.conserved.tobytes(),
                              report.min_values.tobytes()),
        }
        return Rep(wall, step_ms, fingerprint, output=report)

    def check(self, system: SystemSpec, rep: Rep) -> list[str]:
        report = rep.output
        problems = []
        n_steps = report.times.size - 1
        if n_steps != steps_for(T_END, DT) or len(rep.step_ms) != n_steps:
            problems.append(f"expected {steps_for(T_END, DT)} steps, got {n_steps}")
        F = np.asarray(report.energy)
        rise = np.diff(F) - 1e-12 * np.abs(F[:-1])
        if not np.all(rise <= 0.0):
            problems.append(f"free energy rises by {rise.max():.3e} beyond 1e-12 |F|")
        # Roundoff budget for every conserved integral: each step sums n_cells
        # terms per species, so after k steps the drift stays below
        # k * n_cells * eps * |initial value| (worst-case summation error).
        c = np.asarray(report.conserved)
        k = np.arange(c.shape[0])[:, None]
        budget = k * system.grid.n_cells * EPS * np.maximum(np.abs(c[0]), 1.0)
        drift = np.abs(c - c[0])
        if np.any(drift > budget):
            problems.append(f"invariant drift {drift.max():.3e} exceeds its roundoff budget")
        if not np.all(report.min_values > 0.0):
            problems.append(f"minimum concentration {report.min_values.min():.3e} <= 0")
        if not np.all(np.isfinite(F)):
            problems.append("non-finite free energy")
        return problems


def _csv_rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode().splitlines()[1:]]


class CliLadders:
    """The two convergence studies through the CLI, one after the other.

    ``rdsplit cauchy --threads 2`` on the default linear mesh ladder, then
    ``rdsplit ode-convergence`` on the stock ODE ladder. The Cauchy part
    ignores the seed: the CLI builds its ring data internally and the
    reference orders hold only for the stock inputs. The ODE part takes the
    seed through ``ode.c0``.
    """

    kind = "cli"
    threads = 2
    amplitude = 0.05  # seeded relative change of each ode.c0 entry
    min_finest_order = 1.99

    def __init__(self, cauchy_h: list[str] | None = None, ode_dt: list[str] | None = None,
                 reference: bool = True):
        self.cauchy_h = cauchy_h
        self.ode_dt = ode_dt
        self.reference = reference

    def build(self, seed: int, work_dir: Path):
        work_dir = Path(work_dir)
        cauchy = ["kind = cauchy_convergence"]
        if self.cauchy_h is not None:
            cauchy.append("cauchy.h = " + ", ".join(self.cauchy_h))
        ode = ["kind = ode_convergence"]
        if self.ode_dt is not None:
            ode.append("ode.dt = " + ", ".join(self.ode_dt))
        if seed != 0:
            rng = np.random.default_rng(seed)
            c0 = np.array([1.0, 0.5]) * (1.0 + self.amplitude * rng.uniform(-1.0, 1.0, 2))
            ode.append("ode.c0 = " + ", ".join(repr(float(x)) for x in c0))
        inputs = {"out": work_dir / "cli_out"}
        for name, lines in (("cauchy", cauchy), ("ode-convergence", ode)):
            cfg_path = work_dir / f"{name}.cfg"
            cfg_path.write_text("\n".join(lines) + "\n")
            inputs[name] = parse_config(cfg_path)
            inputs[f"{name}.argv"] = [name, "--config", str(cfg_path),
                                      "--out", str(inputs["out"] / name)]
        inputs["cauchy.argv"] += ["--threads", str(self.threads)]
        inputs["hs"] = inputs["cauchy"]["cauchy.h"]
        return inputs

    def rep(self, inputs) -> Rep:
        for path in CLI_FILES:
            (inputs["out"] / path).unlink(missing_ok=True)
        start = time.perf_counter()
        codes = [cli_main(inputs["cauchy.argv"])]
        cauchy_wall = time.perf_counter() - start
        codes.append(cli_main(inputs["ode-convergence.argv"]))
        wall = time.perf_counter() - start
        files = {path: (inputs["out"] / path).read_bytes()
                 if (inputs["out"] / path).exists() else b"" for path in CLI_FILES}
        fingerprint = {
            "exit_codes": codes,
            "levels": [len(inputs["hs"]), len(inputs["ode-convergence"]["ode.dt"])],
            "point_steps": self.point_steps(inputs),
            "digest": _digest(*files.values()),
        }
        n_steps = sum(steps_for(0.2, h) for h in inputs["hs"])
        return Rep(wall, [1e3 * cauchy_wall / n_steps], fingerprint,
                   output={"codes": codes, "files": files})

    def check(self, inputs, rep: Rep) -> list[str]:
        if rep.output["codes"] != [0, 0]:
            return [f"rdsplit cauchy / ode-convergence exited with {rep.output['codes']}"]
        files = rep.output["files"]
        problems = self.check_cauchy(inputs, files)
        rows = _csv_rows(files["ode-convergence/ode_convergence.csv"])
        n_levels = len(inputs["ode-convergence"]["ode.dt"])
        if len(rows) != n_levels:
            return problems + [f"expected {n_levels} ODE levels, got {len(rows)}"]
        orders = [float(r[2]) for r in rows[1:]]
        gaps = [abs(2.0 - o) for o in orders]
        if not all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])):
            problems.append(f"ODE orders do not approach 2 monotonically: {orders}")
        if not orders[-1] >= self.min_finest_order:
            problems.append(f"finest ODE order {orders[-1]:.5f} < {self.min_finest_order}")
        return problems

    def check_cauchy(self, inputs, files) -> list[str]:
        problems = []
        n_pairs = len(inputs["hs"]) - 1
        for name in ("u", "v"):
            rows = _csv_rows(files[f"cauchy/cauchy_{name}.csv"])
            if len(rows) != n_pairs:
                problems.append(f"cauchy_{name}.csv has {len(rows)} rows, expected {n_pairs}")
                continue
            diffs = [float(r[1]) for r in rows]
            orders = [float(r[2]) for r in rows[1:]]
            if not all(np.isfinite(d) and d > 0 for d in diffs):
                problems.append(f"{name}: differences not positive: {diffs}")
            if not self.reference:
                continue
            for got, ref in zip(orders, REF_LINEAR_ORDERS[name]):
                if abs(got - ref) > ORDER_TOL:
                    problems.append(f"{name}: order {got:.4f} vs reference {ref}")
            for got, ref in zip(diffs, REF_LINEAR_DIFFS[name]):
                if abs(got - ref) > DIFF_TOL * ref:
                    problems.append(f"{name}: difference {got:.4e} vs reference {ref:.4e}")
        return problems

    def point_steps(self, inputs) -> int:
        """Scalar reaction_step calls of the ODE ladder: two half steps per step."""
        cfg = inputs["ode-convergence"]
        return 2 * sum(steps_for(cfg["ode.t_end"], dt) for dt in cfg["ode.dt"])


WORKLOADS = {
    "linear_n256": RunWorkload(alpha_exp=1, n0=256),
    "porous_n120": RunWorkload(alpha_exp=2, n0=120),
    "cli_ladders": CliLadders(),
}

# Tiny versions of every workload for the smoke self-test.
TINY_WORKLOADS = {
    "linear_n256": RunWorkload(alpha_exp=1, n0=8),
    "porous_n120": RunWorkload(alpha_exp=2, n0=8),
    "cli_ladders": CliLadders(cauchy_h=["1/10", "1/15", "1/20"],
                              ode_dt=["1/20", "1/40", "1/80", "1/160"], reference=False),
}
