"""Experiment harness: config files, reference solutions, convergence studies.

Config files are flat ``key = value`` text. Lines starting with ``#`` and
blank lines are skipped; every other line must be ``key = value`` with a
dotted section prefix on the key (``ode.alpha = 2.0``). Unknown keys are
rejected, missing keys fall back to documented defaults, and the fully
resolved key set can be echoed back out as a sidecar that parses to the
same configuration. Numeric values accept plain decimals or exact fractions
like ``1/20``; list values are comma separated.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion import DiffusionLaw
from .errors import InvalidConfig, InvalidInput
from .grid import Field, Grid, write_field_csv
from .reaction import PointState, ReactionSpec, reaction_step
from .splitting import RunReport, Species, SystemSpec, run, steps_for

__all__ = [
    "ExperimentConfig", "ConvergenceRow", "parse_config", "write_resolved_config",
    "exact_ode_solution", "weighted_order", "resample_spectral",
    "cubic_autocatalysis_system", "ring_profiles", "write_convergence_csv",
    "run_ode_convergence", "run_cauchy_convergence", "run_energy_trace", "run_single",
]


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    kind: str
    params: dict

    def __getitem__(self, key):
        return self.params[key]


@dataclass
class ConvergenceRow:
    label: str
    error: float
    order: float | None = None


_REQUIRED = object()


def _fraction(text: str) -> float:
    num, slash, den = text.strip().partition("/")
    v = float(num) / float(den) if slash else float(num)
    if not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {text!r}")
    return v


def _float_list(text: str) -> list[float]:
    return [_fraction(tok) for tok in text.split(",") if tok.strip()]


def _int_value(text: str) -> int:
    v = _fraction(text)
    if v != int(v):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(v)


def _int_list(text: str) -> list[int]:
    return [_int_value(tok) for tok in text.split(",") if tok.strip()]


def _name_list(text: str) -> list[str]:
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise ValueError("empty list")
    return names


def _positive(v):
    if not (isinstance(v, (int, float)) and v > 0):
        raise ValueError("must be positive")
    return v


def _nonnegative(v):
    if not (isinstance(v, (int, float)) and v >= 0):
        raise ValueError("must be nonnegative")
    return v


def _positive_list(v):
    if not v or any(x <= 0 for x in v):
        raise ValueError("must be a nonempty list of positive values")
    return v


def _decreasing_list(v):
    _positive_list(v)
    if any(b >= a for a, b in zip(v, v[1:])):
        raise ValueError("must be strictly decreasing")
    return v


def _nonnegative_list(v):
    if not v or any(x < 0 for x in v):
        raise ValueError("must be a nonempty list of nonnegative values")
    return v


def _choice(*allowed):
    def check(v):
        if v not in allowed:
            raise ValueError(f"must be one of {allowed}")
        return v
    return check


def _at_least_one(v):
    if not v >= 1:
        raise ValueError("must be >= 1")
    return v


def _identity(v):
    return v


# key -> (parser, validator, default); _REQUIRED means the key must be present
_SYSTEM_KEYS = {
    "D_u": (_fraction, _positive, 0.2),
    "D_v": (_fraction, _positive, 0.1),
    "k_plus": (_fraction, _positive, 1.0),
    "k_minus": (_fraction, _positive, 0.1),
}

_SCHEMAS = {
    "ode_convergence": {
        "ode.alpha": (_fraction, _positive, 2.0),
        "ode.c0": (_float_list, _positive_list, [1.0, 0.5]),
        "ode.t_end": (_fraction, _positive, 1.0),
        "ode.dt": (_float_list, _decreasing_list,
                   [1 / 20, 1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640]),
    },
    "cauchy_convergence": {
        "cauchy.alpha_exp": (_int_value, _choice(1, 2), 1),
        "cauchy.h": (_float_list, _decreasing_list,
                     [1 / 20, 1 / 30, 1 / 40, 1 / 50, 1 / 60]),
        "cauchy.t_end": (_fraction, _positive, 0.2),
        **{f"cauchy.{k}": v for k, v in _SYSTEM_KEYS.items()},
    },
    "energy_trace": {
        "trace.alpha_exp": (_int_list, lambda v: [_choice(1, 2)(x) for x in v], [1, 2]),
        "trace.h": (_fraction, _positive, 1 / 20),
        "trace.dt": (_fraction, _positive, 1 / 20),
        "trace.t_end": (_fraction, _positive, 0.7),
        "trace.snapshots": (_float_list, _positive_list, [0.2, 0.5, 0.7]),
        **{f"trace.{k}": v for k, v in _SYSTEM_KEYS.items()},
    },
}

_IC_CHOICES = ("uniform", "disk_in", "disk_out")


def _single_run_schema(names: list[str], kv: dict[str, str]) -> dict:
    schema = {
        "species": (_name_list, _identity, _REQUIRED),
        "grid.dim": (_int_value, _choice(1, 2), 2),
        "grid.n0": (_int_value, _positive, _REQUIRED),
        "grid.lower": (_fraction, _identity, -1.0),
        "grid.upper": (_fraction, _identity, 1.0),
        "reaction.alpha": (_float_list, _nonnegative_list, _REQUIRED),
        "reaction.beta": (_float_list, _nonnegative_list, _REQUIRED),
        "reaction.k_plus": (_fraction, _positive, _REQUIRED),
        "reaction.k_minus": (_fraction, _positive, _REQUIRED),
        "reaction.U": (_float_list, _identity, None),
        "run.dt": (_fraction, _positive, _REQUIRED),
        "run.t_end": (_fraction, _nonnegative, _REQUIRED),
        "run.snapshots": (_float_list, _nonnegative_list, []),
    }
    for name in names:
        pre = f"species.{name}"
        kind = kv.get(f"{pre}.diffusion", "none").strip()
        schema[f"{pre}.diffusion"] = (str.strip, _choice("none", "constant", "power"), "none")
        if kind == "constant":
            schema[f"{pre}.D"] = (_fraction, _positive, _REQUIRED)
        elif kind == "power":
            schema[f"{pre}.D0"] = (_fraction, _positive, _REQUIRED)
            schema[f"{pre}.alpha_exp"] = (_fraction, _at_least_one, _REQUIRED)
        ic = kv.get(f"{pre}.ic", "uniform").strip()
        schema[f"{pre}.ic"] = (str.strip, _choice(*_IC_CHOICES), "uniform")
        if ic == "uniform":
            schema[f"{pre}.value"] = (_fraction, _positive, 1.0)
    return schema


def _read_key_values(path) -> dict[str, str]:
    kv = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise InvalidConfig(f"{path}: cannot read config file ({e.strerror})") from e
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise InvalidConfig(f"{path}:{lineno}: empty key")
        if key in kv:
            raise InvalidConfig(f"{path}:{lineno}: duplicate key {key!r}", key=key)
        kv[key] = value.strip()
    return kv


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are errors.

    Returns the configuration with every default resolved; pass it to
    :func:`write_resolved_config` to echo the resolved key set for provenance.
    """
    kv = _read_key_values(path)
    if "kind" not in kv:
        raise InvalidConfig(f"{path}: missing required key 'kind'", key="kind")
    kind = kv.pop("kind").strip()
    if kind == "single_run":
        if "species" not in kv:
            raise InvalidConfig(f"{path}: single_run requires 'species'", key="species")
        try:
            names = _name_list(kv["species"])
        except ValueError as e:
            raise InvalidConfig(f"{path}: key 'species': {e}", key="species")
        schema = _single_run_schema(names, kv)
    elif kind in _SCHEMAS:
        schema = _SCHEMAS[kind]
    else:
        raise InvalidConfig(
            f"{path}: unknown kind {kind!r}; expected one of "
            f"{sorted(_SCHEMAS) + ['single_run']}", key="kind")

    params = {}
    for key, (parse, validate, default) in schema.items():
        if key in kv:
            text = kv.pop(key)
            try:
                params[key] = validate(parse(text))
            except (ValueError, ZeroDivisionError) as e:
                raise InvalidConfig(f"{path}: key {key!r}: {e}", key=key)
        elif default is _REQUIRED:
            raise InvalidConfig(f"{path}: missing required key {key!r}", key=key)
        else:
            params[key] = default
    if kv:
        key = sorted(kv)[0]
        raise InvalidConfig(f"{path}: unknown key {key!r} for kind {kind!r}", key=key)
    cfg = ExperimentConfig(kind=kind, params=params)
    _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ExperimentConfig) -> None:
    if cfg.kind == "ode_convergence" and len(cfg["ode.c0"]) != 2:
        raise InvalidConfig("ode.c0 must list exactly two concentrations", key="ode.c0")
    if cfg.kind == "cauchy_convergence" and len(cfg["cauchy.h"]) < 3:
        raise InvalidConfig("cauchy.h needs at least three resolutions", key="cauchy.h")
    if cfg.kind == "single_run":
        nsp = len(cfg["species"])
        for key in ("reaction.alpha", "reaction.beta"):
            if len(cfg[key]) != nsp:
                raise InvalidConfig(f"{key} must list {nsp} coefficients", key=key)
        if cfg["reaction.U"] is not None and len(cfg["reaction.U"]) != nsp:
            raise InvalidConfig(f"reaction.U must list {nsp} energies", key="reaction.U")
        if cfg["grid.upper"] <= cfg["grid.lower"]:
            raise InvalidConfig("grid.upper must exceed grid.lower", key="grid.upper")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ", ".join(_format_value(x) for x in v)
    return str(v)


def write_resolved_config(cfg: ExperimentConfig, path) -> None:
    """Echo the fully resolved configuration; the output parses identically."""
    lines = [f"kind = {cfg.kind}"]
    for key in sorted(cfg.params):
        v = cfg.params[key]
        if v is None or (isinstance(v, list) and not v):
            continue
        lines.append(f"{key} = {_format_value(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# reference solutions and measures


def exact_ode_solution(t: float, alpha: float, c0) -> np.ndarray:
    """Exact solution of the linear exchange c1' = c2 - alpha c1, c2' = -c1'.

    Relaxes to ``c1_inf = (c1 + c2)/(alpha + 1)`` at rate ``alpha + 1``.
    """
    c1_0, c2_0 = float(c0[0]), float(c0[1])
    if not (alpha > 0 and c1_0 > 0 and c2_0 > 0):
        raise InvalidInput("alpha and initial concentrations must be positive")
    total = c1_0 + c2_0
    c1_inf = total / (alpha + 1.0)
    c1 = (1.0 + (c1_0 / c1_inf - 1.0) * math.exp(-(alpha + 1.0) * t)) * c1_inf
    return np.array([c1, total - c1])


def weighted_order(e_coarse: float, e_fine: float,
                   h_prev: float, h: float, h_next: float) -> float:
    """Convergence order from consecutive-solution differences.

    For differences ``e_coarse = |psi_{h_prev} - psi_h|`` and
    ``e_fine = |psi_h - psi_{h_next}|`` of a sequence with
    ``psi_h = psi + K h^p``, the ratio ``e_coarse/e_fine`` carries the factor
    ``A* = (1 - h^2/h_prev^2)/(1 - h_next^2/h^2)`` at p = 2; dividing it out
    and taking logs recovers p exactly for exactly-second-order data.
    """
    if not (h_prev > h > h_next > 0):
        raise InvalidInput("spacings must be strictly decreasing and positive")
    if not (e_coarse > 0 and e_fine > 0):
        raise InvalidInput("differences must be positive")
    a_star = (1.0 - h ** 2 / h_prev ** 2) / (1.0 - h_next ** 2 / h ** 2)
    return math.log((e_coarse / e_fine) / a_star) / math.log(h_prev / h)


def _trig_eval_matrix(n_src: int, n_dst: int, lower: float, span: float) -> np.ndarray:
    """Evaluate the trig interpolant of n_src cell samples at n_dst cell centers.

    Entry (j, i) is the periodic sinc at ``theta = pi (y_j - x_i) / span``:
    ``sin(n theta) / (n tan theta)`` for even n (the Nyquist cosine split in
    two), ``sin(n theta) / (n sin theta)`` for odd n, and 1 where sin theta == 0.
    """
    x = lower + (np.arange(n_src) + 0.5) * (span / n_src)
    y = lower + (np.arange(n_dst) + 0.5) * (span / n_dst)
    theta = np.pi * (y[:, None] - x[None, :]) / span
    sin = np.sin(theta)
    den = n_src * (np.tan(theta) if n_src % 2 == 0 else sin)
    num = np.sin(n_src * theta)
    coincident = sin == 0.0
    num[coincident] = den[coincident] = 1.0
    return num / den


def resample_spectral(f: Field, target: Grid) -> Field:
    """Evaluate a field's trigonometric interpolant at another grid's cell centers.

    Both grids must cover the same periodic box. Exact on the modes the source
    grid resolves, so for smooth data the transfer error is spectrally small;
    this is what makes cross-resolution solution differences measure the
    scheme's own error rather than the transfer's. Works in both directions
    (restriction and prolongation).
    """
    gs = f.grid
    if gs.dim != target.dim:
        raise InvalidInput("grids must share the dimension")
    if gs.lower != target.lower or gs.upper != target.upper:
        raise InvalidInput("grids must cover the same box")
    values = f.values
    for ax in range(gs.dim):
        mat = _trig_eval_matrix(gs.n0, target.n0, gs.lower[ax], gs.upper[ax] - gs.lower[ax])
        values = np.moveaxis(np.tensordot(mat, values, axes=(1, ax)), 0, ax)
    return Field(target, values)


def write_convergence_csv(rows: list[ConvergenceRow], path) -> None:
    lines = ["label,error,order"]
    for r in rows:
        order = "" if r.order is None else f"{r.order:.17g}"
        lines.append(f"{r.label},{r.error:.17g},{order}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# model systems


def ring_profiles(grid: Grid) -> tuple[Field, Field]:
    """Complementary tanh ring profiles: high inside r = 0.4 and high outside."""
    r = np.sqrt(sum(x ** 2 for x in grid.centers()))
    step = np.tanh((r - 0.4) / 0.1)
    u = (-step + 1.0) / 2.0 + 1.0
    v = (step + 1.0) / 2.0 + 1.0
    return Field(grid, u), Field(grid, v)


def cubic_autocatalysis_system(grid: Grid, alpha_exp: int = 1,
                               D_u: float = 0.2, D_v: float = 0.1,
                               k_plus: float = 1.0, k_minus: float = 0.1
                               ) -> SystemSpec:
    """U + 2V <-> 3V with ring initial data; u diffuses by a power law when alpha_exp > 1."""
    reaction = ReactionSpec.law_of_mass_action([1.0, 2.0], [0.0, 3.0], k_plus, k_minus)
    u0, v0 = ring_profiles(grid)
    u_law = DiffusionLaw.constant(D_u) if alpha_exp == 1 else DiffusionLaw.power(D_u, alpha_exp)
    return SystemSpec(grid=grid, species=[
        Species("u", u_law, u0),
        Species("v", DiffusionLaw.constant(D_v), v0),
    ], reaction=reaction)


def _exchange_spec(alpha: float) -> ReactionSpec:
    return ReactionSpec.law_of_mass_action([1.0, 0.0], [0.0, 1.0], alpha, 1.0)


# ---------------------------------------------------------------------------
# experiment runners


def _prepare_out_dir(out_dir):
    if out_dir is None:
        return None
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def run_ode_convergence(cfg: ExperimentConfig, out_dir=None) -> list[ConvergenceRow]:
    """Final-time error of the split reaction stepper on the linear exchange.

    For each dt the ODE is integrated to t_end with two dt/2 reaction
    sub-steps per step, exactly what the full splitting does when no species
    diffuses; errors are measured against the exact solution in max norm.
    """
    if cfg.kind != "ode_convergence":
        raise InvalidInput(f"expected an ode_convergence config, got {cfg.kind!r}")
    out_dir = _prepare_out_dir(out_dir)
    alpha = cfg["ode.alpha"]
    c_init = np.array(cfg["ode.c0"], dtype=float)
    t_end = cfg["ode.t_end"]
    spec = _exchange_spec(alpha)
    exact = exact_ode_solution(t_end, alpha, c_init)

    errors = []
    for dt in cfg["ode.dt"]:
        n_steps = steps_for(t_end, dt)
        c = c_init.copy()
        for _ in range(n_steps):
            for _ in range(2):
                R = reaction_step(PointState(c), spec, dt / 2)
                c = c + spec.sigma * R
        errors.append(float(np.max(np.abs(c - exact))))

    rows = []
    dts = cfg["ode.dt"]
    for k, dt in enumerate(dts):
        order = None
        if k > 0 and errors[k - 1] > 0 and errors[k] > 0:
            order = math.log(errors[k - 1] / errors[k]) / math.log(dts[k - 1] / dts[k])
        rows.append(ConvergenceRow(label=f"dt={dt:.6g}", error=errors[k], order=order))
    if out_dir is not None:
        write_convergence_csv(rows, Path(out_dir) / "ode_convergence.csv")
    return rows


def _cauchy_fields(h: float, cfg: ExperimentConfig) -> tuple[Grid, list[Field]]:
    n0 = round(2.0 / h)
    if abs(2.0 / h - n0) > 1e-9 * n0:
        raise InvalidConfig(f"h = {h} does not tile the domain (-1, 1)", key="cauchy.h")
    grid = Grid(dim=2, n0=n0, lower=-1.0, upper=1.0)
    system = cubic_autocatalysis_system(
        grid, alpha_exp=cfg["cauchy.alpha_exp"],
        D_u=cfg["cauchy.D_u"], D_v=cfg["cauchy.D_v"],
        k_plus=cfg["cauchy.k_plus"], k_minus=cfg["cauchy.k_minus"])
    report_state = {}

    def keep_final(state):
        report_state["c"] = state.c

    n_steps = steps_for(cfg["cauchy.t_end"], grid.h)
    run(system, grid.h, cfg["cauchy.t_end"], observers={n_steps: keep_final})
    return grid, report_state["c"]


def run_cauchy_convergence(cfg: ExperimentConfig, out_dir=None, threads: int = 1
                           ) -> dict[str, list[ConvergenceRow]]:
    """Self-convergence of the 2D autocatalysis run under mesh refinement.

    Time step equals the mesh size on every level. Consecutive final states
    are compared on the coarser grid after trigonometric resampling at the
    coarse cell centers (exact on resolved modes, so the transfer does not
    pollute a second-order difference); orders use the weighted formula that
    accounts for non-halved spacings.
    """
    if cfg.kind != "cauchy_convergence":
        raise InvalidInput(f"expected a cauchy_convergence config, got {cfg.kind!r}")
    if threads < 1:
        raise InvalidInput(f"threads must be at least 1, got {threads}")
    out_dir = _prepare_out_dir(out_dir)
    hs = cfg["cauchy.h"]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        solutions = list(pool.map(lambda h: _cauchy_fields(h, cfg), hs))

    names = ["u", "v"]
    diffs = {name: [] for name in names}
    for j in range(len(hs) - 1):
        coarse_grid, coarse = solutions[j]
        _, fine = solutions[j + 1]
        for i, name in enumerate(names):
            restricted = resample_spectral(fine[i], coarse_grid)
            diffs[name].append(float(np.max(np.abs(restricted.values - coarse[i].values))))

    tables = {}
    for name in names:
        rows = []
        for j in range(len(hs) - 1):
            order = None
            if j > 0:
                order = weighted_order(diffs[name][j - 1], diffs[name][j],
                                       hs[j - 1], hs[j], hs[j + 1])
            rows.append(ConvergenceRow(
                label=f"{hs[j]:.6g}:{hs[j + 1]:.6g}", error=diffs[name][j], order=order))
        tables[name] = rows
        if out_dir is not None:
            write_convergence_csv(rows, Path(out_dir) / f"cauchy_{name}.csv")
    return tables


def run_energy_trace(cfg: ExperimentConfig, out_dir=None) -> dict[int, RunReport]:
    """Free-energy decay of the autocatalysis run, with field snapshots.

    Runs once per requested power-law exponent, records the full per-step
    report (energy included) and writes snapshot CSVs at the configured times.
    """
    if cfg.kind != "energy_trace":
        raise InvalidInput(f"expected an energy_trace config, got {cfg.kind!r}")
    out_dir = _prepare_out_dir(out_dir)
    h, dt, t_end = cfg["trace.h"], cfg["trace.dt"], cfg["trace.t_end"]
    n0 = round(2.0 / h)
    if abs(2.0 / h - n0) > 1e-9 * n0:
        raise InvalidConfig(f"h = {h} does not tile the domain (-1, 1)", key="trace.h")
    grid = Grid(dim=2, n0=n0, lower=-1.0, upper=1.0)

    reports = {}
    for a in cfg["trace.alpha_exp"]:
        system = cubic_autocatalysis_system(
            grid, alpha_exp=a, D_u=cfg["trace.D_u"], D_v=cfg["trace.D_v"],
            k_plus=cfg["trace.k_plus"], k_minus=cfg["trace.k_minus"])
        observers = {}
        if out_dir is not None:
            for t_snap in cfg["trace.snapshots"]:
                k = steps_for(t_snap, dt)

                def save(state, a=a, t_snap=t_snap):
                    for i, name in enumerate(system.names):
                        write_field_csv(
                            state.c[i],
                            Path(out_dir) / f"{name}_alpha{a}_t{t_snap:g}.csv")

                observers[k] = save
        report = run(system, dt, t_end, observers=observers)
        reports[a] = report
        if out_dir is not None:
            report.to_csv(Path(out_dir) / f"energy_alpha{a}.csv")
    return reports


def _single_run_system(cfg: ExperimentConfig) -> SystemSpec:
    grid = Grid(dim=cfg["grid.dim"], n0=cfg["grid.n0"],
                lower=cfg["grid.lower"], upper=cfg["grid.upper"])
    names = cfg["species"]
    if cfg["reaction.U"] is not None:
        reaction = ReactionSpec(np.array(cfg["reaction.alpha"]),
                                np.array(cfg["reaction.beta"]),
                                cfg["reaction.k_plus"], cfg["reaction.k_minus"],
                                np.array(cfg["reaction.U"]))
    else:
        reaction = ReactionSpec.law_of_mass_action(
            cfg["reaction.alpha"], cfg["reaction.beta"],
            cfg["reaction.k_plus"], cfg["reaction.k_minus"])
    ring_u, ring_v = ring_profiles(grid)
    species = []
    for name in names:
        pre = f"species.{name}"
        kind = cfg[f"{pre}.diffusion"]
        if kind == "none":
            law = DiffusionLaw.none()
        elif kind == "constant":
            law = DiffusionLaw.constant(cfg[f"{pre}.D"])
        else:
            law = DiffusionLaw.power(cfg[f"{pre}.D0"], cfg[f"{pre}.alpha_exp"])
        ic = cfg[f"{pre}.ic"]
        if ic == "uniform":
            initial = Field.constant(grid, cfg[f"{pre}.value"])
        elif ic == "disk_in":
            initial = ring_u.copy()
        else:
            initial = ring_v.copy()
        species.append(Species(name, law, initial))
    return SystemSpec(grid=grid, species=species, reaction=reaction)


def run_single(cfg: ExperimentConfig, out_dir=None) -> RunReport:
    """One plain run of a configured system; writes report.csv and snapshots."""
    if cfg.kind != "single_run":
        raise InvalidInput(f"expected a single_run config, got {cfg.kind!r}")
    out_dir = _prepare_out_dir(out_dir)
    system = _single_run_system(cfg)
    dt = cfg["run.dt"]
    observers = {}
    if out_dir is not None:
        for t_snap in cfg["run.snapshots"]:
            k = steps_for(t_snap, dt)

            def save(state, t_snap=t_snap):
                for i, name in enumerate(system.names):
                    write_field_csv(state.c[i], Path(out_dir) / f"{name}_t{t_snap:g}.csv")

            observers[k] = save
    report = run(system, dt, cfg["run.t_end"], observers=observers)
    if out_dir is not None:
        report.to_csv(Path(out_dir) / "report.csv")
    return report
