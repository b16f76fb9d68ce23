"""Experiment harness: config files, reference solutions, convergence studies.

Config files are flat ``key = value`` text. Lines starting with ``#`` and
blank lines are skipped; every other line must be ``key = value`` with a
dotted section prefix on the key (``ode.alpha = 2.0``). Unknown keys are
rejected, missing keys fall back to documented defaults, and the fully
resolved key set can be echoed back out as a sidecar that parses to the
same configuration. Numeric values accept plain decimals or exact fractions
like ``1/20``; list values are comma separated and never empty.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diffusion import DiffusionLaw
from .errors import InvalidConfig, InvalidInput
from .grid import Field, Grid, _csv_line, _write_lines, write_field_csv
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


def _int_value(text: str) -> int:
    v = _fraction(text)
    if v != int(v):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(v)


def _name(text: str) -> str:
    name = text.strip()
    if not name.isidentifier():
        raise ValueError(f"{name!r} is not an identifier")
    return name


def _list_of(parse_item):
    """Parser of a comma-separated list of parse_item values; an empty list is an error."""
    def parse(text: str) -> list:
        items = [parse_item(tok) for tok in text.split(",") if tok.strip()]
        if not items:
            raise ValueError("empty list")
        return items
    return parse


def _rule(holds, message: str):
    """Validator returning its value when ``holds(value)``, else raising ValueError(message)."""
    def check(v):
        if not holds(v):
            raise ValueError(message)
        return v
    return check


def _all(*checks):
    """Validator applying each check in turn."""
    def check_all(v):
        for check in checks:
            v = check(v)
        return v
    return check_all


def _each(check):
    return lambda v: [check(x) for x in v]


def _choice(*allowed):
    return _rule(lambda v: v in allowed, f"must be one of {allowed}")


def _identity(v):
    return v


_positive = _rule(lambda v: v > 0, "must be positive")
_nonnegative = _rule(lambda v: v >= 0, "must be nonnegative")
_at_least_one = _rule(lambda v: v >= 1, "must be >= 1")
_decreasing_list = _all(_each(_positive), _rule(
    lambda v: all(b < a for a, b in zip(v, v[1:])), "must be strictly decreasing"))
_concentration_pair = _all(_each(_positive), _rule(
    lambda v: len(v) == 2, "must list exactly two concentrations"))
_resolution_ladder = _all(_decreasing_list, _rule(
    lambda v: len(v) >= 3, "needs at least three resolutions"))


def _prefixed(prefix: str, keys: dict) -> dict:
    return {f"{prefix}.{key}": spec for key, spec in keys.items()}


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
        "ode.c0": (_list_of(_fraction), _concentration_pair, [1.0, 0.5]),
        "ode.t_end": (_fraction, _positive, 1.0),
        "ode.dt": (_list_of(_fraction), _decreasing_list,
                   [1 / 20, 1 / 40, 1 / 80, 1 / 160, 1 / 320, 1 / 640]),
    },
    "cauchy_convergence": {
        "cauchy.alpha_exp": (_int_value, _choice(1, 2), 1),
        "cauchy.h": (_list_of(_fraction), _resolution_ladder,
                     [1 / 20, 1 / 30, 1 / 40, 1 / 50, 1 / 60]),
        "cauchy.t_end": (_fraction, _positive, 0.2),
        **_prefixed("cauchy", _SYSTEM_KEYS),
    },
    "energy_trace": {
        "trace.alpha_exp": (_list_of(_int_value), _all(_each(_choice(1, 2)), _rule(
            lambda v: len(set(v)) == len(v), "must not repeat")), [1, 2]),
        "trace.h": (_fraction, _positive, 1 / 20),
        "trace.dt": (_fraction, _positive, 1 / 20),
        "trace.t_end": (_fraction, _positive, 0.7),
        "trace.snapshots": (_list_of(_fraction), _each(_nonnegative), [0.2, 0.5, 0.7]),
        **_prefixed("trace", _SYSTEM_KEYS),
    },
    "single_run": {
        "species": (_list_of(_name), _identity, _REQUIRED),
        "grid.dim": (_int_value, _choice(1, 2), 2),
        "grid.n0": (_int_value, _positive, _REQUIRED),
        "grid.lower": (_fraction, _identity, -1.0),
        "grid.upper": (_fraction, _identity, 1.0),
        "reaction.alpha": (_list_of(_fraction), _each(_nonnegative), _REQUIRED),
        "reaction.beta": (_list_of(_fraction), _each(_nonnegative), _REQUIRED),
        "reaction.k_plus": (_fraction, _positive, _REQUIRED),
        "reaction.k_minus": (_fraction, _positive, _REQUIRED),
        "reaction.U": (_list_of(_fraction), _identity, None),
        "run.dt": (_fraction, _positive, _REQUIRED),
        "run.t_end": (_fraction, _nonnegative, _REQUIRED),
        "run.snapshots": (_list_of(_fraction), _each(_nonnegative), []),
    },
}

# diffusion kind -> its keys under species.<name>; the keys are DiffusionLaw's fields
_DIFFUSION_LAWS = {
    "none": {},
    "constant": {"D": (_fraction, _positive, _REQUIRED)},
    "power": {"D0": (_fraction, _positive, _REQUIRED),
              "alpha_exp": (_fraction, _at_least_one, _REQUIRED)},
}

# initial condition -> (its keys under species.<name>, field from the grid and those keys)
_INITIAL_CONDITIONS = {
    "uniform": ({"value": (_fraction, _positive, 1.0)}, Field.constant),
    "disk_in": ({}, lambda grid: ring_profiles(grid)[0]),
    "disk_out": ({}, lambda grid: ring_profiles(grid)[1]),
}


def _species_schema(names: list[str], kv: dict[str, str]) -> dict:
    """Keys under species.<name>: the diffusion kind, the initial condition and their keys."""
    schema = {}
    for name in names:
        pre = f"species.{name}"
        kind = kv.get(f"{pre}.diffusion", "none")
        schema[f"{pre}.diffusion"] = (str.strip, _choice(*_DIFFUSION_LAWS), "none")
        schema.update(_prefixed(pre, _DIFFUSION_LAWS.get(kind, {})))
        ic = kv.get(f"{pre}.ic", "uniform")
        schema[f"{pre}.ic"] = (str.strip, _choice(*_INITIAL_CONDITIONS), "uniform")
        ic_keys, _ = _INITIAL_CONDITIONS.get(ic, ({}, None))
        schema.update(_prefixed(pre, ic_keys))
    return schema


def _read_key_values(path) -> dict[str, str]:
    kv = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InvalidConfig(f"{path}: cannot read config file ({e.strerror})") from e
    except UnicodeDecodeError as e:
        raise InvalidConfig(f"{path}: config file is not UTF-8 text "
                            f"(byte {e.start}: {e.reason})") from e
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


def _take(path, schema: dict, kv: dict[str, str]) -> dict:
    """Parse and validate the keys of schema, removing them from kv; fill in defaults."""
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
    return params


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a config file; unknown keys are errors.

    Returns the configuration with every default resolved; pass it to
    :func:`write_resolved_config` to echo the resolved key set for provenance.
    """
    kv = _read_key_values(path)
    kind = _take(path, {"kind": (str.strip, _choice(*_SCHEMAS), _REQUIRED)}, kv)["kind"]
    params = _take(path, _SCHEMAS[kind], kv)
    if kind == "single_run":
        params.update(_take(path, _species_schema(params["species"], kv), kv))
    if kv:
        key = sorted(kv)[0]
        raise InvalidConfig(f"{path}: unknown key {key!r} for kind {kind!r}", key=key)
    cfg = ExperimentConfig(kind=kind, params=params)
    if kind == "single_run":
        _cross_validate(cfg)
    return cfg


def _cross_validate(cfg: ExperimentConfig) -> None:
    """Checks of a single_run config that span several keys."""
    nsp = len(cfg["species"])
    for key in ("reaction.alpha", "reaction.beta"):
        if len(cfg[key]) != nsp:
            raise InvalidConfig(f"{key} must list {nsp} coefficients", key=key)
    if cfg["reaction.U"] is not None and len(cfg["reaction.U"]) != nsp:
        raise InvalidConfig(f"reaction.U must list {nsp} energies", key="reaction.U")
    if cfg["grid.upper"] <= cfg["grid.lower"]:
        raise InvalidConfig("grid.upper must exceed grid.lower", key="grid.upper")


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return ", ".join(_format_value(x) for x in v)
    return str(v)


def write_resolved_config(cfg: ExperimentConfig, path) -> None:
    """Echo the fully resolved configuration; the output parses identically.

    A key at an empty default (no ``reaction.U``, no ``run.snapshots``) is left out.
    """
    _write_lines(path, [f"kind = {cfg.kind}", *(
        f"{key} = {_format_value(v)}" for key, v in sorted(cfg.params.items())
        if v is not None and v != [])])


# ---------------------------------------------------------------------------
# reference solutions and measures


def exact_ode_solution(t: float, alpha: float, c0) -> np.ndarray:
    """Exact solution of the linear exchange c1' = c2 - alpha c1, c2' = -c1'.

    Relaxes to ``c1_inf = (c1 + c2)/(alpha + 1)`` at rate ``alpha + 1``. Needs
    a finite t >= 0 and finite positive alpha and concentrations; a solution
    that leaves the doubles, such as a ``c1_inf`` that underflows to 0 or a
    total that overflows, raises InvalidInput too.
    """
    if np.shape(c0) != (2,):
        raise InvalidInput(f"c0 must hold two concentrations, got shape {np.shape(c0)}")
    t, alpha, c1_0, c2_0 = float(t), float(alpha), float(c0[0]), float(c0[1])
    if not (0 <= t < math.inf and all(0 < x < math.inf for x in (alpha, c1_0, c2_0))):
        raise InvalidInput("t must be finite and nonnegative, alpha and initial "
                           "concentrations finite and positive")
    total = c1_0 + c2_0
    c1_inf = total / (alpha + 1.0)
    c1 = math.nan
    if 0 < c1_inf < math.inf:
        c1 = (1.0 + (c1_0 / c1_inf - 1.0) * math.exp(-(alpha + 1.0) * t)) * c1_inf
    if not math.isfinite(c1):  # then c1_inf, total and total - c1 are finite too
        raise InvalidInput(f"the exact solution at t = {t!r} for alpha = {alpha!r}, "
                           f"c0 = ({c1_0!r}, {c2_0!r}) leaves the doubles")
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
    e_coarse, e_fine, h_prev, h, h_next = map(float, (e_coarse, e_fine, h_prev, h, h_next))
    if not (math.inf > h_prev > h > h_next > 0):
        raise InvalidInput("spacings must be finite, strictly decreasing and positive")
    if not (0 < e_coarse < math.inf and 0 < e_fine < math.inf):
        raise InvalidInput("differences must be finite and positive")
    try:
        a_star = (1.0 - h ** 2 / h_prev ** 2) / (1.0 - h_next ** 2 / h ** 2)
        order = math.log((e_coarse / e_fine) / a_star) / math.log(h_prev / h)
    except (ArithmeticError, ValueError):  # an overflow, a zero divisor, a log of 0
        order = math.nan
    if not math.isfinite(order):
        raise InvalidInput(f"differences {e_coarse!r}, {e_fine!r} on spacings {h_prev!r}, "
                           f"{h!r}, {h_next!r} give no finite order")
    return order


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
    mat = _trig_eval_matrix(gs.n0, target.n0, gs.lower[0], gs.upper[0] - gs.lower[0])
    for ax in range(gs.dim):
        values = np.moveaxis(np.tensordot(mat, values, axes=(1, ax)), 0, ax)
    return Field(target, values)


def write_convergence_csv(rows: list[ConvergenceRow], path) -> None:
    _write_lines(path, ["label,error,order",
                        *(_csv_line([r.label, r.error, r.order]) for r in rows)])


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
    """U + 2V <-> 3V with ring initial data; u diffuses by ``D_u Lap(u^alpha_exp)``."""
    reaction = ReactionSpec([1.0, 2.0], [0.0, 3.0], k_plus, k_minus)
    u0, v0 = ring_profiles(grid)
    return SystemSpec(grid=grid, species=[
        Species("u", DiffusionLaw.power(D_u, alpha_exp), u0),
        Species("v", DiffusionLaw.constant(D_v), v0),
    ], reaction=reaction)


# ---------------------------------------------------------------------------
# experiment runners: each runs straight through, checking the config's kind,
# then making every other check and building every value the run needs, and
# only then creating the output directory, running and writing; so a config
# that fails a check leaves the output directory as it was


def _check_kind(cfg: ExperimentConfig, kind: str) -> None:
    if cfg.kind != kind:
        raise InvalidInput(f"kind = {cfg.kind!r} does not match {kind!r}")


def _make_dir(out_dir) -> Path | None:
    """``Path(out_dir)``, created, or None without one; InvalidInput where it cannot be."""
    if out_dir is None:
        return None
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InvalidInput(f"{out}: cannot create output directory ({e.strerror})") from e
    return out


def run_ode_convergence(cfg: ExperimentConfig, out_dir=None) -> list[ConvergenceRow]:
    """Final-time error of the split reaction stepper on the linear exchange.

    For each dt the ODE is integrated to t_end with two dt/2 reaction
    sub-steps per step, exactly what the full splitting does when no species
    diffuses; errors are measured against the exact solution in max norm.
    """
    _check_kind(cfg, "ode_convergence")
    alpha, t_end, dts = cfg["ode.alpha"], cfg["ode.t_end"], cfg["ode.dt"]
    steps = [steps_for(t_end, dt) for dt in dts]
    c_init = np.array(cfg["ode.c0"], dtype=float)
    spec = ReactionSpec([1.0, 0.0], [0.0, 1.0], alpha, 1.0)
    exact = exact_ode_solution(t_end, alpha, c_init)
    out_dir = _make_dir(out_dir)

    rows = []
    for k, (dt, n_steps) in enumerate(zip(dts, steps)):
        c = c_init.copy()
        for _ in range(n_steps):
            for _ in range(2):
                R = reaction_step(PointState(c), spec, dt / 2)
                c = c + spec.sigma * R
        error = float(np.max(np.abs(c - exact)))
        order = None
        if k > 0 and rows[-1].error > 0 and error > 0:
            order = math.log(rows[-1].error / error) / math.log(dts[k - 1] / dt)
        rows.append(ConvergenceRow(label=f"dt={dt:.6g}", error=error, order=order))
    if out_dir is not None:
        write_convergence_csv(rows, out_dir / "ode_convergence.csv")
    return rows


def _autocatalysis_system(cfg: ExperimentConfig, section: str, h: float, alpha_exp: int
                          ) -> SystemSpec:
    """The autocatalysis system on the grid of mesh size h, with the rates of section.

    The keys of _SYSTEM_KEYS are the keyword arguments of cubic_autocatalysis_system.
    """
    if not 2.0 / h < math.inf:
        raise InvalidConfig(f"h = {h} is too small to tile the domain (-1, 1)",
                            key=f"{section}.h")
    n0 = round(2.0 / h)
    if abs(2.0 / h - n0) > 1e-9 * n0:
        raise InvalidConfig(f"h = {h} does not tile the domain (-1, 1)", key=f"{section}.h")
    grid = Grid(dim=2, n0=n0, lower=-1.0, upper=1.0)
    rates = {key: cfg[f"{section}.{key}"] for key in _SYSTEM_KEYS}
    return cubic_autocatalysis_system(grid, alpha_exp, **rates)


def _cauchy_fields(system: SystemSpec, t_end: float) -> list[Field]:
    dt, final = system.grid.h, []
    run(system, dt, t_end, observers={steps_for(t_end, dt): final.append})
    return final[0].c


def run_cauchy_convergence(cfg: ExperimentConfig, out_dir=None, threads: int = 1
                           ) -> dict[str, list[ConvergenceRow]]:
    """Self-convergence of the 2D autocatalysis run under mesh refinement.

    Time step equals the mesh size on every level. Consecutive final states
    are compared on the coarser grid after trigonometric resampling at the
    coarse cell centers (exact on resolved modes, so the transfer does not
    pollute a second-order difference); orders use the weighted formula that
    accounts for non-halved spacings.
    """
    _check_kind(cfg, "cauchy_convergence")
    if threads < 1:
        raise InvalidInput(f"threads must be at least 1, got {threads}")
    hs, t_end = cfg["cauchy.h"], cfg["cauchy.t_end"]
    systems = [_autocatalysis_system(cfg, "cauchy", h, cfg["cauchy.alpha_exp"]) for h in hs]
    for system in systems:  # the step counts of _cauchy_fields, before any level runs
        steps_for(t_end, system.grid.h)
    out_dir = _make_dir(out_dir)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        solutions = list(pool.map(lambda system: _cauchy_fields(system, t_end), systems))

    tables = {}
    for i, name in enumerate(["u", "v"]):
        rows = []
        for j in range(len(hs) - 1):
            restricted = resample_spectral(solutions[j + 1][i], systems[j].grid)
            error = float(np.max(np.abs(restricted.values - solutions[j][i].values)))
            order = None
            if j > 0:
                order = weighted_order(rows[-1].error, error, hs[j - 1], hs[j], hs[j + 1])
            rows.append(ConvergenceRow(label=f"{hs[j]:.6g}:{hs[j + 1]:.6g}", error=error,
                                       order=order))
        tables[name] = rows
        if out_dir is not None:
            write_convergence_csv(rows, out_dir / f"cauchy_{name}.csv")
    return tables


def _snapshot_observers(cfg: ExperimentConfig, section: str, system: SystemSpec, out,
                        tag: str = "") -> dict:
    """Observers writing each species to ``out/<name><tag>_t<t>.csv`` at ``<section>.snapshots``.

    Empty without an output directory. Raises InvalidInput unless dt divides t_end, with or
    without one, and InvalidConfig for a time after ``<section>.t_end`` or two times whose
    ``<t>`` is the same (``f"{t:g}"``), where the later file would replace the earlier.
    """
    dt, t_end, key = cfg[f"{section}.dt"], cfg[f"{section}.t_end"], f"{section}.snapshots"
    n_steps = steps_for(t_end, dt)
    if out is None:
        return {}
    out = Path(out)
    observers, named = {}, {}
    for t_snap in cfg[key]:
        k = steps_for(t_snap, dt)
        if k > n_steps:
            raise InvalidConfig(f"{key}: snapshot time {t_snap:g} is after t_end = {t_end:g}",
                                key=key)
        label = f"{t_snap:g}"
        if label in named:
            raise InvalidConfig(f"{key}: snapshot times {named[label]!r} and {t_snap!r} both "
                                f"write the files *_t{label}.csv", key=key)
        named[label] = t_snap

        def save(state, label=label):
            for i, name in enumerate(system.names):
                write_field_csv(state.c[i], out / f"{name}{tag}_t{label}.csv")

        observers[k] = save
    return observers


def run_energy_trace(cfg: ExperimentConfig, out_dir=None) -> dict[int, RunReport]:
    """Free-energy decay of the autocatalysis run, with field snapshots.

    Runs once per requested power-law exponent, records the full per-step
    report (energy included) and writes snapshot CSVs at the configured times.
    """
    _check_kind(cfg, "energy_trace")
    runs = []
    for a in cfg["trace.alpha_exp"]:
        system = _autocatalysis_system(cfg, "trace", cfg["trace.h"], a)
        runs.append((a, system, _snapshot_observers(cfg, "trace", system, out_dir, f"_alpha{a}")))
    out_dir = _make_dir(out_dir)
    reports = {}
    for a, system, observers in runs:
        reports[a] = report = run(system, cfg["trace.dt"], cfg["trace.t_end"], observers=observers)
        if out_dir is not None:
            report.to_csv(out_dir / f"energy_alpha{a}.csv")
    return reports


def _single_run_system(cfg: ExperimentConfig) -> SystemSpec:
    grid = Grid(dim=cfg["grid.dim"], n0=cfg["grid.n0"],
                lower=cfg["grid.lower"], upper=cfg["grid.upper"])
    reaction = ReactionSpec(*(cfg[f"reaction.{key}"]
                              for key in ("alpha", "beta", "k_plus", "k_minus", "U")))
    species = []
    for name in cfg["species"]:
        pre = f"species.{name}"
        kind, ic = cfg[f"{pre}.diffusion"], cfg[f"{pre}.ic"]
        law = getattr(DiffusionLaw, kind)(**{k: cfg[f"{pre}.{k}"] for k in _DIFFUSION_LAWS[kind]})
        keys, make_field = _INITIAL_CONDITIONS[ic]
        initial = make_field(grid, *(cfg[f"{pre}.{k}"] for k in keys))
        species.append(Species(name, law, initial))
    return SystemSpec(grid=grid, species=species, reaction=reaction)


def run_single(cfg: ExperimentConfig, out_dir=None) -> RunReport:
    """One plain run of a configured system; writes report.csv and snapshots."""
    _check_kind(cfg, "single_run")
    system = _single_run_system(cfg)
    observers = _snapshot_observers(cfg, "run", system, out_dir)
    out_dir = _make_dir(out_dir)
    report = run(system, cfg["run.dt"], cfg["run.t_end"], observers=observers)
    if out_dir is not None:
        report.to_csv(out_dir / "report.csv")
    return report
