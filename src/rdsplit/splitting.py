"""Strang-split time stepper for reaction-diffusion systems.

One step of size dt applies a half reaction step, a full diffusion step per
species, and another half reaction step. Each stage preserves positivity,
conserves its invariants (reaction: every ``e . c`` with ``e`` orthogonal to
sigma; diffusion: each species' mass), and dissipates the shared free energy

    F_h = < sum_i c_i (ln c_i - 1 + U_i), 1 >,

so the composition inherits all three properties while keeping second-order
accuracy in time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionLaw, etd_step, nonlinear_cn_step_counted
from .errors import InvalidInput, PositivityViolation, RdsplitError
from .grid import Field, Grid, inner_product
from .reaction import ReactionSpec, _check_dt, reaction_stage_counted

__all__ = [
    "Species", "SystemSpec", "SimState", "RunReport",
    "conserved_basis", "system_energy", "strang_step", "steps_for", "run",
]


@dataclass
class Species:
    name: str
    law: DiffusionLaw
    initial: Field


@dataclass
class SystemSpec:
    """A reaction-diffusion system: grid, species with laws, one reaction."""

    grid: Grid
    species: list[Species]
    reaction: ReactionSpec

    def __post_init__(self):
        if len(self.species) != self.reaction.n_species:
            raise InvalidInput(
                f"reaction couples {self.reaction.n_species} species, "
                f"system declares {len(self.species)}")
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise InvalidInput("species names must be unique")
        for s in self.species:
            if s.initial.grid != self.grid:
                raise InvalidInput(f"initial field of {s.name!r} lives on a different grid")
            if np.any(s.initial.values <= 0):
                raise PositivityViolation(f"initial field of {s.name!r} must be positive")

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.species]


@dataclass
class SimState:
    t: float
    step_index: int
    c: list[Field]


def conserved_basis(spec: ReactionSpec) -> list[np.ndarray]:
    """Basis of the conserved directions ``{e : e . sigma = 0}``.

    N-1 vectors for a nontrivial reaction, normalized to integer-like entries
    when sigma is integer-like; species outside the reaction map to plain unit
    vectors. A sigma of zero conserves every species individually.
    """
    sigma = spec.sigma
    n = sigma.size
    nz = np.flatnonzero(sigma)
    if nz.size == 0:
        return [np.eye(n)[i] for i in range(n)]
    pivot = int(nz[0])
    basis = []
    for i in range(n):
        if i == pivot:
            continue
        e = np.zeros(n)
        if sigma[i] == 0:
            e[i] = 1.0
        else:
            e[i] = sigma[pivot]
            e[pivot] = -sigma[i]
            lead = e[np.flatnonzero(e)[0]]
            if lead < 0:
                e = -e
            g = _integer_gcd(e)
            if g > 0:
                e = e / g
        basis.append(e)
    return basis


def _integer_gcd(e: np.ndarray) -> float:
    vals = np.abs(e[e != 0])
    if not np.allclose(vals, np.round(vals)) or np.any(np.round(vals) == 0):
        return 0.0
    return float(np.gcd.reduce(np.round(vals).astype(int)))


def system_energy(state: SimState, spec: SystemSpec) -> float:
    """Discrete free energy ``< sum_i c_i (ln c_i - 1 + U_i), 1 >``."""
    total = 0.0
    for i, f in enumerate(state.c):
        v = f.values
        if np.any(v <= 0):
            raise PositivityViolation(f"species {spec.names[i]!r} not positive")
        U = spec.reaction.U[i]
        total += float(np.sum(v * (np.log(v) - 1.0 + U)))
    return spec.grid.cell_volume * total


@dataclass
class RunReport:
    """Per-step record of a run: energy, invariants, minima, solver effort.

    Arrays have one row per accepted state (the initial state included).
    ``conserved`` has one column per conserved basis vector, ``min_values``
    one per species.
    """

    species_names: list[str]
    basis: list[np.ndarray]
    times: np.ndarray
    energy: np.ndarray
    conserved: np.ndarray
    min_values: np.ndarray
    reaction_iters_avg: np.ndarray
    diffusion_iters: np.ndarray

    def to_csv(self, path) -> None:
        """Write ``step,t,energy,<conserved..>,<min..>,iters`` rows, 17 digits."""
        cols = ["step", "t", "energy"]
        cols += [f"conserved_{k}" for k in range(len(self.basis))]
        cols += [f"min_{name}" for name in self.species_names]
        cols += ["reaction_iters_avg", "diffusion_iters"]
        lines = [",".join(cols)]
        for k in range(self.times.size):
            row = [str(k), f"{self.times[k]:.17g}", f"{self.energy[k]:.17g}"]
            row += [f"{v:.17g}" for v in self.conserved[k]]
            row += [f"{v:.17g}" for v in self.min_values[k]]
            row += [f"{self.reaction_iters_avg[k]:.17g}", f"{self.diffusion_iters[k]:.17g}"]
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def strang_step(state: SimState, spec: SystemSpec, dt: float) -> SimState:
    """One Strang-split step: reaction dt/2, diffusion dt, reaction dt/2."""
    new_state, _, _ = strang_step_counted(state, spec, dt)
    return new_state


def strang_step_counted(state: SimState, spec: SystemSpec, dt: float
                        ) -> tuple[SimState, float, int]:
    """One step plus solver effort: (state, mean reaction iters, diffusion iters)."""
    _check_dt(dt)
    stage = "reaction stage 1"
    try:
        fields, it_r1 = reaction_stage_counted(state.c, spec.reaction, dt / 2)
        diff_iters = 0
        updated = []
        for f, s in zip(fields, spec.species):
            stage = f"diffusion stage, species {s.name!r}"
            if s.law.kind == "none":
                updated.append(f)
            elif s.law.kind == "constant":
                updated.append(etd_step(f, s.law, dt))
            else:
                out, n = nonlinear_cn_step_counted(f, s.law, dt)
                updated.append(out)
                diff_iters += n
        stage = "reaction stage 2"
        fields, it_r2 = reaction_stage_counted(updated, spec.reaction, dt / 2)
    except RdsplitError as e:
        e.stage = stage
        raise
    new_state = SimState(t=state.t + dt, step_index=state.step_index + 1, c=fields)
    return new_state, 0.5 * (it_r1 + it_r2), diff_iters


def steps_for(t_end: float, dt: float) -> int:
    """Step count; t_end must be an integer multiple of dt, up to 1 ulp of the ratio.

    From 2^51 steps on, that ulp is at least 1/2 and the test cannot fail, so
    such counts raise InvalidInput.
    """
    _check_dt(dt)
    if not (t_end >= 0 and np.isfinite(t_end)):
        raise InvalidInput("t_end must be nonnegative and finite")
    ratio = t_end / dt
    if ratio >= 2.0 ** 51:
        raise InvalidInput(f"t_end / dt = {ratio:g} steps is too many to check")
    n = round(ratio)
    if abs(ratio - n) > np.spacing(max(abs(ratio), 1.0)):
        raise InvalidInput(f"t_end = {t_end} is not an integer multiple of dt = {dt}")
    return int(n)


def run(spec: SystemSpec, dt: float, t_end: float,
        observers: dict[int, callable] | None = None) -> RunReport:
    """March the system from its initial data to t_end with fixed dt.

    ``observers`` maps step indices to callbacks receiving the SimState after
    that step (index 0 fires on the initial state); an index outside
    ``0..n_steps`` raises InvalidInput. Records energy, conserved integrals,
    species minima and solver effort at every accepted state.
    """
    observers = observers or {}
    n_steps = steps_for(t_end, dt)
    outside = [k for k in observers if k not in range(n_steps + 1)]
    if outside:
        raise InvalidInput(f"observer step {outside[0]!r} is outside the run's steps "
                           f"0..{n_steps} (t_end = {t_end:g}, dt = {dt:g})")
    basis = conserved_basis(spec.reaction)
    state = SimState(t=0.0, step_index=0,
                     c=[s.initial.copy() for s in spec.species])

    nsp = len(spec.species)
    times = np.zeros(n_steps + 1)
    energy = np.zeros(n_steps + 1)
    conserved = np.zeros((n_steps + 1, len(basis)))
    min_values = np.zeros((n_steps + 1, nsp))
    it_reaction = np.zeros(n_steps + 1)
    it_diffusion = np.zeros(n_steps + 1)

    ones = Field(spec.grid, np.broadcast_to(1.0, spec.grid.shape))  # a view: no n-cell array

    def record(k: int, st: SimState, itr: float, itd: float):
        times[k] = st.t
        energy[k] = system_energy(st, spec)
        masses = [inner_product(f, ones) for f in st.c]
        for j, e in enumerate(basis):
            conserved[k, j] = float(np.dot(e, masses))
        min_values[k] = [f.min() for f in st.c]
        it_reaction[k] = itr
        it_diffusion[k] = itd

    record(0, state, 0.0, 0.0)
    if 0 in observers:
        observers[0](state)
    for k in range(1, n_steps + 1):
        state, itr, itd = strang_step_counted(state, spec, dt)
        record(k, state, itr, itd)
        if k in observers:
            observers[k](state)
    return RunReport(
        species_names=spec.names, basis=basis, times=times, energy=energy,
        conserved=conserved, min_values=min_values,
        reaction_iters_avg=it_reaction, diffusion_iters=it_diffusion)
