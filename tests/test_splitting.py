import math
import warnings

import numpy as np
import pytest

from rdsplit import (
    DiffusionLaw,
    Field,
    Grid,
    InvalidInput,
    PositivityViolation,
    ReactionSpec,
    SimState,
    Species,
    SystemSpec,
    conserved_basis,
    run,
    steps_for,
    strang_step,
    system_energy,
)
from rdsplit.splitting import strang_step_counted


def _two_species_system(rng, grid, u_law=None, v_law=None):
    spec = ReactionSpec([1.0, 0.0], [0.0, 1.0], 1.0, 1.0)
    u0 = Field(grid, rng.uniform(0.5, 2.0, grid.shape))
    v0 = Field(grid, rng.uniform(0.5, 2.0, grid.shape))
    return SystemSpec(grid=grid, species=[
        Species("u", u_law or DiffusionLaw.constant(0.2), u0),
        Species("v", v_law or DiffusionLaw.constant(0.1), v0),
    ], reaction=spec)


# ---------------------------------------------------------------- pieces


def test_system_spec_validation():
    g = Grid(dim=1, n0=8)
    spec = ReactionSpec([1.0, 0.0], [0.0, 1.0], 1.0, 1.0)
    u0 = Field.constant(g, 1.0)
    with pytest.raises(InvalidInput):
        SystemSpec(grid=g, species=[Species("u", DiffusionLaw.none(), u0)], reaction=spec)
    with pytest.raises(InvalidInput):
        SystemSpec(grid=g, species=[Species("u", DiffusionLaw.none(), u0),
                                    Species("u", DiffusionLaw.none(), u0)], reaction=spec)
    other = Field.constant(Grid(dim=1, n0=4), 1.0)
    with pytest.raises(InvalidInput):
        SystemSpec(grid=g, species=[Species("u", DiffusionLaw.none(), u0),
                                    Species("v", DiffusionLaw.none(), other)], reaction=spec)
    bad = Field.constant(g, 1.0)
    bad.values = bad.values.copy()
    bad.values[0] = -1.0
    with pytest.raises(PositivityViolation):
        SystemSpec(grid=g, species=[Species("u", DiffusionLaw.none(), u0),
                                    Species("v", DiffusionLaw.none(), bad)], reaction=spec)


def test_conserved_basis_exchange():
    spec = ReactionSpec([1.0, 0.0], [0.0, 1.0], 1.0, 1.0)
    (e,) = conserved_basis(spec)
    np.testing.assert_array_equal(e, [1.0, 1.0])


def test_conserved_basis_cubic():
    spec = ReactionSpec([1.0, 2.0], [0.0, 3.0], 1.0, 0.1)
    (e,) = conserved_basis(spec)  # sigma = (-1, 1)
    np.testing.assert_array_equal(e, [1.0, 1.0])
    assert float(e @ spec.sigma) == 0.0


def test_conserved_basis_with_spectator_and_ratios():
    # sigma = (-2, 3, 0): basis {(3, 2, 0), (0, 0, 1)}
    spec = ReactionSpec([2.0, 0.0, 1.0], [0.0, 3.0, 1.0], 1.0, 1.0)
    basis = conserved_basis(spec)
    assert len(basis) == 2
    for e in basis:
        assert float(e @ spec.sigma) == 0.0
        lead = e[np.flatnonzero(e)[0]]
        assert lead > 0
    np.testing.assert_array_equal(sorted(tuple(b) for b in basis),
                                  [(0.0, 0.0, 1.0), (3.0, 2.0, 0.0)])


def test_conserved_basis_null_reaction_is_identity():
    spec = ReactionSpec([1.0, 1.0], [1.0, 1.0], 1.0, 1.0)
    basis = conserved_basis(spec)
    np.testing.assert_array_equal(np.stack(basis), np.eye(2))


def test_conserved_basis_single_species_autocatalysis():
    spec = ReactionSpec([1.0], [2.0], 1.0, 1.0)
    assert conserved_basis(spec) == []


def test_steps_for():
    assert steps_for(1.0, 0.05) == 20
    assert steps_for(0.7, 0.05) == 14  # ratio one ulp off an integer
    assert steps_for(0.0, 0.1) == 0
    with pytest.raises(InvalidInput):
        steps_for(1.0, 0.3)
    with pytest.raises(InvalidInput):
        steps_for(1.0, -0.1)
    with pytest.raises(InvalidInput):
        steps_for(-1.0, 0.1)
    # from 2^51 steps on the ratio's ulp is at least 1/2, so the multiple test
    # passes anything; run(system, 1e-300, 1.0) used to fail in np.zeros
    assert steps_for(2.0 ** 51 - 1, 1.0) == 2 ** 51 - 1
    for t_end, dt in [(2.0 ** 51, 1.0), (1.0, 1e-300), (0.3, 1e-300)]:
        with pytest.raises(InvalidInput, match="too many to check"):
            steps_for(t_end, dt)
    sysspec = _two_species_system(np.random.default_rng(0), Grid(dim=1, n0=4))
    with pytest.raises(InvalidInput, match="too many to check"):
        run(sysspec, 1e-300, 1.0)


@pytest.mark.parametrize("t_end, dt", [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf)])
def test_steps_for_rejects_non_finite_input(t_end, dt):
    with pytest.raises(InvalidInput, match="finite"):
        steps_for(t_end, dt)
    # and run() refuses them instead of taking no step
    sysspec = _two_species_system(np.random.default_rng(0), Grid(dim=1, n0=4))
    with pytest.raises(InvalidInput, match="finite"):
        run(sysspec, dt, t_end)


def test_system_energy_value():
    g = Grid(dim=1, n0=2)  # h = 1/2
    spec = ReactionSpec(alpha=(1.0, 0.0), beta=(0.0, 1.0), k_plus=1.0, k_minus=1.0,
                        U=(0.0, 0.0))
    state = SimState(t=0.0, step_index=0,
                     c=[Field(g, [1.0, 1.0]), Field(g, [np.e, np.e])])
    # u part: 1*(0-1) per cell; v part: e*(1-1) = 0
    expected = 0.5 * (2 * (-1.0) + 0.0)
    assert system_energy(state, SystemSpec(
        grid=g, species=[Species("u", DiffusionLaw.none(), state.c[0]),
                         Species("v", DiffusionLaw.none(), state.c[1])],
        reaction=spec)) == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------- stepping


def test_strang_step_structure_random_sweep():
    """Positivity, invariant conservation, energy dissipation across laws."""
    rng = np.random.default_rng(31)
    laws = [DiffusionLaw.none(), DiffusionLaw.constant(0.2), DiffusionLaw.power(0.15, 2)]
    for trial in range(12):
        g = Grid(dim=2, n0=8, lower=-1.0, upper=1.0)
        sysspec = _two_species_system(
            rng, g,
            u_law=laws[trial % 3],
            v_law=laws[(trial + 1) % 3])
        state = SimState(t=0.0, step_index=0, c=[s.initial for s in sysspec.species])
        dt = float(rng.uniform(5e-3, 0.1))
        e0 = system_energy(state, sysspec)
        total0 = np.sum(state.c[0].values + state.c[1].values)
        new = strang_step(state, sysspec, dt)
        assert new.t == pytest.approx(dt)
        assert new.step_index == 1
        assert all(f.min() > 0 for f in new.c)
        # sigma = (-1, 1) and both diffusions conserve mass: total mass invariant
        total1 = np.sum(new.c[0].values + new.c[1].values)
        assert abs(total1 - total0) <= 1e-11 * total0
        assert system_energy(new, sysspec) <= e0 + 1e-12 * abs(e0)


def test_strang_step_counts_effort():
    rng = np.random.default_rng(32)
    g = Grid(dim=1, n0=16)
    sysspec = _two_species_system(rng, g, u_law=DiffusionLaw.power(0.2, 2))
    state = SimState(t=0.0, step_index=0, c=[s.initial for s in sysspec.species])
    _, it_r, it_d = strang_step_counted(state, sysspec, 0.05)
    assert it_r > 0
    assert it_d >= 1  # one nonlinear species
    # a bad dt is the step's input, not a stage's failure
    for dt in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(InvalidInput, match="dt must be positive and finite") as exc_info:
            strang_step_counted(state, sysspec, dt)
        assert exc_info.value.stage is None


def test_strang_step_tags_failing_stage():
    from rdsplit import NonConvergence

    # the quench-limit chemistry of test_reaction: its half step dt/2 = 0.02
    # has no representable root
    spec = ReactionSpec((0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 2.0, 2.0), 0.7252, 2.4492)
    g = Grid(dim=1, n0=1)
    c0 = (3.114, 2.4267, 2.7336, 2.384)
    sysspec = SystemSpec(grid=g, species=[
        Species(name, DiffusionLaw.none(), Field.constant(g, c))
        for name, c in zip("abcd", c0)], reaction=spec)
    state = SimState(t=0.0, step_index=0, c=[s.initial for s in sysspec.species])
    with pytest.raises(NonConvergence) as exc_info:
        strang_step(state, sysspec, 0.04)
    assert "reaction stage 1" in str(exc_info.value)


def test_strang_step_tags_second_reaction_stage(monkeypatch):
    import rdsplit.splitting
    from rdsplit import NonConvergence

    stage_calls = []
    real_stage = rdsplit.splitting.reaction_stage_counted

    def fail_second_call(*args):
        stage_calls.append(args)
        if len(stage_calls) == 2:
            raise NonConvergence("injected failure")
        return real_stage(*args)

    monkeypatch.setattr(rdsplit.splitting, "reaction_stage_counted", fail_second_call)
    sysspec = _two_species_system(np.random.default_rng(33), Grid(dim=1, n0=8))
    state = SimState(t=0.0, step_index=0, c=[s.initial for s in sysspec.species])
    with pytest.raises(NonConvergence) as exc_info:
        strang_step_counted(state, sysspec, 0.05)
    assert exc_info.value.stage == "reaction stage 2"
    assert str(exc_info.value) == "injected failure [reaction stage 2]"
    assert len(stage_calls) == 2


def test_run_records_and_observes():
    rng = np.random.default_rng(34)
    g = Grid(dim=1, n0=12)
    sysspec = _two_species_system(rng, g)
    seen = []
    report = run(sysspec, dt=0.05, t_end=0.2,
                 observers={0: lambda s: seen.append(s.step_index),
                            4: lambda s: seen.append(s.step_index)})
    assert seen == [0, 4]
    for k in (99, -1, 2.5):
        with pytest.raises(InvalidInput, match=f"observer step {k} is outside"):
            run(sysspec, dt=0.05, t_end=0.2, observers={k: lambda s: seen.append(k)})
    assert seen == [0, 4]
    assert report.times.shape == (5,)
    np.testing.assert_allclose(report.times, [0.0, 0.05, 0.1, 0.15, 0.2])
    assert report.species_names == ["u", "v"]
    # energy never increases along the run
    assert np.all(np.diff(report.energy) <= 1e-12 * np.abs(report.energy[:-1]))
    # the conserved integral stays fixed to near roundoff
    drift = np.max(np.abs(report.conserved - report.conserved[0]))
    assert drift <= 1e-12 * abs(report.conserved[0, 0])
    assert np.all(report.min_values > 0)


def test_run_with_a_linear_power_law_takes_the_exact_step():
    """power(D, 1) is the linear law: run() takes the ETD step for it, not
    Crank-Nicolson, and gives the constant law's report bit for bit."""
    g = Grid(dim=2, n0=8)
    reports = [run(_two_species_system(np.random.default_rng(37), g, u_law=law), 0.05, 0.2)
               for law in (DiffusionLaw.power(0.2, 1), DiffusionLaw.constant(0.2))]
    for name in ("energy", "conserved", "min_values", "reaction_iters_avg", "diffusion_iters"):
        np.testing.assert_array_equal(getattr(reports[0], name), getattr(reports[1], name))
    assert not reports[0].diffusion_iters.any()


def test_run_report_csv(tmp_path):
    rng = np.random.default_rng(35)
    g = Grid(dim=1, n0=8)
    sysspec = _two_species_system(rng, g)
    report = run(sysspec, dt=0.1, t_end=0.2)
    p = tmp_path / "report.csv"
    report.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == ("step,t,energy,conserved_0,min_u,min_v,"
                       "reaction_iters_avg,diffusion_iters")
    assert len(lines) == 4  # header + 3 states
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(report.energy[0], rel=1e-16)


def test_run_records_every_state_in_one_float64_table():
    """The report's arrays are views of one table, one float64 per recorded value."""
    report = run(_two_species_system(np.random.default_rng(36), Grid(dim=1, n0=8)), 0.1, 0.3)
    arrays = [report.times, report.energy, report.conserved, report.min_values,
              report.reaction_iters_avg, report.diffusion_iters]
    assert [a.shape for a in arrays] == [(4,), (4,), (4, 1), (4, 2), (4,), (4,)]
    assert all(a.dtype == np.float64 and a.base is arrays[0].base for a in arrays)
    assert arrays[0].base.shape == (4, 7)


def test_run_refuses_a_conserved_integral_past_the_doubles():
    """Each mass is 1e308 on one cell of [0, 1], finite, and F too (U = -708.2 keeps
    ln c - 1 + U near 0), but u + v is not: the record used to warn and keep an inf."""
    g = Grid(dim=1, n0=1)
    sysspec = SystemSpec(grid=g, species=[
        Species(name, DiffusionLaw.none(), Field.constant(g, 1e308)) for name in ("u", "v")
    ], reaction=ReactionSpec([1.0, 0.0], [0.0, 1.0], 1.0, 1.0, U=[-708.2, -708.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="a conserved integral leaves the doubles"):
            run(sysspec, dt=0.1, t_end=0.1)


def test_run_second_order_self_convergence():
    """Halving dt four times: errors against the dt/16 run drop ~4x each level."""
    rng = np.random.default_rng(36)
    g = Grid(dim=1, n0=16, lower=-1.0, upper=1.0)
    sysspec = _two_species_system(rng, g, u_law=DiffusionLaw.constant(0.3))
    t_end = 0.2
    finals = {}
    for dt in (0.05, 0.025, 0.0125, 0.00625):
        keep = {}
        n = steps_for(t_end, dt)
        run(sysspec, dt, t_end, observers={n: lambda s: keep.update(c=s.c)})
        finals[dt] = keep["c"]
    errs = []
    for dt in (0.05, 0.025):
        errs.append(max(np.max(np.abs(finals[dt][i].values - finals[dt / 4][i].values))
                        for i in range(2)))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order >= 1.8
