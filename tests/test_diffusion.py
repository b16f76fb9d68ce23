import dataclasses
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from rdsplit import (
    DiffusionLaw,
    FaceField,
    Field,
    Grid,
    InvalidInput,
    NonConvergence,
    PositivityViolation,
    RdsplitError,
    average_to_faces,
    diffusion_energy,
    etd_step,
    laplacian,
    nonlinear_cn_step,
    resample_spectral,
    semi_implicit_predictor,
    weighted_divgrad,
)
from rdsplit.diffusion import nonlinear_cn_step_counted


# dt values every diffusion entry point rejects with InvalidInput
BAD_DT = (0.0, -0.1, np.inf, np.nan)


def _positive_field(rng, grid, low=0.1, high=2.0):
    return Field(grid, rng.uniform(low, high, grid.shape))


def _dense(grid, op):
    """Dense matrix of a linear cell operator, built column by column."""
    n = grid.n_cells
    A = np.zeros((n, n))
    e = np.zeros(n)
    for k in range(n):
        e[:] = 0.0
        e[k] = 1.0
        A[:, k] = op(Field(grid, e.reshape(grid.shape))).values.ravel()
    return A


def _dense_laplacian(grid):
    return _dense(grid, laplacian)


# ---------------------------------------------------------------- laws


def test_law_constructors_and_validation():
    assert DiffusionLaw.none().kind == "none"
    assert DiffusionLaw.constant(0.2).D0 == 0.2
    law = DiffusionLaw.power(0.1, 2)
    assert law.D0 == 0.1 and law.alpha_exp == 2
    with pytest.raises(InvalidInput):
        DiffusionLaw.constant(0.0)
    with pytest.raises(InvalidInput):
        DiffusionLaw.power(0.1, 0.5)
    for make in (lambda: DiffusionLaw.constant(np.inf), lambda: DiffusionLaw.constant(np.nan),
                 lambda: DiffusionLaw.power(np.inf, 2), lambda: DiffusionLaw.power(np.nan, 2),
                 lambda: DiffusionLaw.power(1, np.inf), lambda: DiffusionLaw.power(1, np.nan)):
        with pytest.raises(InvalidInput, match="finite"):
            make()


def test_law_is_the_pair_d0_alpha_exp():
    """``D0 Lap(rho^alpha_exp)``: the kind follows from the pair, so a power law
    of exponent 1 is the constant law."""
    assert [f.name for f in dataclasses.fields(DiffusionLaw)] == ["D0", "alpha_exp"]
    assert DiffusionLaw.power(0.2, 1) == DiffusionLaw.constant(0.2)
    laws = (DiffusionLaw.none(), DiffusionLaw.constant(0.2), DiffusionLaw.power(0.2, 1),
            DiffusionLaw.power(0.2, 2))
    assert [law.kind for law in laws] == ["none", "constant", "constant", "power"]
    with pytest.raises(AttributeError):
        laws[3].kind = "constant"
    for D0, alpha_exp in ((-0.1, 1.0), (np.nan, 1.0), (np.inf, 1.0), (0.2, 0.5), (0.2, np.nan)):
        with pytest.raises(InvalidInput, match="finite D0 >= 0 and alpha_exp >= 1"):
            DiffusionLaw(D0, alpha_exp)


def test_power_law_coefficient_and_mobility():
    law = DiffusionLaw.power(0.2, 2)
    rho = np.array([0.5, 2.0])
    # D(rho) = 2 * 0.2 * rho, M = D * rho
    np.testing.assert_allclose(law.coefficient(rho), [0.2, 0.8])
    np.testing.assert_allclose(law.mobility(rho), [0.1, 1.6])
    lin = DiffusionLaw.constant(0.3)
    np.testing.assert_allclose(lin.coefficient(rho), [0.3, 0.3])
    np.testing.assert_array_equal(DiffusionLaw.none().coefficient(rho), [0.0, 0.0])


# ---------------------------------------------------------------- ETD


def test_etd_two_cell_closed_form():
    """n0=2: modes are mean and difference; the difference decays by exp(-8 D dt / h^2 ...)."""
    g = Grid(dim=1, n0=2)
    rho = Field(g, [1.5, 0.5])
    D, dt = 0.3, 0.05
    out = etd_step(rho, DiffusionLaw.constant(D), dt)
    lam = -(4.0 / g.h ** 2)  # sin^2(pi/2) = 1
    diff = 0.5 * np.exp(dt * D * lam)
    np.testing.assert_allclose(out.values, [1.0 + diff, 1.0 - diff], rtol=1e-14)


def test_etd_matches_dense_expm():
    rng = np.random.default_rng(4)
    for dim, n0 in ((1, 8), (2, 4)):
        g = Grid(dim=dim, n0=n0, lower=-1.0, upper=1.0)
        rho = _positive_field(rng, g)
        D, dt = 0.2, 0.07
        expected = scipy.linalg.expm(dt * D * _dense_laplacian(g)) @ rho.values.ravel()
        got = etd_step(rho, DiffusionLaw.constant(D), dt)
        np.testing.assert_allclose(got.values.ravel(), expected, rtol=0, atol=1e-12)


def test_etd_conserves_mass_and_positivity():
    rng = np.random.default_rng(12)
    for _ in range(20):
        g = Grid(dim=2, n0=16, lower=-1.0, upper=1.0)
        rho = _positive_field(rng, g, low=1e-3, high=5.0)
        out = etd_step(rho, DiffusionLaw.constant(float(rng.uniform(0.05, 1.0))),
                       float(rng.uniform(1e-3, 0.5)))
        assert out.min() > 0
        rel = abs(np.sum(out.values) - np.sum(rho.values)) / np.sum(rho.values)
        assert rel <= 1e-13


def test_etd_constant_field_is_fixed_point():
    g = Grid(dim=2, n0=8)
    rho = Field.constant(g, 2.5)
    out = etd_step(rho, DiffusionLaw.constant(1.0), 0.3)
    np.testing.assert_allclose(out.values, 2.5, rtol=1e-14)


def test_etd_underflowed_modes_are_tolerated():
    # huge dt*D: high modes underflow to +0 but the step stays valid
    from rdsplit.diffusion import _etd_multipliers

    g = Grid(dim=1, n0=128)
    mult = _etd_multipliers(g, 1.0, 50.0)
    assert mult.ravel()[0] == 1.0
    assert mult.min() == 0.0
    rho = Field(g, 1.0 + 0.5 * np.sin(2 * np.pi * g.axis_centers(0)))
    out = etd_step(rho, DiffusionLaw.constant(1.0), 50.0)
    np.testing.assert_allclose(out.values, 1.0, rtol=1e-12)


@pytest.mark.filterwarnings("error")
def test_etd_whose_dt_d_overflows_gives_the_mean_field():
    """dt D = 1e309 is past the double range: the zero mode's multiplier stays
    exactly 1 (inf * 0 used to make it NaN) and every other one is 0."""
    from rdsplit.diffusion import _etd_multipliers
    from rdsplit.harness import ring_profiles

    g = Grid(dim=2, n0=8, lower=-1.0, upper=1.0)
    mult = _etd_multipliers(g, 1e308, 10.0)
    assert mult.ravel()[0] == 1.0 and not mult.ravel()[1:].any()
    rho, _ = ring_profiles(g)
    out = etd_step(rho, DiffusionLaw.constant(1e308), 10.0)
    np.testing.assert_allclose(out.values, rho.values.mean(), rtol=1e-15)


def test_etd_step_rejects_wrong_inputs():
    g = Grid(dim=1, n0=4)
    rho = Field.constant(g, 1.0)
    with pytest.raises(InvalidInput):
        etd_step(rho, DiffusionLaw.power(0.1, 2), 0.1)
    with pytest.raises(PositivityViolation):
        etd_step(Field(g, [1.0, -1.0, 1.0, 1.0] + np.array([0.0, 0.9, 0.0, 0.0])),
                 DiffusionLaw.constant(0.1), 0.1)
    with pytest.raises(InvalidInput):
        etd_step(rho, DiffusionLaw.constant(-1.0), 0.1)
    for dt in BAD_DT:
        with pytest.raises(InvalidInput, match="dt must be positive and finite"):
            etd_step(rho, DiffusionLaw.constant(1.0), dt)


def test_etd_step_takes_a_linear_power_law():
    rho = _positive_field(np.random.default_rng(36), Grid(dim=2, n0=8))
    np.testing.assert_array_equal(etd_step(rho, DiffusionLaw.power(0.2, 1), 0.1).values,
                                  etd_step(rho, DiffusionLaw.constant(0.2), 0.1).values)


def test_etd_semigroup_property():
    """Two half steps equal one full step, to roundoff."""
    rng = np.random.default_rng(13)
    g = Grid(dim=1, n0=32)
    law = DiffusionLaw.constant(0.4)
    rho = _positive_field(rng, g)
    once = etd_step(rho, law, 0.2)
    twice = etd_step(etd_step(rho, law, 0.1), law, 0.1)
    np.testing.assert_allclose(twice.values, once.values, rtol=1e-13)


# ---------------------------------------------------------------- predictor


def test_predictor_matches_dense_backward_euler():
    rng = np.random.default_rng(16)
    g = Grid(dim=1, n0=12)
    rho = _positive_field(rng, g)
    law = DiffusionLaw.constant(0.5)
    dt = 0.04
    # constant coefficient: avg(D) = D on every face, dense solve is easy
    A = np.eye(g.n_cells) / dt - 0.5 * _dense_laplacian(g)
    expected = np.linalg.solve(A, rho.values / dt)
    got = semi_implicit_predictor(rho, law, dt)
    np.testing.assert_allclose(got.values, expected, rtol=1e-12)

    # variable coefficient in 2D: the FFT preconditioner is no longer exact,
    # so the conjugate gradient iteration does the work
    g = Grid(dim=2, n0=8, lower=-1.0, upper=1.0)
    rho = _positive_field(rng, g, low=0.05, high=3.0)
    law = DiffusionLaw.power(0.3, 3)
    dt = 0.1
    coeff = Field(g, law.coefficient(rho.values))
    faces = [average_to_faces(coeff, ax) for ax in range(2)]
    A = np.eye(g.n_cells) / dt - _dense(g, lambda f: weighted_divgrad(faces, f))
    expected = np.linalg.solve(A, rho.values.ravel() / dt)
    got = semi_implicit_predictor(rho, law, dt)
    np.testing.assert_allclose(got.values.ravel(), expected, rtol=1e-10)


def test_predictor_positive_and_conservative():
    rng = np.random.default_rng(18)
    for _ in range(20):
        g = Grid(dim=2, n0=10, lower=-1.0, upper=1.0)
        rho = _positive_field(rng, g, low=1e-3, high=4.0)
        law = DiffusionLaw.power(float(rng.uniform(0.05, 0.5)), int(rng.integers(1, 4)))
        out = semi_implicit_predictor(rho, law, float(rng.uniform(1e-3, 0.3)))
        assert out.min() > 0
        rel = abs(np.sum(out.values) - np.sum(rho.values)) / np.sum(rho.values)
        assert rel <= 1e-11


# ---------------------------------------------------------------- nonlinear CN


def test_cn_structure_random_sweep():
    """Positivity, relative mass conservation, energy dissipation."""
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        g = Grid(dim=dim, n0=12 if dim == 2 else 40, lower=-1.0, upper=1.0)
        rho = _positive_field(rng, g, low=0.05, high=3.0)
        law = DiffusionLaw.power(float(rng.uniform(0.05, 0.4)), int(rng.integers(1, 4)))
        cases.append((rho, law, float(rng.uniform(5e-4, 0.1))))
    # a bump on a near-vacuum: face mobilities span ~15 decades
    for dim, n0 in ((1, 64), (2, 32)):
        g = Grid(dim=dim, n0=n0, lower=-1.0, upper=1.0)
        rho = Field(g, 1e-6 + 3.0 * np.exp(-10.0 * sum(c ** 2 for c in g.centers())))
        cases += [(rho, DiffusionLaw.power(0.2, 3), dt) for dt in (1e-3, 0.1, 10.0)]
    # Newton must stop at the roundoff floor of dt div(M grad mu): mu ~ 0.57
    # here is a sum of terms of size ~150, so a residual of 3e-10 is out of reach
    g = Grid(dim=1, n0=96, lower=-1.0, upper=1.0)
    rho = Field(g, 1e-6 + 3.0 * np.exp(-10.0 * g.axis_centers(0) ** 2))
    cases.append((rho, DiffusionLaw.power(1.0, 3), 10.0))
    # a plateau on floors far below 1: G1 must stay exact where |x - rho_n| >> rho_n
    g = Grid(dim=1, n0=128, lower=-1.0, upper=1.0)
    for floor in (1e-8, 1e-10, 1e-12):
        rho = Field(g, floor + (np.abs(g.axis_centers(0)) < 0.3))
        cases += [(rho, DiffusionLaw.power(1.0, 2), dt) for dt in (1e-5, 1e-3)]
    for rho, law, dt in cases:
        out = nonlinear_cn_step(rho, law, dt)
        assert out.min() > 0
        rel = abs(np.sum(out.values) - np.sum(rho.values)) / np.sum(rho.values)
        assert rel <= 1e-11
        assert diffusion_energy(out) <= diffusion_energy(rho) + 1e-12 * abs(diffusion_energy(rho))


def test_cn_step_on_fields_spanning_twenty_decades_solves_or_raises_typed_errors():
    """One CN step per draw, values log-uniform from 1e-20 to 1: a positive field
    that keeps mass and does not raise the energy, or an RdsplitError that is not
    the predictor's (CG's iterate is not positive in 27 of these draws). A line
    search of step halvings takes 6.85 Newton updates per solved draw."""
    rng = np.random.default_rng(74)
    updates = []
    for _ in range(150):
        dim = int(rng.integers(1, 3))
        n0 = int(rng.integers(2, 9))
        law = DiffusionLaw.power(10 ** rng.uniform(-3, 3), rng.uniform(1.5, 4))
        dt = 10 ** rng.uniform(-6, 2)
        rho = Field(Grid(dim=dim, n0=n0, lower=-1.0, upper=1.0),
                    10 ** rng.uniform(-20, 0, (n0,) * dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out, n_iter = nonlinear_cn_step_counted(rho, law, dt)
            except RdsplitError as e:
                assert "predictor" not in str(e)
                continue
        updates.append(n_iter)
        assert out.min() > 0
        rel = abs(np.sum(out.values) - np.sum(rho.values)) / np.sum(rho.values)
        assert rel <= 1e-12
        assert diffusion_energy(out) <= diffusion_energy(rho) + 1e-12 * abs(diffusion_energy(rho))
    assert len(updates) >= 145
    assert np.mean(updates) <= 4.5


def test_cn_newton_stops_at_its_own_roundoff():
    """The near-vacuum bump solves at every n0 and dt of the sweep.

    At dt = 10, n0 = 256 and 384 reach a residual a little above the per-cell
    roundoff floor and stay there to the last bit; a full step that no
    longer lowers the residual, below the sqrt(eps) cap, ends the solve
    there instead of running into the iteration cap.
    """
    for n0 in (64, 128, 192, 256, 320, 384, 512):
        g = Grid(dim=1, n0=n0, lower=-1.0, upper=1.0)
        rho = Field(g, 1e-6 + 3.0 * np.exp(-10.0 * g.axis_centers(0) ** 2))
        for dt in (0.1, 10.0):
            out, iters = nonlinear_cn_step_counted(rho, DiffusionLaw.power(0.2, 3), dt)
            assert iters <= 10
            assert out.min() > 0
            rel = abs(np.sum(out.values) - np.sum(rho.values)) / np.sum(rho.values)
            assert rel <= 1e-11
            assert (diffusion_energy(out)
                    <= diffusion_energy(rho) + 1e-12 * abs(diffusion_energy(rho)))


def test_cn_linear_case_close_to_etd():
    """alpha_exp=1 CN and the exact propagator agree to the scheme's local order."""
    rng = np.random.default_rng(20)
    g = Grid(dim=1, n0=64, lower=-1.0, upper=1.0)
    rho = Field(g, 1.0 + 0.4 * np.sin(np.pi * g.axis_centers(0)))
    law_cn = DiffusionLaw.power(0.2, 1)
    law_etd = DiffusionLaw.constant(0.2)
    dt = 0.01
    a = nonlinear_cn_step(rho, law_cn, dt)
    b = etd_step(rho, law_etd, dt)
    assert np.max(np.abs(a.values - b.values)) <= 1e-5


def test_cn_constant_field_is_fixed_point():
    cases = [
        (Grid(dim=2, n0=6), 1.7, DiffusionLaw.power(0.1, 2), 0.05),
        # stiff: dt * mobility / h^2 ~ 6e15 amplifies any roundoff in the solves
        (Grid(dim=2, n0=8, lower=-1.0, upper=1.0), 1.0, DiffusionLaw.power(1e6, 4), 1e8),
    ]
    for grid, value, law, dt in cases:
        out = nonlinear_cn_step(Field.constant(grid, value), law, dt)
        np.testing.assert_allclose(out.values, value, rtol=1e-12)


def test_cn_respects_iteration_cap(monkeypatch):
    from rdsplit import diffusion
    from rdsplit.harness import ring_profiles

    # this ring needs 3 Newton updates (test_cn_builds_no_field_inside_its_solver_loops)
    rho, _ = ring_profiles(Grid(dim=2, n0=16, lower=-1.0, upper=1.0))
    monkeypatch.setattr(diffusion, "_NEWTON_MAX_ITER", 2)
    with pytest.raises(NonConvergence, match="Newton stalled at residual") as exc_info:
        nonlinear_cn_step(rho, DiffusionLaw.power(0.2, 2), 0.5)
    assert exc_info.value.iterations == 2


@pytest.mark.filterwarnings("error")
def test_cn_update_that_underflows_raises_positivity_violation():
    """dt * mobility / h^2 ~ 1e16 on a ring: the second update takes a cell so far
    along the log branch that w = exp(delta/x + 1/4) underflows to 0. The 60-halving
    line search stalled here at update 50 with residual 2.7e8."""
    from rdsplit.harness import ring_profiles

    rho, _ = ring_profiles(Grid(dim=2, n0=8, lower=-1.0, upper=1.0))
    with pytest.raises(PositivityViolation, match=r"^nonlinear diffusion Newton drove a cell "
                                                  r"below the doubles at cell \(0, 0\)$"):
        nonlinear_cn_step(rho, DiffusionLaw.power(1e6, 4), 1e8)


@pytest.mark.filterwarnings("error")
def test_cn_whose_mobility_overflows_raises_nonconvergence():
    """D(1e200) = 2e200 is finite, M = D rho is not: a numpy warning used to come
    first, then InvalidInput for a field that is not finite."""
    rho = Field.constant(Grid(dim=1, n0=8), 1e200)
    with pytest.raises(NonConvergence, match="nonlinear diffusion mobility overflows"):
        nonlinear_cn_step(rho, DiffusionLaw.power(1.0, 2), 0.1)


@pytest.mark.filterwarnings("error")
def test_cn_residual_that_is_not_finite_raises_instead_of_converging(monkeypatch):
    """A NaN residual raises at once: ``res > stop`` is false for a NaN, so Newton
    once returned such an iterate as converged. The NaN is put into one cell's
    x ln x slope after the first update."""
    from rdsplit import diffusion
    from rdsplit.harness import ring_profiles

    slope, calls = diffusion._xlnx_slope, []

    def nan_after_first_update(a, d, log_a):
        g1, g2, L = slope(a, d, log_a)
        calls.append(1)
        if len(calls) == 2:
            g1.flat[5] = np.nan
        return g1, g2, L

    monkeypatch.setattr(diffusion, "_xlnx_slope", nan_after_first_update)
    rho, _ = ring_profiles(Grid(dim=2, n0=16, lower=-1.0, upper=1.0))
    with pytest.raises(NonConvergence, match="stalled at residual nan") as exc_info:
        nonlinear_cn_step(rho, DiffusionLaw.power(0.2, 2), 0.5)
    assert exc_info.value.iterations == 1


def test_cn_builds_no_field_inside_its_solver_loops(monkeypatch):
    """CG and the Newton residual run the div-grad kernel on bare arrays: the
    step builds only the predictor's coefficient and result, the mobility and
    its own result (90 Fields when each operator application wrapped one)."""
    from rdsplit.harness import ring_profiles

    rho, _ = ring_profiles(Grid(dim=2, n0=16, lower=-1.0, upper=1.0))
    built = []
    post_init = Field.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Field, "__post_init__", counting)
    _, n_iter = nonlinear_cn_step_counted(rho, DiffusionLaw.power(0.2, 2), 0.5)
    assert n_iter == 3
    assert len(built) <= 4


def test_cn_rejects_nonpositive_input():
    g = Grid(dim=1, n0=4)
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    for dt in BAD_DT:
        for step in (nonlinear_cn_step, semi_implicit_predictor):
            with pytest.raises(InvalidInput, match="dt must be positive and finite"):
                step(Field(g, vals), DiffusionLaw.power(0.1, 2), dt)
    bad = Field(g, vals)
    bad.values = bad.values.copy()
    bad.values[1] = -1.0
    with pytest.raises(PositivityViolation):
        nonlinear_cn_step(bad, DiffusionLaw.power(0.1, 2), 0.1)


def test_diffusion_energy_value():
    g = Grid(dim=1, n0=2)  # h = 1/2
    rho = Field(g, [1.0, np.e])
    # 0.5 * (1*0 + e*1)
    assert diffusion_energy(rho) == pytest.approx(0.5 * np.e, rel=1e-15)


def test_import_leaves_scipy_out():
    import rdsplit

    src = os.path.dirname(os.path.dirname(rdsplit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, rdsplit; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("kernel", ["etd", "cn", "resample", "weighted_divgrad"])
def test_one_d_profile_matches_two_d_field_constant_along_axis_1(kernel):
    """Every grid kernel takes one n-d path; on a 2D field constant along axis 1
    each column must reproduce the 1D result for the same profile."""
    rng = np.random.default_rng(31)
    n0 = 12
    profile = rng.uniform(0.5, 2.0, n0)
    weights = rng.uniform(0.1, 2.0, n0)

    def apply(dim):
        grid = Grid(dim=dim, n0=n0, lower=-1.0, upper=1.0)
        lift = (lambda v: v) if dim == 1 else (lambda v: np.repeat(v[:, None], n0, axis=1))
        f = Field(grid, lift(profile))
        if kernel == "etd":
            return etd_step(f, DiffusionLaw.constant(0.3), 0.05).values
        if kernel == "cn":
            return nonlinear_cn_step(f, DiffusionLaw.power(0.2, 2), 0.05).values
        if kernel == "resample":
            return resample_spectral(f, Grid(dim=dim, n0=7, lower=-1.0, upper=1.0)).values
        faces = [FaceField(grid, ax, lift(weights)) for ax in range(dim)]
        return weighted_divgrad(faces, f).values

    one, two = apply(1), apply(2)
    assert two.shape == (one.size, one.size)
    gap = np.max(np.abs(two - one[:, None])) / np.max(np.abs(one))
    assert gap <= 1e-12
