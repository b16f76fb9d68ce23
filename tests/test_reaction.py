import copy
import math
import pickle
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as hst

from rdsplit import (
    Field,
    Grid,
    InvalidInput,
    NonConvergence,
    PointState,
    PositivityViolation,
    RdsplitError,
    ReactionSpec,
    admissible_interval,
    chemical_affinity,
    energy_difference_quotient,
    point_free_energy,
    predictor_first_order,
    reaction_mobility,
    reaction_stage,
    reaction_step,
)
from rdsplit.reaction import _LOG_MAX, _MAX_ITER, _TOL, reaction_stage_counted


def _random_spec(rng, nsp=None):
    nsp = nsp or int(rng.integers(2, 5))
    alpha = rng.integers(0, 3, nsp).astype(float)
    beta = rng.integers(0, 3, nsp).astype(float)
    if np.array_equal(alpha, beta):
        beta[0] += 1.0
    k_plus = float(rng.uniform(0.2, 3.0))
    k_minus = float(rng.uniform(0.2, 3.0))
    return ReactionSpec(alpha, beta, k_plus, k_minus)


# ---------------------------------------------------------------- spec


def test_spec_validation():
    with pytest.raises(InvalidInput):
        ReactionSpec(alpha=(1.0, -1.0), beta=(0.0, 1.0), k_plus=1.0, k_minus=1.0, U=(0.0, 0.0))
    with pytest.raises(InvalidInput):
        ReactionSpec(alpha=(1.0,), beta=(0.0, 1.0), k_plus=1.0, k_minus=1.0, U=(0.0, 0.0))
    with pytest.raises(InvalidInput):
        ReactionSpec(alpha=(1.0, 0.0), beta=(0.0, 1.0), k_plus=0.0, k_minus=1.0, U=(0.0, 0.0))
    with pytest.raises(InvalidInput):
        ReactionSpec(alpha=(1.0, 0.0), beta=(0.0, 1.0), k_plus=1.0, k_minus=1.0,
                     U=(np.inf, 0.0))
    # with U derived, the shapes are checked before sigma = beta - alpha is formed
    with pytest.raises(InvalidInput, match="equal length"):
        ReactionSpec([1, 2], [0, 1, 2], 1, 1)
    with pytest.raises(InvalidInput, match="at least one species"):
        ReactionSpec([], [], 1.0, 2.0)


@pytest.mark.parametrize("alpha, beta, k_plus, k_minus", [
    ((np.nan, 1.0), (0.0, 2.0), 1.0, 1.0),
    ((1.0, np.inf), (0.0, 2.0), 1.0, 1.0),
    ((1.0, 0.0), (np.nan, 2.0), 1.0, 1.0),
    ((0.0, 1.0), (0.0, np.inf), 1.0, 1.0),
    ((1.0, 0.0), (0.0, 1.0), np.inf, 1.0),
    ((1.0, 0.0), (0.0, 1.0), 1.0, np.inf),
    ((1.0, 0.0), (0.0, 1.0), np.nan, 1.0),
    ((1.0, 0.0), (0.0, 1.0), 1.0, np.nan),
])
def test_spec_rejects_non_finite_parameters(alpha, beta, k_plus, k_minus):
    """Every way to build a spec refuses at once; a NaN coefficient used to reach the
    stage and spend 100 iterations there, an infinite rate only warned."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="finite"):
            ReactionSpec(alpha, beta, k_plus, k_minus)
        with pytest.raises(InvalidInput, match="finite"):
            ReactionSpec(alpha, beta, k_plus, k_minus)
        with pytest.raises(InvalidInput, match="finite"):
            ReactionSpec(alpha, beta, k_plus, k_minus, U=(0.0, 0.0))


@pytest.mark.parametrize("alpha, beta, U", [
    ((2.0, 0.0), (0.0, 2.0), (1e308, 1e308)),
    ((1e306,), (0.0,), None),  # U derived: 0, but sigma ln c overflows below c ~ 1e-78
])
def test_spec_rejects_energies_whose_affinities_can_overflow(alpha, beta, U):
    """sum_i |sigma_i| (|U_i| + 750) must stay below the largest double; the first
    spec used to raise numpy's overflow warning in a matmul and, with warnings off,
    gave every cell a NaN affinity and a stage that ended in NonConvergence."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="affinity can overflow"):
            ReactionSpec(alpha, beta, 1.0, 1.0, U=U)
        ReactionSpec((2.0, 0.0), (0.0, 2.0), 1.0, 1.0, U=(1e300, 1e300))  # 4e300 + 3000


def test_spec_warns_when_energies_break_detailed_balance():
    with pytest.warns(UserWarning, match="detailed balance") as record:
        ReactionSpec(alpha=(1.0, 0.0), beta=(0.0, 1.0), k_plus=2.0, k_minus=1.0, U=(0.0, 0.0))
    # the warning names the line that built the spec, not the dataclass __init__
    assert record[0].filename == __file__


def test_reaction_spec_balances_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        spec = _random_spec(rng)
        gap = float(spec.sigma @ spec.U) - math.log(spec.k_minus / spec.k_plus)
        assert abs(gap) <= 1e-12


def test_reaction_spec_two_species_exchange():
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 2.0, 1.0)
    np.testing.assert_allclose(spec.U, [math.log(2.0), 0.0])
    np.testing.assert_array_equal(spec.sigma, [-1.0, 1.0])
    # sigma is formed once, read-only
    assert spec.sigma is spec.sigma
    with pytest.raises(ValueError, match="read-only"):
        spec.sigma[0] = 1.0


def test_spec_is_a_value():
    """The spec copies alpha, beta and U: the caller's arrays cannot change it
    afterwards, and none of its arrays can be written through the spec, nor
    through a copy or an unpickled spec."""
    a, b, u = np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([math.log(2.0), 0.0])
    built = ReactionSpec(a, b, 2.0, 1.0, U=u)
    for spec in (built, ReactionSpec(a, b, 2.0, 1.0), copy.deepcopy(built),
                 pickle.loads(pickle.dumps(built))):
        a[0], b[1], u[0] = 2.0, 3.0, 5.0
        np.testing.assert_array_equal(spec.alpha, [1.0, 0.0])
        np.testing.assert_array_equal(spec.beta, [0.0, 1.0])
        np.testing.assert_array_equal(spec.U, [math.log(2.0), 0.0])
        for arr in (spec.alpha, spec.beta, spec.U, spec.sigma):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        a[0], b[1], u[0] = 1.0, 1.0, math.log(2.0)


def test_reaction_spec_one_sided():
    # A <-> 2A: everything rides on the single species
    spec = ReactionSpec((1.0,), (2.0,), 3.0, 0.5)
    assert abs(float(spec.sigma @ spec.U) - math.log(0.5 / 3.0)) <= 1e-15
    consumed = ReactionSpec((2.0,), (1.0,), 3.0, 0.5)  # 2A <-> A: the other side
    assert abs(float(consumed.sigma @ consumed.U) - math.log(0.5 / 3.0)) <= 1e-15


def test_reaction_spec_null_reaction():
    spec = ReactionSpec((1.0, 1.0), (1.0, 1.0), 0.7, 0.7)
    assert not spec.sigma.any()
    np.testing.assert_array_equal(spec.U, [0.0, 0.0])
    with pytest.raises(InvalidInput, match="requires k_plus == k_minus"):
        ReactionSpec((1.0,), (1.0,), 1.0, 2.0)


@pytest.mark.parametrize("alpha, beta, k_plus, k_minus", [
    ((1.0, 0.0), (0.0, 2.0), 5e211, 3e-165),
    ((1.0,), (2.0,), 1e200, 1e-200),  # one-sided: the whole log ratio on one species
])
def test_reaction_spec_survives_an_underflowing_rate_ratio(alpha, beta, k_plus, k_minus):
    """k_minus / k_plus below the smallest double must not turn U into -inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = ReactionSpec(alpha, beta, k_plus, k_minus)
    assert np.all(np.isfinite(spec.U))
    log_ratio = math.log(k_minus) - math.log(k_plus)
    assert abs(float(spec.sigma @ spec.U) - log_ratio) <= 1e-12 * abs(log_ratio)


# ---------------------------------------------------------------- small pieces


_EXCHANGE = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda st: reaction_mobility(st.c0, _EXCHANGE),
    lambda st: point_free_energy(0.0, st, _EXCHANGE),
    lambda st: chemical_affinity(0.0, st, _EXCHANGE),
    lambda st: admissible_interval(st, _EXCHANGE, 0.1),
    lambda st: energy_difference_quotient(0.0, 0.0, st, _EXCHANGE),
    lambda st: predictor_first_order(st, _EXCHANGE, 0.1),
    lambda st: reaction_step(st, _EXCHANGE, 0.1),
], ids=["mobility", "free_energy", "affinity", "interval", "quotient", "predictor", "step"])
@pytest.mark.parametrize("c0", [[1.0], [1.0, 1.0, 1.0]], ids=["too few", "too many"])
def test_point_functions_check_the_species_count(call, c0):
    """One concentration used to give a predictor of -0.0, an interval and a
    'bracket collapsed'; three a bare numpy ValueError."""
    with pytest.raises(InvalidInput, match=f"expected 2 concentrations, got {len(c0)}"):
        call(PointState(c0))


def test_point_state_requires_positive_concentrations():
    with pytest.raises(PositivityViolation):
        PointState(c0=np.array([1.0, 0.0]))
    with pytest.raises(PositivityViolation):
        PointState(c0=np.array([1.0, -0.2]))


def test_mobility_value():
    spec = ReactionSpec((1.0, 2.0), (0.0, 3.0), 1.0, 0.1)
    # eta = k_minus * u^0 * v^3
    assert reaction_mobility([1.0, 2.0], spec) == pytest.approx(0.8, rel=1e-15)
    with pytest.raises(PositivityViolation):
        reaction_mobility([1.0, 0.0], spec)


def test_admissible_interval_values():
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([0.3, 0.7]))
    lo, hi = admissible_interval(st, spec, eta_dt=0.05)
    # sigma = (-1, 1): hi caps at c0[0], lo at max(-eta_dt, -c0[1])
    assert hi == pytest.approx(0.3)
    assert lo == pytest.approx(-0.05)
    lo2, _ = admissible_interval(st, spec, eta_dt=5.0)
    assert lo2 == pytest.approx(-0.7)


def test_admissible_interval_unbounded_above():
    spec = ReactionSpec((1.0,), (2.0,), 1.0, 1.0)  # sigma = (+1)
    lo, hi = admissible_interval(PointState(c0=np.array([2.0])), spec, eta_dt=0.1)
    assert hi == math.inf
    assert lo == pytest.approx(-0.1)


def test_affinity_is_free_energy_derivative():
    rng = np.random.default_rng(21)
    for _ in range(20):
        spec = _random_spec(rng)
        st = PointState(c0=rng.uniform(0.5, 2.0, spec.n_species))
        R = float(rng.uniform(-0.01, 0.01))
        eps = 1e-6
        fd = (point_free_energy(R + eps, st, spec) - point_free_energy(R - eps, st, spec)) / (2 * eps)
        assert chemical_affinity(R, st, spec) == pytest.approx(fd, abs=1e-7)


def test_difference_quotient_oracle_value():
    """phi(p, 0) against 50-digit references, sigma = (-1, 1) and (-1/2, 1/2), U = 0."""
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([1.0, 1.0]))
    val = energy_difference_quotient(0.2, 0.0, st, spec)
    assert val == pytest.approx(0.20135513550688873, abs=1e-15)
    # a trace species, c0 = 1e-12, crossed by a step far larger than itself
    st = PointState(c0=np.array([1.0, 1e-12]))
    assert energy_difference_quotient(1e-9, 0.0, st, spec) == pytest.approx(
        -21.71535758133401, rel=1e-14)
    half = ReactionSpec((0.5, 0.0), (0.0, 0.5), 1.0, 1.0)
    assert energy_difference_quotient(1.5e-8, 0.0, st, half) == pytest.approx(
        -9.853519891329524, rel=1e-14)


def test_difference_quotient_matches_raw_quotient():
    rng = np.random.default_rng(2)
    for _ in range(200):
        spec = _random_spec(rng)
        st = PointState(c0=rng.uniform(0.3, 2.5, spec.n_species))
        lo, hi = admissible_interval(st, spec, eta_dt=1e3)
        hi = min(hi, 1.0)
        p = float(rng.uniform(0.2 * hi, 0.8 * hi))
        q = float(rng.uniform(lo * 0.5, 0.1 * hi))
        if abs(p - q) < 1e-6:
            continue
        raw = (point_free_energy(p, st, spec) - point_free_energy(q, st, spec)) / (p - q)
        assert energy_difference_quotient(p, q, st, spec) == pytest.approx(raw, abs=1e-9, rel=1e-9)


def test_difference_quotient_coincidence_limit():
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([1.0, 0.5]))
    p = 0.1
    assert energy_difference_quotient(p, p, st, spec) == pytest.approx(
        chemical_affinity(p, st, spec), rel=1e-14)
    # inside the kernel's series band |d| <= 1e-6 c: no cancellation blowup
    q = p + 1e-10
    assert energy_difference_quotient(p, q, st, spec) == pytest.approx(
        chemical_affinity((p + q) / 2, st, spec), rel=1e-12)


def test_difference_quotient_rejects_outside_points():
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([0.3, 0.7]))
    with pytest.raises(PositivityViolation):
        energy_difference_quotient(0.5, 0.0, st, spec)  # c1(0.5) < 0


@pytest.mark.parametrize("call", [
    lambda: PointState([math.nan, 1.0]),
    lambda: PointState([1.0, math.inf]),
    lambda: reaction_mobility([math.nan, 1.0], _EXCHANGE),
    lambda: reaction_mobility([1.0, -0.0], _EXCHANGE),
    lambda: point_free_energy(math.nan, PointState([1.0, 1.0]), _EXCHANGE),
    lambda: chemical_affinity(2.0, PointState([1.0, 1.0]), _EXCHANGE),
], ids=["state_nan", "state_inf", "mobility_nan", "mobility_zero", "free_energy_nan_R",
        "affinity_outside"])
def test_point_functions_refuse_points_outside_the_open_orthant(call):
    """One rule for every point, NaN included: reaction_mobility([nan, 1]) used to
    return 1.0, point_free_energy(nan) NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RdsplitError, match="must be (finite and strictly positive|finite)"):
            call()


def test_difference_quotient_that_rounds_away_a_concentration_raises():
    """c(q) = 8.5e8 absorbs c0 = 2.4e-10, so d/c(q) rounds to -1 and the kernel
    sees c(p) = 0: math.log1p used to raise ValueError. In doubles the quotient
    is NaN, which is raised as InvalidInput."""
    st = PointState([1.7e308, 2.3638417300521637e-10])
    spec = ReactionSpec([1, 0], [0, 1], 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="difference quotient is not finite"):
            energy_difference_quotient(9.344771704734177e-10, 854265525.439752, st, spec)


def test_free_energy_that_overflows_raises_invalid_input():
    """c (ln c - 1 + U) at c = 1.7e308 overflows; numpy used to warn and return inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="free energy is not finite"):
            point_free_energy(0.0, PointState([1.7e308, 1.0]), ReactionSpec([1, 0], [0, 1], 2, 1))


def test_mobility_that_overflows_raises_invalid_input():
    """(1.7e308)^3 overflows; numpy used to warn and return inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="mobility is not finite"):
            reaction_mobility([1.0, 1.7e308], ReactionSpec([1, 2], [0, 3], 1, 0.1))


# ---------------------------------------------------------------- stepping


def test_frozen_step_oracles():
    """Predictor and corrector against 50-digit references, cubic chemistry at (1,1)."""
    spec = ReactionSpec((1.0, 2.0), (0.0, 3.0), 1.0, 0.1)
    st = PointState(c0=np.array([1.0, 1.0]))
    assert predictor_first_order(st, spec, 0.1) == pytest.approx(
        0.075892225344392717, abs=1e-14)
    assert reaction_step(st, spec, 0.1) == pytest.approx(
        0.089263721369730867, abs=1e-14)


def test_step_null_reaction_returns_zero():
    spec = ReactionSpec((1.0,), (1.0,), 1.0, 1.0)
    st = PointState(c0=np.array([0.4]))
    assert reaction_step(st, spec, 0.3) == 0.0
    assert predictor_first_order(st, spec, 0.3) == 0.0


def test_step_properties_random_sweep():
    """Positivity, free-energy decrease, equilibrium fixed point; many random configs."""
    rng = np.random.default_rng(42)
    for _ in range(300):
        spec = _random_spec(rng)
        st = PointState(c0=rng.uniform(0.02, 4.0, spec.n_species))
        dt = float(10.0 ** rng.uniform(-4, 0.5))
        R = reaction_step(st, spec, dt)
        c_new = st.c0 + spec.sigma * R
        assert np.all(c_new > 0)
        assert point_free_energy(R, st, spec) <= point_free_energy(0.0, st, spec) + 1e-12
        lo, hi = admissible_interval(st, spec, reaction_mobility(st.c0, spec) * dt)
        # root moves toward equilibrium: sign(R) == -sign(affinity at 0)
        aff0 = chemical_affinity(0.0, st, spec)
        if abs(aff0) > 1e-10:
            assert R * aff0 <= 0.0
        assert R > -hi or True  # interval is open; bounds checked via positivity above


def test_equilibrium_is_a_fixed_point():
    # exchange with k+ = k- = 1 and U = 0 equilibrates at c1 == c2
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([0.8, 0.8]))
    assert abs(reaction_step(st, spec, 0.5)) <= 1e-13


def test_step_respects_tight_tolerance():
    cases = [(ReactionSpec((1.0, 2.0), (0.0, 3.0), 1.0, 0.1), (1.0, 1.0), 0.1)]
    # fractional stoichiometry on a trace species: the root sits at |sigma R| >> c0[1]
    half = ReactionSpec((0.5, 0.0), (0.0, 0.5), 1.0, 1.0)
    cases += [(half, (1.0, 1e-12), dt) for dt in (3e-8, 1e-6)]
    for spec, c0, dt in cases:
        st = PointState(c0=np.array(c0))
        R = reaction_step(st, spec, dt)
        # recompute the corrector residual at the root; must be within tolerance
        Rhat = predictor_first_order(st, spec, dt)
        eta_star = reaction_mobility(st.c0 + spec.sigma * (Rhat / 2), spec)
        g = (math.log1p(R / (eta_star * dt))
             + energy_difference_quotient(R, 0.0, st, spec)
             + dt * float(spec.sigma @ (np.log(st.c0 + spec.sigma * R) - np.log(st.c0))))
        assert abs(g) <= 1e-12
        assert point_free_energy(R, st, spec) <= point_free_energy(0.0, st, spec)


def test_step_rejects_bad_dt():
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput):
        reaction_step(st, spec, 0.0)
    with pytest.raises(InvalidInput):
        reaction_step(st, spec, -0.1)
    with pytest.raises(InvalidInput):
        reaction_step(st, spec, math.inf)


def test_scalar_and_vector_paths_agree():
    """reaction_step (scalar internals) against reaction_stage (vectorized) per cell.

    The scalar twin runs the vector algorithm on floats. On these moderate
    draws (c0 in [0.05, 3]) both make the same predictor and corrector
    iterations in every cell; on extreme inputs they need not (next test).
    """
    from rdsplit.reaction import _scalar_stage, _solve_stage

    rng = np.random.default_rng(17)
    g = Grid(dim=1, n0=16)
    for _ in range(10):
        spec = _random_spec(rng)
        vals = rng.uniform(0.05, 3.0, (spec.n_species, g.n0))
        fields = [Field(g, vals[i]) for i in range(spec.n_species)]
        dt = float(10.0 ** rng.uniform(-3, -0.5))
        staged = reaction_stage(fields, spec, dt)
        _, it_pred, it_corr = _solve_stage(vals, spec, dt)
        for cell in range(g.n0):
            st = PointState(c0=vals[:, cell])
            R = reaction_step(st, spec, dt)
            c_cell = np.array([staged[i].values[cell] for i in range(spec.n_species)])
            np.testing.assert_allclose(c_cell, vals[:, cell] + spec.sigma * R,
                                       rtol=1e-11, atol=1e-13)
            _, pred, corr = _scalar_stage(vals[:, cell].tolist(), spec, dt)
            assert (pred, corr) == (it_pred[cell], it_corr[cell])


def test_scalar_and_vector_paths_agree_on_extreme_point_steps():
    """The scalar twin against a one-cell vector stage on a seeded slice of the
    random point-step recipe (c0 down to 1e-12, dt down to 1e-9): both solve,
    R to 1e-10 relative, or both raise the same RdsplitError subclass.

    Iterations are not compared: at roots next to a bracket end the two paths
    can take different updates, up to 46 more on one of them (seeds 0-3 of the
    recipe: 69 of 14 606 solved draws). numpy's vector log/exp/expm1/log1p
    round differently from math's on a few percent of arguments, so R is not
    bitwise equal either.
    """
    from rdsplit.reaction import _scalar_stage, _solve_stage

    def outcome(solve):
        try:
            return solve()
        except RdsplitError as e:
            return type(e)

    rng = np.random.default_rng(10)
    solved = raised = 0
    for _ in range(400):
        case = _recipe_case(rng)
        if case is None:
            continue
        spec, c0, dt = case
        scalar = outcome(lambda: _scalar_stage(c0.tolist(), spec, dt))
        vector = outcome(lambda: _solve_stage(c0[:, None], spec, dt))
        if isinstance(scalar, type) or isinstance(vector, type):
            assert scalar is vector, (spec, c0, dt)
            raised += 1
            continue
        solved += 1
        assert scalar[0] == pytest.approx(vector[0][0], rel=1e-10, abs=1e-300), (spec, c0, dt)
    assert solved > 300 and raised > 0


def test_point_step_whose_slope_denominator_underflows_fails_like_the_stage():
    """The corrector's iterates R ~ 1e-322 give the c0 = 1e-320 species t = d/a
    near 0.03 and a product t d that underflows to 0: the scalar x ln x slope
    used to raise ZeroDivisionError there, where the vector kernel's G2 is inf
    and the one-cell stage raises NonConvergence."""
    from rdsplit.reaction import _scalar_stage, _solve_stage

    spec = ReactionSpec([0.5, 0, 1], [0, 2, 0], 1.3, 0.7)
    c0 = [467655416019.09296, 1e-320, 4570542224.10495]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in (lambda: reaction_step(PointState(c0), spec, 1e3),
                      lambda: _scalar_stage(c0, spec, 1e3),
                      lambda: _solve_stage(np.array(c0)[:, None], spec, 1e3)):
            with pytest.raises(NonConvergence):
                solve()


@pytest.mark.parametrize("tiny", [1e-110, 1e-170])
@pytest.mark.parametrize("alpha, beta", [((0.0,), (1.0,)), ((1.0, 0.0), (0.0, 1.0))])
def test_stage_solves_a_species_whose_sigma_powers_underflow(alpha, beta, tiny):
    """sigma^3 underflows to 0 below sigma ~ 1e-108, sigma^2 below ~ 1e-162; a
    species with beta = tiny still reacts, and both paths solve the stage alike,
    also where it is the only species that reacts."""
    from rdsplit.reaction import _scalar_stage, _solve_stage

    spec = ReactionSpec(alpha, np.array(beta) * tiny, 0.7, 1.3)
    vals = np.array([[0.5, 1.0, 2.0]] * spec.n_species)
    g = Grid(dim=1, n0=3)
    staged = reaction_stage([Field(g, v) for v in vals], spec, 0.1)
    R, it_pred, it_corr = _solve_stage(vals, spec, 0.1)
    for cell in range(g.n0):
        c0 = vals[:, cell]
        assert [f.values[cell] for f in staged] == (c0 + spec.sigma * R[cell]).tolist()
        R_step, pred, corr = _scalar_stage(c0.tolist(), spec, 0.1)
        assert R_step == pytest.approx(R[cell], rel=1e-11, abs=1e-300)
        assert (pred, corr) == (it_pred[cell], it_corr[cell])


def test_stage_conserves_orthogonal_invariants():
    rng = np.random.default_rng(8)
    g = Grid(dim=2, n0=6)
    spec = ReactionSpec((1.0, 2.0), (0.0, 3.0), 1.0, 0.1)
    fields = [Field(g, rng.uniform(0.2, 2.0, g.shape)) for _ in range(2)]
    out = reaction_stage(fields, spec, 0.05)
    # sigma = (-1, 1): u + v is pointwise invariant
    np.testing.assert_allclose(out[0].values + out[1].values,
                               fields[0].values + fields[1].values, rtol=1e-14)


def test_stage_counts_and_validation():
    g = Grid(dim=1, n0=4)
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    fields = [Field.constant(g, 1.0), Field.constant(g, 0.5)]
    out, iters = reaction_stage_counted(fields, spec, 0.1)
    assert iters > 0
    with pytest.raises(InvalidInput):
        reaction_stage([fields[0]], spec, 0.1)
    with pytest.raises(InvalidInput):
        reaction_stage(fields, spec, -1.0)
    mixed = [fields[0], Field.constant(Grid(dim=1, n0=8), 0.5)]
    with pytest.raises(InvalidInput):
        reaction_stage(mixed, spec, 0.1)


def test_null_reaction_stage_returns_copies_without_iterating():
    rng = np.random.default_rng(61)
    g = Grid(dim=2, n0=3)
    spec = ReactionSpec((1.0, 2.0), (1.0, 2.0), 1.0, 1.0)  # sigma = 0
    fields = [Field(g, rng.uniform(0.5, 2.0, g.shape)) for _ in range(2)]
    out, iters = reaction_stage_counted(fields, spec, 0.1)
    assert iters == 0.0 and isinstance(iters, float)
    for f, o in zip(fields, out):
        assert o.grid == g and not np.shares_memory(o.values, f.values)
        np.testing.assert_array_equal(o.values, f.values)


@pytest.mark.parametrize("spec", [
    ReactionSpec((1.0, 0.0), (0.0, 1.0), 1.0, 1.0),
    ReactionSpec((1.0, 2.0), (1.0, 2.0), 1.0, 1.0),
], ids=["exchange", "null reaction"])
def test_stage_names_the_first_nonpositive_entry_cell(spec):
    g = Grid(dim=2, n0=3)
    fields = [Field.constant(g, 1.0), Field.constant(g, 0.5)]
    fields[1].values[2, 1] = 0.0
    fields[0].values[2, 2] = -1.0
    with pytest.raises(PositivityViolation,
                       match=re.escape("entering reaction stage at cell (2, 1)")):
        reaction_stage_counted(fields, spec, 0.1)


def test_predictor_large_dt_lands_near_equilibrium():
    """dt -> inf drives the predictor residual to the affinity root."""
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 2.0, 1.0)
    st = PointState(c0=np.array([1.0, 0.5]))
    Rhat = predictor_first_order(st, spec, 1e8)
    c = st.c0 + spec.sigma * Rhat
    # equilibrium of c1 <-> c2 with k+=2, k-=1: c2/c1 = 2, total 1.5
    np.testing.assert_allclose(c, [0.5, 1.0], rtol=1e-4)


def test_repeated_steps_relax_to_equilibrium():
    spec = ReactionSpec((1.0, 0.0), (0.0, 1.0), 2.0, 1.0)
    c = np.array([1.0, 0.5])
    for _ in range(400):
        st = PointState(c0=c)
        c = c + spec.sigma * reaction_step(st, spec, 0.05)
    np.testing.assert_allclose(c, [0.5, 1.0], rtol=1e-10)


def test_quench_limit_raises_instead_of_accepting_bad_residual(monkeypatch):
    """A step that drives a species into the last float ulp above zero fails loudly.

    For this production-only chemistry the corrector root sits closer to the
    positivity boundary than adjacent doubles can resolve: the residual jumps
    by ~1e-3 between neighbouring floats there, so no representable R meets
    the tolerance. The solver must refuse (keeping its residual guarantee for
    accepted steps) rather than return a state pinned at c = 0. Halving dt
    moves the root back into representable territory. Both paths give up
    when the bracket collapses, after the same Newton updates, and report
    the last finite residual: some evaluations land outside the orthant,
    where the residual counts as infinite. Of the vector path's corrector
    evaluations, one is the start guess.
    """
    import rdsplit.reaction as rx

    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return slope(*args)

    slope = rx._xlnx_slope
    monkeypatch.setattr(rx, "_xlnx_slope", counting)
    spec = ReactionSpec((0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 2.0, 2.0), 0.7252, 2.4492)
    c0 = np.array([3.114, 2.4267, 2.7336, 2.384])
    g = Grid(dim=1, n0=1)
    iterations = []
    for solve in (lambda: reaction_step(PointState(c0), spec, 0.02),
                  lambda: reaction_stage([Field.constant(g, c) for c in c0], spec, 0.02)):
        with pytest.raises(NonConvergence, match="bracket collapsed") as exc_info:
            solve()
        assert 1e-12 < exc_info.value.residual < math.inf
        iterations.append(exc_info.value.iterations)
    assert iterations == [51, 51]
    assert calls == 52
    R = reaction_step(PointState(c0), spec, 0.01)
    assert (c0 + spec.sigma * R).min() > 0.3


def test_stage_result_does_not_depend_on_the_block_split(monkeypatch):
    """Fields and mean iterations are bitwise the same for any block size.

    Non-integer stoichiometry makes the rounding of sum_i beta_i ln c_i show:
    a BLAS matmul there gives per-cell results that depend on the block width.
    """
    import rdsplit.reaction as rx

    rng = np.random.default_rng(23)
    solved = 0
    for _ in range(40):
        nsp = int(rng.integers(1, 5))
        alpha, beta = rng.uniform(0.0, 3.0, (2, nsp)) * (rng.random((2, nsp)) < 0.7)
        if np.array_equal(alpha, beta):
            beta[0] += 1.0
        spec = ReactionSpec(alpha, beta, float(rng.uniform(0.2, 3.0)),
                            float(rng.uniform(0.2, 3.0)))
        g = Grid(dim=1, n0=int(rng.integers(33, 401)))
        vals = 10.0 ** rng.uniform(-8.0, math.log10(3.0), (spec.n_species, g.n0))
        fields = [Field(g, v) for v in vals]
        dt = float(10.0 ** rng.uniform(-4.0, 0.0))
        # one-cell blocks (slow) on 3-4 species, where einsum once grouped a one-cell sum pairwise
        blocks = (g.n0, 16, 32, g.n0 - 1) + ((1,) if nsp >= 3 else ())
        results = []
        for block in blocks:
            monkeypatch.setattr(rx, "_BLOCK", block)
            try:
                results.append(reaction_stage_counted(fields, spec, dt))
            except NonConvergence:
                results.append(None)
        if results[0] is None:
            assert results == [None] * len(blocks)
            continue
        solved += 1
        ref, ref_iters = results[0]
        for out, iters in results[1:]:
            for f, f_ref in zip(out, ref):
                np.testing.assert_array_equal(f.values, f_ref.values)
            assert iters == ref_iters
    assert solved >= 30


def test_stage_failure_names_the_global_cell(monkeypatch):
    """A failure in a later block reports its cell by its index in the whole grid.

    The quench input of the test above, at cell 7 of a 10-cell grid of ones
    split into blocks of at most 3 cells, fails as it does alone.
    """
    import rdsplit.reaction as rx

    monkeypatch.setattr(rx, "_BLOCK", 3)
    spec = ReactionSpec((0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 2.0, 2.0), 0.7252, 2.4492)
    vals = np.ones((4, 10))
    vals[:, 7] = [3.114, 2.4267, 2.7336, 2.384]
    g = Grid(dim=1, n0=10)
    with pytest.raises(NonConvergence, match=r"1 cell\(s\) bracket collapsed to adjacent "
                       r"floats, first at flat index 7$") as exc_info:
        reaction_stage([Field(g, v) for v in vals], spec, 0.02)
    assert exc_info.value.iterations == 51


# ---------------------------------------------------------------- in-place stage oracle
#
# The vector stage solver as it was before its Newton arrays moved into one
# workspace written in place, copied verbatim: the reference the in-place
# solver must reproduce bit for bit. Its names shadow nothing this module
# imports; _TOL, _MAX_ITER and _LOG_MAX come from rdsplit.reaction.


def _xlnx_slope(a, d, log_a):
    """Slope of x ln x between a and x = a + d, its d-derivative, and log1p(d/a).

    Returns ``(G1, G2, L)`` with ``L = log1p(d/a)``,
    ``G1 = (x ln x - a ln a)/d = ln a + (x/d) L`` and
    ``G2 = dG1/dd = (t - L)/(t d)`` with ``t = d/a``, free of cancellation
    and of the underflow of ``d^2``; ``log_a`` is ``ln a``, which callers
    hoist. All arguments have one shape. Where ``|t| <= 1e-6`` the series
    ``G1 = ln a + 1 + t/2 - t^2/6`` and ``G2 = (1/2 - t/3 + t^2/4)/a``
    overwrites the closed form, which is 0/0 at d = 0.
    """
    t = d / a
    L = np.log1p(t)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g1 = log_a + ((a + d) / d) * L
        g2 = (t - L) / (t * d)
    small = np.abs(t) <= 1e-6
    ts = t[small]
    g1[small] = log_a[small] + 1.0 + ts * (0.5 - ts / 6.0)
    g2[small] = (0.5 - ts * (1.0 / 3.0 - 0.25 * ts)) / a[small]
    return g1, g2, L


def _species_sum(w, x):
    """``sum_i w_i x_i`` per column of x, in the scalar path's order.

    Unlike a BLAS matmul, no cell's value depends on the block it is solved in.
    """
    tot = np.zeros(x.shape[1])
    for wi, xi in zip(w.tolist(), x):
        if wi:
            tot += wi * xi
    return tot


def _solve_stage(c0, spec, dt, first):
    """Predictor + second-order corrector for c0 of shape (nsp, m), column 0 at cell ``first``."""
    sigma, U = spec.sigma, spec.U
    log_c0 = np.log(c0)
    A0 = np.einsum("i,im->m", sigma, log_c0 + U[:, None])
    log_k_dt = math.log(spec.k_minus) + math.log(dt)

    def h_pred(R):
        c = c0 + sigma[:, None] * R[None, :]
        return (np.einsum("i,im->m", sigma, np.log(c) + U[:, None]),
                np.einsum("i,im->m", sigma ** 2, 1.0 / c))

    Rhat, it_pred = _bracketed_newton(h_pred, log_k_dt + _species_sum(spec.beta, log_c0), A0,
                                      0.0, "first-order reaction predictor", first)
    log_eta_star_dt = log_k_dt + _species_sum(
        spec.beta, np.log(c0 + sigma[:, None] * (Rhat / 2.0)[None, :]))
    shift = float(sigma @ (U - 1.0))

    def h_corr(R):
        # phi(R, 0) = sigma.(G1 + U - 1); the dt term sum_i sigma_i ln(c_i/c0_i) = sigma.L
        d = sigma[:, None] * R[None, :]
        g1, g2, L = _xlnx_slope(c0, d, log_c0)
        return (np.einsum("i,im->m", sigma, g1 + dt * L) + shift,
                np.einsum("i,im->m", sigma ** 2, g2 + dt / (c0 + d)))

    R, it_corr = _bracketed_newton(h_corr, log_eta_star_dt, A0, Rhat,
                                   "second-order reaction step", first)
    return R, it_pred, it_corr


def _bracketed_newton(h_fn, log_eta_dt, A0, R0, label, first):
    """Vector root solve of one reaction residual per cell, in y = log1p(R/(eta dt)).

    With ``h_fn(R) -> (h, h')`` the residual is ``g(y) = y + h(R(y))``,
    ``R(y) = eta dt expm1(y)``, and ``g'(y) = 1 + P h'(R)`` with
    ``P = eta dt e^y = dR/dy``. h increases and ``h(0) = A0``, so the root
    lies in ``[min(0, -A0), max(0, -A0)]`` (module docstring). eta dt
    enters as its logarithm and R is ``eta dt expm1(y)`` for y <= 0 and
    ``-P expm1(-y)`` for y > 0, so R comes out 0 only where the root is
    below the smallest double. Where R takes a species to c <= 0, h is not
    finite and g counts as ``copysign(inf, R)``: -inf where a produced
    species runs out, +inf where a consumed one does. The iteration starts
    at ``y(R0)`` where that lies on the bracket, else at 0. Newton steps are
    accepted only strictly inside the current sign-change bracket; anything
    else falls back to bisection, so progress is guaranteed. Converges when
    ``|g| <= _TOL`` and returns R. Raises NonConvergence after ``_MAX_ITER``
    iterations, or as soon as a cell's bracket shrinks to adjacent floats (no
    representable root meets the tolerance there); ``residual`` is then the
    worst last finite |g| and ``iterations`` the Newton updates made. Raises
    it before any evaluation, with no residual, where eta dt overflows.
    Flat indices in messages are offset by ``first``, the grid index of cell 0.
    """
    over = np.flatnonzero(log_eta_dt > _LOG_MAX)
    if over.size:
        raise NonConvergence(f"{label}: eta dt overflows in {over.size} cell(s), "
                             f"first at flat index {first + int(over[0])}", iterations=0)
    eta_dt = np.exp(log_eta_dt)

    def evaluate(y):
        P = np.exp(log_eta_dt + y)
        R = np.where(y > 0, -P, eta_dt) * np.expm1(-np.abs(y))
        h, hp = h_fn(R)
        g = y + h
        return R, np.where(np.isfinite(g), g, np.copysign(np.inf, R)), 1.0 + P * hp

    a, b = np.minimum(0.0, -A0), np.maximum(0.0, -A0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y = np.log1p(R0 / eta_dt)
        y = np.where((y >= a) & (y <= b), y, 0.0)
        R, g, gp = evaluate(y)
        res = np.abs(g)
        done = res <= _TOL
        iters = np.zeros(y.shape, dtype=int)
        for it in range(1, _MAX_ITER + 1):
            if done.all():
                break
            gpos = g > 0
            b = np.where(~done & gpos, y, b)
            a = np.where(~done & ~gpos, y, a)
            cand = y - g / gp
            bad = ~np.isfinite(cand) | (cand <= a) | (cand >= b)
            cand = np.where(bad, 0.5 * (a + b), cand)
            collapsed = ~done & ((cand <= a) | (cand >= b))
            if collapsed.any():
                _raise_unconverged(label, "bracket collapsed to adjacent floats", collapsed,
                                   res, it - 1, first)
            # converged cells keep their y, so re-evaluating them changes nothing
            y = np.where(done, y, cand)
            R, g, gp = evaluate(y)
            res = np.where(np.isfinite(g), np.abs(g), res)
            newly = ~done & (res <= _TOL)
            iters[newly] = it
            done |= newly
    if not done.all():
        _raise_unconverged(label, f"not converged after {_MAX_ITER} iterations", ~done, res,
                           _MAX_ITER, first)
    return R, iters


def _raise_unconverged(label, why, failed, res, iterations, first):
    idx = np.flatnonzero(failed)
    raise NonConvergence(
        f"{label}: {idx.size} cell(s) {why}, first at flat index {first + int(idx[0])}",
        residual=float(np.max(res[failed])), iterations=iterations)


def _reference_stage(c0, spec, dt, block):
    """R and the predictor's and corrector's iterations of the reference, in blocks."""
    m = c0.shape[1]
    k = -(-m // block)
    edges = [m * j // k for j in range(k + 1)]
    R, it_pred, it_corr = np.empty(m), np.empty(m, dtype=int), np.empty(m, dtype=int)
    for lo, hi in zip(edges, edges[1:]):
        R[lo:hi], it_pred[lo:hi], it_corr[lo:hi] = _solve_stage(c0[:, lo:hi], spec, dt, lo)
    return R, it_pred, it_corr


def _stage_outcome(solve):
    """The bytes of R and both iteration arrays, or the NonConvergence raised."""
    try:
        R, it_pred, it_corr = solve()
    except NonConvergence as e:
        return str(e), e.iterations, e.residual
    return R.tobytes(), it_pred.tolist(), it_corr.tolist()


def _oracle_case(rng, i):
    """Spec, c0 (nsp, m), dt and block width of the i-th seeded oracle draw.

    Every third spec with two or more species has a species with sigma = 0
    that still enters the mobility; every fourth has k+ = k- = 1, so U = 0
    and the leading cells, all ones, have A0 = 0. Cells 4-7 sit within 1e-9
    of equilibrium, so every species changes by far less than 1e-6 of itself
    there: the series branch.
    """
    nsp = 1 + i % 4
    alpha, beta = rng.choice((0.0, 0.5, 1.0, 2.0, 3.0), (2, nsp))
    if nsp > 1 and i % 3 == 0:
        j = int(rng.integers(nsp))
        alpha[j] = beta[j] = 1.0
    if np.array_equal(alpha, beta):
        beta[(j + 1) % nsp if nsp > 1 and i % 3 == 0 else 0] += 1.0
    k_plus, k_minus = (1.0, 1.0) if i % 4 == 1 else 10.0 ** rng.uniform(-2.0, 2.0, 2)
    spec = ReactionSpec(alpha, beta, k_plus, k_minus)
    m = int(rng.integers(40, 200))
    c0 = 10.0 ** rng.uniform(-6.0, 0.5, (nsp, m))
    c0[:, :4] = 1.0
    c0[:, 4:8] = np.exp(-spec.U)[:, None] * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, (nsp, 4)))
    return spec, c0, float(10.0 ** rng.uniform(-4.0, 0.5)), int(rng.integers(16, m + 1))


def _recipe_case(rng):
    """Spec, c0 of shape (nsp,) and dt of one random point step, or None.

    The recipe: 1-4 species with coefficients in {0, 1/2, 1, 2}, k+- uniform
    in [0.2, 3], c0 log-uniform from 1e-12 to 3 and dt log-uniform from 1e-9
    to 0.1. A draw with alpha == beta is no reaction and gives None.
    """
    nsp = int(rng.integers(1, 5))
    alpha, beta = rng.choice((0.0, 0.5, 1.0, 2.0), (2, nsp))
    k_plus, k_minus = rng.uniform(0.2, 3.0, 2)
    c0 = 10.0 ** rng.uniform(-12.0, math.log10(3.0), nsp)
    dt = float(10.0 ** rng.uniform(-9.0, -1.0))
    if np.array_equal(alpha, beta):
        return None
    return ReactionSpec(alpha, beta, k_plus, k_minus), c0, dt


def test_in_place_stage_matches_the_reference_bitwise(monkeypatch):
    """The workspace solver solves every input the reference solves, R to 1e-10
    relative, in no more iterations per cell on average, and leaves c0 as it
    was; on one-cell grids cut from a solved draw it gives that cell's result
    bit for bit.

    The reference is the solver before the Halley first update; the two round
    R differently. Next to equilibrium, where ``|R| < 0.02 eta* dt``, the stop
    test resolves R more coarsely than 1e-10 relative, and there R may differ
    by that resolution instead: on the pinned number of cells, all of them
    next to equilibrium, where the reference's last Newton update leaves a
    truncation that Halley's does not.

    The draws cover the cases below, counted on the reference.
    An iterate outside the orthant has g = +-inf, so that cell's next update is
    a bisection. A seeded slice of 400 random point steps (one-cell stages)
    adds roots next to the ends of the bracket.
    """
    import rdsplit.reaction as rx

    seen = set()

    def newton(h_fn, *args):
        def h(R):
            hv, hp = h_fn(R)
            if not np.all(np.isfinite(hv)):
                seen.add("left the orthant, then bisection")
            return hv, hp
        return bracketed(h, *args)

    def slope(a, d, log_a):
        if np.any(np.abs(d / a) <= 1e-6):
            seen.add("series branch")
        return kernel(a, d, log_a)

    def compare(spec, c0, dt, block):
        """Our outcome, the iterations of both solvers summed over the cells the
        reference solves (zeros where it fails), and the cells that miss 1e-10."""
        monkeypatch.setattr(rx, "_BLOCK", block)
        before = c0.copy()
        got = _stage_outcome(lambda: rx._solve_stage(c0, spec, dt))
        np.testing.assert_array_equal(c0, before)
        ref = _stage_outcome(lambda: _reference_stage(c0, spec, dt, block))
        if not isinstance(ref[0], bytes):
            return got, 0, 0, 0
        assert isinstance(got[0], bytes), got
        R, R_ref = np.frombuffer(got[0]), np.frombuffer(ref[0])
        missed = np.flatnonzero(np.abs(R - R_ref) > 1e-10 * np.abs(R_ref))
        for j in missed:
            # both stop at |g| <= _TOL with g' >= 1, so their y differ by at most
            # 2 _TOL and their R by 2 _TOL P, P = eta* dt + R: coarser than 1e-10
            # relative only where |R| < 2 _TOL / 1e-10 eta* dt = 0.02 eta* dt
            st = PointState(c0[:, j])
            eta_dt = dt * reaction_mobility(
                st.c0 + spec.sigma * (predictor_first_order(st, spec, dt) / 2.0), spec)
            assert abs(R_ref[j]) < 2.0 * _TOL / 1e-10 * eta_dt
            assert abs(R[j] - R_ref[j]) <= 2.0 * _TOL * (eta_dt + R_ref[j])
        return got, sum(got[1]) + sum(got[2]), sum(ref[1]) + sum(ref[2]), missed.size

    bracketed, kernel = _bracketed_newton, _xlnx_slope
    monkeypatch.setitem(globals(), "_bracketed_newton", newton)
    monkeypatch.setitem(globals(), "_xlnx_slope", slope)
    rng = np.random.default_rng(2024)
    solved = iters = iters_ref = missed = 0
    for i in range(60):
        spec, c0, dt, block = _oracle_case(rng, i)
        if not spec.sigma.all():
            seen.add("sigma = 0")
        if np.any(np.einsum("i,im->m", spec.sigma, np.log(c0) + spec.U[:, None]) == 0.0):
            seen.add("A0 = 0")
        got, it, it_ref, miss = compare(spec, c0, dt, block)
        iters, iters_ref, missed = iters + it, iters_ref + it_ref, missed + miss
        if not isinstance(got[0], bytes):
            continue
        solved += 1
        # one-cell grids give that cell of the full-width solve
        R, it_pred, it_corr = np.frombuffer(got[0]), got[1], got[2]
        monkeypatch.setattr(rx, "_BLOCK", 1)
        for j in range(0, c0.shape[1], 3) if not spec.sigma.all() else (0, 5):
            one = c0[:, j:j + 1]
            assert (_stage_outcome(lambda: rx._solve_stage(one, spec, dt))
                    == (R[j:j + 1].tobytes(), it_pred[j:j + 1], it_corr[j:j + 1]))
    assert seen == {"sigma = 0", "A0 = 0", "series branch", "left the orthant, then bisection"}
    assert solved >= 50
    assert iters <= iters_ref
    assert missed == 35  # 34 of them in the cells planted within 1e-9 of equilibrium
    rng = np.random.default_rng(9)
    iters = iters_ref = 0
    for _ in range(400):
        case = _recipe_case(rng)
        if case is not None:
            # a two-cell stage: the reference's einsum adds a one-cell output pairwise
            spec, c0, dt = case
            _, it, it_ref, miss = compare(spec, np.repeat(c0[:, None], 2, axis=1), dt, 2)
            iters, iters_ref = iters + it, iters_ref + it_ref
            assert miss == 0
    assert 0 < iters <= iters_ref


@pytest.mark.parametrize("case", ["collapse", "iteration cap", "overflow"])
def test_in_place_stage_fails_like_the_reference(monkeypatch, case):
    """Each failure raises the reference's NonConvergence message: stage, cause,
    cell count and first cell, with the iterations and residual pinned. The
    Halley first update changes both for the collapse (the reference made 53
    updates, last residual 0.8435741558142908); the iteration cap and the
    overflow keep the reference's.
    """
    import rdsplit.reaction as rx

    iterations, residual = {"collapse": (51, 0.8435741558143101),
                            "iteration cap": (2, 5.112318179521676),
                            "overflow": (0, None)}[case]
    if case == "collapse":  # the quench input at cell 7, in blocks of 3 cells
        spec = ReactionSpec((0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 2.0, 2.0), 0.7252, 2.4492)
        c0 = np.ones((4, 10))
        c0[:, 7] = [3.114, 2.4267, 2.7336, 2.384]
        dt, block = 0.02, 3
    elif case == "iteration cap":
        spec, c0, dt, block = _oracle_case(np.random.default_rng(5), 2)
        monkeypatch.setattr(rx, "_MAX_ITER", 2)
        monkeypatch.setitem(globals(), "_MAX_ITER", 2)
    else:  # eta dt overflows in the predictor at cell 0, in the corrector at cell 1
        spec = ReactionSpec((1.0,), (2.0,), 1e300, 1.0)
        c0, dt, block = np.array([[1e200, 1.0]]), 1e10, 1
    monkeypatch.setattr(rx, "_BLOCK", block)
    got = _stage_outcome(lambda: rx._solve_stage(c0, spec, dt))
    assert isinstance(got[0], str)
    assert got[0] == _stage_outcome(lambda: _reference_stage(c0, spec, dt, block))[0]
    assert got[1] == iterations
    assert got[2] == residual


@pytest.mark.parametrize("alpha_exp", [1, 2])
def test_stock_stages_take_three_predictor_and_two_corrector_updates(monkeypatch, alpha_exp):
    """The benchmark's U + 2V <-> 3V ring at n0 = 40, dt = 1/60, 12 steps: every
    cell of every stage takes exactly 3 predictor and 2 corrector updates."""
    import rdsplit.reaction as rx
    from rdsplit import run
    from rdsplit.harness import cubic_autocatalysis_system

    stages, solve = [], rx._solve_stage

    def recording(c0, spec, dt):
        R, it_pred, it_corr = solve(c0, spec, dt)
        stages.append((it_pred, it_corr))
        return R, it_pred, it_corr

    monkeypatch.setattr(rx, "_solve_stage", recording)
    run(cubic_autocatalysis_system(Grid(2, 40, -1, 1), alpha_exp), dt=1 / 60, t_end=0.2)
    assert len(stages) == 24
    for it_pred, it_corr in stages:
        assert it_pred.size == it_corr.size == 1600
        assert np.all(it_pred == 3) and np.all(it_corr == 2)


def test_stock_nonlinear_diffusion_work(monkeypatch):
    """The benchmark's ring at n0 = 40 with alpha_exp = 2, dt = 1/60, 12 steps:
    CN Newton iterations, CG solves, stencil applications and FFT round trips,
    12 of them the exact steps of the linear species, are pinned exactly. The
    diffusion module looks each counted name up at call time."""
    import rdsplit.diffusion as dif
    from rdsplit import run
    from rdsplit.harness import cubic_autocatalysis_system

    calls = {}

    def counted(name, f):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return f(*args)
        return wrapper

    for name in ("_spd_solve", "_divgrad", "_fft_multiply", "_etd_multipliers"):
        monkeypatch.setattr(dif, name, counted(name, getattr(dif, name)))
    report = run(cubic_autocatalysis_system(Grid(2, 40, -1, 1), alpha_exp=2), dt=1 / 60,
                 t_end=0.2)
    assert list(report.diffusion_iters) == [0, 3, 3] + [2] * 10  # 26 Newton iterations
    assert calls == {"_spd_solve": 38, "_divgrad": 465, "_fft_multiply": 439,
                     "_etd_multipliers": 12}


def test_reaction_newton_numpy_calls_per_update(monkeypatch):
    """Numpy calls that _bracketed_newton makes outside its residual callbacks,
    counted through a proxy of the module's numpy (in-place operators are not
    calls): 525 in the 15 updates of three stages on the 64^2 benchmark ring at
    dt = 1/120, 35.0 per update (38.8 before one kernel tested "strictly inside
    the bracket", 528 while the predictor's start was written in closed form)."""
    import rdsplit.reaction as rx
    from rdsplit.harness import cubic_autocatalysis_system

    counting, calls, updates = [False], [0], []

    class Counted:
        def __init__(self, f):
            self.f = f

        def __call__(self, *args, **kwargs):
            calls[0] += counting[0]
            return self.f(*args, **kwargs)

        def __getattr__(self, name):  # ufunc methods such as np.fmin.reduce
            return getattr(self.f, name)

    class CountingNumpy:
        def __getattr__(self, name):
            obj = getattr(np, name)
            return Counted(obj) if callable(obj) and not isinstance(obj, type) else obj

    newton = rx._bracketed_newton

    def counted_newton(h_fn, w, R, iters, *args, **kwargs):
        def h(*a):
            counting[0] = False
            h_fn(*a)
            counting[0] = True

        counting[0] = True
        try:
            newton(h, w, R, iters, *args, **kwargs)
        finally:
            counting[0] = False
        updates.append(int(iters.max()))

    monkeypatch.setattr(rx, "np", CountingNumpy())
    monkeypatch.setattr(rx, "_bracketed_newton", counted_newton)
    system = cubic_autocatalysis_system(Grid(2, 64, -1, 1))
    fields = [s.initial for s in system.species]
    for _ in range(3):
        fields, _ = reaction_stage_counted(fields, system.reaction, 1 / 120)
    assert updates == [3, 2] * 3
    assert calls[0] <= 525


def _solve_three_ways(spec, c0, dt):
    """Roots of reaction_step, predictor_first_order and the one-cell reaction_stage."""
    st = PointState(np.array(c0, dtype=float))
    staged = reaction_stage([Field.constant(Grid(dim=1, n0=1), c) for c in st.c0], spec, dt)
    return (reaction_step(st, spec, dt), predictor_first_order(st, spec, dt),
            np.array([f.values[0] for f in staged]))


def test_underflowing_eta_dt_gives_a_zero_root():
    """eta*dt = k- prod c^beta dt underflows and so does the root: R = 0 on every path."""
    spec = ReactionSpec((2.0, 2.0, 3.0), (3.0, 2.0, 3.0), 1.0, 1e-6)
    c0 = (6e-54, 3e-61, 4e-160)
    R, Rhat, staged = _solve_three_ways(spec, c0, 1e-4)
    assert R == 0.0 and Rhat == 0.0
    np.testing.assert_array_equal(staged, c0)


def test_underflowing_eta_dt_with_an_ordinary_root():
    """eta*dt underflows, but the root is an ordinary number; the log-gap solve finds it."""
    spec = ReactionSpec((1.0, 0.0), (0.0, 2.0), 1.0, 1e-6)
    c0 = (1.0, 1e-200)
    assert reaction_mobility(c0, spec) * 1e-3 == 0.0
    R, Rhat, staged = _solve_three_ways(spec, c0, 1e-3)
    assert R == pytest.approx(2.1204e-91, rel=1e-4)
    assert Rhat == pytest.approx(2.924e-135, rel=1e-3)
    np.testing.assert_allclose(staged, np.array(c0) + spec.sigma * R, rtol=1e-12)
    st = PointState(np.array(c0))
    assert point_free_energy(R, st, spec) <= point_free_energy(0.0, st, spec)


@pytest.mark.parametrize("spec, c0, dt, R_ref", [
    # R + eta0 dt is about 6.7e-6 eta0 dt, far below the ulp of eta0 dt in R
    (ReactionSpec((1.0, 2.0), (2.0, 0.0), 2.621, 0.3665),
     (5.635e-8, 2.303e-7), 8.143e-6, -9.476398847e-21),
    (ReactionSpec((2.0, 1.0), (2.0, 0.0), 0.9555, 2.617),
     (0.09912, 2.356e-6), 5.68e-7, -1.460408225e-8),
], ids=["A+2B", "2A+B"])
def test_roots_next_to_minus_eta_dt(spec, c0, dt, R_ref):
    """Roots at R = -eta dt (1 + tiny) solve; an R iteration collapses its bracket there."""
    R, Rhat, staged = _solve_three_ways(spec, c0, dt)
    assert R == pytest.approx(R_ref, rel=1e-9)
    assert Rhat < 0.0
    st = PointState(np.array(c0))
    assert np.all(st.c0 + spec.sigma * R > 0)
    assert point_free_energy(R, st, spec) <= point_free_energy(0.0, st, spec)
    np.testing.assert_allclose(staged, st.c0 + spec.sigma * R, rtol=1e-12)


def test_trace_species_stage_raises_no_floating_point_warning():
    """The series of the x ln x slope runs only where it applies; elsewhere t ~ 4e52."""
    spec = ReactionSpec((2.0, 0.5), (0.0, 1.0), 1.0, 0.25)
    c0 = (4e-48, 1e-293)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, _, staged = _solve_three_ways(spec, c0, 1e-4)
    assert R == pytest.approx(8.19e-241, rel=1e-3)
    np.testing.assert_allclose(staged, np.array(c0) + spec.sigma * R, rtol=1e-12)


@pytest.mark.parametrize("c0, label", [
    ((1.0,), "second-order reaction step"),  # the predictor's R ~ 1e155 overflows eta* dt
    ((1e200,), "first-order reaction predictor"),
], ids=["corrector", "predictor"])
def test_overflowing_eta_dt_raises_nonconvergence(c0, label):
    """log(eta dt) above the log of the largest double raises the stage's typed error
    before any residual is evaluated, and without a floating-point warning."""
    spec = ReactionSpec((1.0,), (2.0,), 1e300, 1.0)
    st = PointState(np.array(c0))
    solves = [lambda: reaction_step(st, spec, 1e10),
              lambda: reaction_stage([Field.constant(Grid(dim=1, n0=1), c0[0])], spec, 1e10)]
    if "predictor" in label:
        solves.append(lambda: predictor_first_order(st, spec, 1e10))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for solve in solves:
            with pytest.raises(NonConvergence, match=f"{label}: eta dt overflows") as exc_info:
                solve()
            assert exc_info.value.iterations == 0 and exc_info.value.residual is None


def test_overflowing_gap_variable_counts_as_an_infinite_residual():
    """Iterates where P = eta dt e^y overflows give g = +inf on the scalar path, as on
    the vector path; the scalar solve used to raise a bare OverflowError there."""
    spec = ReactionSpec((1.0, 0.0), (0.0, 2.0), 1e133, 1e101)
    c0 = (1e268, 1e-106)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, _, staged = _solve_three_ways(spec, c0, 1e-6)
    st = PointState(np.array(c0))
    assert R > 0 and np.all(st.c0 + spec.sigma * R > 0)
    assert point_free_energy(R, st, spec) <= point_free_energy(0.0, st, spec)
    np.testing.assert_allclose(staged, st.c0 + spec.sigma * R, rtol=1e-12)


# ---------------------------------------------------------------- root bound


def _check_affinity_bound(spec, c0, dt):
    """Each returned root has sign -sign(A0) and |y| <= |A0|, y = log1p(R/(eta dt)).

    ``A0`` is the affinity at R = 0; eta is the predictor's eta(c0) and the
    corrector's eta* at the predicted midpoint. The bound is checked on the
    ratio r = R/(eta dt) = expm1(y): near r = -1, log1p would magnify the
    rounding of r by up to e^|A0|. Returns the number of roots checked (a
    step may raise a typed error).
    """
    st = PointState(np.array(c0))
    A0 = chemical_affinity(0.0, st, spec)
    # the solver rounds A0 on its own, which moves the bracket end by dA0
    dA0 = 8 * _EPS * float(np.sum(np.abs(spec.sigma) * (np.abs(np.log(st.c0)) + np.abs(spec.U))))
    checked = 0
    for step in (predictor_first_order, reaction_step):
        try:
            R = step(st, spec, dt)
        except RdsplitError:
            return checked
        if step is predictor_first_order:
            Rhat, eta = R, reaction_mobility(st.c0, spec)
        else:
            eta = reaction_mobility(st.c0 + spec.sigma * (Rhat / 2.0), spec)
        assert R * A0 <= 0.0
        # r rounds with R and with eta dt, which the solver forms as the exp of
        # a sum of logs and this check as a product: a few eps (1 + |ln(eta dt)|)
        r = R / (eta * dt)
        dr = 8 * _EPS * (1.0 + abs(math.log(eta * dt))) * abs(r)
        assert abs(r) <= abs(math.expm1(-A0 - math.copysign(dA0, A0))) + dr
        checked += 1
    return checked


_COEF = hst.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(species=hst.lists(hst.tuples(_COEF, _COEF, hst.floats(-12.0, math.log10(3.0))),
                         min_size=1, max_size=4),
       log_k=hst.tuples(hst.floats(-3.0, 3.0), hst.floats(-3.0, 3.0)),
       log_dt=hst.floats(-9.0, 1.0))
def test_steps_stay_inside_the_affinity_bound(species, log_k, log_dt):
    alpha, beta, log_c0 = (np.array(v) for v in zip(*species))
    assume(not np.array_equal(alpha, beta))
    spec = ReactionSpec(alpha, beta, 10.0 ** log_k[0], 10.0 ** log_k[1])
    _check_affinity_bound(spec, 10.0 ** log_c0, 10.0 ** log_dt)


def test_affinity_bound_margin_reproducer():
    """The root sits within rounding of the R-space bound eta dt expm1(-A0)."""
    spec = ReactionSpec((0.0, 1.0, 0.0, 2.0), (2.0, 2.0, 0.5, 0.5), 0.5866, 2.953)
    c0 = (3.657e-4, 3.429e-4, 3.129e-4, 3.507e-11)
    assert _check_affinity_bound(spec, c0, 3.16e-4) == 2
    R = reaction_step(PointState(np.array(c0)), spec, 3.16e-4)
    assert R == pytest.approx(-1.537e-24, rel=1e-3)
    g = Grid(dim=1, n0=1)
    staged = reaction_stage([Field.constant(g, c) for c in c0], spec, 3.16e-4)
    np.testing.assert_allclose([f.values[0] for f in staged], np.array(c0) + spec.sigma * R,
                               rtol=1e-12)


def test_affinity_bound_brackets_one_sided_production():
    """A <-> 2A consumes nothing, so -A0 alone bounds the root from above."""
    spec = ReactionSpec((1.0,), (2.0,), 3.0, 0.5)
    st = PointState(np.array([0.1]))
    assert _check_affinity_bound(spec, st.c0, 10.0) == 2
    R = reaction_step(st, spec, 10.0)
    assert R > 0.0 and point_free_energy(R, st, spec) < point_free_energy(0.0, st, spec)
    staged = reaction_stage([Field.constant(Grid(dim=1, n0=1), 0.1)], spec, 10.0)
    assert staged[0].values[0] == pytest.approx(0.1 + R, rel=1e-12)


# ---------------------------------------------------------------- x ln x slope kernel


_EPS = float(np.finfo(float).eps)


def _slope_oracle(a, d):
    """G1, G2 and G3 = dG2/dd of the x ln x slope at the exact binary a and d, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        A, Dd = Decimal(a), Decimal(d)
        if Dd == 0:
            return float(A.ln() + 1), float(1 / (2 * A)), float(-1 / (3 * A * A))
        # x ln x - a ln a and d - a ln(x/a) cancel about 2 |log10 t| digits, and
        # 1/x - 2 G2 one |log10 t| more
        ctx.prec += 3 * max(0, -(Dd / A).adjusted())
        X = A + Dd
        g1 = (X * X.ln() - A * A.ln()) / Dd
        g2 = (Dd - A * (X / A).ln()) / (Dd * Dd)
        g3 = (1 / X - 2 * g2) / Dd
        return float(g1), float(g2), float(g3)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(a=hst.floats(1e-12, 1e3),
       t=hst.one_of(hst.floats(-1.0, 1e6, exclude_min=True), hst.floats(-1e-6, 1e-6)))
@example(a=4e-170, t=0.5)  # d^2 underflows to 0, G3 ~ -1/a^2 overflows
@example(a=0.7, t=0.0)
@example(a=0.7, t=3e-6)  # the G3 closed form would be off by 1.5e-4 here
@example(a=0.7, t=1e-4)  # the G3 series, at its switch
@example(a=0.7, t=-1e-4)
@example(a=0.7, t=1.001e-4)  # the G3 closed form, next to the switch
@example(a=0.7, t=-1.001e-4)
def test_xlnx_slope_kernels_match_decimal_oracle(a, t):
    from rdsplit.reaction import _scalar_xlnx_g3, _scalar_xlnx_slope, _xlnx_g3, _xlnx_slope

    d = a * t
    assume(d / a > -1.0)
    ref1, ref2, ref3 = _slope_oracle(a, d)
    scalar = _scalar_xlnx_slope(a, d)
    args = np.array([a]), np.array([d]), np.log(np.array([a]))
    vector = [float(v[0]) for v in _xlnx_slope(*args)]
    # the out= form writes the same bits into the caller's arrays, and a + d
    out = tuple(np.empty(1) for _ in range(5))
    in_place = _xlnx_slope(*args, out=out)
    assert all(v is o for v, o in zip(in_place, out))
    assert [v.tobytes() for v in in_place] == [v.tobytes() for v in _xlnx_slope(*args)]
    assert out[3][0] == a + d
    # numpy's and math's log1p may differ by an ulp, which G2's cancellation
    # amplifies, so G2 of both paths is held to the oracle bound below instead
    for k in (0, 2):
        assert abs(vector[k] - scalar[k]) <= 4 * _EPS * max(1.0, abs(scalar[k]))
    # the kernel sees x = a + d only through fl(d/a); near t = -1 that rounding
    # moves G2 = (t - L)/(a t^2) by eps |t|/((1 + t)(t - L)) relative
    tt = d / a
    cond = abs(tt) / ((1.0 + tt) * (tt - math.log1p(tt))) if abs(tt) > 1e-6 else 0.0
    for g1, g2, _ in (scalar, vector):
        assert abs(g1 - ref1) <= 1e-13 * max(1.0, abs(ref1))
        assert abs(g2 - ref2) <= (1e-8 + 4 * _EPS * cond) * ref2
    # G3 from each path's own G2. Its closed form (1/x - 2 G2)/d cancels about
    # 1/|t| of G2's relative error, 2 eps/|t|, so it is good to 6 eps/t^2, and
    # the series (t/2 - 1/3)/a^2 to 1.8 t^2; at the switch |t| = 1e-4 both stay
    # below 1.3e-7, hence 2e-7. G2's error near t = -1 passes on as cond.
    g3_scalar = _scalar_xlnx_g3(a, d, scalar[1])
    g3_vector = float(_xlnx_g3(args[0], args[1], out[3], out[1],
                               tuple(np.empty(1) for _ in range(3)))[0][0])
    for g3 in (g3_scalar, g3_vector):
        if math.isinf(ref3):
            assert g3 == ref3
        else:
            assert abs(g3 - ref3) <= (2e-7 + 4 * _EPS * cond) * abs(ref3)


# ---------------------------------------------------------------- point gate


_MAGNITUDE = hst.floats(1e-6, 1e6)
_SPECIAL = hst.sampled_from((math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0))
_ENTRY = hst.one_of(_MAGNITUDE, _SPECIAL)
_SIGNED = hst.one_of(_MAGNITUDE, _MAGNITUDE.map(lambda v: -v), _SPECIAL)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(species=hst.lists(hst.tuples(_COEF, _COEF, _ENTRY), min_size=1, max_size=4),
       rates=hst.tuples(_MAGNITUDE, _MAGNITUDE), R=_SIGNED, p=_SIGNED, q=_SIGNED,
       dt=hst.one_of(hst.floats(1e-6, 10.0), _SPECIAL))
def test_point_api_returns_finite_values_or_raises_typed_errors(species, rates, R, p, q, dt):
    """Every point function returns a finite value or raises an RdsplitError,
    never a Python exception or a numpy warning; admissible_interval's upper
    end alone may be +inf, where nothing is consumed."""
    alpha, beta, c0 = zip(*species)
    inside = all(0 < c < math.inf for c in c0)

    def finite(call):
        try:
            value = call()
        except RdsplitError:
            return
        assert math.isfinite(value), value

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            spec = ReactionSpec(alpha, beta, *rates)
        except InvalidInput:
            reject()  # alpha == beta with unequal rates
        if not inside:
            for make in (lambda: PointState(c0), lambda: reaction_mobility(c0, spec)):
                with pytest.raises(PositivityViolation):
                    make()
            return
        st = PointState(c0)
        finite(lambda: reaction_mobility(c0, spec))
        finite(lambda: point_free_energy(R, st, spec))
        finite(lambda: chemical_affinity(R, st, spec))
        finite(lambda: energy_difference_quotient(p, q, st, spec))
        finite(lambda: predictor_first_order(st, spec, dt))
        finite(lambda: reaction_step(st, spec, dt))
        try:
            lo, hi = admissible_interval(st, spec, dt)
        except RdsplitError:
            return
        assert math.isfinite(lo) and lo < 0 < hi  # hi may be +inf
