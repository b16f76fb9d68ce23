import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from rdsplit import (
    DomainError,
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
from rdsplit.reaction import reaction_stage_counted


def _random_spec(rng, nsp=None):
    nsp = nsp or int(rng.integers(2, 5))
    alpha = rng.integers(0, 3, nsp).astype(float)
    beta = rng.integers(0, 3, nsp).astype(float)
    if np.array_equal(alpha, beta):
        beta[0] += 1.0
    k_plus = float(rng.uniform(0.2, 3.0))
    k_minus = float(rng.uniform(0.2, 3.0))
    return ReactionSpec.law_of_mass_action(alpha, beta, k_plus, k_minus)


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


def test_spec_warns_when_energies_break_detailed_balance():
    with pytest.warns(UserWarning, match="detailed balance"):
        ReactionSpec(alpha=(1.0, 0.0), beta=(0.0, 1.0), k_plus=2.0, k_minus=1.0, U=(0.0, 0.0))


def test_law_of_mass_action_balances_exactly():
    rng = np.random.default_rng(0)
    for _ in range(50):
        spec = _random_spec(rng)
        gap = float(spec.sigma @ spec.U) - math.log(spec.k_minus / spec.k_plus)
        assert abs(gap) <= 1e-12


def test_law_of_mass_action_two_species_exchange():
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 2.0, 1.0)
    np.testing.assert_allclose(spec.U, [math.log(2.0), 0.0])
    np.testing.assert_array_equal(spec.sigma, [-1.0, 1.0])


def test_law_of_mass_action_one_sided():
    # A <-> 2A: everything rides on the single species
    spec = ReactionSpec.law_of_mass_action((1.0,), (2.0,), 3.0, 0.5)
    assert abs(float(spec.sigma @ spec.U) - math.log(0.5 / 3.0)) <= 1e-15


def test_law_of_mass_action_null_reaction():
    spec = ReactionSpec.law_of_mass_action((1.0, 1.0), (1.0, 1.0), 0.7, 0.7)
    assert not spec.sigma.any()
    with pytest.raises(InvalidInput):
        ReactionSpec.law_of_mass_action((1.0,), (1.0,), 1.0, 2.0)


# ---------------------------------------------------------------- small pieces


def test_point_state_requires_positive_concentrations():
    with pytest.raises(PositivityViolation):
        PointState(c0=np.array([1.0, 0.0]))
    with pytest.raises(PositivityViolation):
        PointState(c0=np.array([1.0, -0.2]))


def test_mobility_value():
    spec = ReactionSpec.law_of_mass_action((1.0, 2.0), (0.0, 3.0), 1.0, 0.1)
    # eta = k_minus * u^0 * v^3
    assert reaction_mobility([1.0, 2.0], spec) == pytest.approx(0.8, rel=1e-15)
    with pytest.raises(PositivityViolation):
        reaction_mobility([1.0, 0.0], spec)


def test_admissible_interval_values():
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([0.3, 0.7]))
    lo, hi = admissible_interval(st, spec, eta_dt=0.05)
    # sigma = (-1, 1): hi caps at c0[0], lo at max(-eta_dt, -c0[1])
    assert hi == pytest.approx(0.3)
    assert lo == pytest.approx(-0.05)
    lo2, _ = admissible_interval(st, spec, eta_dt=5.0)
    assert lo2 == pytest.approx(-0.7)


def test_admissible_interval_unbounded_above():
    spec = ReactionSpec.law_of_mass_action((1.0,), (2.0,), 1.0, 1.0)  # sigma = (+1)
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
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([1.0, 1.0]))
    val = energy_difference_quotient(0.2, 0.0, st, spec)
    assert val == pytest.approx(0.20135513550688873, abs=1e-15)
    # a trace species, c0 = 1e-12, crossed by a step far larger than itself
    st = PointState(c0=np.array([1.0, 1e-12]))
    assert energy_difference_quotient(1e-9, 0.0, st, spec) == pytest.approx(
        -21.71535758133401, rel=1e-14)
    half = ReactionSpec.law_of_mass_action((0.5, 0.0), (0.0, 0.5), 1.0, 1.0)
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
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([1.0, 0.5]))
    p = 0.1
    assert energy_difference_quotient(p, p, st, spec) == pytest.approx(
        chemical_affinity(p, st, spec), rel=1e-14)
    # inside the kernel's series band |d| <= 1e-6 c: no cancellation blowup
    q = p + 1e-10
    assert energy_difference_quotient(p, q, st, spec) == pytest.approx(
        chemical_affinity((p + q) / 2, st, spec), rel=1e-12)


def test_difference_quotient_rejects_outside_points():
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([0.3, 0.7]))
    with pytest.raises(DomainError):
        energy_difference_quotient(0.5, 0.0, st, spec)  # c1(0.5) < 0


# ---------------------------------------------------------------- stepping


def test_frozen_step_oracles():
    """Predictor and corrector against 50-digit references, cubic chemistry at (1,1)."""
    spec = ReactionSpec.law_of_mass_action((1.0, 2.0), (0.0, 3.0), 1.0, 0.1)
    st = PointState(c0=np.array([1.0, 1.0]))
    assert predictor_first_order(st, spec, 0.1) == pytest.approx(
        0.075892225344392717, abs=1e-14)
    assert reaction_step(st, spec, 0.1) == pytest.approx(
        0.089263721369730867, abs=1e-14)


def test_step_null_reaction_returns_zero():
    spec = ReactionSpec.law_of_mass_action((1.0,), (1.0,), 1.0, 1.0)
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
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([0.8, 0.8]))
    assert abs(reaction_step(st, spec, 0.5)) <= 1e-13


def test_step_respects_tight_tolerance():
    cases = [(ReactionSpec.law_of_mass_action((1.0, 2.0), (0.0, 3.0), 1.0, 0.1), (1.0, 1.0), 0.1)]
    # fractional stoichiometry on a trace species: the root sits at |sigma R| >> c0[1]
    half = ReactionSpec.law_of_mass_action((0.5, 0.0), (0.0, 0.5), 1.0, 1.0)
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
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
    st = PointState(c0=np.array([1.0, 1.0]))
    with pytest.raises(InvalidInput):
        reaction_step(st, spec, 0.0)
    with pytest.raises(InvalidInput):
        reaction_step(st, spec, -0.1)
    with pytest.raises(InvalidInput):
        reaction_step(st, spec, math.inf)


def test_scalar_and_vector_paths_agree():
    """reaction_step (scalar internals) against reaction_stage (vectorized) per cell."""
    rng = np.random.default_rng(17)
    g = Grid(dim=1, n0=16)
    for _ in range(10):
        spec = _random_spec(rng)
        vals = rng.uniform(0.05, 3.0, (spec.n_species, g.n0))
        fields = [Field(g, vals[i]) for i in range(spec.n_species)]
        dt = float(10.0 ** rng.uniform(-3, -0.5))
        staged = reaction_stage(fields, spec, dt)
        for cell in range(g.n0):
            st = PointState(c0=vals[:, cell])
            R = reaction_step(st, spec, dt)
            c_cell = np.array([staged[i].values[cell] for i in range(spec.n_species)])
            np.testing.assert_allclose(c_cell, vals[:, cell] + spec.sigma * R,
                                       rtol=1e-11, atol=1e-13)


def test_stage_conserves_orthogonal_invariants():
    rng = np.random.default_rng(8)
    g = Grid(dim=2, n0=6)
    spec = ReactionSpec.law_of_mass_action((1.0, 2.0), (0.0, 3.0), 1.0, 0.1)
    fields = [Field(g, rng.uniform(0.2, 2.0, g.shape)) for _ in range(2)]
    out = reaction_stage(fields, spec, 0.05)
    # sigma = (-1, 1): u + v is pointwise invariant
    np.testing.assert_allclose(out[0].values + out[1].values,
                               fields[0].values + fields[1].values, rtol=1e-14)


def test_stage_counts_and_validation():
    g = Grid(dim=1, n0=4)
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 1.0, 1.0)
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


def test_predictor_large_dt_lands_near_equilibrium():
    """dt -> inf drives the predictor residual to the affinity root."""
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 2.0, 1.0)
    st = PointState(c0=np.array([1.0, 0.5]))
    Rhat = predictor_first_order(st, spec, 1e8)
    c = st.c0 + spec.sigma * Rhat
    # equilibrium of c1 <-> c2 with k+=2, k-=1: c2/c1 = 2, total 1.5
    np.testing.assert_allclose(c, [0.5, 1.0], rtol=1e-4)


def test_repeated_steps_relax_to_equilibrium():
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 1.0), 2.0, 1.0)
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
    spec = ReactionSpec.law_of_mass_action((0.0, 0.0, 1.0, 0.0), (1.0, 1.0, 2.0, 2.0),
                                           0.7252, 2.4492)
    c0 = np.array([3.114, 2.4267, 2.7336, 2.384])
    g = Grid(dim=1, n0=1)
    iterations = []
    for solve in (lambda: reaction_step(PointState(c0), spec, 0.02),
                  lambda: reaction_stage([Field.constant(g, c) for c in c0], spec, 0.02)):
        with pytest.raises(NonConvergence, match="bracket collapsed") as exc_info:
            solve()
        assert 1e-12 < exc_info.value.residual < math.inf
        iterations.append(exc_info.value.iterations)
    assert iterations == [53, 53]
    assert calls == 54
    R = reaction_step(PointState(c0), spec, 0.01)
    assert (c0 + spec.sigma * R).min() > 0.3


def _solve_three_ways(spec, c0, dt):
    """Roots of reaction_step, predictor_first_order and the one-cell reaction_stage."""
    st = PointState(np.array(c0, dtype=float))
    staged = reaction_stage([Field.constant(Grid(dim=1, n0=1), c) for c in st.c0], spec, dt)
    return (reaction_step(st, spec, dt), predictor_first_order(st, spec, dt),
            np.array([f.values[0] for f in staged]))


def test_underflowing_eta_dt_gives_a_zero_root():
    """eta*dt = k- prod c^beta dt underflows and so does the root: R = 0 on every path."""
    spec = ReactionSpec.law_of_mass_action((2.0, 2.0, 3.0), (3.0, 2.0, 3.0), 1.0, 1e-6)
    c0 = (6e-54, 3e-61, 4e-160)
    R, Rhat, staged = _solve_three_ways(spec, c0, 1e-4)
    assert R == 0.0 and Rhat == 0.0
    np.testing.assert_array_equal(staged, c0)


def test_underflowing_eta_dt_with_an_ordinary_root():
    """eta*dt underflows, but the root is an ordinary number; the log-gap solve finds it."""
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 2.0), 1.0, 1e-6)
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
    (ReactionSpec.law_of_mass_action((1.0, 2.0), (2.0, 0.0), 2.621, 0.3665),
     (5.635e-8, 2.303e-7), 8.143e-6, -9.476398847e-21),
    (ReactionSpec.law_of_mass_action((2.0, 1.0), (2.0, 0.0), 0.9555, 2.617),
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
    spec = ReactionSpec.law_of_mass_action((2.0, 0.5), (0.0, 1.0), 1.0, 0.25)
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
    spec = ReactionSpec.law_of_mass_action((1.0,), (2.0,), 1e300, 1.0)
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
    spec = ReactionSpec.law_of_mass_action((1.0, 0.0), (0.0, 2.0), 1e133, 1e101)
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
    spec = ReactionSpec.law_of_mass_action(alpha, beta, 10.0 ** log_k[0], 10.0 ** log_k[1])
    _check_affinity_bound(spec, 10.0 ** log_c0, 10.0 ** log_dt)


def test_affinity_bound_margin_reproducer():
    """The root sits within rounding of the R-space bound eta dt expm1(-A0)."""
    spec = ReactionSpec.law_of_mass_action((0.0, 1.0, 0.0, 2.0), (2.0, 2.0, 0.5, 0.5),
                                           0.5866, 2.953)
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
    spec = ReactionSpec.law_of_mass_action((1.0,), (2.0,), 3.0, 0.5)
    st = PointState(np.array([0.1]))
    assert _check_affinity_bound(spec, st.c0, 10.0) == 2
    R = reaction_step(st, spec, 10.0)
    assert R > 0.0 and point_free_energy(R, st, spec) < point_free_energy(0.0, st, spec)
    staged = reaction_stage([Field.constant(Grid(dim=1, n0=1), 0.1)], spec, 10.0)
    assert staged[0].values[0] == pytest.approx(0.1 + R, rel=1e-12)


# ---------------------------------------------------------------- x ln x slope kernel


_EPS = float(np.finfo(float).eps)


def _slope_oracle(a, d):
    """G1, G2 of the x ln x slope at the exact binary a and d, to 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        A, Dd = Decimal(a), Decimal(d)
        if Dd == 0:
            return float(A.ln() + 1), float(1 / (2 * A))
        # x ln x - a ln a and d - a ln(x/a) cancel about 2 |log10 t| digits
        ctx.prec += 2 * max(0, -(Dd / A).adjusted())
        X = A + Dd
        g1 = (X * X.ln() - A * A.ln()) / Dd
        g2 = (Dd - A * (X / A).ln()) / (Dd * Dd)
        return float(g1), float(g2)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(a=hst.floats(1e-12, 1e3),
       t=hst.one_of(hst.floats(-1.0, 1e6, exclude_min=True), hst.floats(-1e-6, 1e-6)))
@example(a=4e-170, t=0.5)  # d^2 underflows to 0
def test_xlnx_slope_kernels_match_decimal_oracle(a, t):
    from rdsplit.reaction import _scalar_xlnx_slope, _xlnx_slope

    d = a * t
    assume(d / a > -1.0)
    ref1, ref2 = _slope_oracle(a, d)
    scalar = _scalar_xlnx_slope(a, d)
    vector = [float(v[0]) for v in _xlnx_slope(np.array([a]), np.array([d]),
                                               np.log(np.array([a])))]
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
