"""Headline acceptance checks.

Each test pins one end-to-end guarantee of the package at a fixed tolerance:
ODE-limit convergence of the reaction stepper, mesh convergence of the full
2D solver for linear and nonlinear diffusion, monotone free-energy decay,
randomized structure preservation (positivity, mass, dissipation, residuals),
agreement with slow-but-sure oracles, and the order-estimation formula.
Everything runs from the public API; tolerances are stated inline.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg

from rdsplit import (
    DiffusionLaw,
    Field,
    Grid,
    NonConvergence,
    PointState,
    ReactionSpec,
    admissible_interval,
    chemical_affinity,
    diffusion_energy,
    energy_difference_quotient,
    etd_step,
    laplacian,
    nonlinear_cn_step,
    parse_config,
    point_free_energy,
    predictor_first_order,
    reaction_mobility,
    reaction_step,
    run_cauchy_convergence,
    run_energy_trace,
    run_ode_convergence,
    weighted_order,
)

# Reference values for the tanh-ring benchmark: max-norm differences between
# consecutive resolutions h = 1/20, 1/30, 1/40, 1/50, 1/60 and the weighted
# orders of each inner triple, for both diffusion settings.
REF_LINEAR_ORDERS = {"u": (1.8700, 1.9036, 1.9230), "v": (1.8705, 1.8950, 1.9197)}
REF_LINEAR_DIFFS = {"u": (4.1625e-3, 1.5357e-3, 7.3080e-4, 4.0386e-4),
                    "v": (3.6818e-3, 1.3581e-3, 6.4788e-4, 3.5830e-4)}
REF_NONLINEAR_ORDERS = {"u": (2.1586, 2.3120, 2.2446), "v": (1.9870, 2.0150, 1.8752)}


def _parse_text(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    p.write_text(text)
    return parse_config(p)


@pytest.fixture(scope="module")
def cauchy_linear(tmp_path_factory):
    cfg = _parse_text(tmp_path_factory, "kind = cauchy_convergence\n")
    return run_cauchy_convergence(cfg, threads=4)


@pytest.fixture(scope="module")
def cauchy_nonlinear(tmp_path_factory):
    cfg = _parse_text(tmp_path_factory,
                      "kind = cauchy_convergence\ncauchy.alpha_exp = 2\n")
    return run_cauchy_convergence(cfg, threads=4)


def _random_spec(rng):
    nsp = int(rng.integers(2, 5))
    alpha = rng.integers(0, 3, nsp).astype(float)
    beta = rng.integers(0, 3, nsp).astype(float)
    if np.array_equal(alpha, beta):
        beta[0] += 1.0
    k_plus = float(rng.uniform(0.2, 3.0))
    k_minus = float(rng.uniform(0.2, 3.0))
    return ReactionSpec(alpha, beta, k_plus, k_minus)


def _corrector_residual(R, st, spec, dt):
    """The second-order residual rebuilt from public pieces only."""
    Rhat = predictor_first_order(st, spec, dt)
    eta_star_dt = reaction_mobility(st.c0 + spec.sigma * (Rhat / 2.0), spec) * dt
    return (math.log1p(R / eta_star_dt)
            + energy_difference_quotient(R, 0.0, st, spec)
            + dt * (chemical_affinity(R, st, spec) - chemical_affinity(0.0, st, spec)))


def _dense_laplacian(grid):
    n = grid.n_cells
    L = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        L[:, j] = laplacian(Field(grid, e.reshape(grid.shape))).values.ravel()
    return L


# 1. The reaction stepper alone (no diffusion) converges at second order in
#    dt on an exact ODE: orders monotonically approach 2, the finest pair is
#    at least 1.95, and the whole sweep finishes in under a second.
def test_reaction_ode_orders_approach_two_within_a_second(tmp_path_factory):
    cfg = _parse_text(tmp_path_factory, "kind = ode_convergence\n")
    start = time.perf_counter()
    rows = run_ode_convergence(cfg)
    elapsed = time.perf_counter() - start
    orders = [row.order for row in rows[1:]]
    gaps = [abs(2.0 - o) for o in orders]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])), \
        f"orders do not monotonically approach 2: {orders}"
    assert orders[-1] >= 1.95, f"finest-pair order {orders[-1]:.4f} < 1.95"
    assert elapsed < 1.0, f"sweep took {elapsed:.2f} s (budget 1 s)"
    print(f"PASS ode orders {orders[0]:.4f} -> {orders[-1]:.4f} in {elapsed:.2f} s")


# 2. Mesh self-convergence with linear diffusion: estimated orders within
#    +-0.20 of the reference values and every difference norm within 25%.
def test_cauchy_orders_and_differences_linear_diffusion(cauchy_linear):
    for name in ("u", "v"):
        rows = cauchy_linear[name]
        orders = [row.order for row in rows[1:]]
        for got, ref in zip(orders, REF_LINEAR_ORDERS[name]):
            assert abs(got - ref) <= 0.20, \
                f"{name}: order {got:.4f} deviates from {ref} by more than 0.20"
        for row, ref in zip(rows, REF_LINEAR_DIFFS[name]):
            assert abs(row.error - ref) <= 0.25 * ref, \
                f"{name}: difference {row.error:.4e} not within 25% of {ref:.4e}"
        print(f"PASS linear {name} orders " +
              " ".join(f"{o:.4f}" for o in orders))


# 3. Mesh self-convergence with degenerate nonlinear diffusion on the first
#    species: orders within +-0.25 of the reference values and all >= 1.7.
def test_cauchy_orders_nonlinear_diffusion(cauchy_nonlinear):
    for name in ("u", "v"):
        orders = [row.order for row in cauchy_nonlinear[name][1:]]
        for got, ref in zip(orders, REF_NONLINEAR_ORDERS[name]):
            assert abs(got - ref) <= 0.25, \
                f"{name}: order {got:.4f} deviates from {ref} by more than 0.25"
        assert min(orders) >= 1.7, f"{name}: order {min(orders):.4f} < 1.7"
        print(f"PASS nonlinear {name} orders " +
              " ".join(f"{o:.4f}" for o in orders))


# 4. Discrete free energy never increases along the full 2D run, for both
#    diffusion settings, with per-step slack 1e-12 * |F|.
def test_energy_nonincreasing_both_exponents(tmp_path_factory):
    cfg = _parse_text(tmp_path_factory, "kind = energy_trace\n")
    reports = run_energy_trace(cfg)
    assert sorted(reports) == [1, 2]
    for a, report in sorted(reports.items()):
        F = np.asarray(report.energy)
        rises = np.diff(F) - 1e-12 * np.abs(F[:-1])
        assert np.all(rises <= 0.0), \
            f"alpha_exp={a}: energy rises by {rises.max():.3e} beyond tolerance"
        print(f"PASS energy alpha_exp={a}: {F[0]:.6f} -> {F[-1]:.6f}, "
              f"max step rise {np.max(np.diff(F)):.2e}")


# 5. Randomized structure preservation: over >= 1000 random positive states
#    and step sizes, reaction steps keep positivity, decrease the pointwise
#    free energy, and satisfy their residual to 1e-12; ETD steps conserve
#    mass to 1e-13 relative and match a dense matrix-exponential oracle on an
#    8-cell grid to 1e-12; nonlinear CN steps conserve mass to 1e-11
#    relative, keep positivity, and dissipate the entropy functional.
def test_randomized_structure_preservation_suite():
    rng = np.random.default_rng(2024)
    states = 0
    refused = 0

    for _ in range(720):
        spec = _random_spec(rng)
        c0 = rng.uniform(0.05, 4.0, spec.sigma.size)
        dt = float(10.0 ** rng.uniform(-3, 1))
        st = PointState(c0)
        try:
            R = reaction_step(st, spec, dt)
        except NonConvergence:
            # quench-limit draws (root within one ulp of the positivity
            # boundary) are refused, never accepted with a bad residual
            refused += 1
            continue
        states += 1
        c_new = c0 + spec.sigma * R
        assert c_new.min() > 0.0
        F0 = point_free_energy(0.0, st, spec)
        F1 = point_free_energy(R, st, spec)
        assert F1 <= F0 + 1e-12 * max(1.0, abs(F0))
        assert abs(_corrector_residual(R, st, spec, dt)) <= 1e-12
    assert refused <= 5, f"{refused} of 720 reaction draws refused"

    grid8 = Grid(dim=1, n0=8)
    L8 = _dense_laplacian(grid8)
    for _ in range(200):
        D = float(rng.uniform(0.01, 2.0))
        dt = float(10.0 ** rng.uniform(-3, 1))
        rho = rng.uniform(0.1, 5.0, 8)
        new = etd_step(Field(grid8, rho), DiffusionLaw.constant(D), dt)
        states += 1
        mass0 = rho.sum()
        assert abs(new.values.sum() - mass0) <= 1e-13 * abs(mass0)
        oracle = scipy.linalg.expm(dt * D * L8) @ rho
        assert np.max(np.abs(new.values - oracle)) <= 1e-12

    for _ in range(150):
        n0 = int(rng.choice([8, 12, 16]))
        grid = Grid(dim=1, n0=n0)
        law = DiffusionLaw.power(float(rng.uniform(0.05, 1.0)),
                                 int(rng.integers(1, 4)))
        rho = Field(grid, rng.uniform(0.2, 3.0, n0))
        dt = float(10.0 ** rng.uniform(-3, 0.5))
        new = nonlinear_cn_step(rho, law, dt)
        states += 1
        mass0 = rho.values.sum()
        assert abs(new.values.sum() - mass0) <= 1e-11 * abs(mass0)
        assert new.values.min() > 0.0
        E0 = diffusion_energy(rho)
        E1 = diffusion_energy(new)
        assert E1 <= E0 + 1e-12 * max(1.0, abs(E0))

    assert states >= 1000
    print(f"PASS structure suite over {states} accepted states ({refused} refused)")


# 6. Oracle equivalence: the damped-Newton reaction step agrees to 1e-11
#    with plain bisection of the same residual down to a 1e-14 bracket, over
#    100 random configurations; and the stabilized difference quotient of
#    the free energy agrees with the raw quotient to 1e-9 away from its
#    switch to the limiting form.
def test_reaction_step_matches_bisection_oracle_and_phi_quotient():
    rng = np.random.default_rng(77)

    compared = 0
    while compared < 100:
        spec = _random_spec(rng)
        c0 = rng.uniform(0.05, 4.0, spec.sigma.size)
        dt = float(10.0 ** rng.uniform(-3, 1))
        st = PointState(c0)
        try:
            R = reaction_step(st, spec, dt)
        except NonConvergence:
            continue  # quench-limit draw, refused by design
        compared += 1

        Rhat = predictor_first_order(st, spec, dt)
        eta_star_dt = reaction_mobility(c0 + spec.sigma * (Rhat / 2.0), spec) * dt
        lo, hi = admissible_interval(st, spec, eta_star_dt)
        g = lambda x: _corrector_residual(x, st, spec, dt)

        if math.isinf(hi):
            b = 1.0
            while g(b) <= 0.0:
                b *= 2.0
        else:
            b = hi - 1e-6 * (hi - lo)
        a = lo + 0.25 * (b - lo)
        while g(a) >= 0.0:
            a = lo + 0.5 * (a - lo)
        while b - a > 1e-14:
            mid = 0.5 * (a + b)
            if mid <= a or mid >= b:
                break  # bracket already at adjacent floats
            if g(mid) > 0.0:
                b = mid
            else:
                a = mid
        R_oracle = 0.5 * (a + b)
        assert abs(R - R_oracle) <= 1e-11, \
            f"step {R!r} vs bisection {R_oracle!r} (diff {abs(R - R_oracle):.2e})"

    compared = 0
    while compared < 100:
        spec = _random_spec(rng)
        c0 = rng.uniform(0.1, 3.0, spec.sigma.size)
        st = PointState(c0)
        lo, hi = admissible_interval(st, spec, 1.0)
        span = min(hi, 2.0) if math.isfinite(hi) else 2.0
        p = float(rng.uniform(0.3 * span, 0.9 * span))
        q = float(rng.uniform(lo * 0.5, 0.1 * span))
        if abs(p - q) <= 1e-6 * max(1.0, abs(p), abs(q)):
            continue  # too close to the switch to compare against the raw form
        compared += 1
        phi = energy_difference_quotient(p, q, st, spec)
        raw = (point_free_energy(p, st, spec) - point_free_energy(q, st, spec)) / (p - q)
        assert abs(phi - raw) <= 1e-9 * max(1.0, abs(phi)), \
            f"phi {phi!r} vs raw quotient {raw!r}"

    print("PASS oracle equivalence over 100 + 100 configurations")


# 7. The weighted order formula reproduces the reference order 1.8700 to four
#    decimal places from the first two difference norms alone.
def test_weighted_order_reproduces_reference_row():
    got = weighted_order(4.1625e-3, 1.5357e-3, 1 / 20, 1 / 30, 1 / 40)
    assert f"{got:.4f}" == "1.8700", f"weighted order {got:.6f} != 1.8700"
    print(f"PASS weighted order {got:.4f}")
