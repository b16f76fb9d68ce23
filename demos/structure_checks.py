#!/usr/bin/env python3
# What "structure preserving" buys you, shown the blunt way: feed the
# building blocks random positive states and verify the guarantees hold
# every single time, not just on friendly inputs.
#
#   reaction step:  strict positivity, pointwise free-energy decrease,
#                   linear invariants conserved to the last bit
#   linear diffusion (exponential integrator):  exact mass conservation
#   nonlinear diffusion (mobility-form CN):     mass, positivity, entropy,
#                   and on near-vacuum fields a solution or a typed error

import numpy as np

from rdsplit import (DiffusionLaw, Field, Grid, PointState, RdsplitError, ReactionSpec,
                     diffusion_energy, etd_step, nonlinear_cn_step,
                     point_free_energy, reaction_step)
from rdsplit.diffusion import nonlinear_cn_step_counted

rng = np.random.default_rng(7)
trials = 300

worst_F_rise = -np.inf
worst_invariant_drift = 0.0
for _ in range(trials):
    nsp = int(rng.integers(2, 5))
    alpha = rng.integers(0, 3, nsp).astype(float)
    beta = rng.integers(0, 3, nsp).astype(float)
    if np.array_equal(alpha, beta):
        beta[0] += 1.0
    spec = ReactionSpec.law_of_mass_action(alpha, beta,
                                           float(rng.uniform(0.2, 3.0)),
                                           float(rng.uniform(0.2, 3.0)))
    c0 = rng.uniform(0.1, 4.0, nsp)
    st = PointState(c0)
    R = reaction_step(st, spec, float(10.0 ** rng.uniform(-3, 0.5)))
    c1 = c0 + spec.sigma * R
    assert c1.min() > 0.0
    worst_F_rise = max(worst_F_rise,
                       point_free_energy(R, st, spec) - point_free_energy(0.0, st, spec))
    # any vector orthogonal to sigma is a conserved linear invariant
    e = rng.standard_normal(nsp)
    e -= e @ spec.sigma / (spec.sigma @ spec.sigma) * spec.sigma
    worst_invariant_drift = max(worst_invariant_drift, abs(e @ c1 - e @ c0))

print(f"reaction, {trials} random chemistries:")
print(f"  positivity violations        0")
print(f"  worst free-energy rise       {worst_F_rise:.3e}  (<= 0 up to roundoff)")
print(f"  worst invariant drift        {worst_invariant_drift:.3e}")

grid = Grid(dim=2, n0=16, lower=-1.0, upper=1.0)
worst_mass = 0.0
for _ in range(trials):
    rho = Field(grid, rng.uniform(0.1, 5.0, grid.shape))
    new = etd_step(rho, DiffusionLaw.constant(float(rng.uniform(0.01, 2.0))),
                   float(10.0 ** rng.uniform(-3, 1)))
    m0 = rho.values.sum() * grid.cell_volume
    worst_mass = max(worst_mass, abs(new.values.sum() * grid.cell_volume - m0) / m0)
print(f"linear diffusion, {trials} random fields:")
print(f"  worst relative mass drift    {worst_mass:.3e}")

grid1 = Grid(dim=1, n0=24)
worst_mass = 0.0
worst_entropy_rise = -np.inf
for _ in range(trials):
    law = DiffusionLaw.power(float(rng.uniform(0.05, 1.0)), int(rng.integers(1, 4)))
    rho = Field(grid1, rng.uniform(0.2, 3.0, grid1.shape))
    new = nonlinear_cn_step(rho, law, float(10.0 ** rng.uniform(-3, 0.5)))
    assert new.values.min() > 0.0
    m0 = rho.values.sum()
    worst_mass = max(worst_mass, abs(new.values.sum() - m0) / m0)
    worst_entropy_rise = max(worst_entropy_rise,
                             diffusion_energy(new) - diffusion_energy(rho))
print(f"nonlinear diffusion, {trials} random fields:")
print(f"  positivity violations        0")
print(f"  worst relative mass drift    {worst_mass:.3e}")
print(f"  worst entropy rise           {worst_entropy_rise:.3e}  (<= 0 up to roundoff)")

# near vacuum: cells log-uniform from 1e-20 to 1, twenty decades in one field
near_vacuum = 50
updates, typed_errors = [], 0
for _ in range(near_vacuum):
    law = DiffusionLaw.power(float(10.0 ** rng.uniform(-3, 3)), float(rng.uniform(1.5, 4.0)))
    rho = Field(grid1, 10.0 ** rng.uniform(-20, 0, grid1.shape))
    try:
        new, n_iter = nonlinear_cn_step_counted(rho, law, float(10.0 ** rng.uniform(-6, 2)))
    except RdsplitError:
        typed_errors += 1
        continue
    assert new.values.min() > 0.0
    updates.append(n_iter)
print(f"nonlinear diffusion, {near_vacuum} near-vacuum fields (1e-20 to 1):")
print(f"  solved                       {len(updates)}")
print(f"  typed errors                 {typed_errors}")
print(f"  Newton updates, mean / max   {np.mean(updates):.2f} / {max(updates)}")
