"""Diffusion sub-steps: exact exponential stepping and nonlinear Crank-Nicolson.

Constant-coefficient diffusion is advanced exactly through the semigroup of
the discrete Laplacian, diagonalized by the real FFT on the periodic grid
(eigenvalue ``-sum_axis (4/h^2) sin^2(pi k / n0)`` per mode). The propagator
multiplies each mode by ``exp(dt D lambda_k)``, so the zero mode (total mass)
is untouched and every other multiplier lies in (0, 1]; positivity follows
from the maximum principle of the exact semigroup.

Density-dependent diffusion ``d rho/dt = div(D(rho) grad rho)`` with
``D(rho) = alpha_exp D0 rho^(alpha_exp - 1)`` (the flux form
``D0 Lap(rho^alpha_exp)``) is advanced by a mobility-form Crank-Nicolson
step. A semi-implicit predictor freezes the coefficient at the old state,

    (rho_hat - rho_n)/dt = div( avg(D(rho_n)) grad rho_hat ),

then the face mobility ``M = avg(D(rho_mid) rho_mid)`` with
``rho_mid = (rho_n + rho_hat)/2`` is frozen and the update solves

    (rho_new - rho_n)/dt = div( M grad mu ),
    mu = G1(rho_n, rho_new) + dt ln(rho_new / rho_n),

where G1 is the slope of x ln x, the kernel whose trajectory form is the
reaction corrector's difference quotient. Multiplying by mu and summing cells
telescopes the G1 term into the free energy ``<rho ln rho, 1>``, so the step
dissipates it by at least ``dt <M grad mu, grad mu>``; the dt term only
strengthens the inequality. Mass is conserved because the right side is a
discrete divergence, so the same holds for ``<rho ln rho + C rho, 1>`` with
any constant C, which would shift mu by a constant that ``grad`` removes.

Its linear systems are symmetric positive definite, solved matrix-free by
conjugate gradients on the array kernel ``_divgrad``, preconditioned by the
diagonally scaled exact FFT inverse of the mean-coefficient operator (Concus & Golub 1973).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInput, NonConvergence, PositivityViolation
from .grid import Field, Grid, _divgrad, average_to_faces
from .reaction import _check_dt, _xlnx_slope

__all__ = [
    "DiffusionLaw", "etd_step", "semi_implicit_predictor", "nonlinear_cn_step",
    "nonlinear_cn_step_counted", "diffusion_energy",
]


@dataclass(frozen=True)
class DiffusionLaw:
    """How one species diffuses: not at all, linearly, or by a power law.

    ``power(D0, alpha_exp)`` means the flux form ``D0 Lap(rho^alpha_exp)``,
    i.e. coefficient ``D(rho) = alpha_exp D0 rho^(alpha_exp-1)`` and mobility
    ``M(rho) = D(rho) rho = alpha_exp D0 rho^alpha_exp``.
    """

    kind: str
    D: float = 0.0
    D0: float = 0.0
    alpha_exp: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "constant", "power"):
            raise InvalidInput(f"unknown diffusion kind {self.kind!r}")
        if self.kind == "constant" and not 0 < self.D < math.inf:
            raise InvalidInput("constant diffusion needs a finite D > 0")
        if self.kind == "power" and not (0 < self.D0 < math.inf
                                         and 1 <= self.alpha_exp < math.inf):
            raise InvalidInput("power diffusion needs finite D0 > 0 and alpha_exp >= 1")

    @classmethod
    def none(cls) -> "DiffusionLaw":
        return cls(kind="none")

    @classmethod
    def constant(cls, D: float) -> "DiffusionLaw":
        return cls(kind="constant", D=float(D))

    @classmethod
    def power(cls, D0: float, alpha_exp: float) -> "DiffusionLaw":
        return cls(kind="power", D0=float(D0), alpha_exp=float(alpha_exp))

    def coefficient(self, rho: np.ndarray) -> np.ndarray:
        """Diffusion coefficient D(rho), elementwise."""
        if self.kind == "constant":
            return np.full_like(rho, self.D)
        if self.kind == "power":
            return self.alpha_exp * self.D0 * rho ** (self.alpha_exp - 1.0)
        return np.zeros_like(rho)

    def mobility(self, rho: np.ndarray) -> np.ndarray:
        """Mobility D(rho) * rho, elementwise."""
        return self.coefficient(rho) * rho


def _laplacian_symbol(grid: Grid) -> np.ndarray:
    """Eigenvalues of the periodic discrete Laplacian on the rfft mode grid."""
    n0, h = grid.n0, grid.h
    full = -(4.0 / h ** 2) * np.sin(np.pi * np.arange(n0) / n0) ** 2
    per_axis = [full] * (grid.dim - 1) + [full[: n0 // 2 + 1]]
    return sum(np.meshgrid(*per_axis, indexing="ij", sparse=True))


def _fft_multiply(grid: Grid, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Multiply each rfft mode of ``values`` by ``symbol`` and transform back."""
    axes = tuple(range(grid.dim))
    return np.fft.irfftn(np.fft.rfftn(values, axes=axes) * symbol, s=grid.shape, axes=axes)


@lru_cache(maxsize=64)
def _etd_multipliers(grid: Grid, D: float, dt: float):
    """Mode multipliers ``exp(dt D lambda_k)`` of the exact propagator, cached per (grid, D, dt).

    The zero mode's is exactly 1 and all lie in (0, 1]; heavily damped modes
    may underflow to +0.
    """
    mult = np.exp(dt * D * _laplacian_symbol(grid))
    if mult.ravel()[0] != 1.0 or mult.max() > 1.0 or mult.min() < 0.0:
        raise InvalidInput("propagator multipliers left (0, 1]")
    mult.setflags(write=False)
    return mult


def etd_step(rho: Field, law: DiffusionLaw, dt: float) -> Field:
    """One exact diffusion step ``exp(dt D Lap_h)`` for a constant-coefficient law."""
    if law.kind != "constant":
        raise InvalidInput("etd_step applies to constant-coefficient diffusion only")
    if np.any(rho.values <= 0):
        raise PositivityViolation("etd_step needs a strictly positive field")
    _check_dt(dt)
    out = _fft_multiply(rho.grid, rho.values, _etd_multipliers(rho.grid, law.D, float(dt)))
    if out.min() <= 0:
        raise PositivityViolation("exponential step lost positivity")
    return Field(rho.grid, out)


_NEWTON_TOL = 1e-10  # max-norm residual, relative to max(1, max rho_n)
_NEWTON_MAX_ITER = 50
_MAX_HALVINGS = 60  # line-search halvings allowed to keep the iterate positive
_CG_TOL = 1e-12  # relative 2-norm residual ending each CG solve
_CG_MAX_ITER = 1000
_EPS = float(np.finfo(float).eps)


def _face_sum(faces: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Per cell, the sum over axes of its two face weights, ``w + roll(w, 1)``."""
    return sum(w + np.roll(w, 1, axis=ax) for ax, w in faces)


def _spd_solve(grid: Grid, diag, faces, scale: float, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = (diag - scale div(faces grad)) x = b`` by preconditioned CG.

    ``diag`` is positive (scalar or per cell). ``K``, the operator with mean
    diagonal and mean face weight, is inverted exactly by FFT; the start guess
    ``K^-1 b`` alone solves constant coefficients. The preconditioner scales
    ``K^-1`` on both sides by ``sqrt(diag(K)/diag(A))`` for degenerate weights.
    """
    def apply(x):
        return diag * x - scale * _divgrad(faces, x, grid.h)

    mean_diag, mean_face = np.mean(diag), np.mean([w.mean() for _, w in faces])
    symbol = 1.0 / (mean_diag - scale * mean_face * _laplacian_symbol(grid))
    c = scale / grid.h ** 2
    a_diag = diag + c * _face_sum(faces)
    sigma = np.sqrt((mean_diag + c * 2 * grid.dim * mean_face) / a_diag)
    x = _fft_multiply(grid, b, symbol)
    r = b - apply(x)
    stop = _CG_TOL * np.linalg.norm(b)
    p, rz_old = np.zeros_like(b), 1.0
    for _ in range(_CG_MAX_ITER):
        if np.linalg.norm(r) <= stop:
            return x
        z = sigma * _fft_multiply(grid, sigma * r, symbol)
        rz = np.vdot(r, z)
        p = z + (rz / rz_old) * p
        q = apply(p)
        alpha = rz / np.vdot(p, q)
        x += alpha * p
        r -= alpha * q
        rz_old = rz
    raise NonConvergence("conjugate gradients hit the iteration cap",
                         residual=float(np.linalg.norm(r)), iterations=_CG_MAX_ITER)


def semi_implicit_predictor(rho_n: Field, law: DiffusionLaw, dt: float) -> Field:
    """Backward-Euler-type predictor with the coefficient frozen at rho_n.

    Solves ``(I/dt - div(avg(D(rho_n)) grad)) rho_hat = rho_n/dt``. The matrix
    is an M-matrix, so the solution is unique, cellwise positive, and
    conserves mass up to the CG residual (relative 2-norm 1e-12).
    """
    _check_dt(dt)
    if np.any(rho_n.values <= 0):
        raise PositivityViolation("nonlinear diffusion needs a strictly positive field")
    if law.kind == "none":
        raise InvalidInput("predictor needs a diffusing species")
    grid = rho_n.grid
    coeff = Field(grid, law.coefficient(rho_n.values))
    faces = [(ax, average_to_faces(coeff, ax).values) for ax in range(grid.dim)]
    rho_hat = _spd_solve(grid, 1.0 / dt, faces, 1.0, rho_n.values / dt)
    if rho_hat.min() <= 0:
        raise PositivityViolation("semi-implicit predictor lost positivity")
    return Field(grid, rho_hat)


def nonlinear_cn_step(rho_n: Field, law: DiffusionLaw, dt: float) -> Field:
    """One mobility-form Crank-Nicolson step for density-dependent diffusion."""
    out, _ = nonlinear_cn_step_counted(rho_n, law, dt)
    return out


def nonlinear_cn_step_counted(rho_n: Field, law: DiffusionLaw, dt: float
                              ) -> tuple[Field, int]:
    """Like :func:`nonlinear_cn_step`, also returning the Newton iteration count.

    Newton stops at ``max|r| <= max(tol, min(floor, cap))``: ``tol`` is 1e-10
    relative to ``max(1, max rho_n)``; ``floor`` is the roundoff that
    ``dt div(M grad mu)`` carries, twice eps times the largest product of a
    cell's stencil weight ``dt/h^2 sum(M)`` and the size of the terms summed
    into its mu; ``cap`` (sqrt(eps) relative) keeps that floor from excusing
    a genuinely stalled solve. The predictor checks ``rho_n`` and ``dt``.
    """
    grid = rho_n.grid
    rho_hat = semi_implicit_predictor(rho_n, law, dt)
    rho_mid = 0.5 * (rho_n.values + rho_hat.values)
    mob = Field(grid, law.mobility(rho_mid))
    faces = [(ax, average_to_faces(mob, ax).values) for ax in range(grid.dim)]

    rn = rho_n.values
    log_rn = np.log(rn)
    x = rho_hat.values
    rho_ref = max(1.0, float(np.abs(rn).max()))
    tol, cap = _NEWTON_TOL * rho_ref, np.sqrt(_EPS) * rho_ref
    reach = dt / grid.h ** 2 * _face_sum(faces)

    def residual(x):
        g1, g2, L = _xlnx_slope(rn, x - rn, log_rn)
        mu = g1 + dt * L
        mu_prime = g2 + dt / x
        size = np.abs(g1) + dt * np.abs(L)
        floor = 2.0 * _EPS * float(np.max(reach * size))
        r = x - rn - dt * _divgrad(faces, mu, grid.h)
        return r, mu_prime, max(tol, min(floor, cap))

    n_iter = 0
    r, mu_prime, stop = residual(x)
    while float(np.abs(r).max()) > stop:
        n_iter += 1
        if n_iter > _NEWTON_MAX_ITER:
            raise NonConvergence(
                f"nonlinear diffusion Newton stalled at residual {float(np.abs(r).max()):.3e}",
                residual=float(np.abs(r).max()), iterations=_NEWTON_MAX_ITER)
        # J = (diag(1/mu') - dt L) diag(mu'): solve the SPD factor for mu' delta
        delta = _spd_solve(grid, 1.0 / mu_prime, faces, dt, -r) / mu_prime
        s = 1.0
        for _ in range(_MAX_HALVINGS):
            if (x + s * delta).min() > 0:
                break
            s *= 0.5
        else:
            raise PositivityViolation(
                "nonlinear diffusion line search could not restore positivity")
        x = x + s * delta
        r, mu_prime, stop = residual(x)
    if x.min() <= 0:
        raise PositivityViolation("nonlinear diffusion step lost positivity")
    return Field(grid, x), n_iter


def diffusion_energy(rho: Field) -> float:
    """Entropy-type energy ``<rho ln rho, 1>`` of a positive field."""
    if np.any(rho.values <= 0):
        raise PositivityViolation("energy needs a strictly positive field")
    v = rho.values
    return float(rho.grid.cell_volume * np.sum(v * np.log(v)))
