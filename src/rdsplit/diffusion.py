"""Diffusion sub-steps: exact exponential stepping and nonlinear Crank-Nicolson.

Every species diffuses by one law, the flux form ``D0 Lap(rho^alpha_exp)``,
and its exponent picks the integrator. Linear diffusion (alpha_exp = 1,
coefficient D0) is advanced exactly through the semigroup of the discrete
Laplacian, diagonalized by the real FFT on the periodic grid (eigenvalue
``-sum_axis (4/h^2) sin^2(pi k / n0)`` per mode). The propagator multiplies
each mode by ``exp(dt D0 lambda_k)``, so the zero mode (total mass) is
untouched and every other multiplier lies in (0, 1]; positivity follows from
the maximum principle of the exact semigroup.

Nonlinear diffusion (alpha_exp > 1), ``d rho/dt = div(D(rho) grad rho)`` with
``D(rho) = alpha_exp D0 rho^(alpha_exp - 1)``, is advanced by a mobility-form
Crank-Nicolson step. A semi-implicit predictor freezes the coefficient at the
old state,

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

from .errors import InvalidInput, NonConvergence
from .grid import Field, Grid, _check_positive, _divgrad, _face_sum, average_to_faces
from .reaction import _check_dt, _xlnx_slope

__all__ = [
    "DiffusionLaw", "etd_step", "semi_implicit_predictor", "nonlinear_cn_step",
    "nonlinear_cn_step_counted", "diffusion_energy",
]


@dataclass(frozen=True)
class DiffusionLaw:
    """How one species diffuses: the flux form ``D0 Lap(rho^alpha_exp)``.

    The coefficient is ``D(rho) = alpha_exp D0 rho^(alpha_exp-1)`` and the
    mobility ``M(rho) = D(rho) rho = alpha_exp D0 rho^alpha_exp``. ``D0 = 0``
    is no diffusion and ``alpha_exp = 1`` linear diffusion with coefficient
    D0, so ``power(D, 1) == constant(D)``; :attr:`kind` names the three cases.
    """

    D0: float = 0.0
    alpha_exp: float = 1.0

    def __post_init__(self):
        if not (0 <= self.D0 < math.inf and 1 <= self.alpha_exp < math.inf):
            raise InvalidInput("diffusion needs finite D0 >= 0 and alpha_exp >= 1")

    @classmethod
    def none(cls) -> "DiffusionLaw":
        return cls()

    @classmethod
    def constant(cls, D: float) -> "DiffusionLaw":
        return cls.power(D, 1.0)

    @classmethod
    def power(cls, D0: float, alpha_exp: float) -> "DiffusionLaw":
        if not float(D0) > 0:  # the rest is __post_init__'s
            raise InvalidInput("diffusion needs a finite D0 > 0")
        return cls(float(D0), float(alpha_exp))

    @property
    def kind(self) -> str:
        """``"none"`` where D0 = 0, else ``"constant"`` where alpha_exp = 1, else ``"power"``."""
        return "none" if self.D0 == 0 else "constant" if self.alpha_exp == 1 else "power"

    def coefficient(self, rho: np.ndarray) -> np.ndarray:
        """Diffusion coefficient D(rho), elementwise."""
        return self.alpha_exp * self.D0 * rho ** (self.alpha_exp - 1.0)

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
    may underflow to +0, also where ``dt D lambda_k`` leaves the double range.
    """
    lam = _laplacian_symbol(grid)
    # the zero mode's exponent is 0 by construction, never inf * 0 where dt D overflows;
    # a product past the double range is -inf, whose multiplier is 0
    with np.errstate(over="ignore"):
        mult = np.exp(np.multiply(dt * D, lam, out=np.zeros_like(lam), where=lam < 0))
    if mult.ravel()[0] != 1.0 or mult.max() > 1.0 or mult.min() < 0.0:
        raise InvalidInput("propagator multipliers left (0, 1]")
    mult.setflags(write=False)
    return mult


def etd_step(rho: Field, law: DiffusionLaw, dt: float) -> Field:
    """One exact diffusion step ``exp(dt D0 Lap_h)`` for a linear law (alpha_exp = 1)."""
    if law.kind != "constant":
        raise InvalidInput("etd_step applies to constant-coefficient diffusion only")
    _check_positive(rho.values, rho.grid, "nonpositive density entering exponential step")
    _check_dt(dt)
    out = _fft_multiply(rho.grid, rho.values, _etd_multipliers(rho.grid, law.D0, float(dt)))
    _check_positive(out, rho.grid, "exponential step lost positivity")
    return Field(rho.grid, out)


_NEWTON_TOL = 1e-10  # max-norm residual, relative to max(1, max rho_n)
_NEWTON_MAX_ITER = 50
_CG_TOL = 1e-12  # relative 2-norm residual ending each CG solve
_CG_MAX_ITER = 1000
_EPS = float(np.finfo(float).eps)


@np.errstate(all="ignore")  # a value that is not finite is raised as below, never warned
def _spd_solve(grid: Grid, diag, faces, scale: float, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = (diag - scale div(faces grad)) x = b`` by preconditioned CG.

    ``diag`` is positive (scalar or per cell). ``K``, the operator with mean
    diagonal and mean face weight, is inverted exactly by FFT; the start guess
    ``K^-1 b`` alone solves constant coefficients. The preconditioner scales
    ``K^-1`` on both sides by ``sqrt(diag(K)/diag(A))`` for degenerate weights.
    Inner products go through einsum, never BLAS, whose threads would split
    the sums and make the bits depend on the CPU count. A residual that is not
    finite raises NonConvergence, as do an iterate that is not finite once
    the residual meets the tolerance and a breakdown, ``<r, z>`` not positive.
    """
    def apply(x):
        return diag * x - scale * _divgrad(faces, x, grid.h)

    def dot(u, v):
        return np.einsum("i,i", u.ravel(), v.ravel())

    mean_diag, mean_face = np.mean(diag), np.mean([w.mean() for _, w in faces])
    symbol = 1.0 / (mean_diag - scale * mean_face * _laplacian_symbol(grid))
    c = scale / grid.h ** 2
    a_diag = diag + c * _face_sum(faces)
    sigma = np.sqrt((mean_diag + c * 2 * grid.dim * mean_face) / a_diag)
    x = _fft_multiply(grid, b, symbol)
    r = b - apply(x)
    stop = _CG_TOL * np.sqrt(dot(b, b))
    p, rz_old = np.zeros_like(b), 1.0
    for it in range(_CG_MAX_ITER):
        res = np.sqrt(dot(r, r))
        if not np.isfinite(res) or res <= stop and not np.isfinite(x).all():
            raise NonConvergence("conjugate gradients reached a value that is not finite",
                                 residual=float(res), iterations=it)
        if res <= stop:
            return x
        z = sigma * _fft_multiply(grid, sigma * r, symbol)
        rz = dot(r, z)
        if not rz > 0:  # positive in exact arithmetic while r is not 0
            raise NonConvergence("conjugate gradients broke down: <r, z> is not positive",
                                 residual=float(res), iterations=it)
        p = z + (rz / rz_old) * p
        q = apply(p)
        alpha = rz / dot(p, q)
        x += alpha * p
        r -= alpha * q
        rz_old = rz
    raise NonConvergence("conjugate gradients hit the iteration cap",
                         residual=float(np.sqrt(dot(r, r))), iterations=_CG_MAX_ITER)


@np.errstate(over="ignore")  # an overflow is raised as below, never warned
def _face_weights(grid: Grid, weight, rho: np.ndarray, what: str):
    """``(axis, face average)`` pairs of ``weight(rho)``, the law's D or M.

    Raises NonConvergence where a value or a face average overflows.
    """
    v = weight(rho)
    if np.isfinite(v).all():
        f = Field(grid, v)
        faces = [(ax, average_to_faces(f, ax).values) for ax in range(grid.dim)]
        if all(np.isfinite(w).all() for _, w in faces):
            return faces
    raise NonConvergence(f"nonlinear diffusion {what} overflows", iterations=0)


def semi_implicit_predictor(rho_n: Field, law: DiffusionLaw, dt: float) -> Field:
    """Backward-Euler-type predictor with the coefficient frozen at rho_n.

    Solves ``(I/dt - div(avg(D(rho_n)) grad)) rho_hat = rho_n/dt``. The matrix
    is an M-matrix, so the solution is unique, cellwise positive, and
    conserves mass up to the CG residual (relative 2-norm 1e-12). Where CG's
    iterate, short of that, has a cell <= 0, one Jacobi sweep of the same
    matrix from ``max(x, 0)``, a sum of positive terms only, replaces it.
    """
    _check_dt(dt)
    _check_positive(rho_n.values, rho_n.grid, "nonpositive density entering nonlinear diffusion")
    if law.kind == "none":
        raise InvalidInput("predictor needs a diffusing species")
    grid = rho_n.grid
    faces = _face_weights(grid, law.coefficient, rho_n.values, "coefficient")
    b = rho_n.values / dt
    rho_hat = _spd_solve(grid, 1.0 / dt, faces, 1.0, b)
    if not rho_hat.min() > 0:  # neighbours summed by rolls: _divgrad would cancel
        x, c = np.maximum(rho_hat, 0.0), 1.0 / grid.h ** 2
        nb = sum(w * np.roll(x, -1, axis=ax) + np.roll(w * x, 1, axis=ax) for ax, w in faces)
        rho_hat = (b + c * nb) / (1.0 / dt + c * _face_sum(faces))
        _check_positive(rho_hat, grid, "semi-implicit predictor lost positivity")
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
    a genuinely stalled solve. A plain Newton update that does not lower
    ``max|r|`` once ``max|r| <= cap`` also counts as converged: the iteration
    has reached its own roundoff, which the floor estimates only from each
    cell's own terms. The predictor checks ``rho_n`` and ``dt``.
    """
    grid = rho_n.grid
    rho_hat = semi_implicit_predictor(rho_n, law, dt)
    rho_mid = 0.5 * (rho_n.values + rho_hat.values)
    faces = _face_weights(grid, law.mobility, rho_mid, "mobility")

    rn = rho_n.values
    log_rn = np.log(rn)
    x = rho_hat.values
    rho_ref = max(1.0, float(np.abs(rn).max()))
    tol, cap = _NEWTON_TOL * rho_ref, np.sqrt(_EPS) * rho_ref
    with np.errstate(over="ignore"):  # a roundoff estimate only: past the doubles it is cap
        reach = dt / grid.h ** 2 * _face_sum(faces)

    def residual(x):
        g1, g2, L = _xlnx_slope(rn, x - rn, log_rn)
        mu = g1 + dt * L
        with np.errstate(over="ignore"):  # a subnormal x: mu' = inf holds that cell still
            mu_prime = g2 + dt / x
        size = np.abs(g1) + dt * np.abs(L)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or inf * 0: cap, below
            floor = 2.0 * _EPS * float(np.max(reach * size))
        r = x - rn - dt * _divgrad(faces, mu, grid.h)
        return r, mu_prime, max(tol, floor if floor < cap else cap)

    n_iter, newton = 0, True
    r, mu_prime, stop = residual(x)
    res = float(np.abs(r).max())
    while not (res <= stop and newton):  # NaN never converges; a mapped update may move mass
        n_iter += 1
        if n_iter > _NEWTON_MAX_ITER or not math.isfinite(res):
            raise NonConvergence(
                f"nonlinear diffusion Newton stalled at residual {res:.3e}",
                residual=res, iterations=n_iter - 1)
        # J = (diag(1/mu') - dt L) diag(mu'): solve the SPD factor for mu' delta
        delta = _spd_solve(grid, 1.0 / mu_prime, faces, dt, -r) / mu_prime
        # plain Newton where delta >= -x/4: it keeps sum(x), as r sums to sum(x - rn);
        # past it x w (1/2 + w/4), C1 there, positive, and far out a Newton step in ln x
        far = delta < -0.25 * x
        x_far, x, newton = x[far], x + delta, not far.any()
        if not newton:  # exp only where taken: elsewhere it can overflow
            w = np.exp(delta[far] / x_far + 0.25)
            x[far] = x_far * w * (0.5 + 0.25 * w)
        _check_positive(x, grid, "nonlinear diffusion Newton drove a cell below the doubles")
        r, mu_prime, stop = residual(x)
        last, res = res, float(np.abs(r).max())
        if newton and last <= res <= cap:
            break
    return Field(grid, x), n_iter


def diffusion_energy(rho: Field) -> float:
    """Entropy-type energy ``<rho ln rho, 1>`` of a positive field; InvalidInput if not finite."""
    _check_positive(rho.values, rho.grid, "energy needs a strictly positive field")
    v = rho.values
    with np.errstate(over="ignore"):  # an overflow shows as an inf in the energy, checked below
        energy = float(rho.grid.cell_volume * np.sum(v * np.log(v)))
    if not math.isfinite(energy):
        raise InvalidInput(f"diffusion energy overflows to {energy}")
    return energy
