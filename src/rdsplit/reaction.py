"""Positivity-preserving solver for one reversible reaction at a point.

The reaction is tracked through a scalar trajectory variable R with
concentrations ``c(R) = c0 + sigma R``, ``sigma = beta - alpha``. One step of
size ``dt`` solves a monotone scalar equation whose root keeps every species
strictly positive, conserves ``e . c`` for every ``e`` orthogonal to sigma,
and dissipates the pointwise free energy

    F(R) = sum_i c_i(R) (ln c_i(R) - 1 + U_i).

Two residuals are used. The first-order predictor solves

    ln((Rhat - Rn)/(eta(c(Rn)) dt) + 1) + sum_i sigma_i mu_i(c(Rhat)) = 0,

with mobility ``eta(c) = k_minus prod_i c_i^beta_i`` and chemical potential
``mu_i = ln c_i + U_i``. The second-order step freezes the mobility at the
predicted midpoint, ``eta* = eta(c((Rn + Rhat)/2))``, and solves

    ln((R - Rn)/(eta* dt) + 1) + phi(R, Rn)
        + dt sum_i sigma_i (mu_i(c(R)) - mu_i(c(Rn))) = 0,

where ``phi(p, q) = (F(p) - F(q))/(p - q)`` is the difference quotient of the
free energy along the trajectory (its value at p = q is F'(p), the affinity).
Both residuals are strictly increasing on the admissible interval and blow up
at its ends, so a bracketed Newton iteration cannot escape or stall. Both
read ``log1p(R/(eta dt)) + h(R)`` with h increasing and ``h(0) = A0``, the
affinity ``sum_i sigma_i mu_i(c0)`` at the start of the step. Both are
solved in the log-gap variable ``y = log1p(R/(eta dt))``, where they read
``y + h(R(y))`` with ``R(y) = eta dt expm1(y)`` increasing, so every root
lies in y between 0 and ``-A0``: the bracket of each solve, exact, with no
margin. In y a root next to ``R = -eta dt``, whose gap ``R + eta dt`` is far
below the ulp of eta dt, is an ordinary number. The first update of each
solve is a Halley step, which uses ``g'' = P h' + P^2 h''`` at the start
point (``P = dR/dy``); every later one is a Newton step.

Every sub-step starts from Rn = 0; callers fold the returned R into the
concentrations and reset.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import InvalidInput, NonConvergence
from .grid import Field, _check_point, _check_positive, _check_same_grid


@dataclass(frozen=True, eq=False)
class ReactionSpec:
    """One reversible reaction with rate constants and internal energies.

    Parameters
    ----------
    alpha, beta : arrays of nonnegative stoichiometric coefficients
        Reactant and product sides; ``sigma = beta - alpha``.
    k_plus, k_minus : float
        Forward and backward rate constants, both positive.
    U : array, optional
        Internal energy per species. Detailed balance ties it to the rates:
        ``sigma . U = ln(k_minus / k_plus)``. Arbitrary U is accepted with a
        warning when that identity fails, but the reaction then relaxes to a
        different equilibrium than mass-action kinetics would.

        When omitted, U is derived so that the trajectory ODE reproduces
        mass-action kinetics. The energies are distributed over the species
        the reaction consumes and produces: ``U_i = ln(k_plus)/s-`` where
        ``sigma_i < 0`` (``s- = sum of consumed stoichiometry``) and
        ``U_i = ln(k_minus)/s+`` where ``sigma_i > 0``, which makes
        ``sigma . U = ln(k_minus/k_plus)`` exactly. For one consumed and one
        produced species this is ``U = (ln k_plus, ln k_minus)``. If the
        reaction only consumes or only produces (all of sigma on one side,
        e.g. A <-> 2A), the whole log ratio is folded onto that side instead.
        If alpha == beta, U is zero and the rates must be equal.
    """

    alpha: np.ndarray
    beta: np.ndarray
    k_plus: float
    k_minus: float
    U: np.ndarray | None = None
    sigma: np.ndarray = field(init=False, repr=False)  # beta - alpha

    def __post_init__(self):
        # copies, read-only below: a spec is a value, which the caller's arrays cannot change
        a = np.atleast_1d(np.array(self.alpha, dtype=float))
        b = np.atleast_1d(np.array(self.beta, dtype=float))
        u = None if self.U is None else np.atleast_1d(np.array(self.U, dtype=float))
        if a.ndim != 1 or a.shape != b.shape or (u is not None and a.shape != u.shape):
            raise InvalidInput("alpha, beta, U must be 1-D arrays of equal length")
        if a.size == 0:
            raise InvalidInput("need at least one species")
        if not (np.all(np.isfinite(a) & (a >= 0)) and np.all(np.isfinite(b) & (b >= 0))):
            raise InvalidInput("stoichiometric coefficients must be finite and nonnegative")
        if not (0 < self.k_plus < math.inf and 0 < self.k_minus < math.inf):
            raise InvalidInput("rate constants must be positive and finite")
        log_ratio = math.log(self.k_minus) - math.log(self.k_plus)  # k_minus / k_plus can underflow
        sigma = b - a
        if u is None:
            u = np.zeros_like(sigma)
            s_minus = -sigma[sigma < 0].sum()
            s_plus = sigma[sigma > 0].sum()
            if s_minus == 0 and s_plus == 0:
                if abs(log_ratio) > 1e-12:
                    raise InvalidInput(
                        "alpha == beta leaves no stoichiometric change; detailed balance "
                        "then requires k_plus == k_minus")
            elif s_minus == 0:
                u[sigma > 0] = log_ratio / s_plus
            elif s_plus == 0:
                u[sigma < 0] = -log_ratio / s_minus
            else:
                u[sigma < 0] = np.log(self.k_plus) / s_minus
                u[sigma > 0] = np.log(self.k_minus) / s_plus
        elif not np.all(np.isfinite(u)):
            raise InvalidInput("U must be finite")
        # |ln c| < 745 for every positive double c, so below this bound no affinity
        # sum_i sigma_i (ln c_i + U_i) overflows, and every bracket end is finite
        with np.errstate(over="ignore"):
            bound = float(np.abs(sigma) @ (np.abs(u) + 750.0))
        if not bound < sys.float_info.max:
            raise InvalidInput("sum_i |sigma_i| (|U_i| + 750) must stay below the largest "
                               "double, or an affinity can overflow")
        for arr in (a, b, u, sigma):
            arr.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "k_plus", float(self.k_plus))
        object.__setattr__(self, "k_minus", float(self.k_minus))
        gap = float(sigma @ u) - log_ratio
        if abs(gap) > 1e-12:
            warnings.warn(
                "internal energies break detailed balance: sigma.U - ln(k-/k+) = "
                f"{gap:.3e}; the reaction will not relax to the mass-action equilibrium",
                stacklevel=3)  # past the generated __init__, at the caller

    def __setstate__(self, state):
        # a copy or an unpickled spec (the stage helper gets one) stays a value
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n_species(self) -> int:
        return self.alpha.size


@dataclass
class PointState:
    """Concentrations ``c0`` at one point, where a stage starts (R = 0)."""

    c0: np.ndarray

    def __post_init__(self):
        self.c0 = _check_point(self.c0, "concentrations")


# Every Newton solve stops at |residual| <= _TOL or raises NonConvergence after
# _MAX_ITER iterations. A stage solves its cells in near-equal contiguous blocks
# of at most _BLOCK cells, so the Newton temporaries stay cache-sized.
_TOL = 1e-12
_MAX_ITER = 100
_BLOCK = 16384
_LOG_MAX = float(np.log(np.finfo(float).max))  # an eta dt with a larger log overflows


def reaction_mobility(c, spec: ReactionSpec) -> float:
    """Mobility ``eta(c) = k_minus prod_i c_i^beta_i``; InvalidInput where not finite."""
    c = _check_point(c, "concentrations")
    _check_species(len(c), spec)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or 0 * inf: checked below
        eta = float(spec.k_minus * np.prod(c ** spec.beta))
    return _finite(eta, "mobility")


def point_free_energy(R: float, st: PointState, spec: ReactionSpec) -> float:
    """Pointwise free energy F(R) along the trajectory; InvalidInput where not finite."""
    c = _trajectory_point(R, st, spec)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf: checked below
        F = float(np.sum(c * (np.log(c) - 1.0 + spec.U)))
    return _finite(F, "free energy")


def chemical_affinity(R: float, st: PointState, spec: ReactionSpec) -> float:
    """Affinity ``F'(R) = sum_i sigma_i (ln c_i(R) + U_i)``; zero at equilibrium."""
    c = _trajectory_point(R, st, spec)
    return float(np.sum(spec.sigma * (np.log(c) + spec.U)))


def admissible_interval(st: PointState, spec: ReactionSpec, eta_dt: float
                        ) -> tuple[float, float]:
    """Open interval of R values keeping ``c(R) > 0`` and ``R + eta_dt > 0``.

    ``lo = max(-eta_dt, max_{sigma_i>0} -c0_i/sigma_i)`` and
    ``hi = min_{sigma_i<0} c0_i/(-sigma_i)`` (+inf when nothing is consumed);
    always ``lo < 0 < hi``.
    """
    _check_species(len(st.c0), spec)
    if not 0 < eta_dt < math.inf:
        raise InvalidInput("eta_dt must be positive and finite")
    lo, hi = -float(eta_dt), math.inf
    for c, s in zip(st.c0.tolist(), spec.sigma.tolist()):
        if s > 0:
            lo = max(lo, -c / s)
        elif s < 0:
            hi = min(hi, c / -s)
    return lo, hi


def energy_difference_quotient(p: float, q: float, st: PointState, spec: ReactionSpec
                               ) -> float:
    """Difference quotient ``phi(p, q) = (F(p) - F(q))/(p - q)`` along the trajectory.

    Evaluated species-wise through the slope of x ln x, the kernel the
    solvers use, which keeps full precision for nearby arguments at any
    concentration; at ``p = q`` it is the affinity ``F'(p)``. Symmetric in
    (p, q). InvalidInput where the double evaluation is not finite.
    """
    for r, name in ((p, "p"), (q, "q")):
        _trajectory_point(r, st, spec, name)
    return _finite(_scalar_phi(st.c0.tolist(), spec.sigma.tolist(), spec.U.tolist(),
                               float(p), float(q)), "difference quotient")


def predictor_first_order(st: PointState, spec: ReactionSpec, dt: float) -> float:
    """First-order trajectory update used to freeze the midpoint mobility."""
    _check_species(len(st.c0), spec)
    _check_dt(dt)
    if not spec.sigma.any():
        return 0.0
    Rhat, _, _ = _scalar_predictor(st.c0.tolist(), spec, dt)
    return Rhat


def reaction_step(st: PointState, spec: ReactionSpec, dt: float) -> float:
    """Second-order reaction update at one point; returns the new R.

    The result lies strictly inside the admissible interval, so
    ``c(R) = c0 + sigma R`` is strictly positive, and F(R) <= F(0).
    """
    _check_species(len(st.c0), spec)
    _check_dt(dt)
    if not spec.sigma.any():
        return 0.0
    R, _, _ = _scalar_stage(st.c0.tolist(), spec, dt)
    _trajectory_point(R, st, spec)
    return R


def reaction_stage(fields: list[Field], spec: ReactionSpec, dt: float) -> list[Field]:
    """Apply one reaction sub-step of size dt to every cell of the fields."""
    new_fields, _ = reaction_stage_counted(fields, spec, dt)
    return new_fields


def reaction_stage_counted(fields: list[Field], spec: ReactionSpec, dt: float
                           ) -> tuple[list[Field], float]:
    """Like :func:`reaction_stage` but also returns mean Newton iterations per cell.

    Cells are solved in blocks, and no cell's result depends on the split. A
    NonConvergence names the first failing cell of the first block that fails.
    """
    _check_species(len(fields), spec, "fields")
    _check_same_grid(*fields)
    grid = fields[0].grid
    _check_dt(dt)
    c0 = np.stack([f.values.ravel() for f in fields])
    _check_positive(c0, grid, "nonpositive concentration entering reaction stage")
    if not spec.sigma.any():
        return [f.copy() for f in fields], 0.0
    R, it_pred, it_corr = _solve_stage(c0, spec, dt)
    c_new = c0 + spec.sigma[:, None] * R[None, :]
    _check_positive(c_new, grid, "reaction stage left the positive orthant")
    out = [Field(grid, c_new[i].reshape(grid.shape)) for i in range(spec.n_species)]
    return out, float(np.mean(it_pred + it_corr))


def _check_species(n: int, spec: ReactionSpec, what: str = "concentrations") -> None:
    if n != spec.n_species:
        raise InvalidInput(f"expected {spec.n_species} {what}, got {n}")


def _trajectory_point(R, st, spec, name="R"):
    """``c(R) = c0 + sigma R`` for a state of spec's species, through the point gate."""
    _check_species(len(st.c0), spec)
    if not math.isfinite(R):  # before 0 * inf can warn
        raise InvalidInput(f"{name} must be finite")
    return _check_point(st.c0 + spec.sigma * R, f"c({name})")


def _finite(v: float, what: str) -> float:
    if not math.isfinite(v):
        raise InvalidInput(f"{what} is not finite in double precision: {v}")
    return v


def _check_dt(dt: float) -> None:
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidInput("dt must be positive and finite")


def _xlnx_slope(a, d, log_a, out=None):
    """Slope of x ln x between a and x = a + d, its d-derivative, and log1p(d/a).

    Returns ``(G1, G2, L)`` with ``L = log1p(d/a)``,
    ``G1 = (x ln x - a ln a)/d = ln a + (x/d) L`` and
    ``G2 = dG1/dd = (t - L)/(t d)`` with ``t = d/a``, free of cancellation
    and of the underflow of ``d^2``; ``log_a`` is ``ln a``, which callers
    hoist. All arguments have one shape. Where ``|t| <= 1e-6`` the series
    ``G1 = ln a + 1 + t/2 - t^2/6`` and ``G2 = (1/2 - t/3 + t^2/4)/a``
    overwrites the closed form, which is 0/0 at d = 0.

    ``out``, five arrays of that shape, receives ``(G1, G2, L, x, t)``: the
    results, ``x = a + d`` for the caller to reuse, and scratch. Only the
    series, where it applies, then allocates. Without ``out`` all five are new.
    """
    g1, g2, L, x, t = out if out is not None else [np.empty_like(d) for _ in range(5)]
    small = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(d, a, out=t)
        np.log1p(t, out=L)
        np.add(a, d, out=x)
        np.divide(x, d, out=g1)
        g1 *= L
        g1 += log_a
        # the series runs only if some |t| is small; fmin skips NaN, as the mask does
        if np.fmin.reduce(np.abs(t, out=g2), axis=None) <= 1e-6:
            small = g2 <= 1e-6
            ts = t[small]
        np.multiply(t, d, out=g2)
        np.subtract(t, L, out=t)
        np.divide(t, g2, out=g2)
        if small is not None:  # G2 of a subnormal a can overflow here too
            g1[small] = log_a[small] + 1.0 + ts * (0.5 - ts / 6.0)
            g2[small] = (0.5 - ts * (1.0 / 3.0 - 0.25 * ts)) / a[small]
    return g1, g2, L


# The closed form of G3 loses about 6 eps/t^2 relative to cancellation and its
# two-term series 1.8 t^2; both stay below 2e-7 on either side of this |t|.
_G3_SERIES = 1e-4


def _xlnx_g3(a, d, x, g2, out):
    """``G3 = dG2/dd = (1/x - 2 G2)/d`` of the x ln x slope, and 1/x.

    ``x = a + d`` and ``G2`` come from :func:`_xlnx_slope`. Where
    ``|t| = |d/a| <= _G3_SERIES``, d = 0 included, the series
    ``(t/2 - 1/3)/a^2`` overwrites the closed form. ``out``, three arrays of
    the shape of d, receives ``(G3, 1/x, t)``; the last is scratch.
    """
    g3, q, t = out
    small = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(d, a, out=t)
        if np.fmin.reduce(np.abs(t, out=q), axis=None) <= _G3_SERIES:
            small = q <= _G3_SERIES
        np.divide(1.0, x, out=q)
        np.multiply(g2, 2.0, out=g3)
        np.subtract(q, g3, out=g3)
        np.divide(g3, d, out=g3)
    if small is not None:
        g3[small] = (0.5 * t[small] - 1.0 / 3.0) / a[small] / a[small]
    return g3, q


# The stage workspace (see _solve_stage): rows hold one entry per species and
# cell, the other arrays one entry per cell.
_ROWS = ("log_c0", "d", "g1", "g2", "L", "x", "t")
_CELLS = ("eta_dt", "log_eta_dt", "A0", "a", "b", "y", "Rhat", "g", "hp", "gp", "h2", "res")
_MASKS = ("todo", "fin", "m1", "m2")


def _solve_stage(c0, spec, dt):
    """Predictor + second-order corrector for every column of c0, shape (nsp, m).

    Returns R and the predictor's and corrector's iterations per cell. The
    cells are solved in near-equal contiguous blocks of at most _BLOCK. With
    two or more blocks, the process's stage helper, where one is ready and
    not busy with another thread's stage, solves the upper half of the blocks
    while this process solves the lower half; no cell's result depends on
    which process solved it. A failure names the first failing cell of the
    first block that fails, as without the helper.
    """
    m = c0.shape[1]
    k = -(-m // _BLOCK)
    edges = [m * j // k for j in range(k + 1)]
    if k < 2 or not _helper_lock.acquire(blocking=False):
        return _solve_blocks(c0, spec, dt, edges)
    try:
        helper = _ready_helper()
        if helper is None:
            return _solve_blocks(c0, spec, dt, edges)
        j = (k + 1) // 2
        mid = edges[j]
        upper = (c0[:, mid:], spec, dt, edges[j:])
        helper.send(upper)
        try:
            lower = _solve_blocks(c0[:, :mid], spec, dt, edges[:j + 1])
        except Exception:
            helper.receive()  # keeps the pipe in step; the lower half's failure wins
            raise
        except BaseException:
            helper.close()  # an interrupt: the reply is not worth waiting for
            raise
        reply = helper.receive()
    finally:
        _helper_lock.release()
    if reply is None:  # the helper failed, warned or is gone: solve its half here
        reply = _solve_blocks(*upper)
    return tuple(np.concatenate(pair) for pair in zip(lower, reply))


def _solve_blocks(c0, spec, dt, edges):
    """:func:`_solve_stage` in this process over the blocks between ``edges``.

    ``edges`` are grid indices, column 0 of c0 at ``edges[0]``. R and the
    iteration counts, two rows of a type that holds their sum, outlive the
    workspace that every solve works in, so are allocated before it.
    """
    n, m, e0 = spec.n_species, c0.shape[1], edges[0]
    R, (it_pred, it_corr) = np.empty(m), np.empty((2, m), dtype=np.min_scalar_type(2 * _MAX_ITER))
    width = max(hi - lo for lo, hi in zip(edges, edges[1:]))
    rows = np.empty((len(_ROWS), n * width))
    cells = np.empty((len(_CELLS), width))
    masks = np.empty((len(_MASKS), width), dtype=bool)
    for lo, hi in zip(edges, edges[1:]):
        mb, cols = hi - lo, slice(lo - e0, hi - e0)
        w = SimpleNamespace(**{name: r[:n * mb].reshape(n, mb) for name, r in zip(_ROWS, rows)},
                            **{name: v[:mb] for name, v in zip(_CELLS + _MASKS, [*cells, *masks])})
        _solve_block(c0[:, cols], spec, dt, w, R[cols], it_pred[cols], it_corr[cols], lo)
    return R, it_pred, it_corr


def _species_sum(terms, rows, out, tmp):
    """``out = sum_i c_i rows_i`` per cell over ``terms``, pairs ``(i, c_i)`` in species order.

    Unlike einsum, which groups a one-cell sum pairwise, the order does not
    depend on the block width. The terms are those of the scalar path's sum,
    the species with ``c_i != 0`` for the coefficient that defines them
    (sigma_i or beta_i): an absent species adds nothing, not even the NaN of
    ``0 * inf``, and one whose power of sigma underflows adds its zero.
    """
    (i, c), *rest = terms
    np.multiply(rows[i], c, out=out)
    for i, c in rest:
        np.multiply(rows[i], c, out=tmp)
        out += tmp


def _solve_block(c0, spec, dt, w, R, it_pred, it_corr, first):
    """Both solves for one block c0 of shape (nsp, m) in workspace w, column 0 at cell ``first``.

    Writes R, the predictor's R in w.Rhat, and the iterations of each solve.
    """
    sigma = spec.sigma
    sig_col, U_col = sigma[:, None], spec.U[:, None]
    sig = [(i, s) for i, s in enumerate(sigma.tolist()) if s]  # the scalar path's species
    sig2 = [(i, s * s) for i, s in sig]
    sig3 = [(i, s * s * s) for i, s in sig]
    beta = [(i, b) for i, b in enumerate(spec.beta.tolist()) if b]
    log_k_dt = math.log(spec.k_minus) + math.log(dt)

    def log_eta_dt(log_c):  # ln(k_minus dt) + sum_i beta_i ln c_i, in the scalar path's order
        if beta:
            _species_sum(beta, log_c, w.log_eta_dt, w.t[0])
        else:
            w.log_eta_dt.fill(0.0)
        w.log_eta_dt += log_k_dt

    np.log(c0, out=w.log_c0)
    np.add(w.log_c0, U_col, out=w.g1)
    _species_sum(sig, w.g1, w.A0, w.t[0])
    log_eta_dt(w.log_c0)

    def h_pred(R, second=False):
        np.multiply(sig_col, R, out=w.x)
        w.x += c0
        np.log(w.x, out=w.g1)
        w.g1 += U_col
        _species_sum(sig, w.g1, w.g, w.t[0])
        np.divide(1.0, w.x, out=w.x)
        _species_sum(sig2, w.x, w.hp, w.t[0])
        if second:  # h'' = -sum_i sigma_i^3 / x_i^2
            w.x *= w.x
            _species_sum([(i, -c) for i, c in sig3], w.x, w.h2, w.t[0])

    _bracketed_newton(h_pred, w, w.Rhat, it_pred, "first-order reaction predictor", first)
    np.divide(w.Rhat, 2.0, out=w.hp)  # eta* at the midpoint c0 + sigma Rhat/2
    np.multiply(sig_col, w.hp, out=w.x)
    w.x += c0
    np.log(w.x, out=w.x)
    log_eta_dt(w.x)
    shift = float(spec.sigma @ (spec.U - 1.0))

    def h_corr(R, second=False):
        # phi(R, 0) = sigma.(G1 + U - 1); the dt term sum_i sigma_i ln(c_i/c0_i) = sigma.L
        np.multiply(sig_col, R, out=w.d)
        _xlnx_slope(c0, w.d, w.log_c0, (w.g1, w.g2, w.L, w.x, w.t))
        w.L *= dt
        w.g1 += w.L
        _species_sum(sig, w.g1, w.g, w.t[0])
        w.g += shift
        if second:
            # h'' = sum_i sigma_i^3 (G3_i - dt/x_i^2)
            _, q = _xlnx_g3(c0, w.d, w.x, w.g2, (w.g1, w.L, w.t))
            q *= q
            q *= dt
            w.g1 -= q
            _species_sum(sig3, w.g1, w.h2, w.t[0])
        np.divide(dt, w.x, out=w.x)
        w.g2 += w.x
        _species_sum(sig2, w.g2, w.hp, w.t[0])

    _bracketed_newton(h_corr, w, R, it_corr, "second-order reaction step", first, R0=w.Rhat)


def _bracketed_newton(h_fn, w, R, iters, label, first, R0=None):
    """Vector root solve of one reaction residual per cell, in y = log1p(R/(eta dt)).

    ``h_fn(R, second)`` writes h into ``w.g``, h' into ``w.hp`` and, where
    ``second`` is true, h'' into ``w.h2``; the residual is
    ``g(y) = y + h(R(y))``, ``R(y) = eta dt expm1(y)``, with
    ``g'(y) = 1 + P h'(R)`` and ``g''(y) = P h' + P^2 h''``, where
    ``P = eta dt e^y = dR/dy``. h increases and
    ``h(0) = A0`` (``w.A0``), so the root lies in ``[min(0, -A0), max(0, -A0)]``
    (module docstring). eta dt enters as its logarithm ``w.log_eta_dt`` and R
    is ``eta dt expm1(y)`` for y <= 0 and ``-P expm1(-y)`` for y > 0, so R comes
    out 0 only where the root is below the smallest double. Where R takes a
    species to c <= 0, h is not finite and g counts as ``copysign(inf, R)``:
    -inf where a produced species runs out, +inf where a consumed one does.
    The iteration starts at ``y(R0)`` where that lies on the bracket, else at
    0, and at y = 0 without R0. The first update of a cell is Halley's,
    ``y - g/(g' (1 - g g''/(2 g'^2)))``, where that is finite and strictly
    inside the current sign-change bracket; every other update is Newton's
    where that is strictly inside, else bisection, so progress is
    guaranteed. h'' is evaluated at the start point only.
    Converges when ``|g| <= _TOL``; R and the iterations per cell are
    written to ``R`` and ``iters``, every other array to w. Raises
    NonConvergence after ``_MAX_ITER`` iterations, or as soon as a cell's
    bracket shrinks to adjacent floats (no representable root meets the
    tolerance there); ``residual`` is then the worst last finite |g| and
    ``iterations`` the Newton updates made. Raises it before any evaluation,
    with no residual, where eta dt overflows. Flat indices in messages are
    offset by ``first``, the grid index of cell 0.
    """
    over = np.flatnonzero(w.log_eta_dt > _LOG_MAX)
    if over.size:
        raise NonConvergence(f"{label}: eta dt overflows in {over.size} cell(s), "
                             f"first at flat index {first + int(over[0])}", iterations=0)
    eta_dt, y, a, b, g, gp, hp, h2, res = w.eta_dt, w.y, w.a, w.b, w.g, w.gp, w.hp, w.h2, w.res
    todo, fin, m1, m2 = w.todo, w.fin, w.m1, w.m2
    np.exp(w.log_eta_dt, out=eta_dt)

    def residual(second):
        # g, g' and, where second, g'' from y, R and P (in gp)
        h_fn(R, second)
        if second:  # g'' = P (h' + P h''), into h2
            np.multiply(h2, gp, out=h2)
            np.add(h2, hp, out=h2)
            np.multiply(h2, gp, out=h2)
        np.add(g, y, out=g)
        np.isfinite(g, out=fin)
        if not fin.all():
            np.logical_not(fin, out=m1)
            np.copysign(np.inf, R, out=g, where=m1)
        np.multiply(gp, hp, out=gp)
        np.add(gp, 1.0, out=gp)

    def evaluate(second=False):
        np.add(w.log_eta_dt, y, out=gp)
        np.exp(gp, out=gp)
        np.copysign(y, -1.0, out=R)  # -|y|
        np.expm1(R, out=R)
        np.negative(gp, out=g)
        np.less_equal(y, 0.0, out=m1)
        np.copyto(g, eta_dt, where=m1)
        np.multiply(R, g, out=R)
        residual(second)

    np.negative(w.A0, out=b)
    np.minimum(0.0, b, out=a)
    np.maximum(0.0, b, out=b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if R0 is None:  # y = 0, where R = -0 and P = eta dt, as evaluate() would give
            y.fill(0.0)
            R.fill(-0.0)
            np.copyto(gp, eta_dt)
            residual(True)
        else:
            np.divide(R0, eta_dt, out=y)
            np.log1p(y, out=y)
            np.copyto(y, 0.0, where=~((y >= a) & (y <= b)))
            evaluate(second=True)
        # Halley's first update y - g/(g' (1 - g g''/(2 g'^2))), into h2
        h2 *= g
        h2 /= gp
        h2 /= gp
        h2 *= -0.5
        h2 += 1.0
        h2 *= gp
        np.divide(g, h2, out=h2)
        np.subtract(y, h2, out=h2)
        np.abs(g, out=res)
        np.greater(res, _TOL, out=todo)
        iters.fill(0)
        for it in range(1, _MAX_ITER + 1):
            if not todo.any():
                break
            # a converged cell's bracket is never read again
            np.greater(g, 0.0, out=m1)
            np.copyto(b, y, where=m1)
            np.logical_not(m1, out=m1)
            np.copyto(a, y, where=m1)
            cand = gp
            np.divide(g, gp, out=cand)
            np.subtract(y, cand, out=cand)
            _inside(cand, a, b, m1, m2)  # m1: the Newton step is kept
            if it == 1:
                # the Halley step wins where it lies strictly inside the bracket
                _inside(h2, a, b, fin, m2)
                np.copyto(cand, h2, where=fin)
                m1 |= fin
            np.logical_not(m1, out=m1)  # m1: no step kept, so bisect
            if m1.any():  # a Newton or Halley step kept lies strictly inside, so cannot collapse
                np.add(a, b, out=cand, where=m1)
                np.multiply(cand, 0.5, out=cand, where=m1)
                _inside(cand, a, b, m2, fin)
                np.greater(todo, m2, out=m2)  # still active and not inside
                if m2.any():
                    _raise_unconverged(label, "bracket collapsed to adjacent floats", m2,
                                       res, it - 1, first)
            # converged cells keep their y, so re-evaluating them changes nothing
            np.copyto(y, cand, where=todo)
            evaluate()
            np.abs(g, out=res, where=fin)
            np.copyto(iters, it, where=todo)  # a cell keeps the count of its last update
            np.greater(res, _TOL, out=m1)
            todo &= m1
    if todo.any():
        _raise_unconverged(label, f"not converged after {_MAX_ITER} iterations", todo, res,
                           _MAX_ITER, first)


def _inside(v, a, b, out, tmp):
    """``a < v < b`` into out; a NaN v lies outside."""
    np.greater(v, a, out=out)
    np.less(v, b, out=tmp)
    out &= tmp


def _raise_unconverged(label, why, failed, res, iterations, first):
    idx = np.flatnonzero(failed)
    raise NonConvergence(
        f"{label}: {idx.size} cell(s) {why}, first at flat index {first + int(idx[0])}",
        residual=float(np.max(res[failed])), iterations=iterations)


# The stage helper. One helper process per Python process solves the upper
# half of the blocks of multi-block stages (see _solve_stage). It lives in the
# module slot _helper, guarded by _helper_lock: the one piece of state in the
# package that no caller passes in, because run() and the CLI have no place to
# take it and the helper must outlive them (an interpreter that imports numpy
# and rdsplit takes ~0.25 s to start). The slot holds None until the first
# stage that could use a helper starts one, then the _Helper, and False for
# good once a helper has failed or been closed. The helper is a fresh
# interpreter (never a fork of this one), so it runs nothing of the caller's
# __main__. Its ready message, requests and replies travel on one duplex connection
# passed as a file descriptor. It exits when that closes, and within about a second
# once the process that started it is gone, whatever that process forked.

_helper = None
_helper_lock = threading.Lock()
# "_stage_helper" in the command line is what process listings look for
_HELPER_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); from rdsplit.reaction import "
                "_stage_helper; _stage_helper(int(sys.argv[2]), int(sys.argv[3]))")


class _Helper:
    """A helper process and a duplex connection to it; its stdout is this process's stderr."""

    def __init__(self):
        import subprocess
        from multiprocessing import Pipe

        self.pid = os.getpid()  # the process that owns it; a forked child never uses it
        src = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
        self.conn, theirs = Pipe()
        with theirs:  # closed here once the helper holds its copy
            self.proc = subprocess.Popen([sys.executable, "-c", _HELPER_CODE, src, str(self.pid),
                                          str(theirs.fileno())], stdin=subprocess.DEVNULL,
                                         stdout=2, pass_fds=(theirs.fileno(),))
        self.ready = False

    def poll_ready(self) -> bool:
        """Whether the helper has reported ready; never waits for it.

        Its ready message names the rdsplit and numpy files it imported,
        which must be this process's. Raises where they are others or the
        helper died booting.
        """
        if not self.ready and self.conn.poll():
            if self.conn.recv() != _imported_files():
                raise ImportError("the stage helper imported another rdsplit or numpy")
            self.ready = True
        return self.ready

    def send(self, request) -> None:
        """Send one request; where that fails, the helper is closed."""
        with self._closing_on_failure():
            self.conn.send(request)

    def receive(self):
        """The reply to the last request, or None where that fails, as it does once closed."""
        with self._closing_on_failure():
            return self.conn.recv()
        return None

    @contextlib.contextmanager
    def _closing_on_failure(self):
        # an EOF, a broken pipe or a bad pickle closes the helper and lets the
        # caller solve in this process; an interrupt closes it and propagates
        try:
            yield
        except BaseException as e:
            self.close()
            if not isinstance(e, Exception):
                raise

    def close(self) -> None:
        """Kill it, wait for it and close the connection; this process starts no other helper."""
        global _helper
        _helper = False
        self.proc.kill()
        self.proc.wait()
        self.conn.close()


def _ready_helper():
    """The process's stage helper once it is ready, else None: solve in this process.

    The caller holds _helper_lock. The first call starts the helper; every
    call gets None until it has reported ready, so no stage waits for it to
    boot. A helper that cannot start, or fails to report ready, is closed for
    good. A forked child, or a process with fewer than two usable CPUs, gets None.
    """
    global _helper
    if _helper is False or _usable_cpus() < 2:
        return None
    try:
        if _helper is None:
            _helper = _Helper()
        if _helper.pid == os.getpid() and _helper.poll_ready():
            return _helper
    except Exception:
        if _helper:
            _helper.close()
        _helper = False
    return None


def _imported_files() -> tuple[str, str]:
    return os.path.realpath(__file__), os.path.realpath(np.__file__)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@atexit.register
def _close_helper() -> None:
    if _helper and _helper.pid == os.getpid():
        _helper.close()


def _stage_helper(parent: int, fd: int) -> None:
    """The helper: answer requests on connection ``fd`` until it closes or ``parent`` is gone.

    It reports ready with the files of rdsplit and numpy it imported. A request
    is the argument tuple of :func:`_solve_blocks`; the reply is its result as
    is, or None where it raised or warned (any warning is an error here), and
    the parent solves those blocks itself, raising what an in-process stage
    raises under its own warning filters. Between requests it checks once a
    second that ``parent`` is still its parent: a copy of the connection in a
    process the parent forked would keep it open after the parent has died.
    """
    import signal
    from multiprocessing.connection import Connection

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    warnings.simplefilter("error")
    with Connection(fd) as conn:
        conn.send(_imported_files())
        while True:
            while not conn.poll(1.0):
                if os.getppid() != parent:
                    return
            try:
                request = conn.recv()
            except EOFError:
                return
            try:
                reply = _solve_blocks(*request)
            except Exception:
                reply = None
            conn.send(reply)


# Scalar twins of the solvers above.  Single-point callers (ODE studies,
# operator-split stages applied pointwise) pay dearly for numpy dispatch on
# length-1 arrays, so these run the identical algorithm on plain floats.

def _scalar_xlnx_slope(a, d):
    # inf or NaN where the vector kernel gives them: t rounded to -1, or t d underflowed
    t = d / a
    L = math.log1p(t) if t > -1 else -math.inf
    if abs(t) <= 1e-6:
        return (math.log(a) + 1.0 + t * (0.5 - t / 6.0),
                (0.5 - t * (1.0 / 3.0 - 0.25 * t)) / a, L)
    td = t * d
    return math.log(a) + ((a + d) / d) * L, (t - L) / td if td else math.inf, L


def _scalar_xlnx_g3(a, d, g2):
    t = d / a
    if abs(t) <= _G3_SERIES:
        return (0.5 * t - 1.0 / 3.0) / a / a
    return (1.0 / (a + d) - g2 * 2.0) / d


def _scalar_phi(c0, sigma, U, p, q):
    tot = 0.0
    for c, s, u in zip(c0, sigma, U):
        if s:
            tot += s * (_scalar_xlnx_slope(c + s * q, s * (p - q))[0] + u - 1.0)
    return tot


def _scalar_solve(h_fn, log_eta_dt, A0, R0, label):
    """Scalar counterpart of _bracketed_newton; same bracket, start, updates and failure rules.

    ``h_fn(R, second)`` returns ``(h, h')``, or ``(h, h', h'')`` where
    ``second`` is true, and NaNs for an R outside the positive orthant; only
    the start point asks for h''.
    """
    if log_eta_dt > _LOG_MAX:
        raise NonConvergence(f"{label}: eta dt overflows", iterations=0)
    eta_dt = math.exp(log_eta_dt)

    def evaluate(y, second=False):
        # where P overflows, so does R > 0 and g = +inf, as on the vector path
        P = math.exp(log_eta_dt + y) if log_eta_dt + y <= _LOG_MAX else math.inf
        R = (-P if y > 0 else eta_dt) * math.expm1(-abs(y))
        hs = h_fn(R, second)
        g = y + hs[0]
        g = g if math.isfinite(g) else math.copysign(math.inf, R)
        if second:
            return R, g, 1.0 + P * hs[1], P * (hs[1] + P * hs[2])
        return R, g, 1.0 + P * hs[1]

    a, b = min(0.0, -A0), max(0.0, -A0)
    y = math.log1p(R0 / eta_dt) if R0 > -eta_dt and eta_dt > 0 else 0.0
    if not a <= y <= b:
        y = 0.0
    R, g, gp, gpp = evaluate(y, True)
    res = abs(g)
    if res <= _TOL:
        return R, 0
    for it in range(1, _MAX_ITER + 1):
        if g > 0:
            b = y
        else:
            a = y
        cand = y - g / gp
        if it == 1:
            den = gp * (1.0 - g * gpp / gp / gp * 0.5)
            if den and a < y - g / den < b:
                cand = y - g / den
        if not (a < cand < b):
            cand = 0.5 * (a + b)
        if not (a < cand < b):
            raise NonConvergence(f"{label}: bracket collapsed to adjacent floats",
                                 residual=res, iterations=it - 1)
        y = cand
        R, g, gp = evaluate(y)
        if math.isfinite(g):
            res = abs(g)
            if res <= _TOL:
                return R, it
    raise NonConvergence(f"{label}: not converged after {_MAX_ITER} iterations",
                         residual=res, iterations=_MAX_ITER)


def _scalar_predictor(c0, spec, dt):
    sigma = spec.sigma.tolist()
    U = spec.U.tolist()
    log_k_dt = math.log(spec.k_minus) + math.log(dt)
    log_eta0_dt = log_k_dt + sum(b * math.log(c) for c, b in zip(c0, spec.beta.tolist()) if b)
    active = [(c, s, u) for c, s, u in zip(c0, sigma, U) if s]
    A0 = sum(s * (math.log(c) + u) for c, s, u in active)

    def h_pred(R, second):
        h = hp = h2 = 0.0
        for c, s, u in active:
            ci = c + s * R
            if ci <= 0:
                return math.nan, math.nan, math.nan
            h += s * (math.log(ci) + u)
            hp += s * s / ci
            if second:
                q = 1.0 / ci
                h2 -= s * s * s * (q * q)
        return (h, hp, h2) if second else (h, hp)

    R, it = _scalar_solve(h_pred, log_eta0_dt, A0, 0.0, "first-order reaction predictor")
    return R, it, A0


def _scalar_stage(c0, spec, dt):
    sigma = spec.sigma.tolist()
    Rhat, it_pred, A0 = _scalar_predictor(c0, spec, dt)
    log_eta_star_dt = math.log(spec.k_minus) + math.log(dt) + sum(
        b * math.log(c + s * Rhat / 2.0) for c, s, b in zip(c0, sigma, spec.beta.tolist()) if b)
    active = [(c, s) for c, s in zip(c0, sigma) if s]
    shift = sum(s * (u - 1.0) for s, u in zip(sigma, spec.U.tolist()))

    def h_corr(R, second):
        h, hp, h2 = shift, 0.0, 0.0
        for c, s in active:
            ci = c + s * R
            if ci <= 0:
                return math.nan, math.nan, math.nan
            g1, g2, L = _scalar_xlnx_slope(c, s * R)
            h += s * (g1 + dt * L)
            hp += s * s * (g2 + dt / ci)
            if second:
                q = 1.0 / ci
                h2 += s * s * s * (_scalar_xlnx_g3(c, s * R, g2) - q * q * dt)
        return (h, hp, h2) if second else (h, hp)

    R, it_corr = _scalar_solve(h_corr, log_eta_star_dt, A0, Rhat, "second-order reaction step")
    return R, it_pred, it_corr
