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
below the ulp of eta dt, is an ordinary number.

Every sub-step starts from Rn = 0; callers fold the returned R into the
concentrations and reset.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInput, NonConvergence, PositivityViolation
from .grid import Field


@dataclass(frozen=True, eq=False)
class ReactionSpec:
    """One reversible reaction with rate constants and internal energies.

    Parameters
    ----------
    alpha, beta : arrays of nonnegative stoichiometric coefficients
        Reactant and product sides; ``sigma = beta - alpha``.
    k_plus, k_minus : float
        Forward and backward rate constants, both positive.
    U : array
        Internal energy per species. Detailed balance ties it to the rates:
        ``sigma . U = ln(k_minus / k_plus)``. Arbitrary U is accepted with a
        warning when that identity fails, but the reaction then relaxes to a
        different equilibrium than mass-action kinetics would.
    """

    alpha: np.ndarray
    beta: np.ndarray
    k_plus: float
    k_minus: float
    U: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        b = np.atleast_1d(np.asarray(self.beta, dtype=float))
        u = np.atleast_1d(np.asarray(self.U, dtype=float))
        if a.ndim != 1 or a.shape != b.shape or a.shape != u.shape:
            raise InvalidInput("alpha, beta, U must be 1-D arrays of equal length")
        if a.size == 0:
            raise InvalidInput("need at least one species")
        if np.any(a < 0) or np.any(b < 0):
            raise InvalidInput("stoichiometric coefficients must be nonnegative")
        if not (self.k_plus > 0 and self.k_minus > 0):
            raise InvalidInput("rate constants must be positive")
        if not np.all(np.isfinite(u)):
            raise InvalidInput("U must be finite")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "k_plus", float(self.k_plus))
        object.__setattr__(self, "k_minus", float(self.k_minus))
        gap = float(self.sigma @ u) - np.log(self.k_minus / self.k_plus)
        if abs(gap) > 1e-12:
            warnings.warn(
                "internal energies break detailed balance: sigma.U - ln(k-/k+) = "
                f"{gap:.3e}; the reaction will not relax to the mass-action equilibrium",
                stacklevel=2)

    @property
    def sigma(self) -> np.ndarray:
        return self.beta - self.alpha

    @property
    def n_species(self) -> int:
        return self.alpha.size

    @classmethod
    def law_of_mass_action(cls, alpha, beta, k_plus: float, k_minus: float) -> "ReactionSpec":
        """Build a spec whose trajectory ODE reproduces mass-action kinetics.

        Internal energies are distributed over the species the reaction
        consumes and produces: ``U_i = ln(k_plus)/s-`` where ``sigma_i < 0``
        (``s- = sum of consumed stoichiometry``) and ``U_i = ln(k_minus)/s+``
        where ``sigma_i > 0``, which makes ``sigma . U = ln(k_minus/k_plus)``
        exactly. For one consumed and one produced species this is
        ``U = (ln k_plus, ln k_minus)``. If the reaction only consumes or only
        produces (all of sigma on one side, e.g. A <-> 2A), the whole log
        ratio is folded onto that side instead.
        """
        a = np.atleast_1d(np.asarray(alpha, dtype=float))
        b = np.atleast_1d(np.asarray(beta, dtype=float))
        sigma = b - a
        if not (k_plus > 0 and k_minus > 0):
            raise InvalidInput("rate constants must be positive")
        U = np.zeros_like(sigma)
        s_minus = -sigma[sigma < 0].sum()
        s_plus = sigma[sigma > 0].sum()
        if s_minus == 0 and s_plus == 0:
            if abs(np.log(k_minus / k_plus)) > 1e-12:
                raise InvalidInput(
                    "alpha == beta leaves no stoichiometric change; detailed balance "
                    "then requires k_plus == k_minus")
            return cls(a, b, float(k_plus), float(k_minus), U)
        if s_minus == 0:
            U[sigma > 0] = np.log(k_minus / k_plus) / s_plus
        elif s_plus == 0:
            U[sigma < 0] = np.log(k_plus / k_minus) / s_minus
        else:
            U[sigma < 0] = np.log(k_plus) / s_minus
            U[sigma > 0] = np.log(k_minus) / s_plus
        return cls(a, b, float(k_plus), float(k_minus), U)


@dataclass
class PointState:
    """Concentrations ``c0`` at one point, where a stage starts (R = 0)."""

    c0: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c0, dtype=float))
        if c.ndim != 1 or not np.all(np.isfinite(c)) or np.any(c <= 0):
            raise PositivityViolation("concentrations must be finite and strictly positive")
        self.c0 = c


# Every Newton solve stops at |residual| <= _TOL or raises NonConvergence after
# _MAX_ITER iterations.
_TOL = 1e-12
_MAX_ITER = 100
_LOG_MAX = float(np.log(np.finfo(float).max))  # an eta dt with a larger log overflows


def reaction_mobility(c, spec: ReactionSpec) -> float:
    """Mobility ``eta(c) = k_minus * prod_i c_i^beta_i`` (the backward rate)."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if np.any(c <= 0):
        raise PositivityViolation("mobility needs strictly positive concentrations")
    return float(spec.k_minus * np.prod(c ** spec.beta))


def point_free_energy(R: float, st: PointState, spec: ReactionSpec) -> float:
    """Pointwise free energy F(R) along the trajectory through st.c0."""
    c = st.c0 + spec.sigma * R
    if np.any(c <= 0):
        raise DomainError("trajectory value leaves the positive orthant")
    return float(np.sum(c * (np.log(c) - 1.0 + spec.U)))


def chemical_affinity(R: float, st: PointState, spec: ReactionSpec) -> float:
    """Affinity ``F'(R) = sum_i sigma_i (ln c_i(R) + U_i)``; zero at equilibrium."""
    c = st.c0 + spec.sigma * R
    if np.any(c <= 0):
        raise DomainError("trajectory value leaves the positive orthant")
    return float(np.sum(spec.sigma * (np.log(c) + spec.U)))


def admissible_interval(st: PointState, spec: ReactionSpec, eta_dt: float
                        ) -> tuple[float, float]:
    """Open interval of R values keeping ``c(R) > 0`` and ``R + eta_dt > 0``.

    ``lo = max(-eta_dt, max_{sigma_i>0} -c0_i/sigma_i)`` and
    ``hi = min_{sigma_i<0} c0_i/(-sigma_i)`` (+inf when nothing is consumed);
    always ``lo < 0 < hi``.
    """
    if not eta_dt > 0:
        raise InvalidInput("eta_dt must be positive")
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
    (p, q).
    """
    for r, name in ((p, "p"), (q, "q")):
        c = st.c0 + spec.sigma * r
        if np.any(c <= 0):
            raise DomainError(f"c({name}) leaves the positive orthant")
    return _scalar_phi(st.c0.tolist(), spec.sigma.tolist(), spec.U.tolist(),
                       float(p), float(q))


def predictor_first_order(st: PointState, spec: ReactionSpec, dt: float) -> float:
    """First-order trajectory update used to freeze the midpoint mobility."""
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
    _check_dt(dt)
    if not spec.sigma.any():
        return 0.0
    R, _, _ = _scalar_stage(st.c0.tolist(), spec, dt)
    if np.any(st.c0 + spec.sigma * R <= 0):
        raise PositivityViolation("reaction step left the positive orthant")
    return R


def reaction_stage(fields: list[Field], spec: ReactionSpec, dt: float) -> list[Field]:
    """Apply one reaction sub-step of size dt to every cell of the fields."""
    new_fields, _ = reaction_stage_counted(fields, spec, dt)
    return new_fields


def reaction_stage_counted(fields: list[Field], spec: ReactionSpec, dt: float
                           ) -> tuple[list[Field], float]:
    """Like :func:`reaction_stage` but also returns mean Newton iterations per cell."""
    if len(fields) != spec.n_species:
        raise InvalidInput(f"expected {spec.n_species} fields, got {len(fields)}")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise InvalidInput("species fields live on different grids")
    _check_dt(dt)
    c0 = np.stack([f.values.ravel() for f in fields])
    if np.any(c0 <= 0):
        i = int(np.argwhere(np.any(c0 <= 0, axis=0)).ravel()[0])
        raise PositivityViolation(
            f"nonpositive concentration entering reaction stage at cell {_cell_label(grid, i)}")
    if not spec.sigma.any():
        return [f.copy() for f in fields], 0.0
    R, it_pred, it_corr = _solve_stage(c0, spec, dt)
    c_new = c0 + spec.sigma[:, None] * R[None, :]
    if np.any(c_new <= 0):
        i = int(np.argwhere(np.any(c_new <= 0, axis=0)).ravel()[0])
        raise PositivityViolation(
            f"reaction stage left the positive orthant at cell {_cell_label(grid, i)}")
    out = [Field(grid, c_new[i].reshape(grid.shape)) for i in range(spec.n_species)]
    return out, float(np.mean(it_pred + it_corr))


def _check_dt(dt: float) -> None:
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidInput("dt must be positive and finite")


def _cell_label(grid, flat_index: int) -> str:
    return str(tuple(int(k) for k in np.unravel_index(flat_index, grid.shape)))


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


def _solve_stage(c0, spec, dt):
    """Predictor + second-order corrector for c0 of shape (nsp, m)."""
    sigma, U = spec.sigma, spec.U
    log_c0 = np.log(c0)
    A0 = np.einsum("i,im->m", sigma, log_c0 + U[:, None])
    log_k_dt = math.log(spec.k_minus) + math.log(dt)

    def h_pred(R):
        c = c0 + sigma[:, None] * R[None, :]
        return (np.einsum("i,im->m", sigma, np.log(c) + U[:, None]),
                np.einsum("i,im->m", sigma ** 2, 1.0 / c))

    Rhat, it_pred = _bracketed_newton(h_pred, log_k_dt + spec.beta @ log_c0, A0, 0.0,
                                      "first-order reaction predictor")
    log_eta_star_dt = log_k_dt + spec.beta @ np.log(c0 + sigma[:, None] * (Rhat / 2.0)[None, :])
    shift = float(sigma @ (U - 1.0))

    def h_corr(R):
        # phi(R, 0) = sigma.(G1 + U - 1); the dt term sum_i sigma_i ln(c_i/c0_i) = sigma.L
        d = sigma[:, None] * R[None, :]
        g1, g2, L = _xlnx_slope(c0, d, log_c0)
        return (np.einsum("i,im->m", sigma, g1 + dt * L) + shift,
                np.einsum("i,im->m", sigma ** 2, g2 + dt / (c0 + d)))

    R, it_corr = _bracketed_newton(h_corr, log_eta_star_dt, A0, Rhat,
                                   "second-order reaction step")
    return R, it_pred, it_corr


def _bracketed_newton(h_fn, log_eta_dt, A0, R0, label):
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
    """
    over = np.flatnonzero(log_eta_dt > _LOG_MAX)
    if over.size:
        raise NonConvergence(f"{label}: eta dt overflows in {over.size} cell(s), "
                             f"first at flat index {int(over[0])}", iterations=0)
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
                                   res, it - 1)
            # converged cells keep their y, so re-evaluating them changes nothing
            y = np.where(done, y, cand)
            R, g, gp = evaluate(y)
            res = np.where(np.isfinite(g), np.abs(g), res)
            newly = ~done & (res <= _TOL)
            iters[newly] = it
            done |= newly
    if not done.all():
        _raise_unconverged(label, f"not converged after {_MAX_ITER} iterations", ~done, res,
                           _MAX_ITER)
    return R, iters


def _raise_unconverged(label, why, failed, res, iterations):
    idx = np.flatnonzero(failed)
    raise NonConvergence(
        f"{label}: {idx.size} cell(s) {why}, first at flat index {int(idx[0])}",
        residual=float(np.max(res[failed])), iterations=iterations)


# Scalar twins of the solvers above.  Single-point callers (ODE studies,
# operator-split stages applied pointwise) pay dearly for numpy dispatch on
# length-1 arrays, so these run the identical algorithm on plain floats.

def _scalar_xlnx_slope(a, d):
    t = d / a
    L = math.log1p(t)
    if abs(t) <= 1e-6:
        return (math.log(a) + 1.0 + t * (0.5 - t / 6.0),
                (0.5 - t * (1.0 / 3.0 - 0.25 * t)) / a, L)
    return math.log(a) + ((a + d) / d) * L, (t - L) / (t * d), L


def _scalar_phi(c0, sigma, U, p, q):
    tot = 0.0
    for c, s, u in zip(c0, sigma, U):
        if s:
            tot += s * (_scalar_xlnx_slope(c + s * q, s * (p - q))[0] + u - 1.0)
    return tot


def _scalar_solve(h_fn, log_eta_dt, A0, R0, label):
    """Scalar counterpart of _bracketed_newton; same bracket, start and failure rules.

    ``h_fn`` returns NaN for an R outside the positive orthant.
    """
    if log_eta_dt > _LOG_MAX:
        raise NonConvergence(f"{label}: eta dt overflows", iterations=0)
    eta_dt = math.exp(log_eta_dt)

    def evaluate(y):
        # where P overflows, so does R > 0 and g = +inf, as on the vector path
        P = math.exp(log_eta_dt + y) if log_eta_dt + y <= _LOG_MAX else math.inf
        R = (-P if y > 0 else eta_dt) * math.expm1(-abs(y))
        h, hp = h_fn(R)
        g = y + h
        return R, g if math.isfinite(g) else math.copysign(math.inf, R), 1.0 + P * hp

    a, b = min(0.0, -A0), max(0.0, -A0)
    y = math.log1p(R0 / eta_dt) if R0 > -eta_dt and eta_dt > 0 else 0.0
    if not a <= y <= b:
        y = 0.0
    R, g, gp = evaluate(y)
    res = abs(g)
    if res <= _TOL:
        return R, 0
    for it in range(1, _MAX_ITER + 1):
        if g > 0:
            b = y
        else:
            a = y
        cand = y - g / gp
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

    def h_pred(R):
        h = hp = 0.0
        for c, s, u in active:
            ci = c + s * R
            if ci <= 0:
                return math.nan, math.nan
            h += s * (math.log(ci) + u)
            hp += s * s / ci
        return h, hp

    R, it = _scalar_solve(h_pred, log_eta0_dt, A0, 0.0, "first-order reaction predictor")
    return R, it, A0


def _scalar_stage(c0, spec, dt):
    sigma = spec.sigma.tolist()
    Rhat, it_pred, A0 = _scalar_predictor(c0, spec, dt)
    log_eta_star_dt = math.log(spec.k_minus) + math.log(dt) + sum(
        b * math.log(c + s * Rhat / 2.0) for c, s, b in zip(c0, sigma, spec.beta.tolist()) if b)
    active = [(c, s) for c, s in zip(c0, sigma) if s]
    shift = sum(s * (u - 1.0) for s, u in zip(sigma, spec.U.tolist()))

    def h_corr(R):
        h, hp = shift, 0.0
        for c, s in active:
            ci = c + s * R
            if ci <= 0:
                return math.nan, math.nan
            g1, g2, L = _scalar_xlnx_slope(c, s * R)
            h += s * (g1 + dt * L)
            hp += s * s * (g2 + dt / ci)
        return h, hp

    R, it_corr = _scalar_solve(h_corr, log_eta_star_dt, A0, Rhat, "second-order reaction step")
    return R, it_pred, it_corr
