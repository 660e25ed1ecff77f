"""Damped Newton solve at fixed homotopy parameter, adaptive path following
from the constant leaf solution at t = 0 to the target equation at t = 1,
and grid sequencing: the path is followed on a coarse grid, and each finer
grid only finishes its solution with Newton."""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from . import geometry, problem, symfunc
from .errors import (ConeExitError, ConfigError, ContinuationError,
                     NonConvergenceError, StepFailureError)
from .geometry import FlatTorus, GridFunction, Sphere2
from .problem import ProblemSpec

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Numerical counterparts of the a priori bounds, computed from the
    iterate's own curvature record and never cached across iterates."""

    u_min: float
    u_max: float
    tau_min: float
    lambda_abs_max: float
    cone_margin_min: float       # worst sigma_1..sigma_{k-1} margin
    newton_maclaurin_min: float  # worst margin over Gamma_k nodes
    flags: tuple = ()

    def as_dict(self):
        return {**asdict(self), "flags": list(self.flags)}


@dataclass
class NewtonStats:
    iterations: int = 0
    residual_norms: list = field(default_factory=list)
    backtracks: int = 0
    linear_iters: int = 0  # GMRES iterations summed over the linear solves


@dataclass
class ContinuationState:
    t: float
    u: GridFunction
    diagnostics: DiagnosticsReport
    steps: list = field(default_factory=list)  # per-step JSONL-able records


def diagnostics(u: GridFunction, spec: ProblemSpec, rec=None) -> DiagnosticsReport:
    """Report on u; rec is its curvature record, built here when not given."""
    if rec is None:
        rec = geometry.fundamental_forms(u, spec.warping, spec.k)
    k, sig = spec.k, rec.sig
    cone = symfunc.sigma_margins(sig, k - 1)

    # Newton-Maclaurin certificate wherever lam in Gamma_k, from the record's
    # sigma; lam is read only for lambda_abs_max
    in_gk = np.minimum(cone, sig[:, k]) > 0.0
    nm_min = np.inf
    if np.any(in_gk):
        m1, m2 = symfunc._newton_maclaurin_from_sigma(sig[in_gk], spec.n, k, k - 1, 1, 0)
        nm_min = float(min(m1.min(), m2.min()))

    flags = []
    tol_box = 1e-6
    if u.values.min() < spec.r1 - tol_box or u.values.max() > spec.r2 + tol_box:
        flags.append("height-outside-annulus")
    if rec.tau.min() <= 0.0:
        flags.append("support-function-nonpositive")

    return DiagnosticsReport(
        u_min=float(u.values.min()), u_max=float(u.values.max()),
        tau_min=float(rec.tau.min()),
        lambda_abs_max=float(np.abs(rec.lam).max()),
        cone_margin_min=float(cone.min()),
        newton_maclaurin_min=float(nm_min),
        flags=tuple(flags))


def initial_solution(spec: ProblemSpec):
    """Constant field at the pivot of phi, where phi = 1 (the t = 0 solution;
    ProblemSpec keeps it inside (r1, r2)), its record, and its residual
    |F(u0, 0)|_inf, rounding only."""
    u = GridFunction.constant(spec.phi.pivot, spec.grid)
    rec = geometry.fundamental_forms(u, spec.warping, spec.k)
    norm = float(np.abs(problem.residual(u, 0.0, spec, rec).values).max())
    if norm > 1e-10:
        raise ConfigError(f"constant start fails the t=0 equation (|F|={norm:.3e})")
    return u, rec, norm


# GMRES settings for Newton systems: the floor of the relative tolerance on
# the 2-norm residual, Krylov dimension between restarts, and restart cycles.
# newton_solve asks each solve for a tenth of its stopping target relative to
# |F|_2, and never for less than GMRES_RTOL: on Sphere2(64, 128) the true
# residual of any solve, GMRES or sparse LU with refinement, bottoms out near
# 2e-12 of |rhs|, so 1e-12 is out of reach.
GMRES_RTOL = 1e-10
GMRES_RESTART = 30
GMRES_MAXITER = 5

# The first Newton contraction |F^1|/|F^0| that the homotopy's step control
# aims each predicted start at (see _homotopy).
CONTRACTION_TARGET = 0.25

# The smallest damping factor newton_solve tries, Deuflhard's lambda_min (2004).
DAMPING_FLOOR = 1e-2


def _solve_linear(weights, rhs, grid, rtol=GMRES_RTOL):
    """Solve J x = rhs to a 2-norm residual of rtol |rhs|, for the Jacobian
    J = grid.operator_sum(weights); returns (x, GMRES iterations).

    Matrix-free GMRES, preconditioned by the grid's averaged_stencil_inverse
    of the weights (the FFT inverse of the translation-averaged operator on
    the torus; on the sphere an FFT in phi and one banded LU with partial
    pivoting of every mode's tridiagonal system in theta, from the band
    table).  Raises NonConvergenceError when that inverse does not exist (a
    near-zero symbol or U_ii, or a failed LU) or GMRES misses rtol, so the
    Newton solve fails like any other.
    """
    apply = grid.averaged_stencil_inverse(weights)
    if apply is None:
        raise NonConvergenceError(
            "the averaged Jacobian has a (near-)zero symbol or pivot: no preconditioner")
    M = spla.LinearOperator((grid.num_nodes,) * 2, matvec=apply, dtype=float)
    residuals = []  # one per GMRES iteration
    x, info = spla.gmres(grid.operator_sum(weights), rhs, rtol=rtol, atol=0.0,
                         restart=GMRES_RESTART, maxiter=GMRES_MAXITER,
                         M=M, callback=residuals.append, callback_type="pr_norm")
    if info != 0:
        raise NonConvergenceError(
            f"GMRES missed rtol {rtol:.1e} after {len(residuals)} iterations")
    return x, len(residuals)


def newton_solve(u_init: GridFunction, t, spec: ProblemSpec, rec=None):
    """Damped Newton iteration at fixed t.

    Every accepted step keeps all nodes inside Gamma_{k-1} and the height
    inside the guarded annulus; damping is backtracking with an Armijo
    decrease condition on |F|^2, halving from 1 down to DAMPING_FLOOR, below
    which the step fails.  The iteration stops when |F|_inf is at most
    spec.newton_tol or the rounding floor 4 eps max|u| |J|_inf, the residual
    that rounding u alone can cause, with the grid's norm_inf_bound of the
    last J for |J|_inf: a J is computed only for a step, so the stopping test
    never computes one.  Each linear solve is asked for a tenth of that
    stopping target, relative to |F|_2, but never for less than GMRES_RTOL:
    inexact Newton, whose linear error stays below what the test accepts.
    u_init must lie inside the guarded annulus (StepFailureError otherwise)
    and its record is rec (built when not given); returns (u, stats, rec), rec
    the record of the final u.
    """
    u = u_init
    guard = spec.guard_frac * (spec.r2 - spec.r1)
    lo, hi = spec.r1 - guard, spec.r2 + guard
    if u.values.min() < lo or u.values.max() > hi:
        raise StepFailureError(f"Newton start at t={t} leaves the guarded annulus")
    rec = geometry.fundamental_forms(u, spec.warping, spec.k) if rec is None else rec
    F = problem.residual(u, t, spec, rec).values  # raises ConeExitError if outside
    stats = NewtonStats(residual_norms=[float(np.abs(F).max())])
    norm2 = float(F @ F)
    floor = 0.0  # no J yet

    while True:
        norm = stats.residual_norms[-1]
        if norm <= max(spec.newton_tol, floor):
            return u, stats, rec
        if stats.iterations == spec.max_newton:
            raise NonConvergenceError(
                f"Newton did not reach {spec.newton_tol:.1e} in {spec.max_newton} iterations "
                f"(last |F| = {norm:.3e}, rounding floor {floor:.3e})")
        J = problem.jacobian(u, t, spec, rec)
        floor = (4.0 * np.finfo(float).eps * float(np.abs(u.values).max())
                 * spec.grid.norm_inf_bound(J))
        if norm <= floor:  # a start already at the floor, where no step can decrease |F|
            return u, stats, rec
        rtol = max(GMRES_RTOL, 0.1 * max(spec.newton_tol, floor) / np.sqrt(norm2))
        delta, iters = _solve_linear(J, -F, spec.grid, rtol)
        stats.linear_iters += iters
        s = 1.0
        while s >= DAMPING_FLOOR:
            u_try = u.with_values(u.values + s * delta)
            norm2_try = np.nan  # stays nan outside the annulus or off the cone
            if not (u_try.values.min() < lo or u_try.values.max() > hi):
                try:
                    rec_try = geometry.fundamental_forms(u_try, spec.warping, spec.k)
                    F_try = problem.residual(u_try, t, spec, rec_try).values
                    norm2_try = float(F_try @ F_try)
                except ConeExitError:
                    pass
            if norm2_try <= (1.0 - 2e-4 * s) * norm2:
                u, F, norm2, rec = u_try, F_try, norm2_try, rec_try
                break
            s *= 0.5
            stats.backtracks += 1
        else:
            raise StepFailureError(
                f"no acceptable Newton step at t={t} with damping down to the floor "
                f"{DAMPING_FLOOR:g} (|F| = {norm:.3e}, rounding floor {floor:.3e})")
        stats.iterations += 1
        stats.residual_norms.append(float(np.abs(F).max()))


def _record(steps, spec, t, u, stats, rec, **extra):
    """Append the step record of u, solved at t on spec's grid, with the
    entries of extra last, to steps; returns u's diagnostics."""
    diag = diagnostics(u, spec, rec)
    steps.append({
        "t": t, "grid": list(spec.grid.shape), "accepted": True,
        "newton_iters": stats.iterations, "linear_iters": stats.linear_iters,
        "backtracks": stats.backtracks,
        "residual_norm": stats.residual_norms[-1],
        "residual_history": stats.residual_norms,
        "u_min": diag.u_min, "u_max": diag.u_max,
        "tau_min": diag.tau_min, "lambda_abs_max": diag.lambda_abs_max, **extra})
    return diag


def _homotopy(spec: ProblemSpec, steps) -> ContinuationState:
    """Follow the homotopy path from the constant solution at t = 0 to t = 1
    on spec's own grid, appending a record per attempted step to steps: a
    rejected one names its error and the dt it tried.

    Predictor-corrector: the first step tries dt = spec.dt_init, by default
    the whole path to t = 1, and starts Newton from the constant solution,
    where the first Newton step is already the tangent (Euler) step; every
    later step starts from the secant through the last two accepted
    points, extrapolated to the new t.  The step halves on any Newton
    failure, a predicted start off the cone or outside the annulus
    included, which shrinks the prediction with it: a hard spec backs off
    to t = 0.5, 0.25, ... before its first accepted step.  After an accepted
    step of two or more Newton iterations, with first contraction
    theta = |F^1|/|F^0|, dt is scaled by sqrt(CONTRACTION_TARGET / theta),
    kept in [1/2, cap]: the secant's start error is O(dt^2), so that aims
    the next start's contraction at CONTRACTION_TARGET (Deuflhard, Newton
    Methods for Nonlinear Problems, 2004, sec. 5.1).  A step of 0 or 1
    iterations tells no theta, and dt grows by cap: dt_grow, or 1 right
    after a rejected attempt.
    """
    # a record goes to the next Newton solve or step record, which frees it
    # on moving on (holding it here too raised peak RSS); a failed first
    # step's retry rebuilds it, and a predicted start builds its own
    u, *handoff, norm = initial_solution(spec)
    t = 0.0
    u_prev = t_prev = None
    dt = spec.dt_init
    diag = _record(steps, spec, 0.0, u, NewtonStats(residual_norms=[norm]), handoff[0])

    while t < 1.0:
        t_next = min(1.0, t + dt)
        start = u if u_prev is None else u.with_values(
            u.values + (t_next - t) / (t - t_prev) * (u.values - u_prev.values))
        try:
            u_next, stats, *handoff = newton_solve(start, t_next, spec,
                                                   rec=handoff.pop() if handoff else None)
        except (StepFailureError, NonConvergenceError, ConeExitError) as exc:
            steps.append({"t": t_next, "grid": list(spec.grid.shape), "accepted": False,
                          "dt": t_next - t, "error": type(exc).__name__})
            dt *= 0.5
            if dt < spec.dt_min:
                state = ContinuationState(t=t, u=u, diagnostics=diagnostics(u, spec),
                                          steps=steps)
                raise ContinuationError(
                    f"step size underflow at t={t:.6f}: {exc}", last_state=state) from exc
            log.info("step to t=%.4f failed (%s); retrying with dt=%.2e",
                     t_next, type(exc).__name__, dt)
            continue
        u_prev, t_prev, u, t = u, t, u_next, t_next
        diag = _record(steps, spec, t, u, stats, handoff.pop())
        cap = spec.dt_grow if steps[-2]["accepted"] else 1.0
        norms = stats.residual_norms
        dt *= cap if stats.iterations < 2 else min(
            cap, max(0.5, math.sqrt(CONTRACTION_TARGET * norms[0] / norms[1])))

    return ContinuationState(t=t, u=u, diagnostics=diag, steps=steps)


# A coarse level halves every axis of its grid and keeps at least this many
# nodes in all (16^2), so 3-D grids sequence too: 16^3 -> 8^3, and
# Sphere2(96, 192) goes down to 12 x 24.  On a perturbed Sphere2(64, 128) and 64^2
# torus, coarsest levels of 4 to 32 nodes per axis all let every finer level
# finish in one or two Newton iterations, and on a perturbed 16^3 torus the
# 8^3 level lets 16^3 finish in two; steeper profiles stop at _coarse_spec's carry test.
COARSEST_NODES = 256


def _coarse_spec(spec: ProblemSpec):
    """spec on its grid with every axis halved, or None when that grid has
    fewer than COARSEST_NODES nodes, cannot be built, or cannot carry the
    coefficients: some alpha_l at the pivot, sampled there and prolonged
    back, misses spec's by over 1e-12 of its max (rounding, if band-limited)."""
    grid = spec.grid
    half = [size // 2 for size in grid.shape]
    if np.prod(half) < COARSEST_NODES:
        return None
    try:
        coarse = replace(spec, grid=(
            FlatTorus(half, periods=grid.periods) if isinstance(grid, FlatTorus)
            else Sphere2(*half)))
    except ConfigError:
        return None
    for l in range(spec.k):
        alpha = spec.coeffs.values(l, spec.phi.pivot)
        back = grid.prolong_from(coarse.coeffs.values(l, spec.phi.pivot), coarse.grid)
        if np.abs(back - alpha).max() > 1e-12 * np.abs(alpha).max():
            return None
    return coarse


def continuation(spec: ProblemSpec) -> ContinuationState:
    """Solve spec at t = 1 by grid sequencing.

    spec is taken as checked: its structural hypotheses are never verified
    here, so a caller that builds it from outside input verifies them first
    (warpcurve solve does, once).
    The homotopy path from the constant solution at t = 0 is followed once,
    on the coarsest level of spec's grid: the last grid of halved axes that
    keeps COARSEST_NODES nodes and carries the coefficients (see
    _coarse_spec), so 8^3 for 16^3 and 16 x 32 for Sphere2(64, 128).  Each
    finer level, up to spec's own grid, prolongs the level below
    (grid.prolong_from) and finishes with Newton at t = 1; its step record
    also carries correction_norm, max|u_L - P u_{L-1}| between its solution
    u_L and that prolonged start.  Every step record names the grid it ran
    on.  A failed path raises ContinuationError, as does a failed finer level
    after one record (its grid, t = 1, "accepted": false, the error's type
    and no dt), with the last accepted state prolonged onto spec's grid.
    """
    levels = [spec]
    while (coarse := _coarse_spec(levels[0])) is not None:
        levels.insert(0, coarse)
    steps = []
    try:
        state = _homotopy(levels[0], steps)
        for level in levels[1:]:
            start = level.grid.prolong_from(state.u.values, state.u.grid)
            try:
                u, stats, rec = newton_solve(GridFunction(start, level.grid), 1.0, level)
            except (StepFailureError, NonConvergenceError, ConeExitError) as exc:
                steps.append({"t": 1.0, "grid": list(level.grid.shape),
                              "accepted": False, "error": type(exc).__name__})
                raise ContinuationError(f"Newton failed at t=1 on {level.grid.shape}: {exc}",
                                        last_state=state) from exc
            diag = _record(steps, level, 1.0, u, stats, rec,
                           correction_norm=float(np.abs(u.values - start).max()))
            state = ContinuationState(t=1.0, u=u, diagnostics=diag, steps=steps)
        return state
    except ContinuationError as exc:
        if (last := exc.last_state).u.grid is not spec.grid:
            u = GridFunction(spec.grid.prolong_from(last.u.values, last.u.grid), spec.grid)
            exc.last_state = replace(last, u=u, diagnostics=diagnostics(u, spec))
        raise
