"""Damped Newton solve at fixed homotopy parameter, adaptive path following
from the constant leaf solution at t = 0 to the target equation at t = 1,
and grid sequencing: the path is followed on a coarse grid, and each finer
grid only finishes its solution with Newton."""
from __future__ import annotations

import copy
import json
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import geometry, problem, symfunc
from .errors import (ConeExitError, ConfigError, ContinuationError,
                     NonConvergenceError, StepFailureError, WarpcurveError)
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
        return {"u_min": self.u_min, "u_max": self.u_max,
                "tau_min": self.tau_min, "lambda_abs_max": self.lambda_abs_max,
                "cone_margin_min": self.cone_margin_min,
                "newton_maclaurin_min": self.newton_maclaurin_min,
                "flags": list(self.flags)}


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
        rec = geometry.fundamental_forms(u, spec.warping)
    k = spec.k
    sig = rec.sig
    cone_margin = float(sig[:, 1:k].min())

    # Newton-Maclaurin certificate wherever lam in Gamma_k, from the record's
    # sigma; lam is read only for lambda_abs_max
    in_gk = sig[:, 1:k + 1].min(axis=1) > 0.0
    nm_min = np.inf
    if np.any(in_gk):
        m1, m2 = symfunc._newton_maclaurin_from_sigma(sig[in_gk], k, k - 1, 1, 0)
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
        cone_margin_min=cone_margin,
        newton_maclaurin_min=float(nm_min),
        flags=tuple(flags))


def initial_solution(spec: ProblemSpec):
    """Constant field at the pivot of phi, where phi = 1 (the t = 0 solution;
    ProblemSpec keeps it inside (r1, r2)), its record, and its residual
    |F(u0, 0)|_inf, rounding only."""
    u = GridFunction.constant(spec.phi.pivot, spec.grid)
    rec = geometry.fundamental_forms(u, spec.warping)
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


def _solve_linear(weights, rhs, grid, rtol=GMRES_RTOL):
    """Solve J x = rhs to a 2-norm residual of rtol |rhs|, for the Jacobian
    J = grid.operator_sum(weights); returns (x, GMRES iterations).

    Matrix-free GMRES, preconditioned by the grid's averaged_stencil_inverse
    of the weights (the FFT inverse of the translation-averaged operator on
    the torus, FFT in phi plus a tridiagonal solve in theta per mode on the
    sphere).  Raises NonConvergenceError when that inverse does not exist or
    GMRES misses rtol, so the Newton solve fails like any other.
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
    decrease condition on |F|^2.  The iteration stops when |F|_inf is at most
    spec.newton_tol or the rounding floor 4 eps max|u| |J|_inf, the residual
    that rounding u alone can cause, with the grid's norm_inf_bound of the
    last J for |J|_inf: a J is computed only for a step, so the stopping test
    never computes one.  Each linear solve is asked for a tenth of that
    stopping target, relative to |F|_2, but never for less than GMRES_RTOL:
    inexact Newton, whose linear error stays below what the test accepts.
    u_init must lie inside the guarded annulus (StepFailureError otherwise)
    and its record is rec (built when not given); returns (u, stats, rec),
    rec the record of the final u.
    """
    u = u_init
    guard = spec.guard_frac * (spec.r2 - spec.r1)
    lo, hi = spec.r1 - guard, spec.r2 + guard
    if u.values.min() < lo or u.values.max() > hi:
        raise StepFailureError(f"Newton start at t={t} leaves the guarded annulus")
    rec = geometry.fundamental_forms(u, spec.warping) if rec is None else rec
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
        accepted = False
        for _ in range(spec.max_backtracks):
            u_try = u.with_values(u.values + s * delta)
            if u_try.values.min() < lo or u_try.values.max() > hi:
                s *= 0.5
                stats.backtracks += 1
                continue
            try:
                rec_try = geometry.fundamental_forms(u_try, spec.warping)
                F_try = problem.residual(u_try, t, spec, rec_try).values
            except ConeExitError:
                s *= 0.5
                stats.backtracks += 1
                continue
            norm2_try = float(F_try @ F_try)
            if norm2_try <= (1.0 - 2e-4 * s) * norm2:
                u, F, norm2, rec = u_try, F_try, norm2_try, rec_try
                accepted = True
                break
            s *= 0.5
            stats.backtracks += 1
        if not accepted:
            raise StepFailureError(
                f"no acceptable Newton step at t={t} after {spec.max_backtracks} backtracks "
                f"(|F| = {norm:.3e}, rounding floor {floor:.3e})")
        stats.iterations += 1
        stats.residual_norms.append(float(np.abs(F).max()))


def _log(steps, log_stream, entry):
    """Append entry to steps and write it to log_stream as one JSON line."""
    steps.append(entry)
    if log_stream is not None:
        log_stream.write(json.dumps(entry) + "\n")


def _record(steps, log_stream, spec, t, u, stats, rec):
    """Append the step record of u, solved at t on spec's grid, to steps and
    write it to log_stream; returns u's diagnostics."""
    diag = diagnostics(u, spec, rec)
    _log(steps, log_stream, {
        "t": t, "grid": list(spec.grid.shape), "accepted": True,
        "newton_iters": stats.iterations, "linear_iters": stats.linear_iters,
        "backtracks": stats.backtracks,
        "residual_norm": stats.residual_norms[-1],
        "residual_history": stats.residual_norms,
        "u_min": diag.u_min, "u_max": diag.u_max,
        "tau_min": diag.tau_min, "lambda_abs_max": diag.lambda_abs_max})
    return diag


def _homotopy(spec: ProblemSpec, t_final, log_stream, steps=None) -> ContinuationState:
    """Follow the homotopy path from the constant solution at t = 0 on
    spec's own grid, appending a record per attempted step to steps: a
    rejected one names its error and the dt it tried.

    Predictor-corrector: the first step starts Newton from the constant
    solution, where the first Newton step is already the tangent (Euler)
    step; every later step starts from the secant through the last two
    accepted points, extrapolated to the new t.  The step halves on any
    Newton failure, a predicted start off the cone or outside the annulus
    included, which shrinks the prediction with it; it grows by dt_grow
    after two consecutive easy successes.
    """
    steps = [] if steps is None else steps
    # a record goes to the next Newton solve or step record, which frees it
    # on moving on (holding it here too raised peak RSS); a failed first
    # step's retry rebuilds it, and a predicted start builds its own
    u, *handoff, norm = initial_solution(spec)
    t = 0.0
    u_prev = t_prev = None
    dt = spec.dt_init
    easy_run = 0
    diag = _record(steps, log_stream, spec, 0.0, u, NewtonStats(residual_norms=[norm]), handoff[0])

    while t < t_final:
        t_next = min(t_final, t + dt)
        start = u if u_prev is None else u.with_values(
            u.values + (t_next - t) / (t - t_prev) * (u.values - u_prev.values))
        try:
            u_next, stats, *handoff = newton_solve(start, t_next, spec,
                                                   rec=handoff.pop() if handoff else None)
        except (StepFailureError, NonConvergenceError, ConeExitError) as exc:
            _log(steps, log_stream, {"t": t_next, "grid": list(spec.grid.shape),
                                     "accepted": False, "dt": t_next - t,
                                     "error": type(exc).__name__})
            dt *= 0.5
            easy_run = 0
            if dt < spec.dt_min:
                state = ContinuationState(t=t, u=u, diagnostics=diagnostics(u, spec),
                                          steps=steps)
                raise ContinuationError(
                    f"step size underflow at t={t:.6f}: {exc}", last_state=state) from exc
            log.info("step to t=%.4f failed (%s); retrying with dt=%.2e",
                     t_next, type(exc).__name__, dt)
            continue
        u_prev, t_prev, u, t = u, t, u_next, t_next
        diag = _record(steps, log_stream, spec, t, u, stats, handoff.pop())
        easy_run = easy_run + 1 if stats.iterations <= 4 and stats.backtracks == 0 else 0
        if easy_run >= 2:
            dt *= spec.dt_grow
            easy_run = 0

    return ContinuationState(t=t, u=u, diagnostics=diag, steps=steps)


# A coarse level halves every axis of its grid and keeps at least this many
# nodes in all (16^2), so 3-D grids sequence too: 16^3 -> 8^3, and
# Sphere2(96, 192) goes down to 12 x 24.  On a perturbed Sphere2(64, 128) and 64^2
# torus, coarsest levels of 4 to 32 nodes per axis all let every finer level
# finish in one or two Newton iterations, and on a perturbed 16^3 torus the
# 8^3 level lets 16^3 finish in two; the budget leaves a margin for steeper
# coefficient profiles, which a coarser grid would resolve worse.
COARSEST_NODES = 256


def _coarse_spec(spec: ProblemSpec):
    """spec on its grid with every axis halved, or None when that grid would
    have fewer than COARSEST_NODES nodes or cannot be built, or the
    coefficients are given per node and cannot be sampled there."""
    grid = spec.grid
    half = [size // 2 for size in grid.shape]
    if np.prod(half) < COARSEST_NODES:
        return None
    coarse = copy.copy(spec)
    coarse.coeffs = copy.copy(spec.coeffs)  # bind samples the profiles in place
    try:
        coarse.grid = (FlatTorus(half, periods=grid.periods) if isinstance(grid, FlatTorus)
                       else Sphere2(*half))
        coarse.coeffs.bind(coarse.grid)
    except ConfigError:
        return None
    return coarse


def continuation(spec: ProblemSpec, t_final=1.0, log_stream=None,
                 check=True) -> ContinuationState:
    """Solve spec at t_final by grid sequencing.

    The homotopy path from the constant solution at t = 0 is followed on the
    coarsest level of spec's grid: the last grid of halved axes that keeps
    COARSEST_NODES nodes (see _coarse_spec), so 8^3 for 16^3 and 16 x 32 for
    Sphere2(64, 128).  Each finer level, up to spec's own grid, prolongs the
    level below (grid.prolong_from) and finishes with Newton at t_final.  A
    grid with no coarse level, or a ladder in which anything fails, is
    solved by the homotopy on spec's own grid, so a ContinuationError is
    always that path's and its last_state is on spec's grid.  Every step
    record names the grid it ran on.  A failed ladder's records stay in
    front of the fallback's and end in one record of the level that failed:
    its grid, t_final, the error's type and "accepted": false, with no dt.
    With check=True the structural hypotheses are verified first and a
    violation raises HypothesisError; callers that have already checked them
    pass False.
    """
    if check:
        problem.check_hypotheses(spec).raise_if_failed()

    levels = [spec]
    while (coarse := _coarse_spec(levels[0])) is not None:
        levels.insert(0, coarse)
    steps = []
    if len(levels) > 1:
        level = levels[0]
        try:
            state = _homotopy(level, t_final, log_stream, steps)
            for level in levels[1:]:
                u = GridFunction(level.grid.prolong_from(state.u.values, state.u.grid),
                                 level.grid)
                u, stats, rec = newton_solve(u, t_final, level)
                diag = _record(steps, log_stream, level, t_final, u, stats, rec)
                state = ContinuationState(t=t_final, u=u, diagnostics=diag, steps=steps)
            return state
        except WarpcurveError as exc:
            _log(steps, log_stream, {"t": t_final, "grid": list(level.grid.shape),
                                     "accepted": False, "error": type(exc).__name__})
            log.info("grid sequencing failed on the %s level (%s: %s); following the "
                     "path on the %s grid", "x".join(map(str, level.grid.shape)),
                     type(exc).__name__, exc, "x".join(map(str, spec.grid.shape)))
    return _homotopy(spec, t_final, log_stream, steps)
