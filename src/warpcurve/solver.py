"""Damped Newton solve at fixed homotopy parameter and adaptive path
following from the constant leaf solution at t = 0 to the target equation
at t = 1."""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from . import geometry, problem, symfunc
from .errors import (ConeExitError, ConfigError, ContinuationError,
                     NonConvergenceError, StepFailureError)
from .geometry import GridFunction
from .problem import ProblemSpec

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Numerical counterparts of the a priori bounds; recomputed from
    scratch on every call, never cached across iterates."""

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


def diagnostics(u: GridFunction, spec: ProblemSpec) -> DiagnosticsReport:
    rec = geometry.fundamental_forms(u, spec.warping)
    k = spec.k
    sig = symfunc.sigma_all(rec.lam)
    cone_margin = float(sig[:, 1:k].min()) if k >= 2 else float(sig[:, 1].min())

    # Newton-Maclaurin certificate wherever lam in Gamma_k
    in_gk = sig[:, 1:k + 1].min(axis=1) > 0.0
    nm_min = np.inf
    if np.any(in_gk) and k >= 2:
        lam_gk = rec.lam[in_gk]
        m1, m2 = symfunc.newton_maclaurin_margins(lam_gk, k, k - 1, 1, 0)
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


def initial_solution(spec: ProblemSpec) -> GridFunction:
    """Constant field at the unique root of phi = 1 (the t = 0 solution)."""
    u0 = spec.phi.root
    if not spec.r1 < u0 < spec.r2:
        raise ConfigError(f"phi has no root in (r1, r2): u0={u0}")
    u = GridFunction.constant(u0, spec.grid)
    res = problem.residual(u, 0.0, spec).values
    norm = float(np.abs(res).max())
    if norm > 1e-10:
        raise ConfigError(f"constant start fails the t=0 equation (|F|={norm:.3e})")
    return u


# GMRES settings for flat-torus Newton systems: relative tolerance on the
# 2-norm residual, Krylov dimension between restarts, and restart cycles
GMRES_RTOL = 1e-12
GMRES_RESTART = 30
GMRES_MAXITER = 5


def _solve_linear(J, rhs, grid):
    """Solve J x = rhs; returns (x, GMRES iterations).

    On a FlatTorus: GMRES preconditioned by the FFT inverse of J's
    row-averaged stencil.  Everywhere else, and whenever that symbol
    vanishes or GMRES misses its tolerance: sparse LU with one round of
    iterative refinement.
    """
    iters = 0
    if isinstance(grid, geometry.FlatTorus):
        apply = grid.averaged_stencil_inverse(J)
        if apply is not None:
            def count(_):
                nonlocal iters
                iters += 1
            M = spla.LinearOperator(J.shape, matvec=apply, dtype=float)
            x, info = spla.gmres(J, rhs, rtol=GMRES_RTOL, atol=0.0,
                                 restart=GMRES_RESTART, maxiter=GMRES_MAXITER,
                                 M=M, callback=count, callback_type="pr_norm")
            if info == 0:
                return x, iters
            log.info("GMRES missed %.0e after %d iterations; using sparse LU",
                     GMRES_RTOL, iters)
    lu = spla.splu(J.tocsc())
    x = lu.solve(rhs)
    # one round of iterative refinement
    r = rhs - J @ x
    x = x + lu.solve(r)
    return x, iters


def newton_solve(u_init: GridFunction, t, spec: ProblemSpec, tol=None):
    """Damped Newton iteration at fixed t.

    Every accepted step keeps all nodes inside Gamma_{k-1} and the height
    inside the guarded annulus; damping is backtracking with an Armijo
    decrease condition on |F|^2.
    """
    tol = spec.newton_tol if tol is None else tol
    u = u_init
    F = problem.residual(u, t, spec).values  # raises ConeExitError if outside
    stats = NewtonStats(residual_norms=[float(np.abs(F).max())])
    guard = spec.guard_frac * (spec.r2 - spec.r1)
    lo, hi = spec.r1 - guard, spec.r2 + guard
    norm2 = float(F @ F)

    for it in range(spec.max_newton):
        if stats.residual_norms[-1] <= tol:
            return u, stats
        J = problem.jacobian(u, t, spec)
        delta, iters = _solve_linear(J, -F, spec.grid)
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
                F_try = problem.residual(u_try, t, spec).values
            except ConeExitError:
                s *= 0.5
                stats.backtracks += 1
                continue
            norm2_try = float(F_try @ F_try)
            if norm2_try <= (1.0 - 2e-4 * s) * norm2:
                u, F, norm2 = u_try, F_try, norm2_try
                accepted = True
                break
            s *= 0.5
            stats.backtracks += 1
        if not accepted:
            raise StepFailureError(
                f"no acceptable Newton step at t={t} after {spec.max_backtracks} backtracks")
        stats.iterations += 1
        stats.residual_norms.append(float(np.abs(F).max()))

    if stats.residual_norms[-1] <= tol:
        return u, stats
    raise NonConvergenceError(
        f"Newton did not reach {tol:.1e} in {spec.max_newton} iterations "
        f"(last |F| = {stats.residual_norms[-1]:.3e})")


def continuation(spec: ProblemSpec, t_final=1.0, log_stream=None,
                 check=True) -> ContinuationState:
    """Follow the homotopy path from the constant solution at t = 0.

    Order-0 predictor (reuse u); the step halves on Newton failure and grows
    by dt_grow after two consecutive easy successes.  With check=True the
    structural hypotheses are verified first and a violation raises
    HypothesisError; callers that have already checked them pass False.
    """
    if check:
        problem.check_hypotheses(spec).raise_if_failed()

    u = initial_solution(spec)
    t = 0.0
    dt = spec.dt_init
    steps = []
    easy_run = 0

    def record(t_cur, stats):
        diag = diagnostics(u, spec)
        rec = {"t": t_cur, "newton_iters": stats.iterations,
               "linear_iters": stats.linear_iters,
               "residual_norm": stats.residual_norms[-1],
               "u_min": diag.u_min, "u_max": diag.u_max,
               "tau_min": diag.tau_min, "lambda_abs_max": diag.lambda_abs_max}
        steps.append(rec)
        if log_stream is not None:
            log_stream.write(json.dumps(rec) + "\n")
        return diag

    diag = record(0.0, NewtonStats(residual_norms=[0.0]))
    if t_final == 0.0:
        return ContinuationState(t=0.0, u=u, diagnostics=diag, steps=steps)

    while t < t_final:
        t_next = min(t_final, t + dt)
        try:
            u_next, stats = newton_solve(u, t_next, spec)
        except (StepFailureError, NonConvergenceError, ConeExitError) as exc:
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
        u, t = u_next, t_next
        diag = record(t, stats)
        easy_run = easy_run + 1 if stats.iterations <= 4 and stats.backtracks == 0 else 0
        if easy_run >= 2:
            dt *= spec.dt_grow
            easy_run = 0

    return ContinuationState(t=t, u=u, diagnostics=diag, steps=steps)
