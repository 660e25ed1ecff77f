import io
import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from warpcurve import solver
from warpcurve.errors import ConfigError, ContinuationError
from warpcurve.geometry import FlatTorus, GridFunction, WarpingFunction
from warpcurve.oracle import RadialProblem, radial_root
from warpcurve.problem import (CoefficientFamily, CoefficientTerm, PhiFunction,
                               ProblemSpec, jacobian, residual)


def hyperbolic_spec(resolution=(6, 6, 6), **kwargs):
    grid = FlatTorus(resolution)
    coeffs = CoefficientFamily([CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.3),
                       r1=1.0, r2=1.6, **kwargs)


def test_initial_solution_is_constant_pivot():
    spec = hyperbolic_spec()
    u0 = solver.initial_solution(spec)
    assert np.all(u0.values == spec.phi.pivot)
    assert np.abs(residual(u0, 0.0, spec).values).max() <= 1e-12


def test_newton_at_exact_root_returns_immediately():
    spec = hyperbolic_spec()
    root = radial_root(RadialProblem(spec.warping, 3, 2, (6.0, 1.0), 1.0, 1.6))
    u, stats = solver.newton_solve(GridFunction.constant(root, spec.grid), 1.0, spec)
    assert stats.iterations <= 1
    assert np.abs(u.values - root).max() <= 1e-10


def test_newton_converges_back_to_pivot():
    spec = hyperbolic_spec()
    pert = 0.05 * np.sin(spec.grid.coords[:, 0])
    u_init = GridFunction(spec.phi.pivot + pert, spec.grid)
    u, stats = solver.newton_solve(u_init, 0.0, spec)
    assert np.abs(u.values - spec.phi.pivot).max() <= 1e-8
    assert stats.residual_norms[-1] <= spec.newton_tol


def test_newton_quadratic_convergence_tail():
    spec = hyperbolic_spec()
    pert = 0.04 * np.sin(spec.grid.coords[:, 0])
    _, stats = solver.newton_solve(
        GridFunction(spec.phi.pivot + pert, spec.grid), 0.0, spec, tol=1e-13)
    norms = [r for r in stats.residual_norms if r > 1e-14]
    # estimated convergence order from the last three residuals
    if len(norms) >= 3:
        p = np.log(norms[-1] / norms[-2]) / np.log(norms[-2] / norms[-3])
        assert p > 1.5


def test_continuation_radial_reaches_oracle_root():
    spec = hyperbolic_spec((8, 8, 8))
    stream = io.StringIO()
    state = solver.continuation(spec, log_stream=stream)
    assert state.t == 1.0
    assert np.abs(state.u.values - np.arccosh(2.0)).max() <= 1e-8
    # log records carry the documented fields
    lines = [json.loads(s) for s in stream.getvalue().splitlines()]
    assert len(lines) == len(state.steps)
    for rec in lines:
        assert set(rec) == {"t", "newton_iters", "linear_iters", "residual_norm",
                            "u_min", "u_max", "tau_min", "lambda_abs_max"}
    assert lines[0]["t"] == 0.0 and lines[-1]["t"] == 1.0
    assert lines[0]["linear_iters"] == 0
    # constant iterates have constant-coefficient Jacobians, which the FFT
    # preconditioner inverts exactly: one GMRES iteration per Newton step
    assert all(rec["linear_iters"] == rec["newton_iters"] for rec in lines)
    assert lines[-1]["linear_iters"] > 0


def test_continuation_frozen_at_zero():
    spec = hyperbolic_spec()
    state = solver.continuation(spec, t_final=0.0)
    assert state.t == 0.0
    assert np.all(state.u.values == spec.phi.pivot)


def test_continuation_underflow_serializes_last_state():
    # Newton capped at one iteration with a tiny tolerance cannot accept any
    # step, so the step size collapses below dt_min immediately
    spec = hyperbolic_spec(max_newton=1, newton_tol=1e-16, dt_min=0.09)
    with pytest.raises(ContinuationError) as err:
        solver.continuation(spec)
    assert err.value.last_state is not None
    assert err.value.last_state.t == 0.0


def test_diagnostics_constant_solution():
    spec = hyperbolic_spec()
    u = GridFunction.constant(np.arccosh(2.0), spec.grid)
    diag = solver.diagnostics(u, spec)
    assert diag.u_min == diag.u_max == pytest.approx(np.arccosh(2.0))
    assert diag.tau_min == pytest.approx(np.sinh(np.arccosh(2.0)), rel=1e-12)
    # leaf curvature coth(u*) = 2/sqrt(3)
    assert diag.lambda_abs_max == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)
    assert diag.cone_margin_min > 0.0
    assert diag.newton_maclaurin_min >= -1e-10
    assert diag.flags == ()


def test_diagnostics_flags_outside_annulus():
    spec = hyperbolic_spec()
    diag = solver.diagnostics(GridFunction.constant(1.7, spec.grid), spec)
    assert "height-outside-annulus" in diag.flags
    d = diag.as_dict()
    assert d["u_max"] == 1.7 and isinstance(d["flags"], list)


def test_initial_solution_requires_interior_pivot():
    grid = FlatTorus((4, 4, 4))
    coeffs = CoefficientFamily([CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)
    with pytest.raises(ConfigError):
        ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                    k=2, coeffs=coeffs, phi=PhiFunction(0.9), r1=1.0, r2=1.6)


def test_continuation_xdependent_stays_in_box():
    grid = FlatTorus((10, 10))
    coeffs = CoefficientFamily(
        [CoefficientTerm(3.0, 0.05, {"kind": "cos", "axis": 0}),
         CoefficientTerm(0.5, 0.05, {"kind": "cos", "axis": 0})], 2)
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.3), r1=1.0, r2=1.6)
    state = solver.continuation(spec)
    u = state.u.values
    assert u.max() - u.min() > 1e-6  # genuinely non-constant
    assert u.min() >= spec.r1 - 1e-6 and u.max() <= spec.r2 + 1e-6
    assert np.abs(residual(state.u, 1.0, spec).values).max() <= 1e-8


def perturbed_spec(resolution, k):
    grid = FlatTorus(resolution)
    profiles = ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 1},
                {"kind": "cos", "axis": grid.n - 1})
    amplitudes = {2: (3.0, 0.5), 3: (2.0, 0.5, 0.25)}[k]
    coeffs = CoefficientFamily([CoefficientTerm(a, 0.05, p)
                                for a, p in zip(amplitudes, profiles)], k)
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=k, coeffs=coeffs, phi=PhiFunction(1.3), r1=1.0, r2=1.6)


@pytest.mark.parametrize("resolution,k", [((32, 32), 2), ((8, 8, 8), 3)],
                         ids=["torus2-32-k2", "torus3-8-k3"])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_solve_linear_torus_matches_splu(resolution, k, t):
    spec = perturbed_spec(resolution, k)
    x = spec.grid.coords
    u = GridFunction(1.3 + 0.03 * np.sin(x[:, 0]) + 0.02 * np.cos(x[:, 1]), spec.grid)
    J = jacobian(u, t, spec)
    rhs = -residual(u, t, spec).values
    got, iters = solver._solve_linear(J, rhs, spec.grid)
    want = spla.splu(J.tocsc()).solve(rhs)
    assert iters > 0
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_solve_linear_vanishing_symbol_falls_back_to_splu():
    # a +-1 checkerboard diagonal is nonsingular but its row average is 0
    grid = FlatTorus((6, 6))
    idx = np.indices(grid.shape).sum(axis=0).ravel()
    J = sp.diags(np.where(idx % 2 == 0, 1.0, -1.0)).tocsr()
    assert grid.averaged_stencil_inverse(J) is None
    rhs = np.cos(grid.coords[:, 0]) + np.sin(grid.coords[:, 1])
    got, iters = solver._solve_linear(J, rhs, grid)
    assert iters == 0
    want = spla.splu(J.tocsc()).solve(rhs)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_solve_linear_gmres_miss_falls_back_to_splu():
    # 256 distinct eigenvalues on both sides of 0: restarted GMRES cannot
    # reach its tolerance within its iteration budget
    grid = FlatTorus((16, 16))
    d = -1.0 + 4.0 * (np.arange(grid.num_nodes) + 0.5) / grid.num_nodes
    rhs = np.ones(grid.num_nodes)
    got, iters = solver._solve_linear(sp.diags(d).tocsr(), rhs, grid)
    assert iters == solver.GMRES_RESTART * solver.GMRES_MAXITER
    assert np.abs(got - rhs / d).max() <= 1e-12


def test_averaged_stencil_inverse_is_exact_for_constant_coefficients():
    grid = FlatTorus((8, 6, 4))
    J = (2.0 * sp.identity(grid.num_nodes) - grid.hess_ops[(0, 0)]
         + 0.3 * grid.diff_ops[1] + 0.1 * grid.hess_ops[(0, 2)]).tocsr()
    apply = grid.averaged_stencil_inverse(J)
    rhs = np.random.default_rng(0).standard_normal(grid.num_nodes)
    assert np.abs(J @ apply(rhs) - rhs).max() <= 1e-12
