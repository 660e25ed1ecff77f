import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from warpcurve import cli, geometry, problem, solver
from warpcurve.errors import (ConeExitError, ConfigError, ContinuationError,
                              NonConvergenceError, StepFailureError)
from warpcurve.geometry import FlatTorus, GridFunction, Sphere2, WarpingFunction
from warpcurve.oracle import (RadialProblem, fd_directional, jacobian_matrix, operator_matrix,
                              radial_root)
from warpcurve.problem import (CoefficientFamily, CoefficientTerm, PhiFunction,
                               ProblemSpec, TabulatedCoefficients, jacobian,
                               residual)


def hyperbolic_spec(resolution=(6, 6, 6), **kwargs):
    grid = FlatTorus(resolution)
    coeffs = CoefficientFamily([CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.3),
                       r1=1.0, r2=1.6, **kwargs)


def test_initial_solution_is_constant_pivot():
    spec = hyperbolic_spec()
    u0, rec, norm = solver.initial_solution(spec)
    assert np.all(u0.values == spec.phi.pivot)
    assert norm == np.abs(residual(u0, 0.0, spec).values).max() <= 1e-12
    assert np.array_equal(rec.lam, geometry.fundamental_forms(u0, spec.warping).lam)


def test_newton_at_exact_root_returns_immediately():
    spec = hyperbolic_spec()
    root = radial_root(RadialProblem(spec.warping, 3, 2, (6.0, 1.0), 1.0, 1.6))
    u, stats, _ = solver.newton_solve(GridFunction.constant(root, spec.grid), 1.0, spec)
    assert stats.iterations <= 1
    assert np.abs(u.values - root).max() <= 1e-10


def test_newton_converges_back_to_pivot():
    spec = hyperbolic_spec()
    pert = 0.05 * np.sin(spec.grid.coords[:, 0])
    u_init = GridFunction(spec.phi.pivot + pert, spec.grid)
    u, stats, _ = solver.newton_solve(u_init, 0.0, spec)
    assert np.abs(u.values - spec.phi.pivot).max() <= 1e-8
    assert stats.residual_norms[-1] <= spec.newton_tol


def test_newton_quadratic_convergence_tail():
    spec = hyperbolic_spec(newton_tol=1e-13)
    pert = 0.04 * np.sin(spec.grid.coords[:, 0])
    _, stats, _ = solver.newton_solve(
        GridFunction(spec.phi.pivot + pert, spec.grid), 0.0, spec)
    norms = [r for r in stats.residual_norms if r > 1e-14]
    # estimated convergence order from the last three residuals
    if len(norms) >= 3:
        p = np.log(norms[-1] / norms[-2]) / np.log(norms[-2] / norms[-3])
        assert p > 1.5


def test_continuation_radial_reaches_oracle_root():
    spec = hyperbolic_spec((8, 8, 8))
    state = solver.continuation(spec)
    assert state.t == 1.0
    assert np.abs(state.u.values - np.arccosh(2.0)).max() <= 1e-8
    # log records carry the documented fields and survive a JSON round trip
    lines = state.steps
    assert [json.loads(json.dumps(rec)) for rec in lines] == lines
    for rec in lines:
        assert set(rec) == {"t", "grid", "accepted", "newton_iters", "linear_iters",
                            "backtracks", "residual_norm", "residual_history",
                            "u_min", "u_max", "tau_min", "lambda_abs_max"}
        assert rec["grid"] == [8, 8, 8] and rec["accepted"] is True
        # the |F| of every Newton iterate, the start first
        assert len(rec["residual_history"]) == rec["newton_iters"] + 1
        assert rec["residual_history"][-1] == rec["residual_norm"]
    assert lines[0]["t"] == 0.0 and lines[-1]["t"] == 1.0
    assert lines[0]["linear_iters"] == 0
    # constant iterates have constant-coefficient Jacobians, which the FFT
    # preconditioner inverts exactly: one GMRES iteration per Newton step
    assert all(rec["linear_iters"] == rec["newton_iters"] for rec in lines)
    assert lines[-1]["linear_iters"] > 0


def test_first_log_record_carries_the_start_residual():
    # the t = 0 record logs the constant start's measured |F(u0, 0)|, which
    # is rounding, not an exact zero
    spec = hyperbolic_spec()
    _, _, norm = solver.initial_solution(spec)
    assert norm > 0.0
    first = solver.continuation(spec).steps[0]
    assert json.loads(json.dumps(first)) == first
    assert first["t"] == 0.0 and first["newton_iters"] == 0
    assert first["residual_norm"] == norm and first["residual_history"] == [norm]


def test_continuation_underflow_serializes_last_state():
    # Newton capped at one iteration with a tiny tolerance cannot accept any
    # step, so the step size collapses below dt_min immediately
    spec = hyperbolic_spec(max_newton=1, newton_tol=1e-16, dt_min=0.09)
    with pytest.raises(ContinuationError) as err:
        solver.continuation(spec)
    assert err.value.last_state is not None
    assert err.value.last_state.t == 0.0


def test_newton_failure_reports_residual_and_floor():
    spec = hyperbolic_spec(max_newton=1, newton_tol=1e-16)
    u = GridFunction(spec.phi.pivot + 0.05 * np.sin(spec.grid.coords[:, 0]), spec.grid)
    with pytest.raises(NonConvergenceError, match=r"last \|F\| = .*rounding floor"):
        solver.newton_solve(u, 0.0, spec)


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


def perturbed_spec(resolution, k, **kwargs):
    grid = FlatTorus(resolution)
    profiles = ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 1},
                {"kind": "cos", "axis": grid.n - 1})
    amplitudes = {2: (3.0, 0.5), 3: (2.0, 0.5, 0.25)}[k]
    coeffs = CoefficientFamily([CoefficientTerm(a, 0.05, p)
                                for a, p in zip(amplitudes, profiles)], k)
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=k, coeffs=coeffs, phi=PhiFunction(1.3), r1=1.0, r2=1.6, **kwargs)


@pytest.mark.parametrize("resolution,k", [((32, 32), 2), ((8, 8, 8), 3)],
                         ids=["torus2-32-k2", "torus3-8-k3"])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_solve_linear_torus_matches_splu(resolution, k, t):
    spec = perturbed_spec(resolution, k)
    x = spec.grid.coords
    u = GridFunction(1.3 + 0.03 * np.sin(x[:, 0]) + 0.02 * np.cos(x[:, 1]), spec.grid)
    rhs = -residual(u, t, spec).values
    got, iters = solver._solve_linear(jacobian(u, t, spec), rhs, spec.grid)
    want = spla.splu(jacobian_matrix(u, t, spec).tocsc()).solve(rhs)
    assert iters > 0
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def operator_weights(grid, identity, diff=None, hess=None):
    """Weights of sum_o diags(w_o) @ op_o over the grid's operators, the
    identity, the D_a and the H_ab in hess_keys order, as jacobian returns
    them; an operator
    left out gets weight 0, and a scalar weight is constant."""
    diff, hess = diff or {}, hess or {}

    def full(w):
        return np.broadcast_to(np.asarray(w, dtype=float), grid.num_nodes)
    return ([full(identity)] + [full(diff.get(a, 0.0)) for a in range(grid.n)]
            + [full(hess.get(key, 0.0)) for key in grid.hess_keys])


def test_solve_linear_without_averaged_inverse_raises():
    # a +-1 checkerboard diagonal is nonsingular but its row average is 0
    grid = FlatTorus((6, 6))
    idx = np.indices(grid.shape).sum(axis=0).ravel()
    weights = operator_weights(grid, np.where(idx % 2 == 0, 1.0, -1.0))
    assert grid.averaged_stencil_inverse(weights) is None
    rhs = np.cos(grid.coords[:, 0]) + np.sin(grid.coords[:, 1])
    with pytest.raises(NonConvergenceError, match="zero symbol or pivot"):
        solver._solve_linear(weights, rhs, grid)


def test_solve_linear_gmres_miss_raises():
    # 256 distinct eigenvalues on both sides of 0: restarted GMRES cannot
    # reach its tolerance within its iteration budget
    grid = FlatTorus((16, 16))
    d = -1.0 + 4.0 * (np.arange(grid.num_nodes) + 0.5) / grid.num_nodes
    budget = solver.GMRES_RESTART * solver.GMRES_MAXITER
    with pytest.raises(NonConvergenceError, match=f"missed rtol 1.0e-10 after {budget} iterations"):
        solver._solve_linear(operator_weights(grid, d), np.ones(grid.num_nodes), grid)


def constant_weights(grid):
    return operator_weights(grid, 2.0, diff={1: 0.3}, hess={(0, 0): -1.0, (2, 0): 0.1})


def theta_only_weights(grid):
    # frame weights of the coordinate weights -0.5 sin and -1/sin^2 times
    # sin^2 and sin^2, reaching across the poles
    th = grid.coords[:, 0]
    return operator_weights(grid, 2.0 + np.cos(th), diff={0: np.cos(th)},
                            hess={(0, 0): -1.0, (1, 0): -0.5 * np.sin(th) ** 2, (1, 1): -1.0})


def test_averaged_stencil_inverse_is_exact_for_constant_coefficients():
    grid = FlatTorus((8, 6, 4))
    weights = constant_weights(grid)
    apply = grid.averaged_stencil_inverse(weights)
    rhs = np.random.default_rng(0).standard_normal(grid.num_nodes)
    assert np.abs(operator_matrix(grid, weights) @ apply(rhs) - rhs).max() <= 1e-12


def perturbed_sphere_spec(n_theta, n_phi, **kwargs):
    grid = Sphere2(n_theta, n_phi)
    coeffs = CoefficientFamily([CoefficientTerm(3.0, 0.05, {"kind": "sphere_z"}),
                                CoefficientTerm(0.5, 0.05, {"kind": "sphere_x"})], 2)
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.45), r1=1.0, r2=1.6, **kwargs)


@pytest.mark.parametrize("shape", [(16, 32), (32, 64)], ids=["sphere-16x32", "sphere-32x64"])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_solve_linear_sphere_matches_splu(shape, t):
    spec = perturbed_sphere_spec(*shape)
    # smooth across the poles: ambient coordinates x, z and x y
    th, ph = spec.grid.coords[:, 0], spec.grid.coords[:, 1]
    u = GridFunction(1.45 + 0.03 * np.sin(th) * np.cos(ph) + 0.02 * np.cos(th)
                     + 0.02 * np.sin(th) ** 2 * np.sin(2.0 * ph), spec.grid)
    rhs = -residual(u, t, spec).values
    got, iters = solver._solve_linear(jacobian(u, t, spec), rhs, spec.grid)
    want = spla.splu(jacobian_matrix(u, t, spec).tocsc()).solve(rhs)
    assert iters > 0
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_sphere_averaged_stencil_inverse_is_exact_for_phi_invariant_operators():
    # operators whose coefficients depend on theta only are their own phi
    # average, so the FFT-in-phi, tridiagonal-in-theta inverse is exact;
    # both reach across the poles, and the second weights the (1, 0) Hessian
    spec = perturbed_sphere_spec(16, 32)
    grid = spec.grid
    ops = [jacobian(GridFunction.constant(1.45, grid), 0.0, spec), theta_only_weights(grid)]
    rhs = np.random.default_rng(0).standard_normal(grid.num_nodes)
    for weights in ops:
        apply = grid.averaged_stencil_inverse(weights)
        J = operator_matrix(grid, weights)
        assert np.abs(J @ apply(rhs) - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_solve_linear_sphere_without_averaged_inverse_raises():
    # a diagonal alternating in sign along phi averages to 0 in every row
    grid = Sphere2(8, 16)
    j_phi = np.indices(grid.shape)[1].ravel()
    weights = operator_weights(
        grid, np.where(j_phi % 2 == 0, 1.0, -1.0) * (2.0 + grid.coords[:, 0]))
    assert grid.averaged_stencil_inverse(weights) is None
    rhs = np.cos(grid.coords[:, 0]) + np.sin(grid.coords[:, 1])
    with pytest.raises(NonConvergenceError, match="zero symbol or pivot"):
        solver._solve_linear(weights, rhs, grid)


@pytest.mark.parametrize("grid", [FlatTorus((6, 6)), Sphere2(8, 16)], ids=["torus", "sphere"])
def test_averaged_stencil_inverse_rejects_a_nan_weight(grid):
    # one nan node makes an average nan, and with it the symbol or the LU's
    # diagonal, which no comparison with the floor passes
    node = np.arange(grid.num_nodes)
    weights = operator_weights(grid, np.where(node == 3, np.nan, 2.0), hess={(0, 0): -1.0})
    assert grid.averaged_stencil_inverse(weights) is None


@pytest.mark.parametrize("grid", [FlatTorus((6, 6)), Sphere2(8, 16)], ids=["torus", "sphere"])
def test_grid_methods_take_a_constant_weight(grid):
    # operator_sum documents a weight as a node field or a constant: all
    # three Jacobian methods read the constant 2 as the node field 2
    blocks = grid.stack.shape[0] // grid.num_nodes
    const = [2.0] + [np.zeros(grid.num_nodes)] * (blocks - 1)
    field = [np.full(grid.num_nodes, 2.0)] + const[1:]
    x = np.random.default_rng(5).standard_normal(grid.num_nodes)
    assert np.array_equal(grid.operator_sum(const) @ x, 2.0 * x)
    assert grid.norm_inf_bound(const) == grid.norm_inf_bound(field) == 2.0
    got = grid.averaged_stencil_inverse(const)(x)
    assert np.array_equal(got, grid.averaged_stencil_inverse(field)(x))
    assert np.abs(got - 0.5 * x).max() <= 1e-14 * np.abs(x).max()


def test_sphere_averaged_stencil_inverse_pivots_past_a_zero_first_pivot():
    # c0 + c_tt d_tt with c0 = c_tt / h^2: in phi mode 0 the row-0 diagonal
    # c0 - 2 c_tt / h^2 plus the pole ghost's c_tt / h^2 is exactly 0, so an
    # elimination without row exchanges stops at once; the operator itself
    # is nonsingular for n_theta = 8, as 2 cos(pi m / 8) = 1 has no integer
    # solution m, nor has 2 cos(pi (m + 1/2) / 8) = 1 in the odd modes
    grid = Sphere2(8, 16)
    weights = operator_weights(grid, 1.0 / grid.h_theta ** 2, hess={(0, 0): 1.0})
    J = operator_matrix(grid, weights)
    assert J[0, :grid.shape[1]].sum() == 0.0  # row 0's mode-0 diagonal
    apply = grid.averaged_stencil_inverse(weights)
    assert apply is not None
    rhs = np.random.default_rng(1).standard_normal(grid.num_nodes)
    assert np.abs(J @ apply(rhs) - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_newton_solve_evaluates_the_warping_once_per_record(monkeypatch):
    # residual and Jacobian read f, f' and f'' from the iterate's record
    spec = perturbed_sphere_spec(8, 16)
    u = smooth_field(spec)
    counts = {"warp_eval": 0, "graph_record": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call
    monkeypatch.setattr(problem, "warp_eval", counted("warp_eval", geometry.warp_eval))
    for name in counts:
        monkeypatch.setattr(geometry, name, counted(name, getattr(geometry, name)))
    _, stats, _ = solver.newton_solve(u, 0.7, spec)
    assert stats.iterations >= 2
    assert counts["warp_eval"] == counts["graph_record"] > stats.iterations


# ---------------------------------------------------------------------------
# the Jacobian in coefficient form
# ---------------------------------------------------------------------------

SMALL_SPECS = pytest.mark.parametrize("spec_fn", [
    lambda: perturbed_spec((8, 8), 2), lambda: perturbed_spec((4, 4, 4), 3),
    lambda: perturbed_sphere_spec(6, 12)], ids=["torus2-8", "torus3-4", "sphere-6x12"])


def smooth_field(spec, amplitude=1.0):
    """A smooth height near the pivot; on the sphere, smooth across the poles."""
    x = spec.grid.coords
    if isinstance(spec.grid, Sphere2):
        bump = 0.03 * np.sin(x[:, 0]) * np.cos(x[:, 1]) + 0.02 * np.cos(x[:, 0])
    else:
        bump = 0.03 * np.sin(x[:, 0]) + 0.02 * np.cos(x[:, 1])
    return GridFunction(spec.phi.pivot + amplitude * bump, spec.grid)


@SMALL_SPECS
def test_operator_sum_is_the_assembled_jacobian(spec_fn):
    # J x from the stack's row blocks, as GMRES applies it, against the CSR matrix
    spec = spec_fn()
    u = smooth_field(spec)
    weights = jacobian(u, 0.7, spec)
    J = jacobian_matrix(u, 0.7, spec)
    x = np.random.default_rng(4).standard_normal(spec.grid.num_nodes)
    got = spec.grid.operator_sum(weights) @ x
    assert np.abs(got - J @ x).max() <= 1e-14 * (abs(J) @ np.abs(x)).max()


@SMALL_SPECS
def test_applying_a_jacobian_leaves_the_operators(spec_fn):
    # computing, applying, bounding and preconditioning a Jacobian never
    # rewrites the grid's operators
    spec = spec_fn()
    grid = spec.grid
    u = smooth_field(spec)
    du, d2u = grid.gradient_hessian(u.values)
    du, d2u = du.copy(), {key: h.copy() for key, h in d2u.items()}
    weights = jacobian(u, 0.5, spec)
    grid.operator_sum(weights) @ u.values
    grid.averaged_stencil_inverse(weights)(u.values)
    grid.norm_inf_bound(weights)
    du_after, d2u_after = grid.gradient_hessian(u.values)
    assert np.array_equal(du, du_after)
    assert all(np.array_equal(d2u[key], d2u_after[key]) for key in grid.hess_keys)


@SMALL_SPECS
def test_averaged_stencil_inverse_matches_dense_average(spec_fn):
    # the averaged operator built densely: J averaged over every periodic
    # translation on the torus, over every phi rotation on the sphere
    spec = spec_fn()
    grid = spec.grid
    u = smooth_field(spec)
    dense = jacobian_matrix(u, 0.7, spec).toarray()
    idx = np.arange(grid.num_nodes).reshape(grid.shape)
    if isinstance(grid, Sphere2):
        perms = [np.roll(idx, k, axis=1).ravel() for k in range(grid.shape[1])]
    else:
        perms = [np.roll(idx, k, axis=tuple(range(grid.n))).ravel()
                 for k in np.ndindex(grid.shape)]
    average = sum(dense[np.ix_(p, p)] for p in perms) / len(perms)
    rhs = np.random.default_rng(5).standard_normal(grid.num_nodes)
    want = np.linalg.solve(average, rhs)
    got = grid.averaged_stencil_inverse(jacobian(u, 0.7, spec))(rhs)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def slot_average(grid, J):
    """The symmetry average of an assembled J from a bincount of its entries
    by slot: the periodic offset (c - r) mod shape on the torus, (theta row
    of r, theta offset, phi offset (c - r) mod n_phi) on the sphere, where a
    pole ghost has theta offset 0; as CSR, rebuilt from the averaged
    stencil."""
    J = J.tocoo()
    r, c = J.row, J.col
    idx = np.arange(grid.num_nodes).reshape(grid.shape)
    if isinstance(grid, Sphere2):
        n_theta, n_phi = grid.shape
        i, d, s = r // n_phi, c // n_phi - r // n_phi + 1, (c - r) % n_phi
        kernel = np.bincount((3 * i + d) * n_phi + s, weights=J.data,
                             minlength=3 * grid.num_nodes).reshape(n_theta, 3, n_phi) / n_phi
        rows, cols, vals = [], [], []
        for i, d, s in zip(*np.nonzero(kernel)):
            rows.append(idx[i])
            cols.append(np.roll(idx[i + d - 1], -s))
            vals.append(np.full(n_phi, kernel[i, d, s]))
    else:
        offset = [(c // stride - r // stride) % size for size, stride in
                  zip(grid.shape, np.cumprod((1,) + grid.shape[:0:-1])[::-1])]
        kernel = np.zeros(grid.shape)
        np.add.at(kernel, tuple(offset), J.data / grid.num_nodes)
        rows, cols, vals = [], [], []
        for s in zip(*np.nonzero(kernel)):
            rows.append(idx.ravel())
            cols.append(np.roll(idx, [-k for k in s], axis=tuple(range(grid.n))).ravel())
            vals.append(np.full(grid.num_nodes, kernel[s]))
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=J.shape)


def perturbed_jacobian(spec):
    return jacobian(smooth_field(spec), 0.7, spec)


@pytest.mark.parametrize("spec_fn,weights_fn", [
    (lambda: perturbed_spec((16, 16), 2), perturbed_jacobian),
    (lambda: perturbed_spec((8, 8, 8), 3), perturbed_jacobian),
    (lambda: perturbed_sphere_spec(16, 32), perturbed_jacobian),
    (lambda: perturbed_spec((8, 6, 4), 3), lambda spec: constant_weights(spec.grid)),
    (lambda: perturbed_sphere_spec(16, 32), lambda spec: theta_only_weights(spec.grid))],
    ids=["torus2-16", "torus3-8", "sphere-16x32", "torus3-constant", "sphere-theta-only"])
def test_averaged_stencil_inverse_inverts_the_symmetry_average(spec_fn, weights_fn):
    # the preconditioner built from the weights' orbit means inverts the
    # symmetry average of the assembled J (slot_average), at perturbed
    # Jacobians and at the weight lists of the exactness tests
    spec = spec_fn()
    grid = spec.grid
    weights = weights_fn(spec)
    average = slot_average(grid, operator_matrix(grid, weights))
    rhs = np.random.default_rng(6).standard_normal(grid.num_nodes)
    got = average @ grid.averaged_stencil_inverse(weights)(rhs)
    assert np.abs(got - rhs).max() <= 1e-12 * np.abs(rhs).max()


@pytest.mark.parametrize("spec_fn", [lambda: perturbed_sphere_spec(16, 32),
                                     lambda: perturbed_spec((16, 16), 2),
                                     lambda: perturbed_sphere_spec(256, 512)],
                         ids=["sphere-16x32", "torus2-16", "sphere-256x512"])
def test_continuation_never_falls_back_to_splu(spec_fn, monkeypatch):
    # on Sphere2(256, 512) a GMRES asked for 1e-10 stalls just above it, in
    # the finest level's one Newton step; Newton needs far less
    def no_lu(*args, **kwargs):
        raise AssertionError("sparse LU fallback used")
    monkeypatch.setattr(solver.spla, "splu", no_lu)
    state = solver.continuation(spec_fn())
    assert state.t == 1.0
    assert all(rec["linear_iters"] > 0 for rec in state.steps[1:])


def test_failed_linear_solve_rejects_the_step_and_halves_it(monkeypatch):
    # no averaged inverse for the first Newton system: its step is logged as
    # rejected with a NonConvergenceError and retried with half the dt
    original = FlatTorus.averaged_stencil_inverse
    calls = []

    def first_fails(self, weights):
        calls.append(None)
        return None if len(calls) == 1 else original(self, weights)
    monkeypatch.setattr(FlatTorus, "averaged_stencil_inverse", first_fails)
    spec = hyperbolic_spec()
    state = solver.continuation(spec)
    assert state.t == 1.0
    assert state.steps[1] == {"t": spec.dt_init, "grid": [6, 6, 6], "accepted": False,
                              "dt": spec.dt_init, "error": "NonConvergenceError"}
    assert state.steps[2]["accepted"] and state.steps[2]["t"] == 0.5 * spec.dt_init
    assert np.abs(state.u.values - np.arccosh(2.0)).max() <= 1e-8


@pytest.mark.parametrize("spec_fn", [lambda: perturbed_sphere_spec(16, 32, dt_init=0.1),
                                     lambda: perturbed_spec((16, 16), 2, dt_init=0.1)],
                         ids=["sphere-16x32", "torus2-16"])
def test_continuation_builds_one_curvature_record_per_residual(spec_fn, monkeypatch):
    # each point Newton evaluates gets one record, which its residual, its
    # Jacobian and its step record's diagnostics share; the t = 0 record
    # serves the start check, the t = 0 step record and the first step, the
    # one Newton start handed a record: every later step starts from a
    # secant prediction, a new point that builds its own (dt_init 0.1 pins
    # a path of several steps)
    calls = {"fundamental_forms": 0, "residual": 0, "jacobian": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    counted(geometry, "fundamental_forms")
    counted(problem, "residual")
    counted(problem, "jacobian")
    state = solver.continuation(spec_fn())
    assert state.t == 1.0 and len(state.steps) > 2
    assert calls["jacobian"] == sum(rec["newton_iters"] for rec in state.steps) > 0
    assert calls["fundamental_forms"] == calls["residual"] - 1


# ---------------------------------------------------------------------------
# Newton's stopping test at the residual's rounding floor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_theta", [32, 64, 128])
def test_rounding_floor_estimate_matches_one_ulp_probe(n_theta):
    # perturbing the exact t = 0 solution by one ulp per node, with random
    # signs, moves the residual by about eps max|u| |J|_inf, the estimate
    # newton_solve scales by 4; the worst rows are the sphere's pole rows
    spec = perturbed_sphere_spec(n_theta, 2 * n_theta)
    u = GridFunction.constant(spec.phi.pivot, spec.grid)
    estimate = (np.finfo(float).eps * np.abs(u.values).max()
                * spec.grid.norm_inf_bound(jacobian(u, 0.0, spec)))
    signs = np.random.default_rng(0).choice([-np.inf, np.inf], spec.grid.num_nodes)
    probe = np.abs(residual(u.with_values(np.nextafter(u.values, signs)), 0.0, spec).values).max()
    assert 0.5 <= probe / estimate <= 2.0


@pytest.mark.parametrize("spec_fn", [lambda: perturbed_spec((32, 32), 2),
                                     lambda: perturbed_spec((8, 8, 8), 3),
                                     lambda: perturbed_sphere_spec(32, 64)],
                         ids=["torus2-32", "torus3-8", "sphere-32x64"])
def test_norm_inf_bound_is_within_one_percent_of_the_exact_norm(spec_fn):
    # sum_o |w_o| rowsum|op_o| bounds |J|_inf from above, to rounding where
    # no entries cancel, and the operators' entries in a row barely cancel,
    # so it stays close
    spec = spec_fn()
    u = smooth_field(spec)
    for t in (0.0, 0.7, 1.0):
        exact = spla.norm(jacobian_matrix(u, t, spec), np.inf)
        bound = spec.grid.norm_inf_bound(jacobian(u, t, spec))
        assert (1.0 - 1e-14) * exact <= bound <= 1.01 * exact


def test_sphere_96x192_converges_above_default_tolerance(monkeypatch):
    # its rounding floor, about 1e-9 in the pole rows, is above the default
    # newton_tol of 1e-10, which Newton alone can no longer reach; the
    # stopping test reads the floor of the last Jacobian a step used, so
    # every Jacobian serves a step
    calls = []
    original = problem.jacobian

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)
    monkeypatch.setattr(problem, "jacobian", counted)
    spec = perturbed_sphere_spec(96, 192)
    state = solver.continuation(spec)
    assert state.t == 1.0 and state.steps[0]["grid"] == [12, 24]  # sequenced
    assert state.steps[-1]["grid"] == [96, 192]
    assert state.steps[-1]["residual_norm"] > spec.newton_tol
    F = residual(state.u, 1.0, spec).values
    assert np.abs(F).max() <= 1e-8
    assert len(calls) == sum(rec["newton_iters"] for rec in state.steps) > 0


@pytest.mark.parametrize("spec_fn", [lambda: perturbed_sphere_spec(32, 64),
                                     lambda: perturbed_spec((32, 32), 2)],
                         ids=["sphere-32x64", "torus2-32"])
def test_linear_solves_ask_only_what_the_stopping_test_needs(spec_fn, monkeypatch):
    # each solve's tolerance lies in [GMRES_RTOL, 0.1), GMRES meets it in the
    # true residual, and every Newton solve still ends at its stopping target
    solves, floors, finals = [], [], []
    original_solve, original_jacobian, original_newton = (
        solver._solve_linear, problem.jacobian, solver.newton_solve)

    def solve_linear(J, rhs, grid, rtol=solver.GMRES_RTOL):
        x, iters = original_solve(J, rhs, grid, rtol)
        solves.append((rtol, np.linalg.norm(grid.operator_sum(J) @ x - rhs) / np.linalg.norm(rhs)))
        return x, iters

    def jacobian(u, t, spec, rec=None):
        J = original_jacobian(u, t, spec, rec)
        floors[-1] = (4.0 * np.finfo(float).eps * np.abs(u.values).max()
                      * spec.grid.norm_inf_bound(J))
        return J

    def newton_solve(u, t, spec, rec=None):
        floors.append(0.0)  # no J yet
        out = original_newton(u, t, spec, rec=rec)
        finals.append((out[1].residual_norms[-1], max(spec.newton_tol, floors[-1])))
        return out
    monkeypatch.setattr(solver, "_solve_linear", solve_linear)
    monkeypatch.setattr(problem, "jacobian", jacobian)
    monkeypatch.setattr(solver, "newton_solve", newton_solve)
    state = solver.continuation(spec_fn())
    assert state.t == 1.0 and len(solves) > 0
    for rtol, relres in solves:
        assert solver.GMRES_RTOL <= rtol < 0.1
        assert relres <= rtol
    assert len(finals) == len(state.steps) - 1
    assert all(norm <= target for norm, target in finals)
    # tolerances above the floor: the Newton tail is not solved to 1e-10
    assert max(rtol for rtol, _ in solves) > 1e3 * solver.GMRES_RTOL


# ---------------------------------------------------------------------------
# the secant predictor
# ---------------------------------------------------------------------------

def record_newton_solves(monkeypatch, fail_calls=()):
    """Record each newton_solve call as [start, t, solution or None]; the
    calls whose 0-based index is in fail_calls raise ConeExitError instead."""
    original = solver.newton_solve
    calls = []

    def newton_solve(u, t, spec, rec=None):
        calls.append([u, t, None])
        if len(calls) - 1 in fail_calls:
            raise ConeExitError("forced")
        out = original(u, t, spec, rec=rec)
        calls[-1][2] = out[0]
        return out
    monkeypatch.setattr(solver, "newton_solve", newton_solve)
    return calls


@pytest.mark.parametrize("spec_fn", [lambda **kw: perturbed_spec((16, 16), 2, **kw),
                                     lambda **kw: perturbed_sphere_spec(16, 32, **kw)],
                         ids=["torus2-16", "sphere-16x32"])
def test_secant_prediction_cuts_the_start_residual(spec_fn, monkeypatch):
    # every step after the first starts from the secant prediction, whose
    # residual at the new t is well below that of the last accepted u; dt
    # grows by at most 1.1 a step, so the path takes 8 steps of at most 0.18
    spec = spec_fn(dt_init=0.1, dt_grow=1.1)
    calls = record_newton_solves(monkeypatch)
    state = solver.continuation(spec)
    assert state.t == 1.0
    assert np.all(calls[0][0].values == spec.phi.pivot)  # the first step: order 0
    accepted, ratios = [], []
    for start, t, u in calls:
        if len(accepted) >= 2:
            ratios.append(np.abs(residual(start, t, spec).values).max()
                          / np.abs(residual(accepted[-1], t, spec).values).max())
        if u is not None:
            accepted.append(u)
    assert len(ratios) >= 5 and max(ratios) <= 0.25


def test_failed_predicted_start_halves_the_step(monkeypatch):
    # the first predicted start fails as a start off the cone would: the
    # step halves, the retry is predicted along the same secant with half
    # the offset, and the path still reaches t = 1 (dt_init 0.1 pins a path
    # with a predicted start)
    spec = perturbed_spec((16, 16), 2, dt_init=0.1)
    unforced = solver.continuation(spec)
    calls = record_newton_solves(monkeypatch, fail_calls={1})
    state = solver.continuation(spec)
    assert state.t == 1.0
    (_, t1, u1), (failed, t2, none), (retry, t3, _) = calls[:3]
    assert none is None
    assert t3 - t1 == pytest.approx(0.5 * (t2 - t1), rel=1e-12)
    offset = failed.values - u1.values
    assert np.abs(offset).max() > 0.0
    assert np.abs(retry.values - u1.values - 0.5 * offset).max() <= 1e-14
    assert np.abs(state.u.values - unforced.u.values).max() <= 1e-9


def test_rejected_attempt_gets_its_own_record(monkeypatch, tmp_path):
    # the forced failure of test_failed_predicted_start_halves_the_step is
    # logged as its own record; the archive's totals count accepted ones only
    spec = perturbed_spec((16, 16), 2, dt_init=0.1)
    calls = record_newton_solves(monkeypatch, fail_calls={1})
    state = solver.continuation(spec)
    lines = state.steps
    assert [json.loads(json.dumps(rec)) for rec in lines] == lines
    (_, t1, _), (_, t2, _) = calls[:2]
    rejected = [rec for rec in lines if not rec["accepted"]]
    assert rejected == [{"t": t2, "grid": [16, 16], "accepted": False,
                         "dt": t2 - t1, "error": "ConeExitError"}]
    assert lines.index(rejected[0]) == 2  # after the t = 0 and t1 records
    accepted = [rec for rec in lines if rec["accepted"]]
    # the t = 0 record and one per solve but the failed one
    assert len(accepted) == len(calls)

    cli.write_archive(tmp_path, {}, spec, state, "converged")
    with open(tmp_path / "metadata.json") as fh:
        totals = json.load(fh)["totals"]
    assert totals == {key: sum(rec[key] for rec in accepted) for key in totals}
    assert totals["newton_iters"] > 0
    with open(tmp_path / "log.jsonl") as fh:
        assert [json.loads(line) for line in fh] == lines


def test_newton_start_outside_the_guarded_annulus_fails():
    spec = hyperbolic_spec()
    with pytest.raises(StepFailureError, match="guarded annulus"):
        solver.newton_solve(GridFunction.constant(spec.r2 + 0.5, spec.grid), 1.0, spec)


@pytest.mark.parametrize("floor", [solver.DAMPING_FLOOR, 0.25])
def test_hopeless_newton_step_stops_at_the_damping_floor(floor, monkeypatch):
    # the whole path at once on a sweep point that fails (16^2, eps 0.9,
    # freq 1): the damping halves from 1 while it stays at or above the
    # floor, a record for each trial inside the annulus, then the step
    # fails naming the floor
    spec = ProblemSpec(
        grid=FlatTorus((16, 16)), warping=WarpingFunction("hyperbolic", 1.0), k=2,
        coeffs=CoefficientFamily([CoefficientTerm(3.0, 0.9, {"kind": "cos", "axis": 0}),
                                  CoefficientTerm(0.5, 0.9, {"kind": "sin", "axis": 1})], 2),
        phi=PhiFunction(1.45), r1=1.0, r2=1.6)
    monkeypatch.setattr(solver, "DAMPING_FLOOR", floor)
    records = []
    build = geometry.fundamental_forms
    monkeypatch.setattr(geometry, "fundamental_forms",
                        lambda *args: records.append(args) or build(*args))
    with pytest.raises(StepFailureError, match=f"floor {floor:g} "):
        solver.newton_solve(GridFunction.constant(1.45, spec.grid), 1.0, spec)
    assert len(records) <= 2 + int(np.log2(1.0 / floor))  # the start's and the trials'


TORUS4_AMPLITUDES = {2: (18.0, 1.0), 3: (10.0, 2.0, 0.5), 4: (4.0, 1.0, 0.3, 0.1)}


def torus4_spec(k, size):
    """An order-k spec on the size^4 torus inside every hypothesis:
    hyperbolic warping, r in (1.0, 1.6), pivot 1.45 and coefficient l
    perturbed by 5 % of a cos (l even) or sin profile along axis l."""
    terms = [CoefficientTerm(a, 0.05, {"kind": ("cos", "sin")[l % 2], "axis": l})
             for l, a in enumerate(TORUS4_AMPLITUDES[k])]
    return ProblemSpec(grid=FlatTorus((size,) * 4), warping=WarpingFunction("hyperbolic", 1.0),
                       k=k, coeffs=CoefficientFamily(terms, k), phi=PhiFunction(1.45),
                       r1=1.0, r2=1.6)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_torus4_ladder_converges_and_its_jacobian_matches_fd(k):
    # the paper's M^n at n = 4 through the code that serves T^2 and T^3: the
    # path on 4^4, then 8^4 in 2 Newton iterations (measured), and the
    # analytic J against fd_directional on 6^4 (measured 6.1e-11 to 8.6e-11)
    spec = torus4_spec(k, 8)
    assert problem.check_hypotheses(spec).passed
    state = solver.continuation(spec)
    accepted = [rec for rec in state.steps if rec["accepted"]]
    assert state.t == 1.0 and not state.diagnostics.flags
    assert accepted[0]["grid"] == [4] * 4 and accepted[-1]["grid"] == [8] * 4
    assert accepted[-1]["newton_iters"] <= 2 and accepted[-1]["residual_norm"] <= spec.newton_tol

    spec = torus4_spec(k, 6)
    x = spec.grid.coords
    u = GridFunction(1.45 + 0.03 * np.sin(x[:, 0]) + 0.02 * np.cos(x[:, 1])
                     + 0.01 * np.sin(x[:, 2] + x[:, 3]), spec.grid)
    rng = np.random.default_rng(4)
    worst = 0.0
    for t in (0.0, 0.7, 1.0):
        J = spec.grid.operator_sum(jacobian(u, t, spec))
        for _ in range(3):
            d = GridFunction(rng.standard_normal(spec.grid.num_nodes), spec.grid)
            ref = fd_directional(u, d, t, spec).values
            worst = max(worst, np.abs(J @ d.values - ref).max() / max(1.0, np.abs(ref).max()))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# step control from Newton's contraction
# ---------------------------------------------------------------------------

def replay_step_control(spec, steps):
    """Check the t of every record in steps, one homotopy path from t = 0
    to 1, against the step rule: dt halves after a rejected attempt; after
    an accepted step with first contraction theta = |F^1|/|F^0| it is
    scaled by min(cap, max(1/2, sqrt(0.25 / theta))), and by cap when the
    step took fewer than 2 Newton iterations, where cap is dt_grow, or 1
    when the attempt before was rejected.  Returns the scale factors of the
    accepted steps."""
    assert steps[0]["t"] == 0.0 and steps[-1]["t"] == 1.0
    assert all(type(rec["t"]) is float for rec in steps)  # no numpy scalar in a record
    t, dt, factors = 0.0, spec.dt_init, []
    for before, rec in zip(steps, steps[1:]):
        assert rec["t"] - t == pytest.approx(min(1.0 - t, dt), rel=1e-12, abs=0.0)
        if not rec["accepted"]:
            dt *= 0.5
            continue
        cap = spec.dt_grow if before["accepted"] else 1.0
        norms = rec["residual_history"]
        factors.append(cap if rec["newton_iters"] < 2 else min(
            cap, max(0.5, np.sqrt(0.25 / (norms[1] / norms[0])))))
        t, dt = rec["t"], dt * factors[-1]
    return factors


def test_radial_torus_reaches_t1_in_one_step():
    # the default first step is the whole path, and its first contraction
    # is about 1e-3, so Newton needs at most 3 iterations
    spec = hyperbolic_spec((8, 8, 8))
    assert spec.dt_init == 1.0
    state = solver.continuation(spec)
    assert state.t == 1.0
    assert [rec["t"] for rec in state.steps] == [0.0, 1.0]
    assert state.steps[1]["accepted"] and state.steps[1]["newton_iters"] <= 3
    assert replay_step_control(spec, state.steps) == [4.0]


@pytest.mark.parametrize("spec_fn", [
    lambda: replace(perturbed_spec((16, 16), 2), phi=PhiFunction(1.45)),
    lambda: perturbed_sphere_spec(16, 32)], ids=["torus2-16", "sphere-16x32"])
def test_default_path_reaches_t1_in_one_step(spec_fn):
    # the whole path's first contraction is far below CONTRACTION_TARGET
    # (2.6e-3 / 5.0e-2 on the benchmark's 16^2 torus, pivot 1.45), so its
    # one step needs no retry and at most 3 Newton iterations
    state = solver.continuation(spec_fn())
    assert state.t == 1.0
    assert [(rec["t"], rec["accepted"]) for rec in state.steps] == [(0.0, True), (1.0, True)]
    assert state.steps[1]["newton_iters"] <= 3


def test_failed_full_step_backs_off_to_half(monkeypatch):
    # the first attempt, the whole path, fails: its record names dt 1, the
    # retry reaches t = 0.5, and the cap of 1 after a rejection keeps dt at
    # 0.5 for the step to t = 1
    spec = perturbed_spec((16, 16), 2)
    record_newton_solves(monkeypatch, fail_calls={0})
    state = solver.continuation(spec)
    assert state.steps[1] == {"t": 1.0, "grid": [16, 16], "accepted": False,
                              "dt": 1.0, "error": "ConeExitError"}
    assert [(rec["t"], rec["accepted"]) for rec in state.steps[2:]] == [(0.5, True), (1.0, True)]
    assert replay_step_control(spec, state.steps)[0] == 1.0


@pytest.mark.parametrize("spec_fn,uncapped", [
    (lambda: perturbed_spec((16, 16), 2, dt_init=0.1), True),
    (lambda: perturbed_sphere_spec(16, 32, dt_init=0.1), False),
    (lambda: perturbed_spec((16, 16), 2, dt_init=0.02, dt_grow=10.0), True)],
    ids=["torus2-16", "sphere-16x32", "torus2-16-grow-10"])
def test_step_size_follows_the_first_contraction(spec_fn, uncapped):
    spec = spec_fn()
    factors = replay_step_control(spec, solver._homotopy(spec, []).steps)
    assert len(factors) >= 2
    # whether the contraction, not the cap, sets some step's growth
    assert any(1.0 < f < spec.dt_grow for f in factors) == uncapped


def test_rejected_step_halves_dt_under_step_control(monkeypatch):
    # the forced failure of the second attempt halves its dt, and the retry's
    # contraction scales the halved dt (dt_init 0.1 pins a second step)
    spec = perturbed_spec((16, 16), 2, dt_init=0.1)
    record_newton_solves(monkeypatch, fail_calls={1})
    state = solver._homotopy(spec, [])
    assert [rec["accepted"] for rec in state.steps[:4]] == [True, True, False, True]
    replay_step_control(spec, state.steps)


# ---------------------------------------------------------------------------
# grid sequencing
# ---------------------------------------------------------------------------

def test_coarse_levels_halve_every_axis_down_to_256_nodes():
    def shapes(spec):
        out = [spec.grid.shape]
        while (spec := solver._coarse_spec(spec)) is not None:
            out.append(spec.grid.shape)
        return out
    assert shapes(perturbed_sphere_spec(64, 128)) == [(64, 128), (32, 64), (16, 32)]
    assert shapes(perturbed_spec((64, 64), 2)) == [(64, 64), (32, 32), (16, 16)]
    assert shapes(perturbed_spec((16, 16, 16), 3)) == [(16, 16, 16), (8, 8, 8)]
    assert shapes(perturbed_spec((32, 32, 32), 3)) == [(32, 32, 32), (16, 16, 16), (8, 8, 8)]
    assert shapes(perturbed_sphere_spec(96, 192))[-1] == (12, 24)
    assert shapes(perturbed_spec((33, 40), 2)) == [(33, 40), (16, 20)]
    # (16, 33) would have an odd longitude count
    assert shapes(perturbed_sphere_spec(64, 132)) == [(64, 132), (32, 66)]


@pytest.mark.parametrize("spec_fn,ladder", [
    (lambda: perturbed_sphere_spec(64, 128), [[16, 32], [32, 64], [64, 128]]),
    (lambda: perturbed_spec((64, 64), 2), [[16, 16], [32, 32], [64, 64]]),
    (lambda: perturbed_spec((16, 16, 16), 3), [[8, 8, 8], [16, 16, 16]])],
                         ids=["sphere-64x128", "torus2-64", "torus3-16-k3"])
def test_sequenced_solution_matches_the_direct_homotopy(spec_fn, ladder):
    spec = spec_fn()
    # the coarse levels bind copies of the coefficients, never spec's own
    before = [spec.coeffs.values(l, 1.3) for l in range(spec.k)]
    state = solver.continuation(spec)
    assert all(np.array_equal(spec.coeffs.values(l, 1.3), a) for l, a in enumerate(before))
    direct = solver._homotopy(spec, [])
    assert np.abs(state.u.values - direct.u.values).max() <= 1e-9
    # the path on the coarsest grid, then one Newton record per finer grid
    grids = [rec["grid"] for rec in state.steps]
    path = len(state.steps) - len(ladder) + 1
    assert all(grid == ladder[0] for grid in grids[:path])
    assert grids[path:] == ladder[1:]
    assert all(rec["t"] == 1.0 and rec["accepted"] for rec in state.steps[path - 1:])
    assert state.u.grid is spec.grid and state.t == 1.0


def test_finer_levels_log_their_correction_norm(monkeypatch):
    # each finer level's record carries max|u_L - P u_{L-1}|, u_{L-1} the
    # solution of the level below; no other record has the key
    spec = perturbed_spec((64, 64), 2)
    solved = {}  # grid shape -> (grid, u of the last Newton solve on it)
    original = solver.newton_solve

    def newton_solve(u, t, level, rec=None):
        out = original(u, t, level, rec=rec)
        solved[level.grid.shape] = (level.grid, out[0].values)
        return out
    monkeypatch.setattr(solver, "newton_solve", newton_solve)
    state = solver.continuation(spec)
    finer = [rec for rec in state.steps if "correction_norm" in rec]
    assert [rec["grid"] for rec in finer] == [[32, 32], [64, 64]]
    assert finer == state.steps[-2:]
    for below, rec in zip([(16, 16), (32, 32)], finer):
        (coarse, u_coarse), (grid, u) = solved[below], solved[tuple(rec["grid"])]
        assert rec["correction_norm"] == float(np.abs(u - grid.prolong_from(u_coarse, coarse)).max())
    # an estimate of the error of u_{L-1}, so second order: each level's
    # about a quarter of the one before
    ratio = finer[0]["correction_norm"] / finer[1]["correction_norm"]
    assert 3.5 <= ratio <= 4.5, ratio


def fail_on_grid(monkeypatch, grid, count):
    """Make the first `count` newton_solve calls on grid raise."""
    original = solver.newton_solve
    failures = []

    def newton_solve(u, t, spec, rec=None):
        if spec.grid is grid and len(failures) < count:
            failures.append(t)
            raise StepFailureError("forced")
        return original(u, t, spec, rec=rec)
    monkeypatch.setattr(solver, "newton_solve", newton_solve)
    return failures


def aliased_spec():
    """32^2 torus at eps 0.5 (outside the hypotheses) whose freq 16 profiles
    sample to constants on 16^2."""
    profiles = ({"kind": "cos", "axis": 0, "freq": 16}, {"kind": "sin", "axis": 1, "freq": 16})
    coeffs = CoefficientFamily([CoefficientTerm(a, 0.5, p)
                                for a, p in zip((3.0, 0.5), profiles)], 2)
    return ProblemSpec(grid=FlatTorus((32, 32)), warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.45), r1=1.0, r2=1.6)


@pytest.mark.parametrize("kind,freq,carried", [
    ("sin", 8, False),   # samples to zero on 16^2
    ("cos", 16, False),  # samples to a constant on 16^2
    ("cos", 8, True)],   # the Nyquist cosine, which _trig_interpolate restores
                         ids=["sin-8", "cos-16", "cos-8"])
def test_coarse_spec_refuses_a_grid_that_cannot_carry_the_coefficients(kind, freq, carried):
    coeffs = CoefficientFamily([CoefficientTerm(3.0, 0.05, {"kind": kind, "axis": 0, "freq": freq}),
                                CoefficientTerm(0.5)], 2)
    spec = ProblemSpec(grid=FlatTorus((32, 32)), warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.45), r1=1.0, r2=1.6)
    coarse = solver._coarse_spec(spec)
    assert (coarse is not None) == carried
    if carried:
        assert coarse.grid.shape == (16, 16)


def test_an_aliased_spec_follows_its_path_on_its_own_grid():
    # the 16^2 level would see constant coefficients, so the path runs on
    # 32^2, once, without a rejected attempt
    spec = aliased_spec()
    for term in spec.coeffs.terms:
        assert np.ptp(problem.sample_profile(term.profile, FlatTorus((16, 16)))) <= 1e-13
    assert solver._coarse_spec(spec) is None
    state = solver.continuation(spec)
    assert all(rec["grid"] == [32, 32] and rec["accepted"] for rec in state.steps)
    assert state.t == 1.0 and state.u.grid is spec.grid
    assert state.steps[-1]["residual_norm"] <= spec.newton_tol


def test_coarse_failure_raises_the_last_accepted_state_on_the_configured_grid(monkeypatch):
    # Newton fails on the 16^2 level from the third attempt on, so its path
    # stops at the second step's t; no record is on 32^2
    spec = perturbed_spec((32, 32), 2, dt_init=0.1, dt_min=0.09)
    calls = record_newton_solves(monkeypatch, fail_calls=set(range(2, 100)))
    with pytest.raises(ContinuationError, match="step size underflow") as err:
        solver.continuation(spec)
    state = err.value.last_state
    accepted = [rec for rec in state.steps if rec["accepted"]]
    assert {tuple(rec["grid"]) for rec in state.steps} == {(16, 16)}
    assert len(accepted) == 3 and state.t == accepted[-1]["t"] == calls[1][1] < 1.0
    assert not state.steps[-1]["accepted"] and "dt" in state.steps[-1]
    assert state.u.grid is spec.grid
    coarse = calls[1][2]
    assert np.array_equal(state.u.values, spec.grid.prolong_from(coarse.values, coarse.grid))
    assert state.diagnostics == solver.diagnostics(state.u, spec)


def test_failed_finer_level_raises_the_coarse_solution_prolonged(monkeypatch):
    # the 64^2 level fails: its one record follows the 32^2 level's, and the
    # error carries the 32^2 solution at t = 1, prolonged onto 64^2
    spec = perturbed_spec((64, 64), 2)
    failures = fail_on_grid(monkeypatch, spec.grid, np.inf)
    with pytest.raises(ContinuationError, match="forced") as err:
        solver.continuation(spec)
    assert failures == [1.0]  # the 64^2 level's Newton, once
    state = err.value.last_state
    assert isinstance(err.value.__cause__, StepFailureError)
    assert [rec["grid"] for rec in state.steps[-2:]] == [[32, 32], [64, 64]]
    assert state.steps[-1] == {"t": 1.0, "grid": [64, 64], "accepted": False,
                               "error": "StepFailureError"}
    assert all(rec["accepted"] for rec in state.steps[:-1])
    assert [rec["t"] for rec in state.steps if rec["grid"] != [16, 16]] == [1.0, 1.0]
    # no record restarts the path: t never falls after the first
    assert all(b["t"] >= a["t"] for a, b in zip(state.steps, state.steps[1:]))
    assert state.t == 1.0 and state.u.grid is spec.grid
    solved = solver.continuation(perturbed_spec((32, 32), 2))
    assert np.array_equal(state.u.values,
                          spec.grid.prolong_from(solved.u.values, solved.u.grid))


def test_specs_sharing_a_coefficient_family_check_and_solve():
    # one family given to specs on two grids: each spec binds its own copy,
    # so the 32^2 spec does not resample the profiles the 16^2 spec reads
    coeffs = CoefficientFamily([CoefficientTerm(3.0, 0.05, {"kind": "cos", "axis": 0}),
                                CoefficientTerm(0.5, 0.05, {"kind": "sin", "axis": 1})], 2)
    specs = [ProblemSpec(grid=FlatTorus((n, n)), warping=WarpingFunction("hyperbolic", 1.0),
                         k=2, coeffs=coeffs, phi=PhiFunction(1.3), r1=1.0, r2=1.6)
             for n in (16, 32)]
    for spec in specs:
        assert problem.check_hypotheses(spec).passed
        alone = perturbed_spec(spec.grid.shape, 2)  # the same family, unshared
        assert np.array_equal(solver.continuation(spec).u.values,
                              solver.continuation(alone).u.values)


def test_tabulated_coefficients_take_the_direct_path():
    # u-independent tables: the constant solution solves coth(u) = 1 + sqrt(7)
    grid = FlatTorus((32, 32))
    tables = [np.full((2, grid.num_nodes), a) for a in (6.0, 1.0)]
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0), k=2,
                       coeffs=TabulatedCoefficients([0.05, 1.8], tables, 2),
                       phi=PhiFunction(0.28), r1=0.2, r2=0.35)
    assert solver._coarse_spec(spec) is None
    assert not problem.check_hypotheses(spec).checks["as-3"].passed
    state = solver.continuation(spec)
    assert all(rec["grid"] == [32, 32] for rec in state.steps)
    assert state.steps[0]["t"] == 0.0 and state.t == 1.0
    assert np.abs(state.u.values - np.arctanh(1.0 / (1.0 + np.sqrt(7.0)))).max() <= 1e-8
