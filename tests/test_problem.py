import logging
import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from warpcurve import geometry, problem, symfunc
from warpcurve.errors import ConeExitError, ConfigError, HypothesisError
from warpcurve.geometry import FlatTorus, GridFunction, Sphere2, WarpingFunction, warp_eval
from warpcurve.oracle import (colored_fd_jacobian, fd_directional, jacobian_matrix,
                              stencil_pattern)
from warpcurve.problem import (CHECK_SAMPLES, CoefficientFamily, CoefficientTerm,
                               PhiFunction, ProblemSpec, TabulatedCoefficients,
                               alpha_k1_homotopy, check_hypotheses, jacobian,
                               load_coefficient_table, residual)


def hyperbolic_spec(resolution=(6, 6, 6), eps=(0.0, 0.0), profiles=(None, None),
                    **kwargs):
    grid = FlatTorus(resolution)
    coeffs = CoefficientFamily(
        [CoefficientTerm(6.0, eps[0], profiles[0]),
         CoefficientTerm(1.0, eps[1], profiles[1])], 2)
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.3),
                       r1=1.0, r2=1.6, **kwargs)


# ---------------------------------------------------------------------------
# profiles and coefficients
# ---------------------------------------------------------------------------

def test_sample_profile_torus():
    grid = FlatTorus((8, 8), periods=(2.0, 4.0))
    psi = problem.sample_profile({"kind": "cos", "axis": 1, "freq": 1.0}, grid)
    np.testing.assert_allclose(
        psi, np.cos(2 * np.pi * grid.coords[:, 1] / 4.0), atol=1e-14)
    assert np.all(problem.sample_profile({"kind": "zero"}, grid) == 0.0)
    assert np.all(problem.sample_profile(None, grid) == 0.0)
    # not a function on the torus (a jump at the period seam), no such axis
    # (-1 would read the last one), or no kind at all
    for desc, key in [({"kind": "cos", "axis": 0, "freq": 1.5}, "freq"),
                      ({"kind": "sin", "axis": -1}, "axis"),
                      ({"kind": "cos", "axis": 5}, "axis"),
                      ({"axis": 0, "freq": 1.0}, "kind")]:
        with pytest.raises(ConfigError, match=f"'{key}'"):
            problem.sample_profile(desc, grid)


def test_sample_profile_sphere():
    grid = Sphere2(8, 16)
    th, ph = grid.coords[:, 0], grid.coords[:, 1]
    np.testing.assert_allclose(
        problem.sample_profile({"kind": "sphere_z"}, grid), np.cos(th))
    np.testing.assert_allclose(
        problem.sample_profile({"kind": "sphere_x"}, grid), np.sin(th) * np.cos(ph))
    with pytest.raises(ConfigError):
        problem.sample_profile({"kind": "sphere_z"}, FlatTorus((4, 4)))
    with pytest.raises(ConfigError):
        problem.sample_profile({"kind": "ramp"}, grid)


def test_coefficient_term_validation():
    with pytest.raises(ConfigError):
        CoefficientTerm(0.0)
    with pytest.raises(ConfigError):
        CoefficientTerm(1.0, epsilon=1.0)


def test_builtin_family_scaling():
    grid = FlatTorus((4, 4, 4))
    w = WarpingFunction("hyperbolic", 1.0)
    fam = CoefficientFamily([CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)
    fam.bind(grid, w)
    f = np.sinh(1.2)
    np.testing.assert_allclose(fam.values(0, 1.2), 6.0 / f ** 2)
    np.testing.assert_allclose(fam.values(1, 1.2), 1.0 / f)
    # derivative of f^{k-l} alpha_l vanishes identically for this family
    h = 1e-6
    for l in range(2):
        def beta(u):
            fv = np.sinh(u)
            return fv ** (2 - l) * fam.values(l, u)
        assert np.abs((beta(1.2 + h) - beta(1.2 - h)) / (2 * h)).max() < 1e-8


def test_tabulated_coefficients_interpolation():
    grid = FlatTorus((4, 4))
    us = np.array([1.0, 1.5, 2.0])
    table = np.outer([2.0, 3.0, 5.0], np.ones(grid.num_nodes))
    tab = TabulatedCoefficients(us, [table, 2 * table], 2)
    tab.bind(grid, WarpingFunction("hyperbolic", 1.0))
    np.testing.assert_allclose(tab.values(0, 1.25), 2.5)
    np.testing.assert_allclose(tab.du(0, 1.25), 2.0)
    np.testing.assert_allclose(tab.values(1, 1.75), 8.0)
    with pytest.raises(ConfigError):
        TabulatedCoefficients([1.0], [table], 1)
    with pytest.raises(ConfigError):
        TabulatedCoefficients([1.0, 0.5], [table, table], 2)


def test_tabulated_coefficients_on_lattice_match_per_sample_calls():
    grid = FlatTorus((4, 4))
    rng = np.random.default_rng(11)
    us = np.array([0.5, 0.9, 1.4, 2.0])
    tab = TabulatedCoefficients(us, [rng.random((4, grid.num_nodes)) for _ in range(2)], 2)
    tab.bind(grid, WarpingFunction("hyperbolic", 1.0))
    # samples, interior points and points beyond both ends
    col = np.concatenate([us, [0.3, 0.7, 1.1, 1.9, 2.4]])[:, None]
    for l in range(2):
        for method in (tab.values, tab.du):
            lattice = method(l, col)
            assert lattice.shape == (col.shape[0], grid.num_nodes)
            np.testing.assert_array_equal(
                lattice, np.stack([method(l, u) for u in col[:, 0]]))


def test_load_coefficient_table(tmp_path):
    grid = FlatTorus((4, 4))
    path = tmp_path / "alpha0.csv"
    lines = ["u,node,value"]
    for u in (1.0, 2.0):
        for node in range(grid.num_nodes):
            lines.append(f"{u},{node},{3.0 * u}")
    path.write_text("\n".join(lines) + "\n")
    us, table = load_coefficient_table(path, grid)
    np.testing.assert_allclose(us, [1.0, 2.0])
    np.testing.assert_allclose(table[0], 3.0)
    np.testing.assert_allclose(table[1], 6.0)

    bad = tmp_path / "bad.csv"
    bad.write_text("u,node,value\n1.0,999,3.0\n")
    with pytest.raises(ConfigError, match="row 2"):
        load_coefficient_table(bad, grid)
    repeated = tmp_path / "repeated.csv"
    repeated.write_text("\n".join(lines + ["1.0,3,99.0"]) + "\n")  # node 3 of u = 1 is row 5
    with pytest.raises(ConfigError, match="row 34: u=1.0, node 3 repeats row 5"):
        load_coefficient_table(repeated, grid)
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text("1.0,0,3.0\n")
    with pytest.raises(ConfigError, match="header"):
        load_coefficient_table(nohdr, grid)


def test_phi_function():
    phi = PhiFunction(1.3, steepness=2.0)
    assert phi(1.3) == 1.0
    assert phi(1.0) > 1.0 and phi(1.6) < 1.0
    assert phi.deriv(1.3) == -2.0
    with pytest.raises(ConfigError):
        PhiFunction(1.3, steepness=0.0)


# ---------------------------------------------------------------------------
# ProblemSpec validation
# ---------------------------------------------------------------------------

def test_problem_spec_validation():
    grid = FlatTorus((4, 4, 4))
    w = WarpingFunction("hyperbolic", 1.0)

    def fam():
        return CoefficientFamily([CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)

    with pytest.raises(ConfigError):  # k out of range
        ProblemSpec(grid=grid, warping=w, k=4, coeffs=fam(),
                    phi=PhiFunction(1.3), r1=1.0, r2=1.6)
    with pytest.raises(ConfigError):  # pivot on the boundary
        ProblemSpec(grid=grid, warping=w, k=2, coeffs=fam(),
                    phi=PhiFunction(1.6), r1=1.0, r2=1.6)
    with pytest.raises(ConfigError):  # annulus outside warping domain
        ProblemSpec(grid=grid, warping=WarpingFunction("sphere", 4.0), k=2,
                    coeffs=fam(), phi=PhiFunction(1.3), r1=1.0, r2=1.6)
    spec = hyperbolic_spec((4, 4, 4))
    assert spec.n == 3 and spec.ratio_e == 1.0


# ---------------------------------------------------------------------------
# homotopy and residual
# ---------------------------------------------------------------------------

def test_alpha_k1_homotopy_endpoints():
    spec = hyperbolic_spec((4, 4, 4))
    u = 1.25
    a1 = alpha_k1_homotopy(u, 1.0, spec)
    np.testing.assert_allclose(a1, spec.coeffs.values(1, u))
    a0 = alpha_k1_homotopy(spec.phi.pivot, 0.0, spec)
    f, fp, _ = geometry.warp_eval(spec.warping, spec.phi.pivot)
    np.testing.assert_allclose(a0, spec.ratio_e * fp / f)
    with pytest.raises(ConfigError):
        alpha_k1_homotopy(u, 1.5, spec)


def test_residual_zero_at_pivot():
    for grid in (FlatTorus((6, 6, 6)), Sphere2(8, 16)):
        coeffs = CoefficientFamily([CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)
        spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                           k=2, coeffs=coeffs, phi=PhiFunction(1.3),
                           r1=1.0, r2=1.6)
        u = GridFunction.constant(spec.phi.pivot, grid)
        assert np.abs(residual(u, 0.0, spec).values).max() <= 1e-12


def test_residual_affine_in_t():
    spec = hyperbolic_spec((6, 6, 6))
    rng = np.random.default_rng(8)
    u = GridFunction(1.3 + 0.03 * np.sin(spec.grid.coords[:, 0]), spec.grid)
    F0 = residual(u, 0.0, spec).values
    F1 = residual(u, 1.0, spec).values
    for t in (0.25, 0.6, 0.9):
        Ft = residual(u, t, spec).values
        np.testing.assert_allclose(Ft, (1 - t) * F0 + t * F1, atol=1e-12)
    del rng


def test_residual_sign_at_top_leaf():
    spec = hyperbolic_spec((4, 4, 4))
    u = GridFunction.constant(spec.r2, spec.grid)
    assert np.all(residual(u, 1.0, spec).values >= 0.0)


def test_residual_cone_exit_names_node():
    spec = hyperbolic_spec((16, 4, 4))
    # a violent dent drives one region's curvatures out of Gamma_1
    vals = 1.3 + 0.6 * np.sin(3.0 * spec.grid.coords[:, 0])
    with pytest.raises(ConeExitError) as err:
        residual(GridFunction(vals, spec.grid), 1.0, spec)
    assert err.value.node is not None


def test_sigma_margins_are_the_row_minimum_bit_for_bit():
    # the column-by-column minimum that the cone check and diagnostics read
    # is numpy's minimum over each row, bit for bit, through exact ties,
    # tied signed zeros and a nan node
    spec = hyperbolic_spec((4, 4, 4))
    rng = np.random.default_rng(0)
    u = GridFunction(1.3 + 0.05 * rng.standard_normal(spec.grid.num_nodes), spec.grid)
    sig = geometry.fundamental_forms(u, spec.warping).sig.copy()
    sig[0, 1:] = sig[0, 1]
    sig[1, 2] = sig[1, 1]
    sig[2, 1:3] = 0.0, -0.0
    sig[3, 1:3] = -0.0, 0.0
    sig[4, 2] = np.nan
    for k in range(1, sig.shape[1]):
        got, want = symfunc.sigma_margins(sig, k), sig[:, 1:k + 1].min(axis=1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isnan(symfunc.sigma_margins(sig, 2)[4])


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------

def test_jacobian_both_paths_match_oracle():
    spec = hyperbolic_spec((6, 6, 6))
    u = GridFunction(1.3 + 0.05 * np.sin(spec.grid.coords[:, 0]), spec.grid)
    rng = np.random.default_rng(9)
    for J in (colored_fd_jacobian(u, 0.7, spec), spec.grid.operator_sum(jacobian(u, 0.7, spec))):
        for _ in range(3):
            d = GridFunction(rng.standard_normal(spec.grid.num_nodes), spec.grid)
            ref = fd_directional(u, d, 0.7, spec).values
            got = J @ d.values
            assert np.abs(got - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("grid, profiles", [
    (FlatTorus((16, 16)), ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 1})),
    (Sphere2(12, 24), ({"kind": "sphere_z"}, {"kind": "sphere_x"})),
    (FlatTorus((10, 10, 10)), ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 2})),
    (FlatTorus((10, 10, 10)), ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 2},
                               {"kind": "cos", "axis": 1})),
], ids=["torus2-16", "sphere-12x24", "torus3-10-k2", "torus3-10-k3"])
def test_jacobian_matches_extrapolated_directional_difference(grid, profiles):
    # the Newton-tensor Jacobian against an independent difference.  A plain
    # central difference missed it by 1.6e-5 on the sphere, O(h^2) in the
    # pole rows; the Richardson-extrapolated oracle misses by 8.1e-11 there
    # and by 5.2e-11 on the 2-torus, rounding in the difference quotients.
    # On the 3-torus (k = 3 is the only case whose dF/dA has an A^2 term) it
    # misses by 7.5e-11 (k = 2) and 5.7e-11 (k = 3), the eigenvector formula
    # it replaced by 1.0e-10 and 7.5e-11
    k = len(profiles)
    coeffs = CoefficientFamily([CoefficientTerm(a, 0.05, p)
                                for a, p in zip((3.0, 0.5, 0.5), profiles)], k)
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=k, coeffs=coeffs, phi=PhiFunction(1.45), r1=1.0, r2=1.6)
    x = grid.coords
    if isinstance(grid, Sphere2):  # smooth across the poles
        bump = 0.03 * np.sin(x[:, 0]) * np.cos(x[:, 1]) + 0.02 * np.cos(x[:, 0])
    else:
        bump = 0.03 * np.sin(x[:, 0]) + 0.02 * np.cos(x[:, 1])
        if grid.n == 3:
            bump += 0.01 * np.sin(x[:, 2])
    u = GridFunction(1.45 + bump, grid)
    rng = np.random.default_rng(2)
    worst = 0.0
    for t in (0.0, 0.7, 1.0):
        J = grid.operator_sum(jacobian(u, t, spec))
        for _ in range(10):
            d = GridFunction(rng.standard_normal(grid.num_nodes), grid)
            ref = fd_directional(u, d, t, spec).values
            worst = max(worst, np.abs(J @ d.values - ref).max() / max(1.0, np.abs(ref).max()))
    assert worst <= 1e-9


def graph_pencils(n, kind, N=400, seed=0):
    """N graph nodes: the record's inputs (f > 0, f', no f'', Du, the lower
    triangle of D^2u) and the dense pencil (gtilde, h) they define, as in
    fundamental_forms.  D^2u is chosen so that h = s gtilde + amp f^2 (B + B^T)
    up to rounding, with s = +-(1..2) per node, so about half have every
    lam < 0, and amp 0.5 (random), 1e-7 (near-degenerate) or 0 (umbilic)."""
    rng = np.random.default_rng(seed)
    f, fp = rng.uniform(0.5, 2.0, N), rng.uniform(0.2, 2.0, N)
    du = 0.5 * f[:, None] * rng.standard_normal((N, n))  # |Du| / f up to about 2
    uu = du[:, :, None] * du[:, None, :]
    f3, fp3 = f[:, None, None], fp[:, None, None]
    v3 = np.sqrt(f3 ** 2 + uu.trace(axis1=1, axis2=2)[:, None, None])
    gtilde = f3 ** 2 * np.eye(n) + uu
    s = rng.choice([-1.0, 1.0], N) * rng.uniform(1.0, 2.0, N)
    B = rng.standard_normal((N, n, n))
    amp = {"random": 0.5, "near-degenerate": 1e-7, "umbilic": 0.0}[kind]
    target = s[:, None, None] * gtilde + amp * f3 ** 2 * (B + np.swapaxes(B, 1, 2))
    # h = (f' (gtilde + Du Du^T) - f D^2u) / v, solved for D^2u
    d2u = (fp3 * (gtilde + uu) - v3 * target) / f3
    h = (fp3 * (gtilde + uu) - f3 * d2u) / v3
    lower = {(i, j): d2u[:, i, j] for i in range(n) for j in range(i + 1)}
    return (f, fp, None, du, lower), gtilde, h


@pytest.mark.parametrize("kind", ["random", "near-degenerate", "umbilic"])
@pytest.mark.parametrize("n, k", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_sigma_and_newton_tensor_forms_match_the_eigensystem(n, k, kind):
    # the closed-form record of graph nodes, its sigma from the Newton-tensor
    # recurrence on A = gamma h gamma and the Jacobian's reads of the
    # Newton-tensor forms, M1 = gamma G gamma, M2 Du, tr M2
    # (M2 = gamma G A gamma) and Tr(G A), against sigma_all of the LAPACK
    # pencil eigenvalues of the same (gtilde, h) and the eigenvector forms
    # M1 = V diag(G) V^T, M2 = V diag(G lam) V^T, G = dF/dlam; measured at
    # most 5.2e-15 (sigma, n <= 3; 9.96e-15 for n = 4, whose sigma_2 sums 6
    # products: 7.3e-15 against eigvalsh of A itself) and 1.3e-13 (M1, at a
    # 3-D k = 3 node next to the cone's edge, where |G| is about 1e7; M2 Du
    # 6.9e-14, tr M2 1.7e-14)
    fields, gtilde, h = graph_pencils(n, kind)
    rec = geometry.graph_record(*fields)
    sig = rec.sig
    lam, V = geometry.pencil_eigensystem(gtilde, h)
    scale = np.abs(lam).max(axis=1, keepdims=True)
    ref = symfunc.sigma_all(lam)
    assert np.all(np.abs(sig - ref) <= 1e-14 * scale ** np.arange(n + 1))

    inside = sig[:, 1:k].min(axis=1) > 0.0
    assert 0 < inside.sum() < inside.size
    rng = np.random.default_rng(1)
    t_alpha = [rng.uniform(0.5, 2.0, lam.shape[0]) for _ in range(k - 1)]
    M1, M2du, tr_M2, tr_GA = problem._newton_tensor_forms(
        rec, problem._sigma_derivatives(sig, k, t_alpha))
    _, dquot = symfunc.quotient_and_grads(lam[inside], k)
    G = dquot[:, k] - sum(ta[inside, None] * dquot[:, l] for l, ta in enumerate(t_alpha))
    Vi, Vt = V[inside], np.swapaxes(V[inside], 1, 2)
    want1, want2 = ((Vi * D[:, None, :]) @ Vt for D in (G, G * lam[inside]))
    size1, size2 = (np.abs(W).max(axis=(1, 2)) for W in (want1, want2))
    for (i, j), got in M1.items():
        assert np.all(np.abs(got[inside] - want1[:, i, j]) <= 1e-12 * size1)
    du = rec.du[inside]
    want = np.einsum("nij,nj->ni", want2, du)
    got = np.stack(M2du, axis=1)[inside]
    assert np.all(np.abs(got - want) <= 1e-12 * (size2 * np.abs(du).sum(axis=1))[:, None])
    want = np.trace(want2, axis1=1, axis2=2)
    assert np.all(np.abs(tr_M2[inside] - want) <= 1e-12 * size2)
    want = np.sum(G * lam[inside], axis=1)
    assert np.all(np.abs(tr_GA[inside] - want) <= 1e-12 * np.abs(G * lam[inside]).sum(axis=1))

    # the cone check names the worst node by sigma and its pencil eigenvalues
    with pytest.raises(ConeExitError) as err:
        problem._check_cone(rec, k)
    node = err.value.node
    assert node == int(np.argmin(sig[:, 1:k].min(axis=1)))
    assert np.all(np.abs(np.array(err.value.lam) - lam[node]) <= 1e-14 * scale[node])
    assert "lam" not in rec.__dict__  # from the worst node's A, no eigensolve of every node


def test_cone_check_counts_a_nan_margin_as_off_the_cone():
    # margins [2, -0.5, nan, 3, 1]: numpy's argmin finds the nan, and
    # nan <= 0 is false, so the nan must not hide the node at -0.5; with no
    # finite offender left, the nan node is the one named
    fields, _, _ = graph_pencils(3, "random", N=5)
    rec = geometry.graph_record(*fields, 3)
    sig = np.ones((5, 4))
    sig[:, 1] = 2.0, 1.0, np.nan, 3.0, 1.0
    sig[:, 2] = 4.0, -0.5, 1.0, 5.0, 2.0
    assert np.array_equal(symfunc.sigma_margins(sig, 2), [2.0, -0.5, np.nan, 3.0, 1.0],
                          equal_nan=True)
    with pytest.raises(ConeExitError, match="margin -5.000e-01") as err:
        problem._check_cone(replace(rec, sig=sig), 3)
    assert err.value.node == 1
    sig[1, 2] = 0.5
    with pytest.raises(ConeExitError, match="margin nan") as err:
        problem._check_cone(replace(rec, sig=sig), 3)
    assert err.value.node == 2


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("along", ["one-axis", "two-axes"])
def test_record_matches_the_eigensystem_on_steep_graphs(n, along):
    # |Du| / f from about 0.2 to 4e7 on ever shorter tori.  The record's
    # closed form and the oracle's Cholesky both lose about eps cond(gtilde),
    # cond(gtilde) = v^2 / f^2, in the worst case, but where differently: the
    # record in the eigenvalue along Du, which dominates when u varies along
    # one axis, the Cholesky when Du lies off the axes; measured at most
    # 1.8 eps cond(gtilde) of the largest |lam| per node
    w = WarpingFunction("hyperbolic", 1.0)
    eye = np.eye(n)
    for L in (1.0, 1e-3, 1e-6, 4.6e-9):
        grid = FlatTorus((8,) * n, periods=(L,) * n)
        x = 2.0 * np.pi * grid.coords / L
        u = 1.3 + 0.05 * np.sin(x[:, 0]) + 0.03 * np.cos(x[:, 0 if along == "one-axis" else 1])
        rec = geometry.fundamental_forms(GridFunction(u, grid), w)
        assert np.all(np.isfinite(rec.sig)) and np.all(np.isfinite(rec.lam))
        f3, fp3, v3 = (a[:, None, None] for a in (rec.f, rec.fp, rec.v))
        uu = rec.du[:, :, None] * rec.du[:, None, :]
        gtilde = f3 ** 2 * eye + uu
        h = (fp3 * (gtilde + uu) - f3 * geometry._dense(rec.d2u, n)) / v3
        lam = geometry.principal_curvatures(gtilde, h)
        cond = (rec.v / rec.f) ** 2
        tol = 4.0 * np.finfo(float).eps * cond * np.abs(lam).max(axis=1)
        assert np.all(np.abs(rec.lam - lam) <= tol[:, None])
    assert cond.max() > 1e15


def test_jacobian_constant_mode_positive_at_start():
    spec = hyperbolic_spec((4, 4, 4))
    u0 = GridFunction.constant(spec.phi.pivot, spec.grid)
    J = spec.grid.operator_sum(jacobian(u0, 0.0, spec))
    row_sums = J @ np.ones(spec.grid.num_nodes)
    assert np.all(row_sums > 0.0)
    # the zeroth-order coefficient of the constant mode is
    # -phi'(u0) (sigma_k(e)/sigma_{k-1}(e)) f'/f > 0
    f, fp, _ = geometry.warp_eval(spec.warping, spec.phi.pivot)
    expected = -spec.phi.deriv(spec.phi.pivot) * spec.ratio_e * fp / f
    np.testing.assert_allclose(row_sums, expected, rtol=1e-5)


def test_jacobian_translation_invariance():
    spec = hyperbolic_spec((6, 6, 6))
    u0 = GridFunction.constant(1.3, spec.grid)
    J = spec.grid.operator_sum(jacobian(u0, 0.5, spec))
    shape = spec.grid.shape
    e = np.zeros(spec.grid.num_nodes)
    e[0] = 1.0
    col = (J @ e).reshape(shape)
    eshift = np.zeros(shape)
    eshift[1, 0, 0] = 1.0
    col_shift = (J @ eshift.ravel()).reshape(shape)
    np.testing.assert_allclose(np.roll(col, 1, axis=0), col_shift, atol=1e-9)


def test_jacobian_sparsity_matches_stencil():
    spec = hyperbolic_spec((6, 6, 6))
    u = GridFunction(1.3 + 0.02 * np.cos(spec.grid.coords[:, 1]), spec.grid)
    J = jacobian_matrix(u, 1.0, spec)
    pat = stencil_pattern(spec.grid)
    extra = (abs(J) > 0).astype(float) - pat
    assert extra.max() <= 0.0  # no couplings beyond the stencil


@pytest.mark.parametrize("grid, profiles", [
    (FlatTorus((16, 16)), ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 1})),
    (Sphere2(12, 24), ({"kind": "sphere_z"}, {"kind": "sphere_x"})),
], ids=["torus2-16", "sphere-12x24"])
def test_jacobian_matches_colored_fd_entrywise(grid, profiles):
    # perturbed coefficients as in the benchmark's 2-D workloads; on the
    # sphere the colored FD itself is off by O(h^2), about 4e-7 here
    coeffs = CoefficientFamily([CoefficientTerm(3.0, 0.05, profiles[0]),
                                CoefficientTerm(0.5, 0.05, profiles[1])], 2)
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.45), r1=1.0, r2=1.6)
    x = grid.coords
    u = GridFunction(1.45 + 0.03 * np.cos(x[:, 0]) * np.sin(x[:, 1]), grid)
    for t in (0.0, 0.5, 1.0):
        J = jacobian_matrix(u, t, spec)
        err = abs(J - colored_fd_jacobian(u, t, spec)).max()
        assert err <= 1e-6 * abs(J).max()


GIVEN_RECORD_SPECS = pytest.mark.parametrize("grid, profiles", [
    (FlatTorus((8, 8, 8)), ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 2})),
    (Sphere2(12, 24), ({"kind": "sphere_z"}, {"kind": "sphere_x"})),
], ids=["torus3-8", "sphere-12x24"])


def given_record_case(grid, profiles):
    """A perturbed k = 2 spec on grid, a smooth u near its pivot and u's record."""
    coeffs = CoefficientFamily([CoefficientTerm(3.0, 0.05, profiles[0]),
                                CoefficientTerm(0.5, 0.05, profiles[1])], 2)
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.45), r1=1.0, r2=1.6)
    x = grid.coords
    u = GridFunction(1.45 + 0.03 * np.cos(x[:, 0]) * np.sin(x[:, 1]), grid)
    return spec, u, geometry.fundamental_forms(u, spec.warping)


def without_record_building(m):
    """Make building a record, or evaluating the warping, fail inside m."""
    for name in ("fundamental_forms", "pencil_eigensystem", "warp_eval"):
        m.setattr(geometry, name, None)
    m.setattr(problem, "warp_eval", None)
    m.setattr(geometry.BaseGrid, "gradient_hessian", None)


@GIVEN_RECORD_SPECS
def test_jacobian_from_given_record_is_identical(grid, profiles, monkeypatch):
    # the record Newton hands over is the one jacobian would build itself,
    # and its f and f' stand in for every evaluation of the warping
    spec, u, rec = given_record_case(grid, profiles)
    for t in (0.0, 0.5, 1.0):
        want = jacobian(u, t, spec)
        with monkeypatch.context() as m:
            without_record_building(m)
            got = jacobian(u, t, spec, rec)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@GIVEN_RECORD_SPECS
def test_residual_from_given_record_is_identical(grid, profiles, monkeypatch):
    spec, u, rec = given_record_case(grid, profiles)
    for t in (0.0, 0.5, 1.0):
        want = residual(u, t, spec).values
        with monkeypatch.context() as m:
            without_record_building(m)
            got = residual(u, t, spec, rec).values
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------

def test_check_hypotheses_passes_canonical_config():
    spec = hyperbolic_spec((4, 4, 4))
    report = check_hypotheses(spec)
    assert report.passed
    # scaled margins at the annulus boundaries: the leaf inequality sides
    # divided by sinh^2 u reproduce 3 cosh^2 u - 3 cosh u - 6
    m1 = report.checks["as-1"].worst_margin * np.sinh(1.6) ** 2
    assert m1 == pytest.approx(3 * np.cosh(1.6) ** 2 - 3 * np.cosh(1.6) - 6, rel=1e-10)
    m2 = report.checks["as-2"].worst_margin * np.sinh(1.0) ** 2
    assert m2 == pytest.approx(6 + 3 * np.cosh(1.0) - 3 * np.cosh(1.0) ** 2, rel=1e-10)
    report.raise_if_failed()  # no-op on a passing report


def test_check_hypotheses_equality_case():
    spec = hyperbolic_spec((4, 4, 4))
    report = check_hypotheses(spec)
    # built-in family: d/du [f^{k-l} alpha_l] = 0, margin 0 within FD noise
    assert report.checks["as-3"].passed
    assert abs(report.checks["as-3"].worst_margin) < 1e-6


def test_check_hypotheses_rejects_constant_coefficient():
    grid = FlatTorus((4, 4, 4))
    us = np.array([0.2, 1.8])
    const = np.ones((2, grid.num_nodes))
    tab = TabulatedCoefficients(us, [6.0 * const, 1.0 * const], 2)
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=tab, phi=PhiFunction(1.3), r1=1.0, r2=1.6)
    report = check_hypotheses(spec)
    assert not report.checks["as-3"].passed  # f^2 * const is increasing
    with pytest.raises(HypothesisError):
        report.raise_if_failed()


def test_check_hypotheses_monotone_in_epsilon():
    profiles = ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 1})
    margins = []
    for eps in (0.0, 0.02, 0.05):
        spec = hyperbolic_spec((6, 6, 6), eps=(eps, eps), profiles=profiles)
        report = check_hypotheses(spec)
        assert report.passed
        margins.append(min(report.checks["as-1"].worst_margin,
                           report.checks["as-2"].worst_margin))
    assert margins[0] >= margins[1] >= margins[2]


def test_check_hypotheses_perturbed_family_passes():
    spec = hyperbolic_spec((6, 6, 6), eps=(0.05, 0.05),
                           profiles=({"kind": "cos", "axis": 0},
                                     {"kind": "sin", "axis": 2}))
    assert check_hypotheses(spec).passed


def table_spec(grid, u_samples, tables):
    k = len(tables)
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0), k=k,
                       coeffs=TabulatedCoefficients(u_samples, tables, k),
                       phi=PhiFunction(1.3), r1=1.0, r2=1.6)


# the u-samples check_hypotheses uses for positivity and for as-3 on
# (r1, r2) = (1.0, 1.6)
POSITIVITY_US = np.linspace(1.0, 1.6, CHECK_SAMPLES)
AS3_US = np.linspace(1.0, 1.6, CHECK_SAMPLES + 2)[1:-1]


def test_positivity_offender_known():
    # alpha_1 dips to -0.5 at node 11 exactly at the 21st positivity sample
    grid = FlatTorus((4, 4))
    ones = np.ones((3, grid.num_nodes))
    alpha1 = ones.copy()
    alpha1[1, 11] = -0.5
    spec = table_spec(grid, [0.5, POSITIVITY_US[20], 2.0], [2.0 * ones, alpha1])
    chk = check_hypotheses(spec).checks["positivity"]
    assert not chk.passed
    assert chk.worst_margin == -0.5
    assert chk.offender == (POSITIVITY_US[20], 11, 1)


def test_as3_offender_known():
    # alpha_1 at node 5 climbs from 1 to 50 between two as-3 samples' midpoints
    # (a, b); d/du [f alpha_1] = f' alpha_1 + f alpha_1' grows along the climb,
    # so it peaks at the last sample before b
    grid = FlatTorus((4, 4))
    a = 0.5 * (AS3_US[29] + AS3_US[30])
    b = 0.5 * (AS3_US[39] + AS3_US[40])
    ones = np.ones((4, grid.num_nodes))
    alpha1 = ones.copy()
    alpha1[2:, 5] = 50.0
    spec = table_spec(grid, [0.5, a, b, 2.0], [ones, alpha1])
    chk = check_hypotheses(spec).checks["as-3"]
    assert not chk.passed
    u = AS3_US[39]
    assert chk.offender == (u, 5, 1)
    slope = 49.0 / (b - a)
    expected = np.cosh(u) * (1.0 + slope * (u - a)) + np.sinh(u) * slope
    assert -chk.worst_margin == pytest.approx(expected, rel=1e-6)


def test_offenders_known_on_k3_torus():
    # k = 3 on T^3: alpha_0 = 2 at node 42 and 1 elsewhere gives the largest
    # d/du [f^3 alpha_0] at the top as-3 sample; alpha_1 dips to -2 at node 17
    # exactly at the 41st positivity sample
    grid = FlatTorus((4, 4, 4))
    ones = np.ones((3, grid.num_nodes))
    alpha0 = ones.copy()
    alpha0[:, 42] = 2.0
    alpha1 = ones.copy()
    alpha1[1, 17] = -2.0
    spec = table_spec(grid, [0.5, POSITIVITY_US[40], 2.0], [alpha0, alpha1, ones])
    report = check_hypotheses(spec)
    pos, as3 = report.checks["positivity"], report.checks["as-3"]
    assert (pos.passed, pos.worst_margin, pos.offender) == (
        False, -2.0, (POSITIVITY_US[40], 17, 1))
    assert not as3.passed
    assert as3.offender == (AS3_US[-1], 42, 0)


def test_as3_passing_names_no_offender_on_k3_torus():
    # built-in family: f^{k-l} alpha_l is constant in u, so the as-3 centred
    # differences are rounding noise inside the tolerance
    grid = FlatTorus((4, 4, 4))
    coeffs = CoefficientFamily([CoefficientTerm(2.0), CoefficientTerm(0.5),
                                CoefficientTerm(0.25)], 3)
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0), k=3,
                       coeffs=coeffs, phi=PhiFunction(1.3), r1=1.0, r2=1.6)
    as3 = check_hypotheses(spec).checks["as-3"]
    assert as3.passed
    assert as3.offender is None
    assert abs(as3.worst_margin) < 1e-6


# ---------------------------------------------------------------------------
# the factored check against a brute-force (u-sample x node) lattice
# ---------------------------------------------------------------------------

def lattice_checks(spec):
    """Reference for the four coefficient checks of check_hypotheses: every
    alpha_l evaluated on a full (u-sample x node) lattice, one order at a
    time.  Returns {name: (passed, margin, offender)} and the as-3
    tolerance scale."""
    m, w, n, k = CHECK_SAMPLES, spec.warping, spec.n, spec.k
    delta = 0.1 * (spec.r2 - spec.r1)
    eps_dom = 1e-9 * max(1.0, abs(w.t_max) if np.isfinite(w.t_max) else 1.0)

    def lattice_min(us, lattices):
        worst, offender = np.inf, None
        for l, a in enumerate(lattices):
            i, x = np.unravel_index(np.argmin(a), a.shape)
            if a[i, x] < worst:
                worst, offender = float(a[i, x]), (float(us[i]), int(x), l)
        return worst, offender

    def leaf(us, sign):
        f, fp, _ = warp_eval(w, us)
        kappa = (fp / f)[:, None]
        rhs = 0.0
        for l in range(k):
            rhs = rhs + spec.coeffs.values(l, us[:, None]) * comb(n, l) * kappa ** l
        margins = sign * (comb(n, k) * kappa ** k - rhs)
        i, x = np.unravel_index(np.argmin(margins), margins.shape)
        return bool(margins[i, x] >= 0.0), float(margins[i, x]), (float(us[i]), int(x), None)

    out = {}
    hi = spec.r2 + delta
    if np.isfinite(w.t_max):
        hi = min(hi, w.t_max - eps_dom)
    out["as-1"] = leaf(np.linspace(spec.r2, hi, m), 1.0)
    lo = max(spec.r1 / 4.0, w.t_min + 1e-6 * (spec.r1 - w.t_min))
    out["as-2"] = leaf(np.linspace(lo, spec.r1, m), -1.0)

    us = np.linspace(spec.r1, spec.r2, m + 2)[1:-1]
    h = 1e-6 * (spec.r2 - spec.r1)
    uv = np.concatenate([us - h, us + h])[:, None]
    fv, _, _ = warp_eval(w, uv)
    slopes, scale = [], 1.0
    for l in range(k):
        b = spec.coeffs.values(l, uv) * fv ** (k - l)
        scale = max(scale, float(b.max()), -float(b.min()))
        slopes.append((b[:m] - b[m:]) / (2.0 * h))
    margin, offender = lattice_min(us, slopes)
    passed = bool(margin >= -1e-9 * scale)
    out["as-3"] = (passed, margin, None if passed else offender)

    us = np.linspace(spec.r1, spec.r2, m)
    worst, offender = lattice_min(us, [spec.coeffs.values(l, us[:, None]) for l in range(k)])
    out["positivity"] = (bool(worst > 0.0), worst, offender)
    return out, scale


def assert_matches_lattice(spec):
    """Same passed and offender as the lattice reference on every check;
    leaf and positivity margins within 1e-12, a failing as-3 within 1e-9
    relative, and a passing as-3 within the rounding noise its tolerance
    allows.  Returns the checks and the reference."""
    got = check_hypotheses(spec).checks
    want, scale = lattice_checks(spec)
    for name, (passed, margin, offender) in want.items():
        chk = got[name]
        assert (chk.passed, chk.offender) == (passed, offender), name
        if name != "as-3":
            assert chk.worst_margin == pytest.approx(margin, rel=1e-12, abs=1e-14), name
        elif not passed:
            assert chk.worst_margin == pytest.approx(margin, rel=1e-9), name
        else:
            assert chk.worst_margin == pytest.approx(margin, rel=1e-9, abs=2e-9 * scale), name
    return got, want


def builtin_spec(grid, terms):
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0), k=len(terms),
                       coeffs=CoefficientFamily(terms, len(terms)), phi=PhiFunction(1.3),
                       r1=1.0, r2=1.6)


def random_builtin_spec(rng, grid, amplitudes):
    def profile():
        if isinstance(grid, Sphere2):
            return {"kind": str(rng.choice(["sphere_x", "sphere_y", "sphere_z"]))}
        return {"kind": str(rng.choice(["cos", "sin"])), "axis": int(rng.integers(grid.n)),
                "freq": int(rng.integers(1, 3)), "phase": float(rng.uniform(0.0, 2 * np.pi))}

    return builtin_spec(grid, [CoefficientTerm(float(a), float(rng.uniform(0.0, 0.3)), profile())
                               for a in amplitudes])


@pytest.mark.parametrize("grid, k, amplitudes", [
    (FlatTorus((8, 8)), 2, (2.0, 0.5)), (FlatTorus((6, 5, 4)), 2, (6.0, 1.0)),
    (FlatTorus((6, 5, 4)), 3, (2.0, 0.5, 0.25)), (Sphere2(8, 16), 2, (3.0, 0.5))],
    ids=["torus2-k2", "torus3-k2", "torus3-k3", "sphere-k2"])
def test_check_matches_lattice_on_random_builtin_specs(grid, k, amplitudes):
    rng = np.random.default_rng(31 + k + grid.num_nodes)
    outcomes = set()
    for _ in range(16):
        spec = random_builtin_spec(rng, grid, np.array(amplitudes) * rng.uniform(0.1, 1.8, k))
        got, want = assert_matches_lattice(spec)
        outcomes.update((name, c.passed) for name, c in got.items())
        # the leaf checks re-evaluate their near-minimal entries in the
        # lattice's order, and positivity is one product per entry
        for name in ("as-1", "as-2", "positivity"):
            assert got[name].worst_margin == want[name][1], name
    # both outcomes of the leaf checks were compared
    assert {("as-1", True), ("as-1", False), ("as-2", True), ("as-2", False)} <= outcomes


def test_check_matches_lattice_on_random_tables():
    rng = np.random.default_rng(17)
    for grid in (FlatTorus((5, 4)), FlatTorus((4, 5, 4)), Sphere2(4, 8)):
        for _ in range(8):
            k = int(rng.integers(2, grid.n + 1))
            u_samples = np.sort(rng.uniform(0.1, 2.2, int(rng.integers(2, 7))))
            # falling in u as a power of u, so as-3 both passes and fails,
            # and dipping below zero now and then for positivity
            tables = [rng.uniform(-0.2, 3.0, (u_samples.size, grid.num_nodes))
                      * u_samples[:, None] ** -rng.uniform(0.0, 6.0) for _ in range(k)]
            assert_matches_lattice(table_spec(grid, u_samples, tables))


def test_check_matches_lattice_on_forced_failures():
    grid = FlatTorus((8, 8))
    # eps psi_0 reaches -0.999 at x_0 = pi: alpha_0 all but vanishes there,
    # and the reversed leaf inequality below r1 fails in that column
    got, _ = assert_matches_lattice(builtin_spec(grid, [
        CoefficientTerm(3.0, 0.999, {"kind": "cos", "axis": 0}), CoefficientTerm(0.5)]))
    assert not got["as-2"].passed and got["positivity"].passed
    assert grid.coords[got["as-2"].offender[1], 0] == pytest.approx(np.pi)
    # an amplitude 20 times the workload's breaks the leaf inequality above r2
    got, _ = assert_matches_lattice(builtin_spec(grid, [
        CoefficientTerm(60.0, 0.05, {"kind": "cos", "axis": 0}),
        CoefficientTerm(0.5, 0.05, {"kind": "sin", "axis": 1})]))
    assert not got["as-1"].passed and got["as-2"].passed


def test_product_min_and_near_min_against_full_product(monkeypatch):
    # small integers: every product is exact and ties are common, so the
    # first (row, column) in row-major order is pinned down
    rng = np.random.default_rng(5)
    monkeypatch.setattr(problem, "CHECK_CHUNK", 40)  # several column chunks
    for rows in (1, 3):
        for _ in range(20):
            B = rng.integers(-3, 4, (9, rows)).astype(float)
            P = rng.integers(-2, 3, (rows, 50)).astype(float)
            full = B @ P
            i, x = np.unravel_index(np.argmin(full), full.shape)
            assert problem._product_min(B, P) == (full[i, x], i, x)
            for slack in (0.0, 1.0, 2.5):
                near_rows, near_cols = problem._near_min(B, P, slack)
                want_rows, want_cols = np.nonzero(full <= full.min() + slack)
                np.testing.assert_array_equal(near_rows, want_rows)
                np.testing.assert_array_equal(near_cols, want_cols)


def test_check_hypotheses_forms_no_lattice():
    # one (128 x 65 536) as-3 lattice alone is 64 MiB
    profiles = ({"kind": "cos", "axis": 0}, {"kind": "sin", "axis": 1})
    coeffs = CoefficientFamily([CoefficientTerm(3.0, 0.05, profiles[0]),
                                CoefficientTerm(0.5, 0.05, profiles[1])], 2)
    spec = ProblemSpec(grid=FlatTorus((256, 256)), warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.45), r1=1.0, r2=1.6)
    tracemalloc.start()
    try:
        report = check_hypotheses(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 8 * 2 ** 20


def test_n2_spec_logs_no_warning(caplog):
    with caplog.at_level(logging.DEBUG, logger="warpcurve"):
        ProblemSpec(grid=FlatTorus((4, 4)), warping=WarpingFunction("hyperbolic", 1.0), k=2,
                    coeffs=CoefficientFamily([CoefficientTerm(3.0), CoefficientTerm(0.5)], 2),
                    phi=PhiFunction(1.45), r1=1.0, r2=1.6)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_ellipticity_certificate_along_quotient():
    # per-node operator gradients are strictly positive for admissible fields
    spec = hyperbolic_spec((6, 6, 6))
    u = GridFunction(1.3 + 0.05 * np.sin(spec.grid.coords[:, 0]), spec.grid)
    rec = geometry.fundamental_forms(u, spec.warping)
    quot, dquot = symfunc.quotient_and_grads(rec.lam, spec.k)
    for t in (0.0, 0.5, 1.0):
        glam = dquot[:, spec.k, :].copy()
        for l in range(spec.k - 1):
            glam -= t * spec.coeffs.values(l, u.values)[:, None] * dquot[:, l, :]
        assert glam.min() > 0.0
    del quot
