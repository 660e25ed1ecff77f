import numpy as np
import pytest

from warpcurve import geometry, problem, symfunc
from warpcurve.errors import ConeExitError, ConfigError, HypothesisError
from warpcurve.geometry import FlatTorus, GridFunction, Sphere2, WarpingFunction
from warpcurve.oracle import colored_fd_jacobian, fd_directional
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
    fam.bind(grid)
    f = np.sinh(1.2)
    np.testing.assert_allclose(fam.values(0, 1.2, w), 6.0 / f ** 2)
    np.testing.assert_allclose(fam.values(1, 1.2, w), 1.0 / f)
    # derivative of f^{k-l} alpha_l vanishes identically for this family
    h = 1e-6
    for l in range(2):
        def beta(u):
            fv = np.sinh(u)
            return fv ** (2 - l) * fam.values(l, u, w)
        assert np.abs((beta(1.2 + h) - beta(1.2 - h)) / (2 * h)).max() < 1e-8


def test_tabulated_coefficients_interpolation():
    grid = FlatTorus((4, 4))
    us = np.array([1.0, 1.5, 2.0])
    table = np.outer([2.0, 3.0, 5.0], np.ones(grid.num_nodes))
    tab = TabulatedCoefficients(us, [table, 2 * table], 2)
    tab.bind(grid)
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
    tab.bind(grid)
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
    nohdr = tmp_path / "nohdr.csv"
    nohdr.write_text("1.0,0,3.0\n")
    with pytest.raises(ConfigError, match="header"):
        load_coefficient_table(nohdr, grid)


def test_phi_function():
    phi = PhiFunction(1.3, steepness=2.0)
    assert phi(1.3) == 1.0
    assert phi(1.0) > 1.0 and phi(1.6) < 1.0
    assert phi.deriv(1.3) == -2.0
    assert phi.root == 1.3
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
    np.testing.assert_allclose(a1, spec.alpha(1, u))
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


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------

def test_jacobian_both_paths_match_oracle():
    spec = hyperbolic_spec((6, 6, 6))
    u = GridFunction(1.3 + 0.05 * np.sin(spec.grid.coords[:, 0]), spec.grid)
    rng = np.random.default_rng(9)
    for J in (colored_fd_jacobian(u, 0.7, spec), jacobian(u, 0.7, spec)):
        for _ in range(3):
            d = GridFunction(rng.standard_normal(spec.grid.num_nodes), spec.grid)
            ref = fd_directional(u, d, 0.7, spec).values
            got = J @ d.values
            assert np.abs(got - ref).max() <= 1e-6 * max(1.0, np.abs(ref).max())


def test_jacobian_constant_mode_positive_at_start():
    spec = hyperbolic_spec((4, 4, 4))
    u0 = GridFunction.constant(spec.phi.pivot, spec.grid)
    J = jacobian(u0, 0.0, spec)
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
    J = jacobian(u0, 0.5, spec)
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
    J = jacobian(u, 1.0, spec).tocsr()
    pat = spec.grid.stencil_pattern
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
        J = jacobian(u, t, spec)
        err = abs(J - colored_fd_jacobian(u, t, spec)).max()
        assert err <= 1e-6 * abs(J).max()


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


def test_ellipticity_certificate_along_quotient():
    # per-node operator gradients are strictly positive for admissible fields
    spec = hyperbolic_spec((6, 6, 6))
    u = GridFunction(1.3 + 0.05 * np.sin(spec.grid.coords[:, 0]), spec.grid)
    rec = geometry.fundamental_forms(u, spec.warping)
    quot, dquot = symfunc.quotient_and_grads(rec.lam, spec.k)
    for t in (0.0, 0.5, 1.0):
        glam = dquot[:, spec.k, :].copy()
        for l in range(spec.k - 1):
            glam -= t * spec.alpha(l, u.values)[:, None] * dquot[:, l, :]
        assert glam.min() > 0.0
    del quot
