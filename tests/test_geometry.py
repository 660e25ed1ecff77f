import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from warpcurve import geometry
from warpcurve.errors import ConfigError, DomainError, GeometryError
from warpcurve.geometry import (FlatTorus, GridFunction, Sphere2,
                                WarpingFunction, fundamental_forms,
                                principal_curvatures, warp_eval)
from warpcurve.problem import (CoefficientFamily, CoefficientTerm, PhiFunction,
                               ProblemSpec, jacobian, residual)


# ---------------------------------------------------------------------------
# warping functions
# ---------------------------------------------------------------------------

def test_warp_eval_euclidean():
    f, fp, fpp = warp_eval(WarpingFunction("euclidean"), 2.0)
    assert (f, fp, fpp) == (2.0, 1.0, 0.0)


def test_warp_eval_hyperbolic():
    f, fp, fpp = warp_eval(WarpingFunction("hyperbolic", 1.0), 1.0)
    assert f == pytest.approx(np.sinh(1.0), rel=1e-15)
    assert fp == pytest.approx(np.cosh(1.0), rel=1e-15)
    assert fpp == pytest.approx(np.sinh(1.0), rel=1e-15)


def test_warp_eval_sphere_domain_capped():
    w = WarpingFunction("sphere", 1.0)
    # f' = cos vanishes at pi/2, which the domain cap excludes
    with pytest.raises(DomainError):
        warp_eval(w, np.pi / 2)
    f, fp, _ = warp_eval(w, 0.5)
    assert f == pytest.approx(np.sin(0.5)) and fp == pytest.approx(np.cos(0.5))


def test_warp_eval_power():
    f, fp, fpp = warp_eval(WarpingFunction("power", 2.0), 3.0)
    assert (f, fp, fpp) == (9.0, 6.0, 2.0)


def test_warp_eval_table_matches_samples():
    t = np.linspace(0.5, 2.0, 40)
    w = WarpingFunction("table", table_t=t, table_f=np.sinh(t))
    f, fp, _ = warp_eval(w, 1.3)
    assert f == pytest.approx(np.sinh(1.3), rel=1e-6)
    assert fp == pytest.approx(np.cosh(1.3), rel=1e-4)


def test_warp_eval_rejects_outside_domain():
    w = WarpingFunction("hyperbolic", 1.0, t_min=0.5, t_max=2.0)
    for t in (0.4, 2.5):
        with pytest.raises(DomainError):
            warp_eval(w, t)


def test_warping_validation():
    with pytest.raises(ConfigError):
        WarpingFunction("spiral")
    with pytest.raises(ConfigError):
        WarpingFunction("sphere", -1.0)
    with pytest.raises(ConfigError):
        WarpingFunction("table")


# ---------------------------------------------------------------------------
# grids and derivatives
# ---------------------------------------------------------------------------

def test_flat_torus_validation():
    assert FlatTorus((4, 4, 4, 4)).num_nodes == 256  # any n >= 2
    with pytest.raises(ConfigError, match="2 axes"):
        FlatTorus((8,))
    with pytest.raises(ConfigError):
        FlatTorus((3, 4))
    grid = FlatTorus((8, 8))
    assert grid.shape == (8, 8) and grid.num_nodes == 64
    with pytest.raises(ConfigError, match="periods"):
        FlatTorus((6, 6, 6), periods=(6.0, 6.0))
    with pytest.raises(ConfigError, match="periods"):
        FlatTorus((6, 6), periods=(6.0, 6.0, 6.0))


def test_sphere2_validation():
    with pytest.raises(ConfigError):
        Sphere2(8, 15)  # odd longitude count breaks the pole closure
    grid = Sphere2(8, 16)
    assert grid.num_nodes == 128
    assert grid.coords[:, 0].min() > 0.0 and grid.coords[:, 0].max() < np.pi


def reference_differences(up, dn, h):
    """Central differences (D, D2) as CSR, from the neighbour maps up, dn."""
    N = up.size

    def shift(cols):
        return sp.csr_matrix((np.ones(N), (np.arange(N), cols)), shape=(N, N))
    return (shift(up) - shift(dn)) / (2 * h), (shift(up) - 2 * sp.identity(N) + shift(dn)) / h ** 2


def reference_operators(grid):
    """The identity, D_a and H_ab in hess_keys order, each built as its own
    sparse matrix: D_b @ D_a for a != b on the torus; on the sphere, with
    pole ghosts at the antipodal longitude, D_theta, D_phi / sin,
    D2_theta, (D_theta @ D_phi - cot D_phi) / sin and
    (D2_phi + sin cos D_theta) / sin^2."""
    idx = np.arange(grid.num_nodes).reshape(grid.shape)
    eye = sp.identity(grid.num_nodes)
    if isinstance(grid, FlatTorus):
        D, D2 = zip(*(reference_differences(np.roll(idx, -1, axis=a).ravel(),
                                            np.roll(idx, 1, axis=a).ravel(), h)
                      for a, h in enumerate(grid.spacing)))
        return [eye, *D] + [D2[a] if a == b else D[b] @ D[a] for a, b in grid.hess_keys]
    n_theta, n_phi = grid.shape
    anti = np.roll(idx, -n_phi // 2, axis=1)
    Dt, D2t = reference_differences(np.vstack([idx[1:], anti[-1:]]).ravel(),
                                    np.vstack([anti[:1], idx[:-1]]).ravel(), np.pi / n_theta)
    Dp, D2p = reference_differences(np.roll(idx, -1, axis=1).ravel(),
                                    np.roll(idx, 1, axis=1).ravel(), 2 * np.pi / n_phi)
    th = grid.coords[:, 0]
    inv_sin, cot, sc = (sp.diags(a) for a in (1 / np.sin(th), 1 / np.tan(th),
                                               np.sin(th) * np.cos(th)))
    return [eye, Dt, inv_sin @ Dp, D2t, inv_sin @ (Dt @ Dp - cot @ Dp),
            inv_sin @ inv_sin @ (D2p + sc @ Dt)]


@pytest.mark.parametrize("grid, keys", [
    (FlatTorus((4, 5)), [(0, 0), (1, 0), (1, 1)]),
    (FlatTorus((4, 4, 6)), [(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]),
    (Sphere2(6, 12), [(0, 0), (1, 0), (1, 1)])], ids=["torus-4x5", "torus-4x4x6", "sphere-6x12"])
def test_stacked_operators_match_the_per_operator_construction(grid, keys):
    # every row block of the one stacked CSR, pole rows included, against its
    # operator built on its own from sparse products
    assert grid.hess_keys == keys
    N = grid.num_nodes
    ref = reference_operators(grid)
    assert grid.stack.shape == (len(ref) * N, N)
    for o, op in enumerate(ref):
        want = op.toarray()
        got = grid.stack[o * N:(o + 1) * N].toarray()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_building_the_stack_copies_no_index_array():
    # the index arrays are filled in the dtype the CSR keeps, so the build
    # peaks at the stack plus the neighbour maps (1.6x the stack); a copy of
    # int64 columns into int32 ones took it to 2.4x
    tracemalloc.start()
    try:
        stack = FlatTorus((32, 32, 32)).stack
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stack.indices.dtype == stack.indptr.dtype == np.int32
    kept = stack.data.nbytes + stack.indices.nbytes + stack.indptr.nbytes
    assert peak <= 2.0 * kept, peak / kept


@pytest.mark.parametrize("grid", [FlatTorus((6, 6, 6)), Sphere2(8, 16)], ids=["torus3", "sphere"])
def test_curvature_record_fields_are_at_most_two_dimensional(grid):
    # symmetric fields are kept as lower triangles, never as (N, n, n)
    u = GridFunction(1.3 + 0.05 * np.sin(grid.coords[:, 0]), grid)
    rec = fundamental_forms(u, WarpingFunction("hyperbolic", 1.0))
    lower = {(i, j) for i in range(grid.n) for j in range(i + 1)}
    for field in dataclasses.fields(rec):
        value = getattr(rec, field.name)
        if isinstance(value, dict):
            assert set(value) == lower, field.name
        arrays = value.values() if isinstance(value, dict) else [value]
        assert all(np.ndim(a) <= 2 for a in arrays), field.name


def test_constant_field_has_zero_derivatives():
    for grid in (FlatTorus((6, 6, 6)), Sphere2(8, 16)):
        du, d2u = grid.gradient_hessian(np.full(grid.num_nodes, 1.7))
        assert np.abs(du).max() == 0.0
        assert list(d2u) == grid.hess_keys
        assert all(np.abs(h).max() == 0.0 for h in d2u.values())


def test_torus_second_derivative_of_sine():
    grid = FlatTorus((64, 4), periods=(2 * np.pi, 2 * np.pi))
    x = grid.coords[:, 0]
    _, d2u = grid.gradient_hessian(np.sin(x))
    err = np.abs(d2u[0, 0] + np.sin(x)).max()
    assert err < 5e-3  # O(h^2) at h = 2 pi / 64


def test_sphere_covariant_derivatives_of_cos_theta():
    # frame components along (d_theta, d_phi / sin theta)
    grid = Sphere2(48, 96)
    th = grid.coords[:, 0]
    u = np.cos(th)
    du, d2u = grid.gradient_hessian(u)
    assert np.abs(np.sum(du ** 2, axis=1) - np.sin(th) ** 2).max() < 5e-3
    # covariant Hessian of cos(theta) in the frame: u_;tt = u_;pp = -cos
    assert np.abs(d2u[0, 0] + np.cos(th)).max() < 5e-3
    assert np.abs(d2u[1, 1] + np.cos(th)).max() < 5e-3
    assert np.abs(d2u[1, 0]).max() < 5e-3


def test_sphere_frame_derivatives_of_ambient_x():
    # x = sin(theta) cos(phi) restricted to the unit sphere has frame Hessian
    # -x I and |Du|^2 = 1 - x^2.  It varies in phi, so a D_phi left in
    # coordinate components or divided by sin(theta) twice fails here
    grid = Sphere2(48, 96)
    th, ph = grid.coords[:, 0], grid.coords[:, 1]
    x = np.sin(th) * np.cos(ph)
    du, d2u = grid.gradient_hessian(x)
    assert np.abs(np.sum(du ** 2, axis=1) - (1.0 - x ** 2)).max() < 3e-3
    err = np.stack([np.abs(h + x * (i == j)) for (i, j), h in d2u.items()], axis=-1)
    assert err.max() < 4e-2  # first order in the pole rows (ROADMAP item 4)
    away = (th > 0.2) & (th < np.pi - 0.2)
    assert err[away].max() < 5e-3


def test_inject_from():
    coarse = FlatTorus((6, 6))
    fine = FlatTorus((12, 12))
    field = np.cos(fine.coords[:, 0])
    vals = coarse.inject_from(field, fine)
    np.testing.assert_allclose(vals, np.cos(coarse.coords[:, 0]), atol=1e-14)
    with pytest.raises(ConfigError):
        coarse.inject_from(field[: fine.num_nodes], FlatTorus((10, 10)))


def band_limited_torus_field(grid, coarse_shape, seed):
    """A sum of products of 1-D trigonometric polynomials that coarse_shape
    resolves: on each axis, frequencies below half its coarse node count and
    that count's Nyquist cosine.  Angles are reduced in integers, so every
    sample is exact to rounding on any grid of the same periods."""
    rng = np.random.default_rng(seed)
    idx = np.indices(grid.shape).reshape(grid.n, -1)
    total = np.zeros(grid.num_nodes)
    for _ in range(3):
        term = np.ones(grid.num_nodes)
        for axis, m in enumerate(coarse_shape):
            size = grid.shape[axis]
            factor = np.zeros(grid.num_nodes)
            for freq in range(m // 2 + 1):
                angle = 2.0 * np.pi * np.mod(freq * idx[axis], size) / size
                a, b = rng.standard_normal(2)
                factor += a * np.cos(angle) + (b * np.sin(angle) if 2 * freq < m else 0.0)
            term *= factor
        total += term
    return total


@pytest.mark.parametrize("coarse_shape,fine_shape", [
    ((16, 16), (64, 64)), ((8, 6, 4), (16, 12, 8)), ((16, 16), (33, 40))])
def test_torus_prolong_from_carries_band_limited_fields(coarse_shape, fine_shape):
    coarse, fine = FlatTorus(coarse_shape), FlatTorus(fine_shape)
    want = band_limited_torus_field(fine, coarse_shape, seed=3)
    got = fine.prolong_from(band_limited_torus_field(coarse, coarse_shape, seed=3), coarse)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_torus_inject_from_undoes_prolong_from():
    rng = np.random.default_rng(0)
    for shape in ((16, 16), (8, 6, 4)):
        coarse, fine = FlatTorus(shape), FlatTorus(tuple(2 * s for s in shape))
        values = rng.standard_normal(coarse.num_nodes)
        back = coarse.inject_from(fine.prolong_from(values, coarse), fine)
        assert np.abs(back - values).max() <= 1e-14
    fine = FlatTorus((32, 32))
    for other in (FlatTorus((32, 16)), FlatTorus((16, 16), periods=(1.0, 1.0)),
                  FlatTorus((16, 16, 16)), Sphere2(16, 16)):
        with pytest.raises(ConfigError):
            fine.prolong_from(np.ones(other.num_nodes), other)


def ambient(grid):
    """Ambient coordinates (x, y, z) of a Sphere2 grid's nodes."""
    th, ph = grid.coords[:, 0], grid.coords[:, 1]
    return np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)


def test_sphere_prolong_from_carries_ambient_polynomials():
    coarse, fine = Sphere2(16, 32), Sphere2(64, 128)

    def field(grid):
        x, _, z = ambient(grid)
        return x + z ** 2  # sin(theta) cos(phi) + cos(theta)^2
    assert np.abs(fine.prolong_from(field(coarse), coarse) - field(fine)).max() <= 1e-14
    with pytest.raises(ConfigError):
        coarse.prolong_from(field(fine), fine)


@pytest.mark.parametrize("coarse_shape,fine_shape", [((16, 32), (32, 64)), ((8, 16), (20, 24))])
def test_sphere_prolong_from_crosses_the_poles_with_the_right_sign(coarse_shape, fine_shape):
    # fields of odd azimuthal mode change sign across a pole, where the
    # theta extension continues u at phi + pi; continued at phi instead,
    # the extension would have a kink there and miss by about 1e-3
    coarse, fine = Sphere2(*coarse_shape), Sphere2(*fine_shape)

    def fields(grid):
        x, y, z = ambient(grid)
        return np.stack([x, y * z, x ** 3 - x * y * y])
    got = np.stack([fine.prolong_from(f, coarse) for f in fields(coarse)])
    assert np.abs(got - fields(fine)).max() <= 1e-14


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

def test_grid_function_validation():
    grid = FlatTorus((4, 4))
    with pytest.raises(ConfigError):
        GridFunction(np.zeros(5), grid)
    with pytest.raises(ConfigError):
        GridFunction(np.full(16, np.nan), grid)
    u = GridFunction.constant(1.2, grid)
    assert u.with_values(u.values + 1.0).values[0] == 2.2


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

WARPINGS = [WarpingFunction("hyperbolic", 1.0),
            WarpingFunction("euclidean"),
            WarpingFunction("sphere", 1.0)]


def test_leaf_identity_constant_graphs():
    for grid in (FlatTorus((6, 6, 6)), Sphere2(8, 16)):
        for w in WARPINGS:
            for c in (0.5, 0.9, 1.3):
                f, fp, _ = warp_eval(w, c)
                rec = fundamental_forms(GridFunction.constant(c, grid), w)
                assert np.abs(rec.lam - fp / f).max() <= 1e-12
                assert np.abs(rec.tau - f).max() <= 1e-12
                # gtilde = f^2 I and h = f f' I, so A = P h P^T = (f'/f) I
                for (i, j), a in rec.A.items():
                    np.testing.assert_allclose(a, fp / f if i == j else 0.0, atol=1e-13)


def test_constant_hyperbolic_leaf_value():
    grid = FlatTorus((4, 4, 4))
    rec = fundamental_forms(GridFunction.constant(1.0, grid),
                            WarpingFunction("hyperbolic", 1.0))
    assert np.abs(rec.lam - 1.0 / np.tanh(1.0)).max() <= 1e-12


def test_identity_pencil():
    N = 7
    rng = np.random.default_rng(6)
    A = rng.standard_normal((N, 3, 3))
    gtilde = A @ np.swapaxes(A, -1, -2) + 3.0 * np.eye(3)
    lam = principal_curvatures(gtilde, gtilde)
    np.testing.assert_allclose(lam, 1.0, atol=1e-12)


def test_principal_curvatures_rejects_indefinite_metric():
    g = -np.eye(3)[None]
    with pytest.raises(GeometryError):
        principal_curvatures(g, np.eye(3)[None])


def test_pencil_eigensystem_orthonormality():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 3, 3))
    gtilde = A @ np.swapaxes(A, -1, -2) + 3.0 * np.eye(3)
    B = rng.standard_normal((5, 3, 3))
    h = 0.5 * (B + np.swapaxes(B, -1, -2))
    lam, V = geometry.pencil_eigensystem(gtilde, h)
    gram = np.swapaxes(V, -1, -2) @ gtilde @ V
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), (5, 3, 3)), atol=1e-12)
    hv = h @ V
    gv = gtilde @ V * lam[:, None, :]
    np.testing.assert_allclose(hv, gv, atol=1e-10)


def _eigh_path(gtilde, h, far=1e3):
    """The pencil through the general Cholesky + eigh path: each 2x2 pencil
    embedded in a 3x3 one with a decoupled third eigenvalue far above."""
    N = gtilde.shape[0]
    g3 = np.zeros((N, 3, 3))
    h3 = np.zeros((N, 3, 3))
    g3[:, :2, :2], h3[:, :2, :2] = gtilde, h
    g3[:, 2, 2], h3[:, 2, 2] = 1.0, far
    lam, V = geometry.pencil_eigensystem(g3, h3)
    return lam[:, :2], V[:, :2, :2]


def _random_pencils(rng, N, n=2):
    A = rng.standard_normal((N, n, n))
    gtilde = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(n)
    B = rng.standard_normal((N, n, n))
    return gtilde, B + np.swapaxes(B, -1, -2)


def test_closed_form_2x2_matches_eigh_path():
    rng = np.random.default_rng(11)
    gtilde, h = _random_pencils(rng, 2000)
    lam, V = geometry.pencil_eigensystem(gtilde, h)
    lam_ref, V_ref = _eigh_path(gtilde, h)
    scale = np.abs(lam_ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(lam - lam_ref) <= 1e-14 * scale)
    # gtilde-orthonormal eigenvectors of the pencil
    gram = np.swapaxes(V, -1, -2) @ gtilde @ V
    assert np.abs(gram - np.eye(2)).max() <= 1e-13
    assert np.abs(h @ V - gtilde @ V * lam[:, None, :]).max() <= 1e-14 * scale.max()
    # away from degeneracy each eigenvector is fixed up to sign, so the
    # projectors v_a v_a^T gtilde of both paths agree
    apart = (lam[:, 1] - lam[:, 0]) > 1e-3 * scale[:, 0]
    assert apart.mean() > 0.99
    for a in range(2):
        P = V[:, :, a, None] * V[:, None, :, a] @ gtilde
        P_ref = V_ref[:, :, a, None] * V_ref[:, None, :, a] @ gtilde
        assert np.abs(P - P_ref)[apart].max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_2x2_exact_at_leaves(n):
    # h = c gtilde: every eigenvalue is c, with no sqrt(eps) loss
    rng = np.random.default_rng(12)
    gtilde, _ = _random_pencils(rng, 2000, n)
    c = rng.uniform(-3.0, 3.0, size=2000)
    lam, V = geometry.pencil_eigensystem(gtilde, c[:, None, None] * gtilde)
    # 2 x 2: closed form.  3 x 3: A = c P gtilde P^T misses c I by rounding
    # of order eps cond(gtilde) in its last pivot, as LAPACK's Cholesky and
    # inverse did (1.26e-14 at cond 131 on these pencils)
    tol = 1e-14 if n == 2 else 2.0 * np.finfo(float).eps * np.linalg.cond(gtilde)[:, None]
    assert np.all(np.abs(lam - c[:, None]) <= tol * np.maximum(np.abs(c), 1.0)[:, None])
    gram = np.swapaxes(V, -1, -2) @ gtilde @ V
    assert np.abs(gram - np.eye(n)).max() <= 1e-13


def _nan_at(i, j):
    g = np.eye(3)
    g[i, j] = g[j, i] = np.nan
    return g


@pytest.mark.parametrize("gtilde", [np.diag([-1.0, 1.0]), np.diag([1.0, -1.0]),
                                    np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)),
                                    np.diag([1.0, 1.0, -1.0]),
                                    np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
                                    np.zeros((3, 3)), _nan_at(0, 0), _nan_at(2, 1), _nan_at(2, 2)],
                         ids=["g00<0", "g11<0", "det<0", "zero", "g22<0", "pivot2<0", "zero3",
                              "nan00", "nan21", "nan22"])
def test_closed_form_2x2_rejects_indefinite_metric(gtilde):
    # pyproject turns RuntimeWarnings into errors, so an unguarded sqrt of
    # a negative number would surface here as RuntimeWarning
    n = gtilde.shape[0]
    with pytest.raises(GeometryError):
        geometry.pencil_eigensystem(gtilde[None], np.eye(n)[None])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("cond", [None, 1e6], ids=["random", "cond1e6"])
def test_pencil_eigensystem_matches_scipy_eigh(n, cond):
    # an independent reference: LAPACK's generalized symmetric solver, one
    # pencil at a time.  Both round gtilde's small-eigenvalue directions by
    # about eps cond(gtilde), so an ill-conditioned gtilde bounds how well
    # they can agree (at cond 1e6, scipy's own lam is 7.5e-11 from a 40-digit
    # reference and its own V^T gtilde V misses I by 1.1e-10)
    from scipy.linalg import eigh
    rng = np.random.default_rng(13)
    N = 300
    if cond is None:
        gtilde, h = _random_pencils(rng, N, n)
        tol = 1e-12
    else:  # eigenvalues log-spaced over [1, cond] in random directions
        Q, _ = np.linalg.qr(rng.standard_normal((N, n, n)))
        gtilde = Q * np.geomspace(1.0, cond, n) @ np.swapaxes(Q, -1, -2)
        B = rng.standard_normal((N, n, n))
        h = B + np.swapaxes(B, -1, -2)
        tol = 2.0 * np.finfo(float).eps * cond
    lam, V = geometry.pencil_eigensystem(gtilde, h)
    lam_ref = np.array([eigh(h_i, g_i, eigvals_only=True) for h_i, g_i in zip(h, gtilde)])
    scale = np.abs(lam_ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(lam - lam_ref) <= tol * scale)
    gram = np.swapaxes(V, -1, -2) @ gtilde @ V
    assert np.abs(gram - np.eye(n)).max() <= tol


@pytest.mark.parametrize("grid", [FlatTorus((8, 6)), Sphere2(8, 16), FlatTorus((6, 5, 4))],
                         ids=["torus2", "sphere2", "torus3"])
def test_fundamental_forms_needs_no_lapack_cholesky_or_inv(grid, monkeypatch):
    # no batched factorization, inverse or eigensolve in a Newton iterate:
    # the record, its residual and its Jacobian (k = n, so the 3-torus runs
    # the A^2 Newton tensor); the curvatures are read only as sigma_j
    def no_lapack(*args, **kwargs):
        raise AssertionError("batched LAPACK cholesky, inv or eigensolve used")
    for name in ("cholesky", "inv", "eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    x = grid.coords
    u = GridFunction(1.3 + 0.05 * np.cos(x[:, 0]) + 0.03 * np.sin(x[:, -1]), grid)
    w = WarpingFunction("hyperbolic", 1.0)
    rec = fundamental_forms(u, w)
    assert np.all(np.isfinite(rec.sig))
    k = grid.n
    spec = ProblemSpec(grid=grid, warping=w, k=k, phi=PhiFunction(1.3), r1=1.0, r2=1.6,
                       coeffs=CoefficientFamily([CoefficientTerm(1.0)] * k, k))
    for t in (0.0, 0.5):
        assert np.all(np.isfinite(residual(u, t, spec, rec).values))
        assert all(np.all(np.isfinite(w)) for w in jacobian(u, t, spec, rec))


def test_small_perturbation_matches_directional_difference():
    grid = FlatTorus((16, 4, 4))
    w = WarpingFunction("hyperbolic", 1.0)
    c = 1.3
    eps = 1e-6
    bump = np.sin(grid.coords[:, 0])
    rec_p = fundamental_forms(GridFunction(c + eps * bump, grid), w)
    rec_m = fundamental_forms(GridFunction(c - eps * bump, grid), w)
    # first variation at a constant leaf along the bump b of
    # dh_ij = -b_;ij + (f'^2 + f f'') b g_ij, and of A = P h P^T with
    # gtilde = f^2 I + O(eps^2): dA = dh / f^2 - 2 f' b h / f^3
    f, fp, fpp = warp_eval(w, c)
    _, d2b = grid.gradient_hessian(bump)
    for (i, j), a_p in rec_p.A.items():
        dA_fd = (a_p - rec_m.A[i, j]) / (2 * eps)
        dA_exact = (-d2b[i, j] + (i == j) * (f * fpp - fp ** 2) * bump) / f ** 2
        np.testing.assert_allclose(dA_fd, dA_exact, atol=1e-6)


def test_curvature_convergence_order_on_torus():
    # principal curvatures of a smooth graph converge at O(h^2)
    w = WarpingFunction("hyperbolic", 1.0)
    errs = []
    for N in (16, 32, 64):
        grid = FlatTorus((N, N))
        x = grid.coords[:, 0]
        u = 1.3 + 0.05 * np.sin(x)
        rec = fundamental_forms(GridFunction(u, grid), w)
        # exact curvatures from analytic derivatives of u
        f, fp, _ = warp_eval(w, u)
        du = np.zeros((grid.num_nodes, 2))
        du[:, 0] = 0.05 * np.cos(x)
        d2u = np.zeros((grid.num_nodes, 2, 2))
        d2u[:, 0, 0] = -0.05 * np.sin(x)
        v = np.sqrt(f ** 2 + du[:, 0] ** 2)
        uu = du[:, :, None] * du[:, None, :]
        eye = np.broadcast_to(np.eye(2), d2u.shape)
        gtilde = f[:, None, None] ** 2 * eye + uu
        h = (-f[:, None, None] * d2u + 2 * fp[:, None, None] * uu
             + (f ** 2 * fp)[:, None, None] * eye) / v[:, None, None]
        lam_exact = principal_curvatures(gtilde, h)
        errs.append(np.abs(rec.lam - lam_exact).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 1.8) and np.all(orders < 2.2)


def test_sphere_frame_covariance():
    # a rotation-equivariant field sampled before and after swapping the
    # polar axis gives the same sorted curvatures up to discretization error
    grid = Sphere2(32, 64)
    w = WarpingFunction("euclidean")
    th, ph = grid.coords[:, 0], grid.coords[:, 1]
    z = np.cos(th)
    x = np.sin(th) * np.cos(ph)
    lam_z = fundamental_forms(GridFunction(1.3 + 0.05 * z, grid), w).lam
    lam_x = fundamental_forms(GridFunction(1.3 + 0.05 * x, grid), w).lam
    # compare distributions through sorted samples
    for col in range(2):
        a = np.sort(lam_z[:, col])
        b = np.sort(lam_x[:, col])
        assert np.abs(a - b).max() < 5e-3
