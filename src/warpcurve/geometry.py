"""Discretized base manifolds, warping functions, and per-node curvature
data of graphic hypersurfaces.

Grids expose their covariant derivative stencils as sparse matrices, so a
gradient/Hessian evaluation is a handful of matvecs and the residual
Jacobian inherits the exact stencil sparsity.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DomainError, GeometryError


# ---------------------------------------------------------------------------
# Warping functions
# ---------------------------------------------------------------------------

_KINDS = ("sphere", "euclidean", "hyperbolic", "power", "table")


@dataclass(frozen=True)
class WarpingFunction:
    """Warping factor f of the product metric dt^2 + f^2(t) g.

    kind: "sphere" (K > 0), "euclidean" (K = 0), "hyperbolic" (K < 0),
    "power" (f = t^p, p > 0) or "table" (cubic spline through samples).
    The working domain is (t_min, t_max); for the sphere kind the default
    upper end is pi/(2 sqrt(K)) so that f' > 0 throughout.
    """

    kind: str
    param: float = 0.0  # |K| for space forms, exponent p for "power"
    t_min: float = 0.0
    t_max: float = np.inf
    table_t: np.ndarray | None = None
    table_f: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown warping kind {self.kind!r}")
        if self.kind == "sphere":
            if self.param <= 0:
                raise ConfigError("sphere warping needs K > 0")
            cap = np.pi / (2.0 * np.sqrt(self.param))
            object.__setattr__(self, "t_max", min(self.t_max, cap))
        if self.kind in ("hyperbolic", "power") and self.param <= 0:
            raise ConfigError(f"{self.kind} warping needs a positive parameter")
        if self.kind == "table":
            if self.table_t is None or self.table_f is None:
                raise ConfigError("table warping needs sample arrays")
            from scipy.interpolate import CubicSpline
            spl = CubicSpline(np.asarray(self.table_t, float),
                              np.asarray(self.table_f, float))
            object.__setattr__(self, "_spline", spl)
            object.__setattr__(self, "t_min", max(self.t_min, float(self.table_t[0])))
            object.__setattr__(self, "t_max", min(self.t_max, float(self.table_t[-1])))


def warp_eval(w: WarpingFunction, t):
    """(f, f', f'') at t.  Rejects t outside the domain or where the
    monotonicity hypothesis f > 0, f' > 0 fails."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= w.t_min) or np.any(t >= w.t_max):
        raise DomainError(f"t={t} outside warping domain ({w.t_min}, {w.t_max})")
    if w.kind == "sphere":
        rk = np.sqrt(w.param)
        f = np.sin(rk * t) / rk
        fp = np.cos(rk * t)
        fpp = -rk * np.sin(rk * t)
    elif w.kind == "euclidean":
        f = t
        fp = np.ones_like(t)
        fpp = np.zeros_like(t)
    elif w.kind == "hyperbolic":
        rk = np.sqrt(w.param)
        f = np.sinh(rk * t) / rk
        fp = np.cosh(rk * t)
        fpp = rk * np.sinh(rk * t)
    elif w.kind == "power":
        p = w.param
        f = t ** p
        fp = p * t ** (p - 1.0)
        fpp = p * (p - 1.0) * t ** (p - 2.0)
    else:  # table
        spl = getattr(w, "_spline")
        f = spl(t)
        fp = spl(t, 1)
        fpp = spl(t, 2)
    if np.any(f <= 0.0) or np.any(fp <= 0.0):
        raise DomainError(f"warping hypothesis f > 0, f' > 0 violated at t={t}")
    return f, fp, fpp


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

class BaseGrid:
    """Common interface: node coordinates, base metric data, and sparse
    covariant derivative operators."""

    n: int
    num_nodes: int
    shape: tuple
    coords: np.ndarray  # (N, n)
    g: np.ndarray       # (N, n, n)
    ginv: np.ndarray    # (N, n, n)

    def gradient_hessian(self, values):
        """Covariant gradient (N, n) and Hessian (N, n, n) of a node field."""
        values = np.asarray(values, dtype=float)
        du = np.stack([D @ values for D in self.diff_ops], axis=-1)
        n = self.n
        d2u = np.empty((self.num_nodes, n, n))
        for i in range(n):
            for j in range(i, n):
                hij = self.hess_ops[(i, j)] @ values
                d2u[:, i, j] = hij
                d2u[:, j, i] = hij
        return du, d2u

    @cached_property
    def stencil_pattern(self):
        """Boolean CSR pattern of all derivative couplings plus the diagonal."""
        pat = sp.identity(self.num_nodes, format="csr")
        for D in self.diff_ops:
            pat = pat + abs(D)
        for op in self.hess_ops.values():
            pat = pat + abs(op)
        pat = pat.tocsr()
        pat.data[:] = 1.0
        return pat


# smallest |symbol| / max |symbol| an averaged stencil may have and still be
# inverted by FlatTorus.averaged_stencil_inverse
_SYMBOL_FLOOR = 1e-12


class FlatTorus(BaseGrid):
    """Flat n-torus (n = 2 or 3), periods L_i, uniform periodic grid."""

    def __init__(self, resolution, periods=None, n=None):
        if np.isscalar(resolution):
            if n is None:
                raise ConfigError("scalar resolution needs explicit n")
            resolution = (int(resolution),) * n
        self.shape = tuple(int(r) for r in resolution)
        self.n = len(self.shape)
        if self.n not in (2, 3):
            raise ConfigError("FlatTorus supports n = 2 or 3")
        if any(r < 4 for r in self.shape):
            raise ConfigError("need at least 4 nodes per axis")
        if periods is None:
            periods = (2.0 * np.pi,) * self.n
        self.periods = tuple(float(p) for p in periods)
        self.spacing = tuple(L / N for L, N in zip(self.periods, self.shape))
        self.num_nodes = int(np.prod(self.shape))

        axes = [np.arange(N) * h for N, h in zip(self.shape, self.spacing)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.coords = np.stack([m.ravel() for m in mesh], axis=-1)
        eye = np.eye(self.n)
        self.g = np.broadcast_to(eye, (self.num_nodes, self.n, self.n)).copy()
        self.ginv = self.g.copy()

        idx = np.arange(self.num_nodes).reshape(self.shape)
        N = self.num_nodes
        self.diff_ops = []
        d2_diag = []
        for a in range(self.n):
            h = self.spacing[a]
            up = np.roll(idx, -1, axis=a).ravel()
            dn = np.roll(idx, 1, axis=a).ravel()
            rows = np.concatenate([idx.ravel(), idx.ravel()])
            cols = np.concatenate([up, dn])
            vals = np.concatenate([np.full(N, 0.5 / h), np.full(N, -0.5 / h)])
            self.diff_ops.append(sp.csr_matrix((vals, (rows, cols)), shape=(N, N)))
            rows2 = np.concatenate([idx.ravel()] * 3)
            cols2 = np.concatenate([up, idx.ravel(), dn])
            vals2 = np.concatenate([np.full(N, 1.0 / h**2),
                                    np.full(N, -2.0 / h**2),
                                    np.full(N, 1.0 / h**2)])
            d2_diag.append(sp.csr_matrix((vals2, (rows2, cols2)), shape=(N, N)))
        self.hess_ops = {}
        for i in range(self.n):
            for j in range(i, self.n):
                if i == j:
                    self.hess_ops[(i, j)] = d2_diag[i]
                else:
                    self.hess_ops[(i, j)] = (self.diff_ops[i] @ self.diff_ops[j]).tocsr()

    def averaged_stencil_inverse(self, J):
        """Inverse of the constant-coefficient periodic operator whose
        stencil is the row average of the sparse matrix J, applied by FFT.

        Entry J[r, c] joins the kernel at the periodic offset (c - r) mod
        shape; the averaged operator is diagonal in Fourier modes with
        symbol conj(rfftn(kernel)).  Returns None when that symbol has a
        (near-)zero entry, since the inverse does not exist there.
        """
        J = J.tocoo()
        row = np.unravel_index(J.row, self.shape)
        col = np.unravel_index(J.col, self.shape)
        offset = np.ravel_multi_index(
            tuple((c - r) % s for r, c, s in zip(row, col, self.shape)), self.shape)
        kernel = np.bincount(offset, weights=J.data, minlength=self.num_nodes)
        axes = tuple(range(self.n))
        symbol = np.conj(np.fft.rfftn(kernel.reshape(self.shape) / self.num_nodes))
        size = np.abs(symbol)
        if size.min() <= _SYMBOL_FLOOR * size.max():
            return None

        def apply(x):
            xhat = np.fft.rfftn(np.reshape(x, self.shape), axes=axes)
            return np.fft.irfftn(xhat / symbol, s=self.shape, axes=axes).ravel()
        return apply

    def inject_from(self, fine_values, fine_grid):
        """Restrict a field on the 2x-refined torus to this grid's nodes."""
        if not isinstance(fine_grid, FlatTorus) or fine_grid.n != self.n:
            raise ConfigError("injection needs a matching refined torus")
        if any(fN != 2 * N for fN, N in zip(fine_grid.shape, self.shape)):
            raise ConfigError("injection needs exactly 2x refinement")
        arr = np.asarray(fine_values, float).reshape(fine_grid.shape)
        sl = tuple(slice(None, None, 2) for _ in range(self.n))
        return arr[sl].ravel()


class Sphere2(BaseGrid):
    """Round 2-sphere, half-cell-shifted equiangular lat-long grid.

    theta_i = (i + 1/2) pi / n_theta keeps nodes off the poles; ghost values
    across a pole come from the antipodal-longitude copy, so n_phi must be
    even.  Metric g = d theta^2 + sin^2 theta d phi^2.
    """

    def __init__(self, n_theta, n_phi):
        n_theta, n_phi = int(n_theta), int(n_phi)
        if n_theta < 4 or n_phi < 4:
            raise ConfigError("need at least 4 nodes per axis")
        if n_phi % 2:
            raise ConfigError("Sphere2 needs an even longitude count")
        self.n = 2
        self.shape = (n_theta, n_phi)
        self.num_nodes = n_theta * n_phi
        self.h_theta = np.pi / n_theta
        self.h_phi = 2.0 * np.pi / n_phi
        self.spacing = (self.h_theta, self.h_phi)

        theta = (np.arange(n_theta) + 0.5) * self.h_theta
        phi = np.arange(n_phi) * self.h_phi
        T, P = np.meshgrid(theta, phi, indexing="ij")
        self.coords = np.stack([T.ravel(), P.ravel()], axis=-1)
        st = np.sin(self.coords[:, 0])
        ct = np.cos(self.coords[:, 0])
        N = self.num_nodes
        self.g = np.zeros((N, 2, 2))
        self.g[:, 0, 0] = 1.0
        self.g[:, 1, 1] = st ** 2
        self.ginv = np.zeros_like(self.g)
        self.ginv[:, 0, 0] = 1.0
        self.ginv[:, 1, 1] = 1.0 / st ** 2

        idx = np.arange(N).reshape(self.shape)
        half = n_phi // 2
        anti = np.roll(idx, -half, axis=1)

        # theta neighbors with pole-crossing ghosts
        up = np.empty_like(idx)     # index holding u(theta_{i+1})
        up[:-1] = idx[1:]
        up[-1] = anti[-1]           # ghost above the north... reflected row
        dn = np.empty_like(idx)     # index holding u(theta_{i-1})
        dn[1:] = idx[:-1]
        dn[0] = anti[0]

        rows = idx.ravel()
        ht, hp = self.h_theta, self.h_phi
        D_theta = sp.csr_matrix(
            (np.concatenate([np.full(N, 0.5 / ht), np.full(N, -0.5 / ht)]),
             (np.concatenate([rows, rows]), np.concatenate([up.ravel(), dn.ravel()]))),
            shape=(N, N))
        pe = np.roll(idx, -1, axis=1).ravel()
        pw = np.roll(idx, +1, axis=1).ravel()
        D_phi = sp.csr_matrix(
            (np.concatenate([np.full(N, 0.5 / hp), np.full(N, -0.5 / hp)]),
             (np.concatenate([rows, rows]), np.concatenate([pe, pw]))),
            shape=(N, N))
        self.diff_ops = [D_theta, D_phi]

        D2_theta = sp.csr_matrix(
            (np.concatenate([np.full(N, 1.0 / ht**2), np.full(N, -2.0 / ht**2),
                             np.full(N, 1.0 / ht**2)]),
             (np.concatenate([rows] * 3),
              np.concatenate([up.ravel(), rows, dn.ravel()]))),
            shape=(N, N))
        D2_phi = sp.csr_matrix(
            (np.concatenate([np.full(N, 1.0 / hp**2), np.full(N, -2.0 / hp**2),
                             np.full(N, 1.0 / hp**2)]),
             (np.concatenate([rows] * 3), np.concatenate([pe, rows, pw]))),
            shape=(N, N))

        cot = sp.diags(ct / st)
        sc = sp.diags(st * ct)
        # covariant Hessian: u_;tt = dtt u, u_;tp = dtp u - cot(t) dp u,
        # u_;pp = dpp u + sin(t)cos(t) dt u
        self.hess_ops = {
            (0, 0): D2_theta.tocsr(),
            (0, 1): (D_theta @ D_phi - cot @ D_phi).tocsr(),
            (1, 1): (D2_phi + sc @ D_theta).tocsr(),
        }


# ---------------------------------------------------------------------------
# Fields and curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridFunction:
    """One scalar per grid node (the graph height u)."""

    values: np.ndarray
    grid: BaseGrid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "values", vals)
        if vals.size != self.grid.num_nodes:
            raise ConfigError("field size does not match the grid")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("field contains non-finite values")

    def with_values(self, values):
        return GridFunction(values, self.grid)

    @staticmethod
    def constant(c, grid):
        return GridFunction(np.full(grid.num_nodes, float(c)), grid)


@dataclass(frozen=True)
class CurvatureRecord:
    """Per-node geometry of the graph: induced metric, second fundamental
    form, principal curvatures (ascending), support function tau, and
    v = sqrt(f^2 + |Du|^2).  Arrays are batched over nodes."""

    gtilde: np.ndarray  # (N, n, n)
    h: np.ndarray       # (N, n, n)
    lam: np.ndarray     # (N, n)
    tau: np.ndarray     # (N,)
    v: np.ndarray       # (N,)


def _cholesky_congruence(gtilde, h):
    """(L^-1, A) with gtilde = L L^T and A = L^-1 h L^-T symmetrised, so
    the pencil h w = lam gtilde w becomes the symmetric problem A y = lam y."""
    try:
        L = np.linalg.cholesky(gtilde)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("induced metric not positive definite") from exc
    Linv = np.linalg.inv(L)
    A = Linv @ h @ np.swapaxes(Linv, -1, -2)
    return Linv, 0.5 * (A + np.swapaxes(A, -1, -2))


def principal_curvatures(gtilde, h):
    """Eigenvalues of the pencil h w = lam gtilde w, ascending, batched.

    Cholesky congruence: gtilde = L L^T, then a symmetric eigensolve of
    L^-1 h L^-T, which keeps the spectrum real by construction.
    """
    _, A = _cholesky_congruence(gtilde, h)
    return np.linalg.eigvalsh(A)


def pencil_eigensystem(gtilde, h):
    """(lam, V) with gtilde-orthonormal eigenvector columns V[..., :, a]."""
    Linv, A = _cholesky_congruence(gtilde, h)
    lam, W = np.linalg.eigh(A)
    V = np.swapaxes(Linv, -1, -2) @ W
    return lam, V


def fundamental_forms(u: GridFunction, w: WarpingFunction):
    """Curvature record of the graph of u.

    Coordinate form of the graph formulas:
        gtilde_ij = f^2 g_ij + u_i u_j,
        h_ij = (-f u_;ij + 2 f' u_i u_j + f^2 f' g_ij) / v,
        v = sqrt(f^2 + |Du|^2),  tau = f^2 / v,
    which reduces to the orthonormal-frame expression when g_ij = delta_ij.
    """
    grid = u.grid
    f, fp, _ = warp_eval(w, u.values)
    du, d2u = grid.gradient_hessian(u.values)
    uu = du[:, :, None] * du[:, None, :]
    gradsq = np.einsum("nij,ni,nj->n", grid.ginv, du, du)
    v = np.sqrt(f ** 2 + gradsq)
    gtilde = f[:, None, None] ** 2 * grid.g + uu
    h = (-f[:, None, None] * d2u + 2.0 * fp[:, None, None] * uu
         + (f ** 2 * fp)[:, None, None] * grid.g) / v[:, None, None]
    tau = f ** 2 / v
    lam = principal_curvatures(gtilde, h)
    return CurvatureRecord(gtilde=gtilde, h=h, lam=lam, tau=tau, v=v)
