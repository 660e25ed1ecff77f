"""Discretized base manifolds, warping functions, and per-node curvature
data of graphic hypersurfaces.

Each grid holds its covariant derivative operators as one stacked sparse
matrix, in components along an orthonormal frame of the base, so a
gradient/Hessian evaluation is one product, the base metric is the identity
in everything downstream, and the residual Jacobian is a weighted sum of
the same operators.  Symmetric per-node fields are kept as their lower
triangles, dicts {(i, j): (N,)} over j <= i.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

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
    """Common interface: node coordinates, the covariant derivative
    operators, and what a Newton Jacobian J = sum_o diag(weights[o]) @ op_o
    needs: operator_sum(weights), norm_inf_bound(weights) and
    averaged_stencil_inverse(weights), each subclass's preconditioner.

    stack holds every operator op_o as one CSR, a row block of num_nodes rows
    each: the identity, the gradient components D_a, then one Hessian block
    H_ab per key (a, b) of hess_keys, b <= a.  They give components along an
    orthonormal frame e_a of the base, so the base metric never appears in
    the per-node algebra: |Du|^2 = sum_a (D_a u)^2.  Every operator commutes
    with the grid's symmetries (torus translations, sphere phi rotations),
    whose orbits are _orbits blocks of consecutive nodes."""

    n: int
    num_nodes: int
    shape: tuple
    coords: np.ndarray  # (N, n)
    stack: sp.csr_matrix  # ((1 + n + n (n + 1) / 2) N, N)
    hess_keys: list  # (a, b), b <= a, in row-block order
    _orbits: int

    def gradient_hessian(self, values):
        """Frame components of the covariant gradient (N, n) and the lower
        triangle of the Hessian, {(a, b): (N,)} for b <= a, of a node field."""
        z = (self.stack @ np.asarray(values, dtype=float)).reshape(-1, self.num_nodes)
        return z[1:self.n + 1].T, dict(zip(self.hess_keys, z[self.n + 1:]))

    def operator_sum(self, weights):
        """sum_o diag(weights[o]) @ op_o as a LinearOperator: one product with
        the stack, then the weighted sum of its row blocks, so no matrix is
        assembled; a weight is a node field or a constant."""
        def matvec(x):
            z = (self.stack @ np.ravel(x)).reshape(-1, self.num_nodes)  # row o: op_o x
            y = weights[0] * z[0]
            for w, zo in zip(weights[1:], z[1:]):
                y += w * zo
            return y
        return spla.LinearOperator((self.num_nodes,) * 2, matvec=matvec, dtype=float)

    @cached_property
    def _abs_row_sums(self):
        """rowsum|op_o| at each orbit's first node, which holds for its whole
        orbit: (operator, orbit)."""
        first = np.arange(self._orbits) * (self.num_nodes // self._orbits)
        sums = np.add.reduceat(np.abs(self.stack.data), self.stack.indptr[:-1])
        return sums.reshape(-1, self.num_nodes)[:, first]  # no row of the stack is empty

    def norm_inf_bound(self, weights):
        """max over rows r of sum_o |weights[o][r]| rowsum|op_o|[r], an upper
        bound on the max-norm of operator_sum(weights)."""
        total = sum(np.abs(np.reshape(w, (self._orbits, -1))) * a[:, None]
                    for w, a in zip(weights, self._abs_row_sums))
        return float(total.max())


# A stencil is a list of (neighbour map, coefficient) terms: row r of its
# operator holds the coefficient (a constant, or c[r] for a node field) at
# column map[r].  Terms that cancel on constants come in consecutive runs,
# so a constant field's derivatives sum to exactly 0 in term order.

def _central_stencils(up, dn, h):
    """First and second central differences at spacing h, for nodes whose
    neighbours are up[r] and dn[r]."""
    return ([(up, 0.5 / h), (dn, -0.5 / h)],
            [(up, 1.0 / h**2), (np.arange(up.size), -2.0 / h**2), (dn, 1.0 / h**2)])


def _compose(outer, inner):
    """The stencil of outer @ inner, for constant coefficients."""
    return [(m_in[m_out], c_out * c_in) for m_out, c_out in outer for m_in, c_in in inner]


def _stack(stencils):
    """One CSR whose row block o is the operator of stencils[o], built in one
    step from the maps and coefficients.  Each row keeps its terms in stencil
    order, a repeated column as two entries."""
    N = stencils[0][0][0].size
    indptr = np.concatenate([[0], np.cumsum(np.repeat([len(s) for s in stencils], N))])
    cols, vals = np.empty(indptr[-1], dtype=np.intp), np.empty(indptr[-1])
    for s, start in zip(stencils, indptr[::N]):
        block = slice(start, start + len(s) * N)
        c, v = cols[block].reshape(N, len(s)), vals[block].reshape(N, len(s))
        for t, (m, coef) in enumerate(s):
            c[:, t], v[:, t] = m, coef
    return sp.csr_matrix((vals, cols, indptr), shape=(len(stencils) * N, N))


def _trig_interpolate(a, axis, size, shift=0.0):
    """The trigonometric interpolant of a's samples along axis, at size > m
    equispaced points of the same period starting shift sample spacings
    after a's first sample (m = a.shape[axis]); complex, with an imaginary
    part that is rounding for real a.

    The spectrum is zero-padded; an even m's Nyquist coefficient is split
    evenly between the frequencies +-m/2, which makes it the real mode
    cos(m x / 2) that the samples alone cannot tell from e^(i m x / 2).
    """
    m = a.shape[axis]
    c = np.moveaxis(np.fft.fft(a, axis=axis), axis, 0)
    pos, neg = (m + 1) // 2, m // 2  # frequencies 0 .. pos-1 and -neg .. -1
    out = np.zeros((size,) + c.shape[1:], dtype=complex)
    out[:pos] = c[:pos]
    out[size - neg:] = c[pos:]
    if m % 2 == 0:
        out[size - neg] *= 0.5
        out[neg] = out[size - neg]
    if shift:
        freq = np.fft.fftfreq(size, 1.0 / size)
        out *= np.exp(2j * np.pi * shift / m * freq).reshape((size,) + (1,) * (out.ndim - 1))
    return np.moveaxis(np.fft.ifft(out, axis=0), 0, axis) * (size / m)


def _check_refines(grid, coarse, kind):
    if not isinstance(coarse, kind):
        raise ConfigError(f"prolongation needs a coarser {kind.__name__}")
    if any(N <= cN for N, cN in zip(grid.shape, coarse.shape)):
        raise ConfigError("prolongation needs more nodes on every axis")


# smallest |symbol| / max |symbol| (torus) or |pivot| / max |pivot| (sphere)
# an averaged stencil may have and still be inverted by a grid's
# averaged_stencil_inverse
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
        if len(self.periods) != self.n:
            raise ConfigError(f"periods has {len(self.periods)} entries for a "
                              f"{self.n}-axis resolution")
        self.spacing = tuple(L / N for L, N in zip(self.periods, self.shape))
        self.num_nodes = int(np.prod(self.shape))
        self._orbits = 1  # translations reach every node

        axes = [np.arange(N) * h for N, h in zip(self.shape, self.spacing)]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.coords = np.stack([m.ravel() for m in mesh], axis=-1)

        idx = np.arange(self.num_nodes).reshape(self.shape)
        D, D2 = zip(*(_central_stencils(np.roll(idx, -1, axis=a).ravel(),
                                        np.roll(idx, 1, axis=a).ravel(), self.spacing[a])
                      for a in range(self.n)))
        self.hess_keys = [(a, b) for b in range(self.n) for a in range(b, self.n)]
        self.stack = _stack([[(idx.ravel(), 1.0)], *D]
                            + [D2[a] if a == b else _compose(D[b], D[a])
                               for a, b in self.hess_keys])

    def averaged_stencil_inverse(self, weights):
        """Inverse of sum_o mean(weights[o]) op_o, the average of
        J = operator_sum(weights) over all translations, applied by FFT.

        That operator has constant coefficients and is periodic, so it is
        diagonal in Fourier modes, and its symbol is the DFT of its response
        to a unit impulse at node 0.  Returns None when that symbol has a
        (near-)zero entry, since the inverse does not exist there.
        """
        means = [np.mean(w) for w in weights]
        response = self.operator_sum(means) @ np.eye(1, self.num_nodes)[0]  # impulse at node 0
        axes = tuple(range(self.n))
        symbol = np.fft.rfftn(response.reshape(self.shape))
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

    def prolong_from(self, coarse_values, coarse_grid):
        """Evaluate a field on a coarser torus of the same periods at this
        grid's nodes: its trigonometric interpolant, by zero-padding its
        spectrum, so band-limited fields are carried exactly."""
        _check_refines(self, coarse_grid, FlatTorus)
        if coarse_grid.periods != self.periods:  # also tells the dimensions apart
            raise ConfigError("prolongation needs a torus of the same periods")
        arr = np.asarray(coarse_values, float).reshape(coarse_grid.shape)
        for axis, size in enumerate(self.shape):
            arr = _trig_interpolate(arr, axis, size)
        return arr.real.ravel()


class Sphere2(BaseGrid):
    """Round 2-sphere, half-cell-shifted equiangular lat-long grid.

    theta_i = (i + 1/2) pi / n_theta keeps nodes off the poles; ghost values
    across a pole come from the antipodal-longitude copy, so n_phi must be
    even.  Metric d theta^2 + sin^2 theta d phi^2; the operators give
    components in the orthonormal frame (d_theta, d_phi / sin theta), so the
    rows of D_phi and H_theta,phi carry 1/sin theta and those of H_phi,phi
    1/sin^2 theta.
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
        self._orbits = n_theta  # phi rotations keep each theta row
        self.h_theta = np.pi / n_theta
        self.h_phi = 2.0 * np.pi / n_phi
        self.spacing = (self.h_theta, self.h_phi)

        theta = (np.arange(n_theta) + 0.5) * self.h_theta
        phi = np.arange(n_phi) * self.h_phi
        T, P = np.meshgrid(theta, phi, indexing="ij")
        self.coords = np.stack([T.ravel(), P.ravel()], axis=-1)
        st = np.sin(self.coords[:, 0])
        ct = np.cos(self.coords[:, 0])

        idx = np.arange(self.num_nodes).reshape(self.shape)
        anti = np.roll(idx, -(n_phi // 2), axis=1)  # the antipodal longitude
        # theta neighbours u(theta_{i+1}) and u(theta_{i-1}), with ghosts
        # across the theta = pi and theta = 0 poles
        up = np.concatenate([idx[1:], anti[-1:]]).ravel()
        dn = np.concatenate([anti[:1], idx[:-1]]).ravel()

        D_theta, D2_theta = _central_stencils(up, dn, self.h_theta)
        D_phi, D2_phi = _central_stencils(np.roll(idx, -1, axis=1).ravel(),
                                          np.roll(idx, +1, axis=1).ravel(), self.h_phi)
        # covariant Hessian: u_;tt = dtt u, u_;tp = dtp u - cot(t) dp u,
        # u_;pp = dpp u + sin(t)cos(t) dt u
        H_tp = _compose(D_theta, D_phi) + [(m, -(ct / st * c)) for m, c in D_phi]
        H_pp = D2_phi + [(m, st * ct * c) for m, c in D_theta]

        def frame(stencil, power):  # to frame components: each phi index divides by sin(t)
            return [(m, c / st ** power) for m, c in stencil]
        self.hess_keys = [(0, 0), (1, 0), (1, 1)]
        self.stack = _stack([[(idx.ravel(), 1.0)], D_theta, frame(D_phi, 1),
                             D2_theta, frame(H_tp, 1), frame(H_pp, 2)])

    def averaged_stencil_inverse(self, weights):
        """Inverse of sum_o diag(m_o) op_o, m_o the phi-mean of
        weights[o] per theta row: the average of J = operator_sum(weights)
        over all phi rotations.

        It commutes with phi rotations, so each phi Fourier mode is one
        tridiagonal system in theta, all factored at once by a Thomas sweep.
        Its entries are read from its responses to unit impulses at phi = 0
        in every third theta row: in theta row i, each set's response comes
        from just one of the rows i - 1, i, i + 1 (a pole ghost lies in row i
        itself), and its DFT in phi is that coupling per mode.  Returns None
        when a pivot is (near-)zero, since the sweep cannot invert it.
        """
        n_theta, n_phi = self.shape
        averaged = self.operator_sum(
            [np.repeat(np.reshape(w, self.shape).mean(axis=1), n_phi) for w in weights])
        rows = np.arange(n_theta)
        impulses = np.zeros((3, *self.shape))
        impulses[rows % 3, rows, 0] = 1.0
        responses = np.fft.rfft(np.stack(
            [(averaged @ x.ravel()).reshape(self.shape) for x in impulses]), axis=-1)
        # (lower, diagonal, upper) coefficients, each (n_theta, mode)
        lower, diag, upper = (responses[(rows + d) % 3, rows] for d in (-1, 0, 1))
        # LU without pivoting; lower becomes the elimination multipliers
        pivot = diag.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(1, n_theta):
                lower[i] /= pivot[i - 1]
                pivot[i] -= lower[i] * upper[i - 1]
        size = np.abs(pivot)
        # a zero pivot leaves inf or nan after it, which fails this test too
        if not size.min() > _SYMBOL_FLOOR * size.max():
            return None

        def apply(x):
            y = np.fft.rfft(np.reshape(x, self.shape), axis=-1)
            for i in range(1, n_theta):
                y[i] -= lower[i] * y[i - 1]
            y[-1] /= pivot[-1]
            for i in range(n_theta - 2, -1, -1):
                y[i] = (y[i] - upper[i] * y[i + 1]) / pivot[i]
            return np.fft.irfft(y, n=n_phi, axis=-1).ravel()
        return apply

    def prolong_from(self, coarse_values, coarse_grid):
        """Evaluate a field on a coarser Sphere2 at this grid's nodes, by the
        double Fourier sphere: theta is extended to (0, 2 pi) with
        u(2 pi - theta, phi) = u(theta, phi + pi), which is periodic in both
        angles and as smooth as u on the sphere, and its trigonometric
        interpolant is evaluated at this grid's nodes.  Both grids start half
        a cell of their own after theta = 0, so the theta samples move by
        (h_fine - h_coarse) / 2.  Exact for fields whose extension is
        band-limited to the coarse grid, such as polynomials in the ambient
        coordinates of low degree."""
        _check_refines(self, coarse_grid, Sphere2)
        (nt, nphi), (nt_fine, nphi_fine) = coarse_grid.shape, self.shape
        arr = np.asarray(coarse_values, float).reshape(coarse_grid.shape)
        ext = np.concatenate([arr, np.roll(arr[::-1], -(nphi // 2), axis=1)])
        ext = _trig_interpolate(ext, 0, 2 * nt_fine, shift=(nt / nt_fine - 1.0) / 2.0)
        return _trig_interpolate(ext[:nt_fine], 1, nphi_fine).real.ravel()


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
    """Per-node geometry of the graph of u, batched over nodes and in the
    base's orthonormal frame: f, f', f'' at u, the covariant gradient of u,
    the lower triangles of its Hessian and of the Weingarten matrix
    A = gamma h gamma (gamma = gtilde^(-1/2), the induced metric's symmetric
    inverse square root, h the second fundamental form), whose eigenvalues
    are the principal curvatures; sigma_0 .. sigma_n of those, support
    function tau, v = sqrt(f^2 + |Du|^2).  A lower triangle is a dict
    {(i, j): (N,)} over j <= i, read through _sym.  One record per iterate
    serves its residual, Jacobian and diagnostics; no eigensolve is made
    unless lam is read."""

    f: np.ndarray       # (N,)
    fp: np.ndarray      # (N,)
    fpp: np.ndarray     # (N,)
    du: np.ndarray      # (N, n)
    d2u: dict           # (i, j) -> (N,), j <= i
    A: dict             # (i, j) -> (N,), j <= i
    sig: np.ndarray     # (N, n + 1)
    tau: np.ndarray     # (N,)
    v: np.ndarray       # (N,)

    @cached_property
    def lam(self):
        """Principal curvatures, ascending (N, n), computed on first use: for
        diagnostics and export, never for a Newton iterate."""
        A, n = self.A, self.sig.shape[-1] - 1
        if n == 2:
            return _eigvalsh_2x2(A[0, 0], A[1, 0], A[1, 1])
        return np.linalg.eigvalsh(_dense(A, n))


def _sym(X, i, j):
    """Entry (i, j) of a symmetric matrix given by its lower-triangle entries X."""
    return X[max(i, j), min(i, j)]


def _dot(pairs):
    """sum of a * b over the (a, b) pairs, added up in place."""
    (a, b), *rest = pairs
    acc = a * b
    for a, b in rest:
        acc += a * b
    return acc


def _eigvalsh_2x2(a00, a10, a11):
    """Ascending eigenvalues of the symmetric 2 x 2 matrices
    [[a00, a10], [a10, a11]], in closed form: m -+ hypot((a00 - a11)/2, a10),
    with m = (a00 + a11)/2."""
    m, rad = 0.5 * (a00 + a11), np.hypot(0.5 * (a00 - a11), a10)
    return np.stack([m - rad, m + rad], axis=-1)


def _dense(X, n):
    """The symmetric (..., n, n) array whose lower triangle is X."""
    rows = [[_sym(X, i, j) for j in range(n)] for i in range(n)]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def _principal_minor_sums(A, n):
    """sigma_0 .. sigma_n of the eigenvalues of the symmetric matrices whose
    lower triangle is A, stacked along a last axis: sigma_j is the sum of
    the j x j principal minors."""
    a00 = A[0, 0]
    sig = np.empty(a00.shape + (n + 1,))
    sig[..., 0] = 1.0
    sig[..., 1] = sum(A[i, i] for i in range(n))
    minors = {(i, j): A[i, i] * A[j, j] - A[i, j] ** 2 for i in range(n) for j in range(i)}
    sig[..., 2] = sum(minors.values())
    if n == 3:  # det A by its first column
        sig[..., 3] = (a00 * minors[2, 1] - A[1, 0] * (A[1, 0] * A[2, 2] - A[2, 1] * A[2, 0])
                       + A[2, 0] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0]))
    return sig


def pencil_eigensystem(gtilde, h):
    """(lam, V): eigenvalues of the pencil h w = lam gtilde w, ascending, and
    gtilde-orthonormal eigenvector columns V[..., :, a], batched, for
    symmetric (..., n, n) gtilde and h.

    Plain batched LAPACK, sharing no code with the curvature record it is
    the oracle for: gtilde = L L^T (Cholesky), A = L^-1 h L^-T by two
    triangular solves, A W = W diag(lam) (eigh), V = L^-T W.  Raises
    GeometryError when gtilde is not finite or not positive definite.
    """
    if not np.all(np.isfinite(gtilde)):
        raise GeometryError("induced metric not finite")
    try:
        L = np.linalg.cholesky(gtilde)
    except np.linalg.LinAlgError as exc:
        raise GeometryError("induced metric not positive definite") from exc
    X = solve_triangular(L, h, lower=True)  # L^-1 h
    lam, W = np.linalg.eigh(solve_triangular(L, np.swapaxes(X, -1, -2), lower=True))
    return lam, solve_triangular(L, W, lower=True, trans="T")


def principal_curvatures(gtilde, h):
    """Eigenvalues of the pencil h w = lam gtilde w, ascending, batched."""
    return pencil_eigensystem(gtilde, h)[0]


def graph_record(f, fp, fpp, du, d2u):
    """Curvature record of a graph from f, f', f'' at its height, the frame
    components of its gradient Du (N, n) and its Hessian's lower triangle.

    In the orthonormal frame of the base:
        gtilde = f^2 I + Du Du^T,
        h = (-f D^2u + 2 f' Du Du^T + f^2 f' I) / v,
        v = sqrt(f^2 + |Du|^2),  tau = f^2 / v.
    gtilde has the closed-form symmetric inverse square root
    gamma = (I - c Du Du^T) / f, c = 1 / (v (f + v)), so the Weingarten
    matrix is formed entry by entry, with no factorization:
        A = gamma h gamma = (f'/v) (I + Du Du^T / v^2)
            - (D^2u - c (Du w^T + w Du^T) + c^2 (Du . w) Du Du^T) / (f v),
    w = D^2u Du; sigma_j(A) are its principal minor sums.
    """
    n = du.shape[1]
    f2 = f ** 2
    v = np.sqrt(f2 + _dot(zip(du.T, du.T)))
    c = 1.0 / (v * (f + v))
    w = [_dot((_sym(d2u, i, j), du[:, j]) for j in range(n)) for i in range(n)]
    a, b = fp / v, 1.0 / (f * v)
    uu_coef = a / v ** 2 - b * c ** 2 * _dot(zip(du.T, w))  # the Du Du^T terms
    A = {(i, j): (uu_coef * du[:, i] * du[:, j] + (a if i == j else 0.0)
                  - b * (d2u[i, j] - c * (du[:, i] * w[j] + w[i] * du[:, j])))
         for i, j in d2u}
    return CurvatureRecord(f=f, fp=fp, fpp=fpp, du=du, d2u=d2u, A=A,
                           sig=_principal_minor_sums(A, n), tau=f2 / v, v=v)


def fundamental_forms(u: GridFunction, w: WarpingFunction):
    """Curvature record of the graph of u: graph_record of f, f', f'' at u
    and of u's frame derivatives on its grid."""
    f, fp, fpp = warp_eval(w, u.values)
    return graph_record(f, fp, fpp, *u.grid.gradient_hessian(u.values))
