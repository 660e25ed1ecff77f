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
from scipy.linalg.lapack import zgttrf, zgttrs

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
    whose orbits are _orbits blocks of consecutive nodes, so its rows at
    each orbit's first node fix it: the band table _bands."""

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
            return _dot(zip(weights, z))
        return spla.LinearOperator((self.num_nodes,) * 2, matvec=matvec, dtype=float)

    @cached_property
    def _bands(self):
        """The band table: the stack's entries in each orbit's first row, as
        (owner, column, value); an entry of operator o in orbit i has the
        owner o _orbits + i."""
        band = self.stack[::self.num_nodes // self._orbits].tocoo()
        return band.row, band.col, band.data

    def norm_inf_bound(self, weights):
        """max over rows r of sum_o |weights[o][r]| rowsum|op_o|[r], an upper
        bound on the max-norm of operator_sum(weights), with the row sums
        taken from the band table: they are the same on a whole orbit.  A
        weight is a node field or a constant."""
        owner, _, value = self._bands
        sums = np.bincount(owner, np.abs(value)).reshape(-1, self._orbits)  # (operator, orbit)
        total = sum(np.abs(np.broadcast_to(w, self.num_nodes).reshape(self._orbits, -1))
                    * a[:, None] for w, a in zip(weights, sums))
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
    step from the maps and coefficients, its index arrays in the dtype the CSR
    keeps (int32 while the entry count fits).  Each row keeps its terms in
    stencil order, a repeated column as two entries."""
    N, sizes = stencils[0][0][0].size, [len(s) for s in stencils]
    dtype = np.int32 if N * sum(sizes) <= np.iinfo(np.int32).max else np.int64  # rows <= nnz
    indptr = np.repeat(np.array([0] + sizes, dtype), [1] + [N] * len(sizes)).cumsum(dtype=dtype)
    cols, vals = np.empty(indptr[-1], dtype), np.empty(indptr[-1])
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


# smallest |symbol| / max |symbol| (torus) or |U_ii| / max |U_ii| of its LU
# (sphere) an averaged stencil may have and still be inverted by a grid's
# averaged_stencil_inverse; both test not min > _SYMBOL_FLOOR max, so a nan fails
_SYMBOL_FLOOR = 1e-12


class FlatTorus(BaseGrid):
    """Flat n-torus, n >= 2, periods L_i, uniform periodic grid."""

    def __init__(self, resolution, periods=None):
        self.shape = tuple(int(r) for r in resolution)
        self.n = len(self.shape)
        if self.n < 2 or any(r < 4 for r in self.shape):
            raise ConfigError("need at least 2 axes and 4 nodes per axis")
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
        diagonal in Fourier modes; its symbol is the conjugate DFT of its row
        0, summed by column from the band table (_bands).  Returns None when
        that symbol has a (near-)zero entry, since the inverse does not exist there.
        """
        means = np.array([np.mean(w) for w in weights])
        owner, col, value = self._bands
        row = np.bincount(col, means[owner] * value, minlength=self.num_nodes)
        symbol = np.fft.rfftn(row.reshape(self.shape)).conj()
        size = np.abs(symbol)
        if not size.min() > _SYMBOL_FLOOR * size.max():
            return None

        def apply(x):
            xhat = np.fft.rfftn(np.reshape(x, self.shape))
            return np.fft.irfftn(xhat / symbol, s=self.shape, axes=tuple(range(self.n))).ravel()
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

    @cached_property
    def _slots(self):
        """The slot of each entry of the band table (_bands), whose orbits
        are the theta rows: an entry of theta row i at column c has the slot
        (c // n_phi - i + 1, c mod n_phi, i) of a (theta offset + 1, phi
        offset, theta row) kernel; a pole ghost lies in row i itself, at
        theta offset 0."""
        n_theta, n_phi = self.shape
        owner, col, _ = self._bands
        i = owner % n_theta
        return ((col // n_phi - i + 1) * n_phi + col % n_phi) * n_theta + i

    def averaged_stencil_inverse(self, weights):
        """Inverse of sum_o diag(m_o) op_o, m_o the phi-mean of weights[o]
        (a node field or a constant) per theta row: the average of
        J = operator_sum(weights) over all phi rotations.

        Its kernel, its coefficients by slot (_slots), is one bincount of the
        means times the band table's values (_bands).  Each phi Fourier mode
        is one tridiagonal system in theta, with the conjugate DFT in phi of the
        kernel as its bands; all modes, end to end, make one tridiagonal
        system, factored by one banded LU with partial pivoting (LAPACK
        zgttrf) and applied by an FFT in phi, zgttrs and an inverse FFT.
        Returns None when the LU fails (info != 0) or U has a (near-)zero
        diagonal entry: min |U_ii| <= _SYMBOL_FLOOR max |U_ii|.
        """
        n_theta, n_phi = self.shape
        owner, _, value = self._bands
        means = np.array([np.broadcast_to(w, self.num_nodes).reshape(self.shape).mean(axis=1)
                          for w in weights]).ravel()
        kernel = np.bincount(self._slots, means[owner] * value, minlength=3 * self.num_nodes)
        # (lower, diagonal, upper) couplings, each mode-major (mode, theta row);
        # a mode's first row has no lower and its last row no upper coupling
        bands = np.fft.rfft(kernel.reshape(3, n_phi, n_theta), axis=1).conj().reshape(3, -1)
        lower, diag, upper, upper2, pivots, info = zgttrf(bands[0, 1:], bands[1], bands[2, :-1])
        size = np.abs(diag)
        if info != 0 or not size.min() > _SYMBOL_FLOOR * size.max():
            return None

        def apply(x):
            y = np.fft.rfft(np.reshape(x, self.shape), axis=-1).T.reshape(-1, 1)
            y = zgttrs(lower, diag, upper, upper2, pivots, y, overwrite_b=True)[0]
            return np.fft.irfft(y.reshape(-1, n_theta).T, n=n_phi, axis=-1).ravel()
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
    are the principal curvatures; sigma_0 .. sigma_k of those (k the
    operator's order) and the P_j of newton_tensors; tau = f^2 / v,
    v = sqrt(f^2 + |Du|^2).  A lower triangle is a dict {(i, j): (N,)} over
    j <= i, read through _sym.  One record per iterate serves its residual,
    Jacobian and diagnostics; no eigensolve is made unless lam is read."""

    f: np.ndarray       # (N,)
    fp: np.ndarray      # (N,)
    fpp: np.ndarray     # (N,)
    du: np.ndarray      # (N, n)
    d2u: dict           # (i, j) -> (N,), j <= i
    A: dict             # (i, j) -> (N,), j <= i
    sig: np.ndarray     # (N, k + 1)
    P: list             # P_1 .. P_{k-1}, lower triangles
    tau: np.ndarray     # (N,)
    v: np.ndarray       # (N,)

    @cached_property
    def lam(self):
        """Principal curvatures, ascending (N, n), computed on first use: for
        diagnostics and export, never for a Newton iterate."""
        return _eigvalsh_lower(self.A, self.du.shape[1])


def _eigvalsh_lower(A, n):
    """Ascending eigenvalues of the symmetric n x n matrices with lower
    triangle A; for n = 2 m -+ hypot((a00 - a11)/2, a10), m = (a00 + a11)/2."""
    if n == 2:
        m, rad = 0.5 * (A[0, 0] + A[1, 1]), np.hypot(0.5 * (A[0, 0] - A[1, 1]), A[1, 0])
        return np.stack([m - rad, m + rad], axis=-1)
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


def _dense(X, n):
    """The symmetric (..., n, n) array whose lower triangle is X."""
    rows = [[_sym(X, i, j) for j in range(n)] for i in range(n)]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def newton_tensors(A, n, k):
    """(sig, P) of the symmetric n x n matrices with lower triangle A, any n:
    sigma_0 .. sigma_k of their eigenvalues, (N, k + 1) with contiguous
    columns, and the lower triangles of P_j = A T_{j-1}, j < k, by Reilly's
    Newton tensors T_0 = I, T_j = sigma_j I - P_j (J. Diff. Geom. 8, 1973);
    A commutes with T_j, so P_j is symmetric.  sigma_j = tr P_j / j
    (Faddeev-LeVerrier), for j = k from the entrywise product of A and T_{k-1}."""
    sig = np.empty((k + 1,) + A[0, 0].shape)  # row j: sigma_j, a contiguous node field
    sig[0], sig[1] = 1.0, sum((A[i, i] for i in range(1, n)), A[0, 0])
    P = [A]
    for j in range(2, k + 1):
        Q = P[-1]  # T_{j-1} is t on its diagonal and -Q off it
        t = [sig[j - 1] - Q[i, i] for i in range(n)]
        if j < k:
            P.append({(i, l): A[i, l] * t[l] - _dot((_sym(A, i, m), _sym(Q, m, l))
                                                    for m in range(n) if m != l) for i, l in A})
            np.divide(sum((P[-1][i, i] for i in range(1, n)), P[-1][0, 0]), j, out=sig[j])
        else:  # no P_k: tr(A T_{k-1}) alone
            np.divide(_dot((t[i], A[i, i]) if i == l else (-2.0 * A[i, l], Q[i, l])
                           for i, l in A), j, out=sig[j])
    return sig.T, P


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


def graph_record(f, fp, fpp, du, d2u, k=None):
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
    w = D^2u Du; newton_tensors gives sigma_0 .. sigma_k of A, k = n if not given.
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
    sig, P = newton_tensors(A, n, k or n)
    return CurvatureRecord(f=f, fp=fp, fpp=fpp, du=du, d2u=d2u, A=A, sig=sig, P=P,
                           tau=f2 / v, v=v)


def fundamental_forms(u: GridFunction, w: WarpingFunction, k=None):
    """Curvature record of the graph of u, with sigma_0 .. sigma_k: graph_record
    of f, f', f'' at u and of u's frame derivatives on its grid."""
    f, fp, fpp = warp_eval(w, u.values)
    return graph_record(f, fp, fpp, *u.grid.gradient_hessian(u.values), k)
