"""Coefficient families, the homotopy deformation, hypothesis checking, and
the discrete residual field and its Jacobian's coefficients."""
from __future__ import annotations

import copy
import csv
from dataclasses import dataclass
from math import comb

import numpy as np

from . import geometry, symfunc
from .errors import ConeExitError, ConfigError, HypothesisError
from .geometry import BaseGrid, GridFunction, WarpingFunction, _dot, _sym, warp_eval

CHECK_SAMPLES = 64  # u-samples per range in check_hypotheses
CHECK_CHUNK = 1 << 16  # entries of a coefficient product formed at a time


# ---------------------------------------------------------------------------
# Spatial profiles psi_l(x)
# ---------------------------------------------------------------------------

def sample_profile(desc, grid: BaseGrid):
    """Sample a bounded smooth profile on the grid nodes.

    Torus: {"kind": "cos"|"sin", "axis": a, "freq": m, "phase": p} gives
    trig(2 pi m x_a / L_a + p), with m an integer, so that it is periodic.
    Sphere: "sphere_x"/"sphere_y"/"sphere_z" are the ambient coordinate
    functions (smooth across the poles).  "values" carries an explicit node
    array.  A missing kind, an axis outside 0 .. n-1 or a fractional freq
    is a ConfigError naming the key.
    """
    if desc is None:
        return np.zeros(grid.num_nodes)
    kind = desc.get("kind")
    if kind is None:
        raise ConfigError("profile needs a 'kind'")
    if kind == "zero":
        return np.zeros(grid.num_nodes)
    if kind == "values":
        vals = np.asarray(desc["values"], dtype=float).ravel()
        if vals.size != grid.num_nodes:
            raise ConfigError("profile value array does not match the grid")
        return vals
    if kind in ("cos", "sin"):
        axis, freq = desc.get("axis", 0), float(desc.get("freq", 1.0))
        if axis not in range(grid.n):
            raise ConfigError(f"profile 'axis' {axis!r} is not in 0 .. {grid.n - 1}")
        if not freq.is_integer():
            raise ConfigError(f"profile 'freq' {freq!r} is not an integer, so the "
                              "profile is not periodic on the grid")
        axis, phase = int(axis), float(desc.get("phase", 0.0))
        x = grid.coords[:, axis]
        if hasattr(grid, "periods"):
            ang = 2.0 * np.pi * freq * x / grid.periods[axis] + phase
        else:
            ang = freq * x + phase
        return np.cos(ang) if kind == "cos" else np.sin(ang)
    if kind in ("sphere_x", "sphere_y", "sphere_z"):
        if grid.n != 2 or not isinstance(grid, geometry.Sphere2):
            raise ConfigError(f"profile {kind!r} needs a Sphere2 grid")
        th, ph = grid.coords[:, 0], grid.coords[:, 1]
        return {"sphere_x": np.sin(th) * np.cos(ph),
                "sphere_y": np.sin(th) * np.sin(ph),
                "sphere_z": np.cos(th)}[kind]
    raise ConfigError(f"unknown profile kind {kind!r}")


# ---------------------------------------------------------------------------
# Coefficient families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientTerm:
    amplitude: float
    epsilon: float = 0.0
    profile: dict | None = None

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise ConfigError("coefficient amplitude must be positive")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError("perturbation size must lie in [0, 1)")


class CoefficientFamily:
    """Built-in family alpha_l(u, x) = a_l f(u)^{-(k-l)} (1 + eps_l psi_l(x)).

    The f^{-(k-l)} scaling makes d/du [f^{k-l} alpha_l] vanish identically,
    so the monotonicity hypothesis holds with equality for every member.
    bind(grid, warping) samples the profiles psi_l on the grid and fixes the
    warping f.  values(l, u, rec) reads f from u's curvature record rec when
    given and evaluates the warping otherwise; du reads f and f' from rec.
    """

    def __init__(self, terms, k):
        terms = list(terms)
        if len(terms) != k:
            raise ConfigError(f"need exactly k={k} coefficient terms (orders 0..k-1)")
        self.terms = terms
        self.k = k

    def bind(self, grid: BaseGrid, warping: WarpingFunction):
        self._warping = warping
        self._psi = np.stack([sample_profile(t.profile, grid) for t in self.terms])
        for t, psi in zip(self.terms, self._psi):
            if t.epsilon * np.max(np.abs(psi)) >= 1.0:
                raise ConfigError("perturbation eps*psi must stay below 1")

    def values(self, l, u, rec=None):
        f = warp_eval(self._warping, u)[0] if rec is None else rec.f
        t = self.terms[l]
        return t.amplitude * f ** (-(self.k - l)) * (1.0 + t.epsilon * self._psi[l])

    def du(self, l, u, rec):
        f, fp = rec.f, rec.fp
        t = self.terms[l]
        return (-(self.k - l) * t.amplitude * f ** (-(self.k - l) - 1) * fp
                * (1.0 + t.epsilon * self._psi[l]))

    def factors(self, l, us):
        """(B, P) with alpha_l(us[i], x) = (B @ P)[i, x]; rank 1 here:
        B = a_l f(us)^{-(k-l)} as a column, P = 1 + eps_l psi_l as a row."""
        f, _, _ = warp_eval(self._warping, us)
        t = self.terms[l]
        return ((t.amplitude * f ** (-(self.k - l)))[:, None],
                (1.0 + t.epsilon * self._psi[l])[None, :])


class TabulatedCoefficients:
    """Escape hatch: alpha_l given on a (u-sample x node) table, linear in u.
    It has the methods of CoefficientFamily and reads neither the warping
    nor a curvature record."""

    def __init__(self, u_samples, tables, k):
        self.u_samples = np.asarray(u_samples, dtype=float)
        if self.u_samples.ndim != 1 or self.u_samples.size < 2:
            raise ConfigError("need at least two u samples")
        if np.any(np.diff(self.u_samples) <= 0):
            raise ConfigError("u samples must be strictly increasing")
        tables = [np.asarray(tb, dtype=float) for tb in tables]
        if len(tables) != k:
            raise ConfigError(f"need exactly k={k} coefficient tables")
        for tb in tables:
            if tb.shape[0] != self.u_samples.size:
                raise ConfigError("table rows must match the u samples")
        self.tables = tables
        self.k = k

    def bind(self, grid: BaseGrid, warping: WarpingFunction):
        for tb in self.tables:
            if tb.shape[1] != grid.num_nodes:
                raise ConfigError("table columns must match the grid nodes")

    def _segment(self, u):
        """Segment index j of u and its position t in [u_j, u_{j+1}]; t lies
        outside [0, 1] beyond the end samples, where the table extrapolates."""
        us = self.u_samples
        j = np.clip(np.searchsorted(us, u) - 1, 0, us.size - 2)
        return j, (u - us[j]) / (us[j + 1] - us[j])

    def _bracket(self, l, u):
        """Segment index j of u, its position t, and the table values at both
        ends, node by node; u is a scalar, one value per node, or a
        (u-sample, 1) column of a (u-sample x node) lattice."""
        tb = self.tables[l]
        j, t = self._segment(u)
        nodes = np.arange(tb.shape[1])
        return j, t, tb[j, nodes], tb[j + 1, nodes]

    def values(self, l, u, rec=None):
        _, t, lo, hi = self._bracket(l, np.asarray(u, dtype=float))
        return lo + t * (hi - lo)

    def du(self, l, u, rec=None):
        j, _, lo, hi = self._bracket(l, np.asarray(u, dtype=float))
        return (hi - lo) / (self.u_samples[j + 1] - self.u_samples[j])

    def factors(self, l, us):
        """(B, P) with alpha_l(us[i], x) = (B @ P)[i, x]: B holds each u's two
        hat-function weights over the u samples, P is the table."""
        j, t = self._segment(us)
        rows = np.arange(us.size)
        B = np.zeros((us.size, self.u_samples.size))
        B[rows, j] = 1.0 - t
        B[rows, j + 1] = t
        return B, self.tables[l]


def load_coefficient_table(path, grid: BaseGrid):
    """Read one alpha_l table from CSV with columns (u, node-index, value).

    Returns (u_samples, table) with table shape (n_u, num_nodes).  Validation
    errors reference the offending CSV row number (1-based, header included).
    """
    entries = {}  # u -> {node: (CSV row number, value)}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["u", "node", "value"]:
            raise ConfigError(f"{path}: row 1: expected header 'u,node,value'")
        for rownum, row in enumerate(reader, start=2):
            try:
                u, node, value = float(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{path}: row {rownum}: {exc}") from exc
            if not 0 <= node < grid.num_nodes:
                raise ConfigError(f"{path}: row {rownum}: node {node} out of range")
            cols = entries.setdefault(u, {})
            if node in cols:
                raise ConfigError(f"{path}: row {rownum}: u={u}, node {node} "
                                  f"repeats row {cols[node][0]}")
            cols[node] = rownum, value
    u_samples = np.array(sorted(entries))
    table = np.empty((u_samples.size, grid.num_nodes))
    for i, u in enumerate(u_samples):
        cols = entries[u]
        if len(cols) != grid.num_nodes:
            raise ConfigError(f"{path}: u={u}: {len(cols)} of {grid.num_nodes} nodes present")
        for node, (_, value) in cols.items():
            table[i, node] = value
    return u_samples, table


# ---------------------------------------------------------------------------
# Homotopy profile phi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhiFunction:
    """phi(u) = exp(s (u* - u)): positive, strictly decreasing, equal to 1
    exactly at the pivot u*, hence > 1 below and < 1 above it."""

    pivot: float
    steepness: float = 2.0

    def __post_init__(self):
        if self.steepness <= 0.0:
            raise ConfigError("phi steepness must be positive")

    def __call__(self, u):
        return np.exp(self.steepness * (self.pivot - np.asarray(u, dtype=float)))

    def deriv(self, u):
        return -self.steepness * self(u)


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------

@dataclass
class ProblemSpec:
    grid: BaseGrid
    warping: WarpingFunction
    k: int
    coeffs: CoefficientFamily | TabulatedCoefficients
    phi: PhiFunction
    r1: float
    r2: float
    newton_tol: float = 1e-10
    max_newton: int = 50
    dt_init: float = 1.0  # the first step tries the whole path; a failure halves it
    dt_min: float = 1e-4
    dt_grow: float = 4.0  # the largest growth of dt per accepted step
    guard_frac: float = 0.05

    def __post_init__(self):
        n = self.grid.n
        if not 2 <= self.k <= n:
            raise ConfigError(f"need 2 <= k <= n, got k={self.k}, n={n}")
        if not self.r1 < self.r2:
            raise ConfigError("need r1 < r2")
        if not (self.warping.t_min < self.r1 and self.r2 < self.warping.t_max):
            raise ConfigError("[r1, r2] must lie inside the warping domain")
        if not self.r1 < self.phi.pivot < self.r2:
            raise ConfigError("phi pivot must lie strictly inside (r1, r2)")
        if self.coeffs.k != self.k:
            raise ConfigError("coefficient family order does not match k")
        self.coeffs = copy.copy(self.coeffs)  # bound per spec; specs may share a family
        self.coeffs.bind(self.grid, self.warping)
        # f > 0, f' > 0 on the guarded working interval
        delta = self.guard_frac * (self.r2 - self.r1)
        lo = max(self.r1 - delta, self.warping.t_min + 1e-12 * max(1.0, abs(self.warping.t_min)))
        hi = min(self.r2 + delta, self.warping.t_max - 1e-12 * max(1.0, abs(self.warping.t_max)))
        warp_eval(self.warping, np.linspace(lo, hi, 128))

    @property
    def n(self):
        return self.grid.n

    @property
    def ratio_e(self):
        """sigma_k(e)/sigma_{k-1}(e) = (n - k + 1)/k."""
        return (self.n - self.k + 1) / self.k


def alpha_k1_homotopy(u, t, spec: ProblemSpec, rec=None):
    """Deformed top coefficient
    t alpha_{k-1}(u, x) + (1 - t) phi(u) (sigma_k(e)/sigma_{k-1}(e)) f'/f;
    rec, when given, is u's curvature record, whose f and f' are read."""
    if not 0.0 <= t <= 1.0:
        raise ConfigError(f"homotopy parameter t={t} outside [0, 1]")
    u = np.asarray(u, dtype=float)
    f, fp = warp_eval(spec.warping, u)[:2] if rec is None else (rec.f, rec.fp)
    leaf = spec.phi(u) * spec.ratio_e * fp / f
    return t * spec.coeffs.values(spec.k - 1, u, rec) + (1.0 - t) * leaf


def _alpha_k1_homotopy_du(u, t, spec: ProblemSpec, rec):
    f, fp, fpp = rec.f, rec.fp, rec.fpp
    kappa = fp / f
    dkappa = (fpp * f - fp ** 2) / f ** 2
    dleaf = spec.ratio_e * (spec.phi.deriv(u) * kappa + spec.phi(u) * dkappa)
    return t * spec.coeffs.du(spec.k - 1, u, rec) + (1.0 - t) * dleaf


# ---------------------------------------------------------------------------
# Residual and Jacobian
# ---------------------------------------------------------------------------

def _check_cone(rec, k):
    """Require every node's curvatures in Gamma_{k-1}, read from sigma_1 ..
    sigma_{k-1}, nan outside; name the worst finite offender (else a nan
    node) and its curvatures, from its A alone (rec.lam solves every node's)."""
    margins = symfunc.sigma_margins(rec.sig, k - 1)
    worst = int(np.argmin(margins))  # the first nan, if there is one
    if not margins[worst] > 0.0:
        worst = int(np.nanargmin(margins)) if np.any(margins <= 0.0) else worst
        A = {key: entry[worst] for key, entry in rec.A.items()}
        raise ConeExitError(
            f"node {worst} left Gamma_{k-1} (margin {margins[worst]:.3e})",
            node=worst, lam=geometry._eigvalsh_lower(A, rec.du.shape[1]))


def residual(u: GridFunction, t, spec: ProblemSpec, rec=None) -> GridFunction:
    """Node-wise value of the deformed curvature equation.  rec is the
    curvature record of u; it is built here when not given."""
    if rec is None:
        rec = geometry.fundamental_forms(u, spec.warping, spec.k)
    k = spec.k
    _check_cone(rec, k)
    sig = rec.sig
    den = sig[:, k - 1]
    F = sig[:, k] / den
    for l in range(k - 1):
        if t != 0.0:
            F = F - t * spec.coeffs.values(l, u.values, rec) * sig[:, l] / den
    F = F - alpha_k1_homotopy(u.values, t, spec, rec)
    return u.with_values(F)


def _sigma_derivatives(sig, k, t_alpha):
    """{j: dF/dsigma_j} of F = (sigma_k - sum_l t_alpha[l] sigma_l) / sigma_{k-1},
    the sum over l < k - 1 (none when t_alpha is empty); sigma_0 = 1 has none."""
    den, num = sig[:, k - 1], sig[:, k]
    dF = {k: 1.0 / den}
    for l, ta in enumerate(t_alpha):
        num = num - ta * sig[:, l]
        if l > 0:
            dF[l] = -ta / den
    dF[k - 1] = -num / den ** 2
    return dF


def _gamma_congruence(X, du, f, c):
    """gamma X gamma, as lower-triangle entries, for a symmetric X given by
    its lower-triangle entries and gamma = (I - c Du Du^T) / f:
        (X - c (Du z^T + z Du^T) + c^2 (Du . z) Du Du^T) / f^2,  z = X Du."""
    n = du.shape[1]
    z = [_dot((_sym(X, i, j), du[:, j]) for j in range(n)) for i in range(n)]
    cc, r = c ** 2 * _dot(zip(du.T, z)), 1.0 / f ** 2
    return {(i, j): r * (X[i, j] - c * (du[:, i] * z[j] + z[i] * du[:, j])
                         + cc * du[:, i] * du[:, j]) for i, j in X}


def _newton_tensor_forms(rec, dF):
    """(M1, M2 Du, tr M2, Tr(G A)) of the Jacobian, batched over the nodes,
    for an operator whose derivative in sigma_j of the record's A is dF[j]
    (j >= 1); M1 as lower-triangle entries like A, M2 Du as n node fields.

    G = dF/dA = sum_j dF[j] T_{j-1} with the Newton tensors
    T_{j-1} = sigma_{j-1} I - P_{j-1} of the record (geometry.newton_tensors;
    P_0 = 0), and Tr(G A) = sum_j j dF[j] sigma_j.
    Then M1 = gamma G gamma and M2 = gamma G A gamma with the record's
    gamma = gtilde^(-1/2) = (I - c Du Du^T) / f, c = 1 / (v (f + v)).  Since
    gamma Du = Du / v and gamma^2 = gtilde^-1 = (I - Du Du^T / v^2) / f^2,
        M2 Du = gamma G y / v,  tr M2 = (Tr(G A) - Du . G y / v^2) / f^2,
    with y = A Du, so M2 itself is never formed.
    """
    A, du, f, v, sig = rec.A, rec.du, rec.f, rec.v, rec.sig
    n = du.shape[1]
    terms = [(-d, rec.P[j - 2]) for j, d in dF.items() if j > 1]
    G = {key: _dot((c, P[key]) for c, P in terms) for key in A}  # G = g0 I - sum_j dF[j] P_{j-1}
    g0 = _dot((d, sig[:, j - 1]) for j, d in dF.items() if j > 1) + dF.get(1, 0.0)
    for i in range(n):
        G[i, i] += g0
    c = 1.0 / (v * (f + v))
    y = [_dot((_sym(A, i, j), du[:, j]) for j in range(n)) for i in range(n)]
    Gy = [_dot((_sym(G, i, j), y[j]) for j in range(n)) for i in range(n)]
    du_Gy = _dot(zip(du.T, Gy))
    c_du_Gy, fv = c * du_Gy, f * v
    M2du = [(Gy[i] - c_du_Gy * du[:, i]) / fv for i in range(n)]
    tr_GA = _dot((j * d, sig[:, j]) for j, d in dF.items())
    return _gamma_congruence(G, du, f, c), M2du, (tr_GA - du_Gy / v ** 2) / f ** 2, tr_GA


def jacobian(u: GridFunction, t, spec: ProblemSpec, rec=None):
    """Jacobian of the residual as the weights w_o, node fields, of
    J = sum_o diag(w_o) @ op_o = c0 + c1 . D + c2 : D^2 over the operators of
    grid.stack (identity, D_a, then H_ab in grid.hess_keys order), by the
    chain rule through sigma_j of the pencil (h, gtilde), in the base's
    orthonormal frame.  rec is the curvature record of u; it is built here
    when not given.

    The first-order change of the operator value is
        dF = Tr(M1 dh) - Tr(M2 dgtilde) + (dF/du) du,
    with M1 = gamma G gamma, M2 = gamma G A gamma, G = dF/dA and
    gamma = gtilde^(-1/2), the record's closed form.  Since
    dgtilde = 2 f f' du I + Du dDu^T + dDu Du^T and dh carries h only
    through dv, J reads M2 only as M2 Du and tr M2, and M1 h only as
    Tr(M1 h) = Tr(G A); _newton_tensor_forms returns these and never forms
    M2.  On an eigenbasis M1 and M2 are sum_a G^a v_a v_a^T and
    sum_a G^a lam_a v_a v_a^T, G^a = dF/dlam_a, but they need no
    eigenvectors, so they are defined across eigenvalue crossings.  No matrix
    is assembled: grid.operator_sum applies J, and oracle.jacobian_matrix
    assembles it.
    """
    grid, k = spec.grid, spec.k
    if rec is None:
        rec = geometry.fundamental_forms(u, spec.warping, k)
    _check_cone(rec, k)
    sig = rec.sig
    t_alpha = [t * spec.coeffs.values(l, u.values, rec) for l in range(k - 1)] if t != 0.0 else []
    M1, M2du, tr_M2, tr_GA = _newton_tensor_forms(rec, _sigma_derivatives(sig, k, t_alpha))
    Fu = np.zeros(grid.num_nodes)
    for l in range(len(t_alpha)):
        Fu -= t * spec.coeffs.du(l, u.values, rec) * (sig[:, l] / sig[:, k - 1])
    Fu -= _alpha_k1_homotopy_du(u.values, t, spec, rec)

    f, fp, fpp = rec.f, rec.fp, rec.fpp
    du, d2u, v = rec.du, rec.d2u, rec.v
    n = grid.n
    M1du = [_dot((_sym(M1, i, j), du[:, j]) for j in range(n)) for i in range(n)]
    M1d2u = _dot(((1.0 if i == j else 2.0) * M1[i, j], d2u[i, j])
                 for i in range(n) for j in range(i + 1))

    # c0 = Tr(M1 dh/du) - Tr(M2 dgtilde/du) + dF/du with dgtilde/du = 2 f f' I,
    # dh/du = K0 / v - h f f' / v^2, K0 = -f' D^2u + 2 f'' Du Du^T + (2 f f'^2 + f^2 f'') I
    c0 = ((-fp * M1d2u + 2.0 * fpp * _dot(zip(du.T, M1du))
           + (2.0 * f * fp ** 2 + f ** 2 * fpp) * sum(M1[i, i] for i in range(n))) / v
          - tr_GA * f * fp / v ** 2
          - 2.0 * f * fp * tr_M2
          + Fu)
    c1 = [4.0 * fp * M1du[i] / v - tr_GA * du[:, i] / v ** 2 - 2.0 * M2du[i]
          for i in range(n)]
    # c2 : D^2 over the grid's hess_keys, j <= i: (i, j) and (j, i) share a weight
    return [c0, *c1, *((1.0 if i == j else 2.0) * (-f * M1[i, j] / v) for i, j in grid.hess_keys)]


# ---------------------------------------------------------------------------
# Hypothesis checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    worst_margin: float
    offender: tuple | None  # (u, node, l) where applicable


@dataclass(frozen=True)
class HypothesisReport:
    checks: dict

    @property
    def passed(self):
        return all(c.passed for c in self.checks.values())

    def failing(self):
        return [c for c in self.checks.values() if not c.passed]

    def raise_if_failed(self):
        bad = self.failing()
        if bad:
            c = bad[0]
            raise HypothesisError(
                f"hypothesis {c.name} violated (margin {c.worst_margin:.3e}, "
                f"offender {c.offender})", name=c.name, offender=c.offender)


def _product_min(B, P):
    """Smallest entry of B @ P and its first (row, column) in row-major
    order, without forming B @ P whole.  With a single row in P, each row of
    the product is a multiple of it, so its extreme lies in P's argmin or
    argmax column and only the winning row is formed: O(rows + columns).
    Otherwise B @ P is formed a chunk of columns at a time."""
    if P.shape[0] == 1:
        b, p = B[:, 0], P[0]
        i = int(np.argmin(np.minimum(b * p.min(), b * p.max())))
        row = b[i] * p
        x = int(np.argmin(row))
        return float(row[x]), i, x
    best = (np.inf, 0, 0)
    step = max(1, CHECK_CHUNK // B.shape[0])
    for x0 in range(0, P.shape[1], step):
        C = B @ P[:, x0:x0 + step]
        i, x = np.unravel_index(np.argmin(C), C.shape)
        best = min(best, (float(C[i, x]), int(i), x0 + int(x)))
    return best


def _near_min(B, P, slack):
    """(rows, columns) of every entry of B @ P within slack of its smallest,
    in row-major order; B @ P is formed a chunk of columns at a time."""
    best, found = np.inf, []
    step = max(1, CHECK_CHUNK // B.shape[0])
    for x0 in range(0, P.shape[1], step):
        C = B @ P[:, x0:x0 + step]
        low = C.min(axis=1)
        best = min(best, low.min())
        rows = np.flatnonzero(low <= best + slack)
        i, x = np.nonzero(C[rows] <= best + slack)
        found.append((C[rows[i], x], rows[i], x0 + x))
    values, rows, cols = (np.concatenate(a) for a in zip(*found))
    keep = values <= best + slack
    rows, cols = rows[keep], cols[keep]
    order = np.lexsort((cols, rows))
    return rows[order], cols[order]


def _orders_min(us, products):
    """Smallest entry of the per-order products B_l @ P_l, given as (B_l, P_l)
    pairs with one B row per u in us, and the first (u, node, l) where it
    occurs."""
    worst, offender = np.inf, None
    for l, (B, P) in enumerate(products):
        value, i, x = _product_min(B, P)
        if value < worst:
            worst, offender = value, (float(us[i]), x, l)
    return worst, offender


def _leaf_check(name, spec: ProblemSpec, us, sign):
    """Leaf inequality sign * (LHS - RHS) >= 0 at every (u-sample, node),
    LHS = sigma_k(e) kappa^k, RHS = sum_l alpha_l sigma_l(e) kappa^l,
    kappa = f'/f.  One stacked product
    [sign C(n,k) kappa^k | -sign C(n,l) kappa^l B_l] @ [1; P_0; ...] finds
    the entries within its rounding error of the smallest; these few are
    then evaluated term by term as written above, which fixes the margin
    and the first offender in row-major order to that arithmetic."""
    n, k = spec.n, spec.k
    f, fp, _ = warp_eval(spec.warping, us)
    kpow = [(fp / f) ** l for l in range(k + 1)]
    factors = [spec.coeffs.factors(l, us) for l in range(k)]
    Bs = np.hstack([sign * comb(n, k) * kpow[k][:, None]]
                   + [-sign * comb(n, l) * kpow[l][:, None] * B for l, (B, _) in enumerate(factors)])
    Ps = np.vstack([np.ones((1, spec.grid.num_nodes))] + [P for _, P in factors])
    # each evaluation is within about (r + k + 4) eps T / 2 of the exact sum
    # of the same float terms (r stacked rows, T >= sum |terms| everywhere),
    # so the slack covers twice their distance with a factor 2 to spare
    T = np.abs(Bs).max(axis=0) @ np.abs(Ps).max(axis=1)
    slack = 4.0 * (Ps.shape[0] + k + 4) * np.finfo(float).eps * T
    rows, cols = _near_min(Bs, Ps, slack)
    rhs = 0.0
    for l, (B, P) in enumerate(factors):
        alpha = np.einsum("cr,rc->c", B[rows], P[:, cols])
        rhs = rhs + alpha * comb(n, l) * kpow[l][rows]
    margins = sign * (comb(n, k) * kpow[k][rows] - rhs)
    j = int(np.argmin(margins))
    return HypothesisCheck(
        name, bool(margins[j] >= 0.0), float(margins[j]),
        (float(us[rows[j]]), int(cols[j]), None))


def check_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Sampled verification of the structural hypotheses: the two leaf-side
    inequalities, monotonicity of f^{k-l} alpha_l, the phi conditions, and
    uniform positivity of the coefficients, at every (u-sample, node).  Each
    is worked from the coefficients' (B, P) factors (coeffs.factors), never
    from a (u-sample x node) lattice of alpha."""
    m = CHECK_SAMPLES
    w = spec.warping
    orders = range(spec.k)
    checks = {}
    delta = 0.1 * (spec.r2 - spec.r1)
    eps_dom = 1e-9 * max(1.0, abs(w.t_max) if np.isfinite(w.t_max) else 1.0)

    # as-1: leaf inequality above r2
    hi = spec.r2 + delta
    if np.isfinite(w.t_max):
        hi = min(hi, w.t_max - eps_dom)
    checks["as-1"] = _leaf_check("as-1", spec, np.linspace(spec.r2, hi, m), 1.0)

    # as-2: reversed leaf inequality below r1
    lo = max(spec.r1 / 4.0, w.t_min + 1e-6 * (spec.r1 - w.t_min))
    checks["as-2"] = _leaf_check("as-2", spec, np.linspace(lo, spec.r1, m), -1.0)

    # as-3: d/du [f^{k-l} alpha_l] <= 0 on (r1, r2), centered differences;
    # the margin is -d/du
    us = np.linspace(spec.r1, spec.r2, m + 2)[1:-1]
    h = 1e-6 * (spec.r2 - spec.r1)

    uv = np.concatenate([us - h, us + h])
    fv, _, _ = warp_eval(w, uv)
    scale = 1.0  # max(1, |f^{k-l} alpha_l|) over (u +- h, node), for the tolerance

    def slope(l):
        # f^{k-l} alpha_l = B @ P at u - h (first m rows of B) and u + h
        nonlocal scale
        B, P = spec.coeffs.factors(l, uv)
        B = B * (fv ** (spec.k - l))[:, None]
        scale = max(scale, -_product_min(-B, P)[0], -_product_min(B, P)[0])
        return (B[:m] - B[m:]) / (2.0 * h), P  # -(b(u + h) - b(u - h)) / 2h

    margin, offender = _orders_min(us, (slope(l) for l in orders))
    tol = 1e-9 * scale
    # within the tolerance the worst point is rounding noise: name no offender
    passed = bool(margin >= -tol)
    checks["as-3"] = HypothesisCheck("as-3", passed, margin, None if passed else offender)

    # phi conditions (a)-(d)
    lo_phi = max(w.t_min + 1e-6, spec.r1 / 4.0)
    hi_phi = spec.r2 + delta
    grid_u = np.linspace(lo_phi, hi_phi, m)
    vals = spec.phi(grid_u)
    below = spec.phi(np.linspace(lo_phi, spec.r1, m))
    above = spec.phi(np.linspace(spec.r2, hi_phi, m))
    derivs = spec.phi.deriv(grid_u)
    # phi > 0, phi > 1 below r1, phi < 1 above r2, phi' < 0: each holds
    # exactly where its term below is positive
    phi_margin = float(min(vals.min(), (below - 1).min(), (1 - above).min(),
                           (-derivs).min()))
    checks["phi"] = HypothesisCheck("phi", phi_margin > 0.0, phi_margin, None)

    # uniform positivity alpha_l >= c_l > 0 on [r1, r2] x M
    us = np.linspace(spec.r1, spec.r2, m)
    worst, offender = _orders_min(us, (spec.coeffs.factors(l, us) for l in orders))
    checks["positivity"] = HypothesisCheck("positivity", bool(worst > 0.0), worst, offender)

    return HypothesisReport(checks=checks)
