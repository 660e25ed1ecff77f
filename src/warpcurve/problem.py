"""Coefficient families, the homotopy deformation, hypothesis checking, and
assembly of the discrete residual field and its Jacobian."""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.sparse as sp

from . import geometry, symfunc
from .errors import ConeExitError, ConfigError, HypothesisError
from .geometry import BaseGrid, GridFunction, WarpingFunction, warp_eval

log = logging.getLogger(__name__)

CHECK_SAMPLES = 64  # u-samples per range in check_hypotheses


# ---------------------------------------------------------------------------
# Spatial profiles psi_l(x)
# ---------------------------------------------------------------------------

def sample_profile(desc, grid: BaseGrid):
    """Sample a bounded smooth profile on the grid nodes.

    Torus: {"kind": "cos"|"sin", "axis": a, "freq": m, "phase": p} gives
    trig(2 pi m x_a / L_a + p).  Sphere: "sphere_x"/"sphere_y"/"sphere_z"
    are the ambient coordinate functions (smooth across the poles).
    "values" carries an explicit node array.
    """
    if desc is None:
        return np.zeros(grid.num_nodes)
    kind = desc["kind"]
    if kind == "zero":
        return np.zeros(grid.num_nodes)
    if kind == "values":
        vals = np.asarray(desc["values"], dtype=float).ravel()
        if vals.size != grid.num_nodes:
            raise ConfigError("profile value array does not match the grid")
        return vals
    if kind in ("cos", "sin"):
        axis = int(desc.get("axis", 0))
        freq = float(desc.get("freq", 1.0))
        phase = float(desc.get("phase", 0.0))
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
    """

    def __init__(self, terms, k):
        terms = list(terms)
        if len(terms) != k:
            raise ConfigError(f"need exactly k={k} coefficient terms (orders 0..k-1)")
        self.terms = terms
        self.k = k

    def bind(self, grid: BaseGrid):
        self._psi = np.stack([sample_profile(t.profile, grid) for t in self.terms])
        for t, psi in zip(self.terms, self._psi):
            if t.epsilon * np.max(np.abs(psi)) >= 1.0:
                raise ConfigError("perturbation eps*psi must stay below 1")

    def values(self, l, u, w: WarpingFunction):
        f, _, _ = warp_eval(w, u)
        t = self.terms[l]
        return t.amplitude * f ** (-(self.k - l)) * (1.0 + t.epsilon * self._psi[l])

    def du(self, l, u, w: WarpingFunction):
        f, fp, _ = warp_eval(w, u)
        t = self.terms[l]
        return (-(self.k - l) * t.amplitude * f ** (-(self.k - l) - 1) * fp
                * (1.0 + t.epsilon * self._psi[l]))


class TabulatedCoefficients:
    """Escape hatch: alpha_l given on a (u-sample x node) table, linear in u."""

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

    def bind(self, grid: BaseGrid):
        for tb in self.tables:
            if tb.shape[1] != grid.num_nodes:
                raise ConfigError("table columns must match the grid nodes")

    def _bracket(self, l, u):
        """Segment index j of u, its position t in [u_j, u_{j+1}], and the
        table values at both ends, node by node; u is a scalar, one value
        per node, or a (u-sample, 1) column of a (u-sample x node) lattice."""
        us, tb = self.u_samples, self.tables[l]
        j = np.clip(np.searchsorted(us, u) - 1, 0, us.size - 2)
        t = (u - us[j]) / (us[j + 1] - us[j])
        nodes = np.arange(tb.shape[1])
        return j, t, tb[j, nodes], tb[j + 1, nodes]

    def values(self, l, u, w=None):
        _, t, lo, hi = self._bracket(l, np.asarray(u, dtype=float))
        return lo + t * (hi - lo)

    def du(self, l, u, w=None):
        j, _, lo, hi = self._bracket(l, np.asarray(u, dtype=float))
        return (hi - lo) / (self.u_samples[j + 1] - self.u_samples[j])


def load_coefficient_table(path, grid: BaseGrid):
    """Read one alpha_l table from CSV with columns (u, node-index, value).

    Returns (u_samples, table) with table shape (n_u, num_nodes).  Validation
    errors reference the offending CSV row number (1-based, header included).
    """
    entries = {}
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
            entries.setdefault(u, {})[node] = value
    u_samples = np.array(sorted(entries))
    table = np.empty((u_samples.size, grid.num_nodes))
    for i, u in enumerate(u_samples):
        cols = entries[u]
        if len(cols) != grid.num_nodes:
            raise ConfigError(f"{path}: u={u}: {len(cols)} of {grid.num_nodes} nodes present")
        for node, value in cols.items():
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

    @property
    def root(self):
        return self.pivot


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
    max_backtracks: int = 30
    dt_init: float = 0.1
    dt_min: float = 1e-4
    dt_grow: float = 1.5
    guard_frac: float = 0.05

    def __post_init__(self):
        n = self.grid.n
        if not 2 <= self.k <= n:
            raise ConfigError(f"need 2 <= k <= n, got k={self.k}, n={n}")
        if n == 2:
            log.warning("base dimension n=2 is a borderline case (k=n); "
                        "all formulas remain valid at k=2")
        if not self.r1 < self.r2:
            raise ConfigError("need r1 < r2")
        if not (self.warping.t_min < self.r1 and self.r2 < self.warping.t_max):
            raise ConfigError("[r1, r2] must lie inside the warping domain")
        if not self.r1 < self.phi.pivot < self.r2:
            raise ConfigError("phi pivot must lie strictly inside (r1, r2)")
        if self.coeffs.k != self.k:
            raise ConfigError("coefficient family order does not match k")
        self.coeffs.bind(self.grid)
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

    def alpha(self, l, u):
        return self.coeffs.values(l, u, self.warping)

    def alpha_du(self, l, u):
        return self.coeffs.du(l, u, self.warping)


def alpha_k1_homotopy(u, t, spec: ProblemSpec):
    """Deformed top coefficient
    t alpha_{k-1}(u, x) + (1 - t) phi(u) (sigma_k(e)/sigma_{k-1}(e)) f'/f."""
    if not 0.0 <= t <= 1.0:
        raise ConfigError(f"homotopy parameter t={t} outside [0, 1]")
    u = np.asarray(u, dtype=float)
    f, fp, _ = warp_eval(spec.warping, u)
    leaf = spec.phi(u) * spec.ratio_e * fp / f
    return t * spec.alpha(spec.k - 1, u) + (1.0 - t) * leaf


def _alpha_k1_homotopy_du(u, t, spec: ProblemSpec):
    f, fp, fpp = warp_eval(spec.warping, u)
    kappa = fp / f
    dkappa = (fpp * f - fp ** 2) / f ** 2
    dleaf = spec.ratio_e * (spec.phi.deriv(u) * kappa + spec.phi(u) * dkappa)
    return t * spec.alpha_du(spec.k - 1, u) + (1.0 - t) * dleaf


# ---------------------------------------------------------------------------
# Residual and Jacobian
# ---------------------------------------------------------------------------

def _check_cone(lam, k):
    """Require every node's lam in Gamma_{k-1}; name the worst offender."""
    margins = symfunc.cone_margins(lam, k - 1)
    worst = int(np.argmin(margins))
    if margins[worst] <= 0.0:
        raise ConeExitError(
            f"node {worst} left Gamma_{k-1} (margin {margins[worst]:.3e})",
            node=worst, lam=lam[worst])


def residual(u: GridFunction, t, spec: ProblemSpec) -> GridFunction:
    """Node-wise value of the deformed curvature equation."""
    rec = geometry.fundamental_forms(u, spec.warping)
    k = spec.k
    _check_cone(rec.lam, k)
    sig = symfunc.sigma_all(rec.lam)
    den = sig[:, k - 1]
    F = sig[:, k] / den
    for l in range(k - 1):
        if t != 0.0:
            F = F - t * spec.alpha(l, u.values) * sig[:, l] / den
    F = F - alpha_k1_homotopy(u.values, t, spec)
    return u.with_values(F)


def jacobian(u: GridFunction, t, spec: ProblemSpec):
    """Sparse Jacobian of the residual, by the chain rule through the
    eigenvalue map of the pencil (h, gtilde).

    For a symmetric pencil with gtilde-orthonormal eigenvectors v_a, the
    first-order change of the operator value is
        dF = Tr(M1 dh) - Tr(M2 dgtilde) + (dF/du) du,
    M1 = sum_a G^a v_a v_a^T, M2 = sum_a G^a lam_a v_a v_a^T, both well
    defined across eigenvalue crossings.
    """
    grid, w, k = spec.grid, spec.warping, spec.k
    rec = geometry.fundamental_forms(u, w)
    _check_cone(rec.lam, k)
    lam, V = geometry.pencil_eigensystem(rec.gtilde, rec.h)
    quot, dquot = symfunc.quotient_and_grads(lam, k)
    Glam = dquot[:, k, :].copy()
    Fu = np.zeros(grid.num_nodes)
    for l in range(k - 1):
        if t != 0.0:
            al = spec.alpha(l, u.values)
            Glam -= t * al[:, None] * dquot[:, l, :]
            Fu -= t * spec.alpha_du(l, u.values) * quot[:, l]
    Fu -= _alpha_k1_homotopy_du(u.values, t, spec)

    f, fp, fpp = warp_eval(w, u.values)
    du, d2u = grid.gradient_hessian(u.values)
    v = rec.v
    g = grid.g
    uu = du[:, :, None] * du[:, None, :]
    w_contra = np.einsum("nij,nj->ni", grid.ginv, du)

    M1 = np.einsum("nia,na,nja->nij", V, Glam, V)
    M2 = np.einsum("nia,na,nja->nij", V, Glam * lam, V)

    K0 = (-fp[:, None, None] * d2u + 2.0 * fpp[:, None, None] * uu
          + (2.0 * f * fp ** 2 + f ** 2 * fpp)[:, None, None] * g)
    tr_M1h = np.einsum("nij,nij->n", M1, rec.h)
    c0 = (np.einsum("nij,nij->n", M1, K0) / v
          - tr_M1h * f * fp / v ** 2
          - 2.0 * f * fp * np.einsum("nij,nij->n", M2, g)
          + Fu)
    c1 = (4.0 * fp[:, None] * np.einsum("nij,nj->ni", M1, du) / v[:, None]
          - tr_M1h[:, None] * w_contra / v[:, None] ** 2
          - 2.0 * np.einsum("nij,nj->ni", M2, du))
    c2 = -f[:, None, None] * M1 / v[:, None, None]

    J = sp.diags(c0)
    for j, D in enumerate(grid.diff_ops):
        J = J + sp.diags(c1[:, j]) @ D
    for (i, j), H in grid.hess_ops.items():
        wgt = c2[:, i, j] if i == j else 2.0 * c2[:, i, j]
        J = J + sp.diags(wgt) @ H
    return J.tocsr()


# ---------------------------------------------------------------------------
# Hypothesis checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    worst_margin: float
    offender: tuple | None  # (u, node, l) where applicable
    checked_range: tuple | None = None


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


def _leaf_check(name, spec: ProblemSpec, us, sign):
    """Leaf inequality sign * (LHS - RHS) >= 0 on the (u-sample x node)
    lattice, LHS = sigma_k(e) kappa^k, RHS = sum_l alpha_l sigma_l(e) kappa^l,
    kappa = f'/f."""
    n, k = spec.n, spec.k
    f, fp, _ = warp_eval(spec.warping, us)
    kappa = (fp / f)[:, None]
    rhs = 0.0
    for l in range(k):
        rhs = rhs + spec.alpha(l, us[:, None]) * comb(n, l) * kappa ** l
    margins = sign * (comb(n, k) * kappa ** k - rhs)
    i, x = np.unravel_index(np.argmin(margins), margins.shape)
    return HypothesisCheck(
        name, bool(margins[i, x] >= 0.0), float(margins[i, x]),
        (float(us[i]), int(x), None), (float(us[0]), float(us[-1])))


def _lattice_min(us, lattices):
    """Smallest entry of per-order (u-sample x node) lattices, made one order
    at a time, and the first (u, node, l) where it occurs."""
    worst, offender = np.inf, None
    for l, a in enumerate(lattices):
        i, x = np.unravel_index(np.argmin(a), a.shape)
        if a[i, x] < worst:
            worst, offender = float(a[i, x]), (float(us[i]), int(x), l)
    return worst, offender


def check_hypotheses(spec: ProblemSpec) -> HypothesisReport:
    """Sampled verification of the structural hypotheses: the two leaf-side
    inequalities, monotonicity of f^{k-l} alpha_l, the phi conditions, and
    uniform positivity of the coefficients.  Each coefficient is evaluated
    on a (u-sample x node) lattice, one order at a time."""
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

    def beta(l, uv):
        fv, _, _ = warp_eval(w, uv[:, None])
        return fv ** (spec.k - l) * spec.alpha(l, uv[:, None])

    def slope(l):
        # both sides of the difference from one (2m x N) lattice
        b = beta(l, np.concatenate([us - h, us + h]))
        return -(b[m:] - b[:m]) / (2.0 * h)

    margin, offender = _lattice_min(us, (slope(l) for l in orders))
    tol = 1e-9 * max(1.0, max(float(np.max(np.abs(beta(l, us)))) for l in orders))
    # within the tolerance the worst point is rounding noise: name no offender
    passed = bool(margin >= -tol)
    checks["as-3"] = HypothesisCheck(
        "as-3", passed, margin, None if passed else offender,
        (float(us[0]), float(us[-1])))

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
    checks["phi"] = HypothesisCheck("phi", phi_margin > 0.0, phi_margin, None,
                                    (float(lo_phi), float(hi_phi)))

    # uniform positivity alpha_l >= c_l > 0 on [r1, r2] x M
    us = np.linspace(spec.r1, spec.r2, m)
    worst, offender = _lattice_min(us, (spec.alpha(l, us[:, None]) for l in orders))
    checks["positivity"] = HypothesisCheck(
        "positivity", bool(worst > 0.0), worst, offender,
        (float(spec.r1), float(spec.r2)))

    return HypothesisReport(checks=checks)
