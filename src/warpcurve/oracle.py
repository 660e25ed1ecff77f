"""Independent brute-force and closed-form references.

Nothing here touches solver internals: these are the cross-checks the rest
of the package is validated against.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, prod

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, HypothesisError
from .geometry import BaseGrid, GridFunction, WarpingFunction, warp_eval
from .problem import ProblemSpec, jacobian, residual


def brute_sigma(lam, k):
    """sigma_k by literal summation over all C(n, k) index subsets."""
    lam = [float(x) for x in np.asarray(lam).ravel()]
    n = len(lam)
    if n > 12:
        raise DomainError("brute-force sigma_k limited to n <= 12")
    if not 0 <= k <= n:
        raise DomainError(f"order k={k} outside 0..{n}")
    return sum(prod(lam[i] for i in subset) for subset in combinations(range(n), k))


@dataclass(frozen=True)
class RadialProblem:
    """Constant-height reduction: u-only coefficients alpha_l = a_l f^{-(k-l)}
    turn the curvature equation into a scalar root problem in u."""

    warping: WarpingFunction
    n: int
    k: int
    amplitudes: tuple  # a_0 .. a_{k-1}
    r1: float
    r2: float

    def scalar_equation(self, u):
        """Phi(u) = sigma_k(e) kappa^k - sum_l a_l f^{-(k-l)} sigma_l(e) kappa^l."""
        f, fp, _ = warp_eval(self.warping, u)
        kappa = fp / f
        val = comb(self.n, self.k) * kappa ** self.k
        for l, a in enumerate(self.amplitudes):
            val -= a * f ** (-(self.k - l)) * comb(self.n, l) * kappa ** l
        return val


def radial_root(p: RadialProblem, tol=1e-12, max_iter=100):
    """Bisection root of the constant-leaf equation inside (r1, r2)."""
    lo, hi = p.r1, p.r2
    flo, fhi = p.scalar_equation(lo), p.scalar_equation(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise HypothesisError(
            f"no sign change of the radial equation on [{lo}, {hi}] "
            f"(Phi(r1)={flo:.3e}, Phi(r2)={fhi:.3e})")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = p.scalar_equation(mid)
        if abs(fmid) <= tol:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise DomainError(f"bisection stalled; last |Phi| = {abs(fmid):.3e}")


def fd_directional(u: GridFunction, direction: GridFunction, t, spec: ProblemSpec):
    """Directional derivative of the residual along 'direction', the
    reference the Jacobian paths are compared against: (4 D(h/2) - D(h)) / 3
    cancels the O(h^2) error of a central difference D(h), large in the
    sphere's pole rows."""
    d = direction.values
    dnorm = float(np.abs(d).max())
    if dnorm == 0.0:
        return u.with_values(np.zeros_like(u.values))
    h = 1e-5 * max(float(np.abs(u.values).max()), 1.0) / dnorm

    def central(step):
        return (residual(u.with_values(u.values + step * d), t, spec).values
                - residual(u.with_values(u.values - step * d), t, spec).values) / (2.0 * step)

    def attempt(step):
        return (4.0 * central(0.5 * step) - central(step)) / 3.0

    try:
        out = attempt(h)
    except Exception:
        out = attempt(0.1 * h)  # shrink once, then let any failure surface
    return u.with_values(out)


def operator_matrix(grid: BaseGrid, weights):
    """sum_o diags(weights[o]) @ grid.operators[o], assembled as CSR."""
    return sum(sp.diags(w) @ op for w, op in zip(weights, grid.operators)).tocsr()


def jacobian_matrix(u: GridFunction, t, spec: ProblemSpec):
    """The Jacobian the solver applies operator by operator, as CSR."""
    return operator_matrix(spec.grid, jacobian(u, t, spec))


def stencil_pattern(grid: BaseGrid):
    """Every Jacobian's sparsity, the union of its operators', as CSR of ones."""
    pattern = sum(abs(op) for op in grid.operators).tocsr()  # no entry cancels
    pattern.data[:] = 1.0
    return pattern


def _fd_coloring(grid: BaseGrid):
    """Distance-2 greedy coloring of the stencil pattern.

    Same-colored columns never share a residual row, so one perturbed
    evaluation recovers one Jacobian entry per affected row.  Returns the
    node colors and, per color, the (rows, cols) pattern entries it owns."""
    pat = stencil_pattern(grid).tocsc()
    conflict = (pat.T @ pat).tocsr()
    N = grid.num_nodes
    colors = np.full(N, -1, dtype=int)
    for q in range(N):
        nbr = conflict.indices[conflict.indptr[q]:conflict.indptr[q + 1]]
        used = set(colors[nbr[nbr < q]].tolist())
        c = 0
        while c in used:
            c += 1
        colors[q] = c
    groups = []
    for c in range(colors.max() + 1):
        rows, cols = [], []
        for q in np.flatnonzero(colors == c):
            rr = pat.indices[pat.indptr[q]:pat.indptr[q + 1]]
            rows.append(rr)
            cols.append(np.full(rr.size, q))
        groups.append((np.concatenate(rows), np.concatenate(cols)))
    return colors, groups


def colored_fd_jacobian(u: GridFunction, t, spec: ProblemSpec):
    """Sparse Jacobian of the residual from colored central differences
    (Curtis, Powell & Reid): two residual evaluations per color of the
    stencil pattern.  The reference the analytic Jacobian is checked
    against entry by entry."""
    colors, groups = _fd_coloring(spec.grid)
    N = spec.grid.num_nodes
    h = 1e-6 * (1.0 + np.max(np.abs(u.values)))
    rows_all, cols_all, vals_all = [], [], []
    for c, (rows, cols) in enumerate(groups):
        e = (colors == c).astype(float)
        Fp = residual(u.with_values(u.values + h * e), t, spec).values
        Fm = residual(u.with_values(u.values - h * e), t, spec).values
        d = (Fp - Fm) / (2.0 * h)
        rows_all.append(rows)
        cols_all.append(cols)
        vals_all.append(d[rows])
    return sp.csr_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(N, N))
