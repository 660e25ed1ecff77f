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


def _block_sum(stack, weights):
    """sum_o diags(weights[o]) @ (row block o of stack) as CSR: one product
    of the row [diags(weights[0]) .. diags(weights[-1])] with the stack."""
    N = stack.shape[1]
    data = np.concatenate([np.broadcast_to(np.asarray(w, dtype=float), N) for w in weights])
    return (sp.csc_matrix((data, np.tile(np.arange(N), len(weights)), np.arange(data.size + 1)),
                          shape=(N, data.size)) @ stack).tocsr()


def operator_matrix(grid: BaseGrid, weights):
    """sum_o diags(weights[o]) @ op_o over the operators of grid.stack."""
    return _block_sum(grid.stack, weights)


def jacobian_matrix(u: GridFunction, t, spec: ProblemSpec):
    """The Jacobian the solver applies from its weights, as CSR."""
    return operator_matrix(spec.grid, jacobian(u, t, spec))


def stencil_pattern(grid: BaseGrid):
    """Every Jacobian's sparsity, the union of its operators', as CSR of ones."""
    pattern = _block_sum(abs(grid.stack), np.ones(grid.stack.shape[0] // grid.num_nodes))
    pattern.data[:] = 1.0  # no entry cancels: every term is positive
    return pattern


def _fd_coloring(grid: BaseGrid):
    """Distance-2 greedy coloring of the stencil pattern.

    Same-colored columns never share a residual row, so one perturbed
    evaluation recovers one Jacobian entry per affected row.  Returns the
    node colors and the pattern's entries as COO."""
    pat = stencil_pattern(grid)
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
    return colors, pat.tocoo()


def colored_fd_jacobian(u: GridFunction, t, spec: ProblemSpec):
    """Sparse Jacobian of the residual from colored central differences
    (Curtis, Powell & Reid): two residual evaluations per color of the
    stencil pattern.  The reference the analytic Jacobian is checked
    against entry by entry."""
    colors, pat = _fd_coloring(spec.grid)
    h = 1e-6 * (1.0 + np.max(np.abs(u.values)))
    values = np.empty(pat.nnz)
    for c in range(colors.max() + 1):
        e = (colors == c).astype(float)
        Fp = residual(u.with_values(u.values + h * e), t, spec).values
        Fm = residual(u.with_values(u.values - h * e), t, spec).values
        own = colors[pat.col] == c  # the entries in this color's columns
        values[own] = ((Fp - Fm) / (2.0 * h))[pat.row[own]]
    return sp.csr_matrix((values, (pat.row, pat.col)), shape=pat.shape)
