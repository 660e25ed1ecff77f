"""Elementary symmetric polynomials, admissibility cones, and the curvature
quotient operator with its eigenvalue gradients.

All evaluators accept batched input: the eigenvalue axis is always the last
axis, leading axes (if any) index nodes or samples.  Conventions sigma_0 = 1
and sigma_{-1} = 0 are fixed globally.
"""
from __future__ import annotations

import functools
from math import comb

import numpy as np

from .errors import ConeExitError, DomainError


def sigma_all(lam):
    """All values sigma_0(lam) .. sigma_n(lam), stacked along the last axis.

    Uses the one-variable-at-a-time recurrence
    sigma_j^(m) = sigma_j^(m-1) + lam_m * sigma_{j-1}^(m-1),
    which is O(n^2) and avoids the cancellation of divided-out forms.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.zeros(lam.shape[:-1] + (n + 1,))
    out[..., 0] = 1.0
    for m in range(n):
        x = lam[..., m, None]
        out[..., 1:m + 2] = out[..., 1:m + 2] + x * out[..., 0:m + 1]
    return out


def elem_sym(lam, k):
    """sigma_k(lam).  k = 0 returns 1 (empty product)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 0 <= k <= n:
        raise DomainError(f"elem_sym order k={k} outside 0..{n}")
    return sigma_all(lam)[..., k]


def sigma_margins(sig, k):
    """Minimum of sigma_1..sigma_k over the last axis of a sigma_all table,
    nan where one of them is, as a new array (never a view of sig).  Taken
    column by column: numpy's min over a short strided last axis takes up
    to 40 times as long."""
    return functools.reduce(np.minimum, (sig[..., j] for j in range(1, k + 1)), np.inf)


def cone_margins(lam, k):
    """Minimum of sigma_1..sigma_k, batched.  Positive iff lam in Gamma_k."""
    return sigma_margins(sigma_all(lam), k)


def newton_maclaurin_margins(lam, k, l, r, s):
    """Slack of both Newton-Maclaurin inequality forms at lam in Gamma_k.

    Returns (product_margin, quotient_margin), each RHS - LHS of

        k(n-l+1) sigma_{l-1} sigma_k <= l(n-k+1) sigma_l sigma_{k-1},
        [sigma_k/C(n,k) / (sigma_l/C(n,l))]^{1/(k-l)}
            <= [sigma_r/C(n,r) / (sigma_s/C(n,s))]^{1/(r-s)}.

    Nonnegative values certify the inequalities at lam.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not (0 <= l < k <= n and r > s >= 0 and k >= r and l >= s):
        raise DomainError(f"invalid Newton-Maclaurin indices (k={k}, l={l}, r={r}, s={s})")
    sig = sigma_all(lam)
    if np.any(sigma_margins(sig, k) <= 0.0):
        raise ConeExitError(f"newton_maclaurin_margins requires lam in Gamma_{k}", lam=np.atleast_2d(lam)[0])

    return _newton_maclaurin_from_sigma(sig, n, k, l, r, s)


def _newton_maclaurin_from_sigma(sig, n, k, l, r, s):
    """newton_maclaurin_margins from sigma_0 .. sigma_k (or more) of n
    eigenvalues in Gamma_k, indices unchecked."""
    sig_lm1 = sig[..., l - 1] if l >= 1 else np.zeros(sig.shape[:-1])
    lhs = k * (n - l + 1) * sig_lm1 * sig[..., k]
    rhs = l * (n - k + 1) * sig[..., l] * sig[..., k - 1]
    product_margin = rhs - lhs

    def norm_quot(a, b):
        qa = sig[..., a] / comb(n, a)
        qb = sig[..., b] / comb(n, b)
        return (qa / qb) ** (1.0 / (a - b))

    quotient_margin = norm_quot(r, s) - norm_quot(k, l)
    return product_margin, quotient_margin


def quotient_and_grads(lam, k):
    """sigma_l/sigma_{k-1} and their eigenvalue gradients, batched.

    Returns (quot, dquot): quot[..., l] = sigma_l/sigma_{k-1} and
    dquot[..., l, i] its derivative in lam_i, for l = 0..k.  Raises
    ConeExitError where sigma_{k-1} <= 0.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 2 <= k <= n:
        raise DomainError(f"quotient operator order k={k} outside 2..{n}")
    sig = sigma_all(lam)
    den = sig[..., k - 1]
    if np.any(den <= 0.0):
        bad = np.argwhere(np.atleast_1d(den) <= 0.0)
        node = int(bad[0][0]) if bad.size else None
        bad_lam = np.atleast_2d(lam)[node] if node is not None else lam
        raise ConeExitError(
            f"sigma_{k-1} <= 0: ellipticity lost", node=node, lam=bad_lam)
    # dsig[..., l, i] = d sigma_l / d lam_i = sigma_{l-1}(lam with entry i
    # removed): one recurrence per removed entry serves every order
    dsig = np.zeros(lam.shape[:-1] + (k + 1, n))
    for i in range(n):
        dsig[..., 1:, i] = sigma_all(np.delete(lam, i, axis=-1))[..., :k]
    den_e = den[..., None, None]
    quot = sig[..., :k + 1] / den[..., None]
    dquot = (dsig * den_e - sig[..., :k + 1, None] * dsig[..., k - 1, None, :]) / den_e ** 2
    return quot, dquot

