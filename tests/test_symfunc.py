import numpy as np
import pytest

from warpcurve import symfunc
from warpcurve.errors import ConeExitError, DomainError
from warpcurve.oracle import brute_sigma


def test_elem_sym_known_values():
    assert symfunc.elem_sym([1.0, 1.0, 1.0], 2) == 3.0
    assert symfunc.elem_sym([1.0, 2.0, 3.0], 2) == 11.0
    assert symfunc.elem_sym([1.0, 2.0, 3.0], 3) == 6.0


def test_elem_sym_empty_product_convention():
    rng = np.random.default_rng(0)
    for _ in range(5):
        lam = rng.standard_normal(4)
        assert symfunc.elem_sym(lam, 0) == 1.0


def test_elem_sym_order_out_of_range():
    with pytest.raises(DomainError):
        symfunc.elem_sym([1.0, 2.0], 3)
    with pytest.raises(DomainError):
        symfunc.elem_sym([1.0, 2.0], -1)


def test_elem_sym_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(3, 9))
        lam = rng.standard_normal(n) * 3.0
        for k in range(n + 1):
            a = symfunc.elem_sym(lam, k)
            b = brute_sigma(lam, k)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_elem_sym_batched():
    lam = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
    out = symfunc.elem_sym(lam, 2)
    assert out.shape == (2,)
    assert out[0] == 11.0 and out[1] == 3.0


def test_newton_maclaurin_frozen_values():
    m1, m2 = symfunc.newton_maclaurin_margins(np.array([1.0, 2.0, 3.0]), 2, 1, 1, 0)
    assert m1 == pytest.approx(6.0, abs=1e-12)
    assert m2 == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_newton_maclaurin_equality_at_equal_entries():
    m1, m2 = symfunc.newton_maclaurin_margins(np.ones(3), 2, 1, 1, 0)
    assert abs(m1) <= 1e-12 and abs(m2) <= 1e-12


def test_newton_maclaurin_random_cone_points():
    rng = np.random.default_rng(3)
    found = 0
    while found < 300:
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n + 1))
        lam = rng.normal(1.0, 1.0, size=n)
        if symfunc.cone_margins(lam, k) <= 0:
            continue
        found += 1
        m1, m2 = symfunc.newton_maclaurin_margins(lam, k, k - 1, 1, 0)
        assert m1 >= -1e-12 and m2 >= -1e-12
    # skewed positive tuple from the contract examples
    m1, m2 = symfunc.newton_maclaurin_margins(np.array([0.1, 0.1, 5.0]), 2, 1, 1, 0)
    assert m1 >= 0.0 and m2 >= 0.0


def test_newton_maclaurin_requires_cone():
    with pytest.raises(ConeExitError):
        symfunc.newton_maclaurin_margins(np.array([-1.0, -1.0, 5.0]), 2, 1, 1, 0)
    with pytest.raises(DomainError):
        symfunc.newton_maclaurin_margins(np.ones(3), 2, 2, 1, 0)


def test_quotient_grads_match_finite_differences():
    rng = np.random.default_rng(4)
    lam = np.array([0.5, 1.0, 2.0, 3.0])
    k = 3
    quot, dquot = symfunc.quotient_and_grads(lam, k)
    h = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        qp, _ = symfunc.quotient_and_grads(lam + e, k)
        qm, _ = symfunc.quotient_and_grads(lam - e, k)
        np.testing.assert_allclose(dquot[:, i], (qp - qm) / (2 * h), rtol=1e-6, atol=1e-8)
    del rng


def test_quotient_grads_cone_exit():
    with pytest.raises(ConeExitError):
        symfunc.quotient_and_grads(np.array([-3.0, 1.0, 1.0]), 2)


def test_quotient_midpoint_concavity():
    # sigma_k/sigma_{k-1} is concave on Gamma_{k-1}: midpoint value dominates
    # the chord midpoint whenever endpoints and midpoint are all admissible.
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, n + 1))
        a = rng.normal(1.0, 1.0, size=n)
        b = rng.normal(1.0, 1.0, size=n)
        mid = 0.5 * (a + b)
        if min(symfunc.cone_margins(a, k - 1), symfunc.cone_margins(b, k - 1),
               symfunc.cone_margins(mid, k - 1)) <= 0:
            continue
        checked += 1

        def quot(lam):
            sig = symfunc.sigma_all(lam)
            return sig[k] / sig[k - 1]

        assert quot(mid) >= 0.5 * (quot(a) + quot(b)) - 1e-10
