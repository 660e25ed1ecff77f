"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with its measured margin so the whole
contract can be audited from the test log.
"""
import json
import time

import numpy as np
import pytest

from warpcurve import cli, geometry, oracle, problem, solver, symfunc
from warpcurve.geometry import (FlatTorus, GridFunction, Sphere2,
                                WarpingFunction, fundamental_forms, warp_eval)
from warpcurve.problem import (CoefficientFamily, CoefficientTerm, PhiFunction,
                               ProblemSpec, check_hypotheses, jacobian,
                               residual)


def report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {name} failed: {detail}"


def torus2d_spec(resolution, eps=(0.0, 0.0), profiles=(None, None),
                 pivot=1.45, **kwargs):
    grid = FlatTorus(resolution)
    coeffs = CoefficientFamily(
        [CoefficientTerm(3.0, eps[0], profiles[0]),
         CoefficientTerm(0.5, eps[1], profiles[1])], 2)
    return ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(pivot),
                       r1=1.0, r2=1.6, **kwargs)


def random_configs(count, seed=20240817):
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        profiles = []
        eps = []
        for _ in range(2):
            profiles.append({"kind": rng.choice(["cos", "sin"]).item(),
                             "axis": int(rng.integers(0, 2)),
                             "freq": float(rng.integers(1, 3)),
                             "phase": float(rng.uniform(0, 2 * np.pi))})
            eps.append(float(rng.uniform(0.0, 0.05)))
        spec = torus2d_spec((12, 12), eps=tuple(eps), profiles=tuple(profiles),
                            pivot=float(rng.uniform(1.35, 1.5)))
        if check_hypotheses(spec).passed:
            specs.append(spec)
    return specs


@pytest.fixture(scope="module")
def converged_solutions():
    out = []
    for spec in random_configs(10):
        state = solver.continuation(spec)
        out.append((spec, state))
    return out


def test_criterion_01_sigma_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        lam = rng.standard_normal(n) * 3.0
        for k in range(n + 1):
            a = symfunc.elem_sym(lam, k)
            b = oracle.brute_sigma(lam, k)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    elapsed = time.monotonic() - t0
    report("01 sigma-oracle", worst <= 1e-12 and elapsed < 10.0,
           f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_leaf_identity():
    grids = [FlatTorus((16, 16, 16)), Sphere2(64, 128)]
    warps = [WarpingFunction("hyperbolic", 1.0),
             WarpingFunction("euclidean"),
             WarpingFunction("sphere", 1.0)]
    worst = 0.0
    for grid in grids:
        for w in warps:
            for c in (0.3, 0.6, 0.9, 1.2, 1.5):
                f, fp, _ = warp_eval(w, c)
                rec = fundamental_forms(GridFunction.constant(c, grid), w)
                worst = max(worst, float(np.abs(rec.lam - fp / f).max()))
    report("02 leaf-identity", worst <= 1e-12, f"worst |lam - f'/f| {worst:.2e}")


def test_criterion_03_homotopy_start():
    grid = FlatTorus((8, 8, 8))
    coeffs = CoefficientFamily([CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.3),
                       r1=1.0, r2=1.6)
    u0, _, _ = solver.initial_solution(spec)
    res0 = float(np.abs(residual(u0, 0.0, spec).values).max())
    u_pert = u0.with_values(u0.values + 0.05 * np.sin(grid.coords[:, 0]))
    u_back, _, _ = solver.newton_solve(u_pert, 0.0, spec)
    drift = float(np.abs(u_back.values - u0.values).max())
    report("03 homotopy-start", res0 <= 1e-12 and drift <= 1e-8,
           f"|F(u0,0)| {res0:.2e}, return drift {drift:.2e}")


def test_criterion_04_radial_end_to_end():
    grid = FlatTorus((16, 16, 16))
    coeffs = CoefficientFamily([CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)
    spec = ProblemSpec(grid=grid, warping=WarpingFunction("hyperbolic", 1.0),
                       k=2, coeffs=coeffs, phi=PhiFunction(1.3),
                       r1=1.0, r2=1.6)
    target = oracle.radial_root(
        oracle.RadialProblem(spec.warping, 3, 2, (6.0, 1.0), 1.0, 1.6))
    assert abs(target - np.arccosh(2.0)) <= 1e-10
    t0 = time.monotonic()
    state = solver.continuation(spec)
    elapsed = time.monotonic() - t0
    err = float(np.abs(state.u.values - target).max())
    report("04 radial-end-to-end", err <= 1e-6 and elapsed < 60.0,
           f"|u - arccosh 2| {err:.2e}, {elapsed:.1f}s")


def test_criterion_05_c0_box(converged_solutions):
    worst_box = 0.0
    worst_res = 0.0
    for spec, state in converged_solutions:
        u = state.u.values
        worst_box = max(worst_box, spec.r1 - u.min(), u.max() - spec.r2)
        worst_res = max(worst_res, float(
            np.abs(residual(state.u, 1.0, spec).values).max()))
    report("05 c0-box", worst_box <= 1e-6 and worst_res <= 1e-8,
           f"worst box excess {worst_box:.2e}, worst residual {worst_res:.2e}")


def test_criterion_06_admissibility_margins(converged_solutions):
    worst_cone = np.inf
    worst_nm = np.inf
    for spec, state in converged_solutions:
        rec = fundamental_forms(state.u, spec.warping)
        sig = symfunc.sigma_all(rec.lam)
        k = spec.k
        worst_cone = min(worst_cone, float(sig[:, 1:k].min()))
        in_gk = sig[:, 1:k + 1].min(axis=1) > 0.0
        if np.any(in_gk):
            m1, m2 = symfunc.newton_maclaurin_margins(
                rec.lam[in_gk], k, k - 1, 1, 0)
            worst_nm = min(worst_nm, float(m1.min()), float(m2.min()))
    report("06 admissibility", worst_cone > 0.0 and worst_nm >= -1e-10,
           f"worst cone margin {worst_cone:.2e}, worst NM margin {worst_nm:.2e}")


def test_criterion_07_jacobian_fidelity():
    # the radial k = 2 and a perturbed k = 3 torus on T^3, and a perturbed
    # Sphere2(12, 24) whose u crosses the poles
    misses = cli._jacobian_fd_misses(np.random.default_rng(2), 20)
    ok = all(m["fd"] <= 1e-6 and m["analytic"] <= 1e-6 for m in misses.values())
    report("07 jacobian-fidelity", ok, "; ".join(
        f"{name}: colored-FD {m['fd']:.2e}, analytic {m['analytic']:.2e}"
        for name, m in misses.items()))


def test_criterion_08_ellipticity_along_path():
    # per-node operator gradients at every accepted state of a stepped path
    spec = torus2d_spec((10, 10), eps=(0.05, 0.05),
                        profiles=({"kind": "cos", "axis": 0},
                                  {"kind": "sin", "axis": 1}))
    u, _, _ = solver.initial_solution(spec)
    min_grad = np.inf
    for t in np.linspace(0.0, 1.0, 11):
        u, _, _ = solver.newton_solve(u, float(t), spec)
        rec = fundamental_forms(u, spec.warping)
        _, dquot = symfunc.quotient_and_grads(rec.lam, spec.k)
        glam = dquot[:, spec.k, :].copy()
        for l in range(spec.k - 1):
            glam -= t * spec.coeffs.values(l, u.values)[:, None] * dquot[:, l, :]
        min_grad = min(min_grad, float(glam.min()))

    # pure-quotient gradient sum bound on random admissible samples
    rng = np.random.default_rng(3)
    worst_sum = np.inf
    found = 0
    while found < 1000:
        n = int(rng.integers(3, 6))
        k = int(rng.integers(2, n + 1))
        lam = rng.normal(1.0, 1.5, size=n)
        if symfunc.cone_margins(lam, k - 1) <= 0:
            continue
        found += 1
        _, dquot = symfunc.quotient_and_grads(lam, k)
        worst_sum = min(worst_sum,
                        float(dquot[k, :].sum() - (n - k + 1) / k))
    ok = min_grad > 0.0 and worst_sum >= -1e-10
    report("08 ellipticity", ok,
           f"min path gradient {min_grad:.2e}, "
           f"worst quotient-sum slack {worst_sum:.2e}")


def test_criterion_09_convergence_order():
    spec_args = dict(eps=(0.05, 0.05),
                     profiles=({"kind": "cos", "axis": 0},
                               {"kind": "sin", "axis": 1}))
    fields = {}
    grids = {}
    for N in (8, 16, 32):
        spec = torus2d_spec((N, N), **spec_args)
        state = solver.continuation(spec)
        fields[N] = state.u.values
        grids[N] = spec.grid
    e_coarse = np.abs(fields[8] - grids[8].inject_from(fields[16], grids[16])).max()
    e_fine = np.abs(fields[16] - grids[16].inject_from(fields[32], grids[32])).max()
    order = float(np.log2(e_coarse / e_fine))
    report("09 convergence-order", 1.8 <= order <= 2.2,
           f"observed order {order:.3f} (errors {e_coarse:.2e}, {e_fine:.2e})")


def test_criterion_10_determinism(tmp_path):
    # the 8x8 torus and an 8x16 sphere, whose n = 2 curvatures both take the
    # closed-form eigensystem (atan2, cos, sin)
    base = {
        "warping": {"kind": "hyperbolic", "param": 1.0},
        "k": 2, "r1": 1.0, "r2": 1.6,
        "phi": {"pivot": 1.45},
    }
    cfgs = {
        "torus-8x8": {**base,
                      "manifold": {"type": "flat_torus", "resolution": [8, 8]},
                      "coefficients": {"kind": "builtin", "terms": [
                          {"amplitude": 3.0, "epsilon": 0.04,
                           "profile": {"kind": "cos", "axis": 0}},
                          {"amplitude": 0.5, "epsilon": 0.02,
                           "profile": {"kind": "sin", "axis": 1}}]}},
        "sphere-8x16": {**base,
                        "manifold": {"type": "sphere2", "resolution": [8, 16]},
                        "coefficients": {"kind": "builtin", "terms": [
                            {"amplitude": 3.0, "epsilon": 0.04,
                             "profile": {"kind": "sphere_z"}},
                            {"amplitude": 0.5, "epsilon": 0.02,
                             "profile": {"kind": "sphere_x"}}]}},
    }
    same = {}
    for name, cfg in cfgs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            code = cli.main(["solve", str(path), "--out", str(out)])
            assert code == 0
            blobs.append((out / "solution.csv").read_bytes())
        same[name] = blobs[0] == blobs[1]
    report("10 determinism", all(same.values()),
           f"solution CSVs byte-identical: {same}")
