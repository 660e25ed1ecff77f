import ast
import importlib.util
import json
import logging
import os
from pathlib import Path

import numpy as np
import pytest
import scipy

import warpcurve
from warpcurve import cli, solver
from warpcurve.errors import WarpcurveError
from warpcurve.geometry import GridFunction, Sphere2, fundamental_forms


def base_config(**overrides):
    cfg = {
        "manifold": {"type": "flat_torus", "resolution": [6, 6, 6]},
        "warping": {"kind": "hyperbolic", "param": 1.0},
        "k": 2,
        "r1": 1.0,
        "r2": 1.6,
        "phi": {"pivot": 1.3},
        "coefficients": {"kind": "builtin",
                         "terms": [{"amplitude": 6.0}, {"amplitude": 1.0}]},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def test_normalize_config_idempotent():
    once = cli.normalize_config(base_config())
    twice = cli.normalize_config(once)
    assert once == twice
    assert once["continuation"]["dt_init"] == 0.1
    assert once["manifold"]["periods"] == [2 * np.pi] * 3
    assert once["coefficients"]["terms"][0]["epsilon"] == 0.0


def test_normalize_config_rejects_unknown_keys():
    import jsonschema
    # export was accepted and ignored; its key is now named as unexpected
    for key, value in (("tolerance", 1e-8), ("export", {"slices": True})):
        with pytest.raises(jsonschema.ValidationError, match=f"'{key}' was unexpected"):
            cli.normalize_config(base_config(**{key: value}))


def test_normalize_config_requires_k_terms():
    cfg = base_config()
    cfg["coefficients"]["terms"].pop()
    with pytest.raises(WarpcurveError):
        cli.normalize_config(cfg)


def test_jacobian_method_schema(tmp_path):
    # the key survives for old configs, but only the analytic Jacobian exists
    cfg = base_config(continuation={"jacobian_method": "analytic"})
    assert cli.build_spec(cli.normalize_config(cfg)).grid.shape == (6, 6, 6)
    cfg["continuation"]["jacobian_method"] = "fd"
    assert cli.main(["solve", str(write_config(tmp_path, cfg))]) == 1


def test_config_schema_is_valid():
    import jsonschema
    from jsonschema.validators import validator_for
    validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)
    # normalize_config raises the error jsonschema.validate would raise
    for cfg in (base_config(tolerance=1e-8), base_config(k=1),
                base_config(phi={"pivot": 1.3, "steepness": -1.0})):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
        with pytest.raises(jsonschema.ValidationError) as got:
            cli.normalize_config(cfg)
        assert str(got.value) == str(want.value)


def test_spans_layers_exist():
    # perfbench/spans.py times each (owner, attribute) by swapping it for a
    # wrapper; a missing one would break `perfbench/run.py --trace 1`
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    loader = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    for owner, attr, name, _ in spans.LAYERS:
        assert callable(getattr(owner, attr, None)), name


def test_no_module_imports_unittest():
    for path in Path(warpcurve.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "unittest" for n in names), path.name


def test_build_spec_roundtrip():
    cfg = cli.normalize_config(base_config())
    spec = cli.build_spec(cfg)
    assert spec.n == 3 and spec.k == 2
    assert spec.grid.shape == (6, 6, 6)
    assert spec.phi.pivot == 1.3


@pytest.mark.parametrize("name,shape", [("torus2-512", (512, 512)),
                                        ("sphere-256x512", (256, 512)),
                                        ("torus3-64-k2", (64, 64, 64))],
                         ids=["torus2-512", "sphere-256x512", "torus3-64-k2"])
def test_fine_grid_configs_build(name, shape):
    # the committed fine-grid configs stay valid; solving them is left to
    # configs/measure.py
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    spec = cli.build_spec(cli.normalize_config(json.loads(path.read_text())))
    assert spec.grid.shape == shape and spec.k == 2


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_radial_config(tmp_path, capsys):
    cfg = base_config()
    cfg["output_dir"] = str(tmp_path / "out")
    code = cli.main(["solve", str(write_config(tmp_path, cfg))])
    assert code == 0
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["status"] == "converged"
    diag = meta["diagnostics"]
    assert diag["u_max"] - diag["u_min"] <= 1e-6  # radial solution is constant
    assert abs(diag["u_max"] - np.arccosh(2.0)) <= 1e-6
    # archive is complete
    for fname in ("solution.csv", "metadata.json", "log.jsonl"):
        assert (tmp_path / "out" / fname).exists()
    # run totals are the sums over the step log
    steps = [json.loads(line) for line in (tmp_path / "out" / "log.jsonl").read_text().splitlines()]
    assert meta["totals"] == {key: sum(rec[key] for rec in steps)
                              for key in ("newton_iters", "linear_iters", "backtracks")}
    assert meta["totals"]["newton_iters"] > 0 and meta["totals"]["linear_iters"] > 0
    assert meta["libraries"] == {"numpy": np.__version__, "scipy": scipy.__version__}
    assert meta["blas_threads"] == {var: os.environ.get(var) for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    _, values = cli.read_archive(tmp_path / "out")
    assert values.size == 216


def test_solve_missing_config(tmp_path):
    assert cli.main(["solve", str(tmp_path / "nope.json")]) == 1


def test_solve_invalid_config(tmp_path):
    cfg = base_config(r2=0.5)  # r2 < r1
    assert cli.main(["solve", str(write_config(tmp_path, cfg))]) == 1


@pytest.mark.parametrize("manifold, key", [
    ({"type": "flat_torus", "resolution": [6, 6, 6], "periods": [6.0, 6.0]}, "periods"),
    ({"type": "flat_torus", "resolution": [6, 6], "periods": [6.0, 6.0, 6.0]}, "periods"),
    ({"type": "sphere2", "resolution": [8, 16, 16]}, "resolution")],
    ids=["torus-short-periods", "torus-long-periods", "sphere-3-axes"])
def test_solve_names_a_mismatched_manifold_key(tmp_path, capsys, manifold, key):
    # the schema accepts 2 or 3 entries for each; the grid names the misfit
    cfg = base_config(manifold=manifold)
    assert cli.main(["solve", str(write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "invalid configuration" not in err


def write_constant_tables(tmp_path, nodes, amps):
    # u-independent tabulated coefficients: with f increasing these always
    # violate the coefficient monotonicity hypothesis
    files = []
    for l, amp in enumerate(amps):
        lines = ["u,node,value"]
        for u in (0.05, 1.8):
            for node in range(nodes):
                lines.append(f"{u},{node},{amp}")
        fname = f"alpha{l}.csv"
        (tmp_path / fname).write_text("\n".join(lines) + "\n")
        files.append(fname)
    return files


def test_solve_hypothesis_rejection(tmp_path, capsys):
    files = write_constant_tables(tmp_path, 4 * 4, (6.0, 1.0))
    cfg = base_config()
    cfg["manifold"] = {"type": "flat_torus", "resolution": [4, 4]}
    cfg["coefficients"] = {"kind": "table", "files": files}
    code = cli.main(["solve", str(write_config(tmp_path, cfg))])
    assert code == 3
    assert "as-3" in capsys.readouterr().err


def test_solve_force_overrides_rejection(tmp_path, capsys):
    # constant coefficients are rejected, but the radial equation
    # kappa^2 = 6 + 2 kappa still has its constant root inside the annulus,
    # so --force can walk the path to it
    files = write_constant_tables(tmp_path, 4 * 4, (6.0, 1.0))
    cfg = base_config(r1=0.2, r2=0.35, phi={"pivot": 0.28})
    cfg["manifold"] = {"type": "flat_torus", "resolution": [4, 4]}
    cfg["coefficients"] = {"kind": "table", "files": files}
    path = write_config(tmp_path, cfg)
    out = tmp_path / "forced"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 3
    code = cli.main(["solve", str(path), "--out", str(out), "--force"])
    err = capsys.readouterr().err
    assert code == 0
    assert "--force" in err
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["status"] == "converged"
    # coth(u*) = 1 + sqrt(7)
    u_star = np.arctanh(1.0 / (1.0 + np.sqrt(7.0)))
    assert abs(meta["diagnostics"]["u_max"] - u_star) <= 1e-6


def test_solve_determinism(tmp_path):
    cfg = base_config()
    cfg["manifold"]["resolution"] = [6, 6]
    cfg["coefficients"]["terms"] = [
        {"amplitude": 3.0, "epsilon": 0.03, "profile": {"kind": "cos", "axis": 0}},
        {"amplitude": 0.5}]
    cfg["phi"] = {"pivot": 1.45}
    path = write_config(tmp_path, cfg)
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli.main(["solve", str(path), "--out", str(out)]) == 0
        outs.append((out / "solution.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("manifold,table", [
    ({"type": "flat_torus", "resolution": [8, 8, 5]}, False),
    ({"type": "sphere2", "resolution": [16, 32]}, False),
    ({"type": "flat_torus", "resolution": [17, 16]}, True)],
    ids=["torus3", "sphere2", "table"])
def test_archive_bytes_match_per_cell_formatting(tmp_path, manifold, table):
    # more rows than one conversion block, and digits that need all 17; the
    # reference is the writer's former cell-by-cell formatting
    rng = np.random.default_rng(3)
    cfg = base_config(manifold=manifold)
    if table:
        nodes = int(np.prod(manifold["resolution"]))
        us = (0.05, 0.7 + rng.uniform(), 1.8)
        for l in range(2):
            lines = ["u,node,value"] + [f"{u!r},{node},{rng.uniform(0.5, 6.0)!r}"
                                        for u in us for node in range(nodes)]
            (tmp_path / f"alpha{l}.csv").write_text("\n".join(lines) + "\n")
        cfg["coefficients"] = {"kind": "table", "files": ["alpha0.csv", "alpha1.csv"]}
    cfg = cli.normalize_config(cfg)
    spec = cli.build_spec(cfg, base_dir=tmp_path)
    u = GridFunction(1.3 + 0.01 * rng.standard_normal(spec.grid.num_nodes), spec.grid)
    state = solver.ContinuationState(1.0, u, solver.diagnostics(u, spec))
    out = tmp_path / "out"
    cli.write_archive(out, cfg, spec, state, "converged")

    fmt = cli.FLOAT_FMT
    want = ",".join(cli._coord_names(spec.grid) + ["u"]) + "\n"
    for row, val in zip(spec.grid.coords, u.values):
        want += ",".join([fmt % c for c in row] + [fmt % val]) + "\n"
    assert (out / "solution.csv").read_bytes() == want.encode()
    if table:
        for fname, tab in zip(cfg["coefficients"]["files"], spec.coeffs.tables):
            want = "u,node,value\n"
            for us_i, row in zip(spec.coeffs.u_samples, tab):
                for node, value in enumerate(row):
                    want += f"{fmt % us_i},{node},{fmt % value}\n"
            assert (out / fname).read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_all_checks_pass(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in cli.VERIFY_CHECKS:
        assert name in out
    assert "FAIL" not in out


def test_verify_filter(capsys):
    assert cli.main(["verify", "--filter", "newton-maclaurin"]) == 0
    out = capsys.readouterr().out
    assert "newton-maclaurin" in out and "ok" in out
    assert "sigma-brute" not in out


def test_verify_jacobian_fd_reports_each_case(capsys, caplog):
    # the analytic Jacobian misses by about 7e-11, far under the colored
    # FD's 3e-7 on the sphere, so it needs a line of its own to be seen
    with caplog.at_level(logging.DEBUG):
        assert cli.main(["verify", "--filter", "jacobian-fd"]) == 0
    out, err = capsys.readouterr()
    # nothing interrupts the table: no warning printed or logged (an n = 2
    # spec, such as the sphere case's, once logged one)
    assert err == "" and "warning" not in out.lower()
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    for name in cli._jacobian_fd_cases():
        line, = (s for s in out.splitlines() if s.strip().startswith(f"{name}:"))
        fd, analytic = (float(part.split()[-1]) for part in line.split(":")[1].split(","))
        assert fd <= 1e-6 and analytic <= 1e-9, line


def test_verify_unknown_filter(capsys):
    assert cli.main(["verify", "--filter", "bogus"]) == 1


def test_verify_failure_serialized(tmp_path, monkeypatch, capsys):
    # inject a failing check to exercise the replay serialization path
    monkeypatch.setitem(cli.VERIFY_CHECKS, "leaf-identity", lambda rng: (1.0, False))
    code = cli.main(["verify", "--filter", "leaf-identity", "--out", str(tmp_path)])
    assert code == 4
    failures = json.loads((tmp_path / "verify_failure.json").read_text())
    assert failures[0]["check"] == "leaf-identity"


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sphere_archive(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sphere")
    cfg = base_config()
    cfg["manifold"] = {"type": "sphere2", "resolution": [8, 16]}
    cfg["coefficients"]["terms"] = [{"amplitude": 3.0}, {"amplitude": 0.5}]
    cfg["phi"] = {"pivot": 1.45}
    path = write_config(tmp, cfg)
    out = tmp / "out"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 0
    return out


def test_export_sphere_csv(sphere_archive, tmp_path):
    assert cli.main(["export", str(sphere_archive), "--format", "csv",
                     "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "field_latlong.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == "theta,phi,u,lambda_max"
    assert len(csv_path.read_text().splitlines()) == 1 + 8 * 16


def test_export_sphere_mesh_constant_solution(sphere_archive, tmp_path):
    assert cli.main(["export", str(sphere_archive), "--format", "mesh",
                     "--out", str(tmp_path)]) == 0
    verts = []
    for line in (tmp_path / "surface.obj").read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(c) for c in line.split()[1:]])
    radii = np.linalg.norm(np.array(verts), axis=1)
    # radial config: the embedded surface is a round sphere
    assert radii.max() - radii.min() <= 1e-6


def test_export_torus_slices(tmp_path):
    cfg = base_config()
    cfg["manifold"]["resolution"] = [4, 4, 4]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 0
    assert cli.main(["export", str(out), "--format", "csv"]) == 0
    for axis in (1, 2, 3):
        sl = Path(out) / f"slice_axis{axis}.csv"
        assert sl.exists()
        assert len(sl.read_text().splitlines()) == 1 + 16


def test_export_mesh_requires_sphere(tmp_path):
    cfg = base_config()
    cfg["manifold"]["resolution"] = [4, 4, 4]
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.main(["solve", str(path), "--out", str(out)]) == 0
    assert cli.main(["export", str(out), "--format", "mesh"]) == 1


def test_export_unknown_format(sphere_archive):
    assert cli.main(["export", str(sphere_archive), "--format", "vtk"]) == 1


def test_export_table_archive(tmp_path, monkeypatch):
    # the archive carries its coefficient tables: export needs neither the
    # config directory nor the working directory
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    files = write_constant_tables(cfg_dir, 4 * 4, (6.0, 1.0))
    cfg = base_config(r1=0.2, r2=0.35, phi={"pivot": 0.28})
    cfg["manifold"] = {"type": "flat_torus", "resolution": [4, 4]}
    cfg["coefficients"] = {"kind": "table", "files": files}
    path = write_config(cfg_dir, cfg)
    out = tmp_path / "archive"
    assert cli.main(["solve", str(path), "--out", str(out), "--force"]) == 0
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert cli.main(["export", str(out), "--format", "csv",
                     "--out", str(tmp_path / "exp")]) == 0
    meta, _ = cli.read_archive(out)
    original = cli.build_spec(meta["config"], base_dir=cfg_dir).coeffs
    rebuilt = cli.build_spec(meta["config"], base_dir=out).coeffs
    assert np.array_equal(rebuilt.u_samples, original.u_samples)
    for a, b in zip(rebuilt.tables, original.tables):
        assert np.array_equal(a, b)


def test_export_is_self_describing(sphere_archive, tmp_path, monkeypatch):
    # export consults only the archive, never the original config file
    monkeypatch.chdir(tmp_path)
    assert cli.main(["export", str(sphere_archive), "--format", "csv",
                     "--out", str(tmp_path / "exp")]) == 0


@pytest.mark.parametrize("manifold", [
    {"type": "flat_torus", "resolution": [17, 16, 5]},
    {"type": "sphere2", "resolution": [16, 32]}], ids=["torus3", "sphere2"])
def test_export_bytes_match_per_cell_formatting(tmp_path, manifold):
    # a slice or table of more rows than one conversion block; the reference
    # is the export's former cell-by-cell formatting and per-face loop
    rng = np.random.default_rng(4)
    cfg = cli.normalize_config(base_config(manifold=manifold))
    spec = cli.build_spec(cfg)
    grid = spec.grid
    u = GridFunction(1.3 + 0.01 * rng.standard_normal(grid.num_nodes), grid)
    archive = tmp_path / "archive"
    cli.write_archive(archive, cfg, spec,
                      solver.ContinuationState(1.0, u, solver.diagnostics(u, spec)), "converged")
    out = tmp_path / "out"
    assert cli.main(["export", str(archive), "--format", "csv", "--out", str(out)]) == 0
    lam_max = fundamental_forms(u, spec.warping).lam[:, -1]
    fmt = cli.FLOAT_FMT

    def csv(header, rows):
        return "".join([",".join(header) + "\n"]
                       + [",".join(fmt % c for c in row) + "\n" for row in rows]).encode()

    if isinstance(grid, Sphere2):
        want = csv(["theta", "phi", "u", "lambda_max"],
                   np.column_stack([grid.coords, u.values, lam_max]))
        assert (out / "field_latlong.csv").read_bytes() == want
        assert cli.main(["export", str(archive), "--format", "mesh", "--out", str(out)]) == 0
        th, ph = grid.coords[:, 0], grid.coords[:, 1]
        xyz = np.column_stack([u.values * np.sin(th) * np.cos(ph),
                               u.values * np.sin(th) * np.sin(ph), u.values * np.cos(th)])
        want = "".join("v " + " ".join(fmt % c for c in vx) + "\n" for vx in xyz)
        nt, nphi = grid.shape
        for i in range(nt - 1):
            for j in range(nphi):
                jn = (j + 1) % nphi
                want += (f"f {i * nphi + j + 1} {i * nphi + jn + 1} "
                         f"{(i + 1) * nphi + jn + 1} {(i + 1) * nphi + j + 1}\n")
        assert (out / "surface.obj").read_bytes() == want.encode()
        return
    shape = grid.shape
    coords = grid.coords.reshape(shape + (grid.n,))
    for axis in range(grid.n):
        sl = tuple(shape[a] // 2 if a == axis else slice(None) for a in range(grid.n))
        keep = [i for i in range(grid.n) if i != axis]
        rows = np.column_stack([coords[sl][..., i].ravel() for i in keep]
                               + [u.values.reshape(shape)[sl].ravel(),
                                  lam_max.reshape(shape)[sl].ravel()])
        want = csv([f"x{i + 1}" for i in keep] + ["u", "lambda_max"], rows)
        assert (out / f"slice_axis{axis + 1}.csv").read_bytes() == want
