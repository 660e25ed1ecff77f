import ast
import importlib.util
import json
import logging
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
import scipy

import warpcurve
from warpcurve import cli, problem, solver
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
    assert once["continuation"]["dt_init"] == 1.0
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


def test_fine_grid_config_on_the_4_torus_builds():
    # a 4-axis resolution passes the schema (no cap on the axes) and builds
    path = Path(__file__).resolve().parents[1] / "configs" / "torus4-16-k3.json"
    spec = cli.build_spec(cli.normalize_config(json.loads(path.read_text())))
    assert spec.grid.shape == (16,) * 4 and spec.n == 4 and spec.k == 3


def sweep_points(monkeypatch):
    """{label: config} of configs/sweep.py's points."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script sets them on import
    path = Path(__file__).resolve().parents[1] / "configs" / "sweep.py"
    module_spec = importlib.util.spec_from_file_location("sweep", path)
    sweep = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(sweep)
    return dict(sweep.points())


def test_sweep_points_span_the_hypothesis_envelope(monkeypatch):
    # configs/sweep.py: 40 distinct valid points, 13 of them inside the
    # hypotheses; solving them is left to the script
    points = list(sweep_points(monkeypatch).items())
    labels, cfgs = zip(*points)
    assert len(set(labels)) == len(labels) == 40
    inside = [problem.check_hypotheses(cli.build_spec(cli.normalize_config(cfg))).passed
              for cfg in cfgs]
    assert sum(inside) == 13


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
    ({"type": "sphere2", "resolution": [8, 16, 16]}, "resolution"),
    ({"type": "sphere2", "resolution": [8, 16], "periods": [6.0, 6.0]}, "periods")],
    ids=["torus-short-periods", "torus-long-periods", "sphere-3-axes", "sphere-periods"])
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


def test_forced_continuation_failure_archives_the_configured_grid(tmp_path, monkeypatch, capsys):
    # the sweep's torus 32^2 eps 0.5 freq 1 point fails on its 16^2 path; the
    # archived last state is prolonged onto 32^2, so export reads it
    cfg = sweep_points(monkeypatch)["torus 32x32 eps 0.5 freq 1"]
    path, out = write_config(tmp_path, cfg), tmp_path / "failed"
    assert cli.main(["solve", str(path), "--out", str(out), "--force"]) == 2
    assert "continuation failed" in capsys.readouterr().err
    meta, values = cli.read_archive(out)
    assert meta["status"] == "continuation-failure" and 0.0 < meta["t_final"] < 1.0
    assert values.size == 32 * 32
    steps = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
    assert {tuple(rec["grid"]) for rec in steps} == {(16, 16)}
    assert cli.main(["export", str(out), "--format", "csv"]) == 0


def test_hypotheses_are_checked_once_per_solve(tmp_path, monkeypatch, capsys):
    # continuation takes its spec as checked, and warpcurve solve checks it
    # exactly once, with or without --force
    calls = []
    check = problem.check_hypotheses
    monkeypatch.setattr(problem, "check_hypotheses",
                        lambda spec: calls.append(spec) or check(spec))
    cfg = base_config(manifold={"type": "flat_torus", "resolution": [32, 32]},
                      phi={"pivot": 1.45},
                      coefficients={"kind": "builtin",
                                    "terms": [{"amplitude": 3.0}, {"amplitude": 0.5}]})
    spec = cli.build_spec(cli.normalize_config(cfg))
    assert solver._coarse_spec(spec) is not None  # a laddered solve
    assert solver.continuation(spec).t == 1.0
    assert calls == []
    path = write_config(tmp_path, cfg)
    for flags in ([], ["--force"]):
        assert cli.main(["solve", str(path), "--out", str(tmp_path / "out"), *flags]) == 0
    assert len(calls) == 2
    files = write_constant_tables(tmp_path, 4 * 4, (6.0, 1.0))
    rejected = base_config(r1=0.2, r2=0.35, phi={"pivot": 0.28},
                           manifold={"type": "flat_torus", "resolution": [4, 4]},
                           coefficients={"kind": "table", "files": files})
    path = write_config(tmp_path, rejected, "rejected.json")
    assert cli.main(["solve", str(path), "--out", str(tmp_path / "forced"), "--force"]) == 0
    assert len(calls) == 3


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
def test_archive_bytes_match_per_cell_formatting(tmp_path, manifold, table, monkeypatch):
    # more rows than one block of 64, and digits that need all 17; the
    # reference is the writer's former cell-by-cell formatting
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 64)
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


@pytest.mark.parametrize("rows", [0, 1, 700])
def test_write_rows_matches_per_cell_formatting(tmp_path, rows, monkeypatch):
    # 700 rows span eleven blocks of 64; a column holding both 0.0 and -0.0 ("0"
    # and "-0", which values compared by == would merge), a constant
    # column, a %d column stored as floats, and values that need all 17
    # digits, the extremes, nan and the infinities
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 64)
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0]
    zeros = rng.choice([0.0, -0.0, 1.0], rows)
    mixed = np.where(rng.uniform(size=rows) < 0.3, rng.choice(specials, rows),
                     rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows))
    table = np.column_stack([zeros, np.full(rows, 1.3169578969248166),
                             rng.integers(-10 ** 6, 10 ** 6, rows).astype(float), mixed])
    fmt = cli.FLOAT_FMT
    for template, tab in ((f"{fmt},{fmt},%d,{fmt}\n", table),
                          ("f %d %d\n", rng.integers(1, 5, (rows, 2)))):
        with open(tmp_path / "rows.txt", "w") as fh:
            cli._write_rows(fh, template, tab)
        want = "".join(template % tuple(row) for row in tab.tolist())
        assert (tmp_path / "rows.txt").read_bytes() == want.encode()
    with pytest.raises(ValueError, match="one %-conversion per column"):
        cli._write_rows(None, f"{fmt},{fmt}\n", table)


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


def test_read_archive_matches_per_line_float(tmp_path):
    # the u column read back equals float() of each cell, bit for bit
    rng = np.random.default_rng(5)
    u = np.concatenate([[0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.finfo(float).max,
                         -np.finfo(float).max, 1.3, np.nan],
                        rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)])
    rows = [f"{i},{-0.5 * i!r},{cli.FLOAT_FMT % x}" for i, x in enumerate(u)]
    (tmp_path / "solution.csv").write_text("\n".join(["x1,x2,u", *rows]) + "\n")
    (tmp_path / "metadata.json").write_text("{}")
    meta, values = cli.read_archive(tmp_path)
    expected = np.array([float(row.split(",")[2]) for row in rows])
    assert meta == {} and values.dtype == float
    assert np.array_equal(values.view(np.int64), expected.view(np.int64))
    (tmp_path / "solution.csv").write_text("u\n1.5\n")
    assert np.array_equal(cli.read_archive(tmp_path)[1], [1.5])


@pytest.mark.parametrize("damage", ["too-few-rows", "nan", "outside-domain", "non-numeric"])
def test_export_damaged_archive_is_an_error_not_a_traceback(sphere_archive, tmp_path, capsys,
                                                            damage):
    archive = tmp_path / "archive"
    shutil.copytree(sphere_archive, archive)
    csv_path = archive / "solution.csv"
    header, *rows = csv_path.read_text().splitlines()
    if damage == "too-few-rows":
        rows.pop()
    else:  # one u cell: hyperbolic warping needs u > 0
        cells = rows[3].split(",")
        cells[header.split(",").index("u")] = {"nan": "nan", "outside-domain": "-1.0",
                                               "non-numeric": "1.3x"}[damage]
        rows[3] = ",".join(cells)
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()
    assert cli.main(["export", str(archive), "--format", "csv",
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read archive: ")


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
