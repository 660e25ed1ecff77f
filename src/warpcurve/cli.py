"""Command line front end: configuration ingestion, run orchestration,
result archives, and plot-data export.

Exit codes: 0 success, 1 I/O or validation error, 2 continuation failure,
3 hypothesis rejection, 4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import MISSING, fields
from functools import cache
from math import acosh
from pathlib import Path

import numpy as np
import scipy

from . import __version__, geometry, oracle, problem, solver, symfunc
from .errors import ConfigError, ContinuationError, WarpcurveError
from .geometry import FlatTorus, GridFunction, Sphere2, WarpingFunction
from .problem import (CoefficientFamily, CoefficientTerm, PhiFunction,
                      ProblemSpec, TabulatedCoefficients,
                      load_coefficient_table)

FLOAT_FMT = "%.17g"  # bit-stable decimal round trip


# ---------------------------------------------------------------------------
# Configuration schema
# ---------------------------------------------------------------------------

# the continuation section sets exactly the ProblemSpec fields with defaults
_CONTINUATION_DEFAULTS = {f.name: f.default for f in fields(ProblemSpec)
                          if f.default is not MISSING}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["manifold", "warping", "k", "r1", "r2", "phi", "coefficients"],
    "properties": {
        "manifold": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type", "resolution"],
            "properties": {
                "type": {"enum": ["flat_torus", "sphere2"]},
                "resolution": {"type": "array", "items": {"type": "integer", "minimum": 4},
                               "minItems": 2},
                "periods": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                            "minItems": 2},
            },
        },
        "warping": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["sphere", "euclidean", "hyperbolic", "power", "table"]},
                "param": {"type": "number"},
                "t_min": {"type": "number"},
                "t_max": {"type": "number"},
                "table_t": {"type": "array", "items": {"type": "number"}},
                "table_f": {"type": "array", "items": {"type": "number"}},
            },
        },
        "k": {"type": "integer", "minimum": 2},
        "r1": {"type": "number"},
        "r2": {"type": "number"},
        "phi": {
            "type": "object",
            "additionalProperties": False,
            "required": ["pivot"],
            "properties": {
                "pivot": {"type": "number"},
                "steepness": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "coefficients": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["builtin", "table"]},
                "terms": {"type": "array", "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["amplitude"],
                    "properties": {
                        "amplitude": {"type": "number", "exclusiveMinimum": 0},
                        "epsilon": {"type": "number", "minimum": 0},
                        "profile": {"type": ["object", "null"]},
                    },
                }},
                "files": {"type": "array", "items": {"type": "string"}},
            },
        },
        "continuation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt_init": {"type": "number", "exclusiveMinimum": 0},
                "dt_min": {"type": "number", "exclusiveMinimum": 0},
                "dt_grow": {"type": "number", "exclusiveMinimum": 1},
                "newton_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_newton": {"type": "integer", "minimum": 1},
                "guard_frac": {"type": "number", "minimum": 0},
                # nothing reads it, since the solver has only the analytic
                # Jacobian; still accepted because existing configs, the
                # benchmark's sphere workload among them, set it
                "jacobian_method": {"enum": ["analytic"]},
            },
        },
        "output_dir": {"type": "string"},
    },
}


@cache
def _config_validator():
    """Validator for CONFIG_SCHEMA, built once; the schema's own validity is
    checked by the test suite, not on every call."""
    from jsonschema.validators import validator_for
    return validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def normalize_config(cfg):
    """Validate against the schema and fill defaults.  Normalized configs
    round-trip: normalize(normalize(cfg)) == normalize(cfg)."""
    from jsonschema.exceptions import best_match
    error = best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        raise error  # the error jsonschema.validate would raise
    out = json.loads(json.dumps(cfg))  # deep copy, JSON-typed
    man = out["manifold"]
    if man["type"] == "flat_torus":
        man.setdefault("periods", [2.0 * np.pi] * len(man["resolution"]))
    warp = out["warping"]
    warp.setdefault("param", 0.0)
    warp.setdefault("t_min", 0.0)
    # JSON has no infinity: an unbounded domain is written as 1e308
    if not np.isfinite(warp.setdefault("t_max", 1e308)):
        warp["t_max"] = 1e308
    out["phi"].setdefault("steepness", PhiFunction.steepness)
    coeffs = out["coefficients"]
    if coeffs["kind"] == "builtin":
        if "terms" not in coeffs or len(coeffs["terms"]) != out["k"]:
            raise WarpcurveError("builtin coefficients need exactly k terms")
        for term in coeffs["terms"]:
            term.setdefault("epsilon", CoefficientTerm.epsilon)
            term.setdefault("profile", CoefficientTerm.profile)
    else:
        if "files" not in coeffs or len(coeffs["files"]) != out["k"]:
            raise WarpcurveError("table coefficients need exactly k CSV files")
    cont = out.setdefault("continuation", {})
    for key, val in _CONTINUATION_DEFAULTS.items():
        cont.setdefault(key, val)
    out.setdefault("output_dir", "warpcurve-out")
    return out


def build_spec(cfg, base_dir="."):
    """Construct a ProblemSpec from a normalized configuration."""
    man = cfg["manifold"]
    if man["type"] == "flat_torus":
        grid = FlatTorus(man["resolution"], periods=man["periods"])
    else:
        if "periods" in man:
            raise ConfigError("sphere2 takes no periods")
        if len(man["resolution"]) != 2:
            raise ConfigError(f"sphere2 resolution needs 2 entries (n_theta, n_phi), "
                              f"got {len(man['resolution'])}")
        grid = Sphere2(*man["resolution"])
    wc = cfg["warping"]
    warping = WarpingFunction(
        kind=wc["kind"], param=wc["param"], t_min=wc["t_min"], t_max=wc["t_max"],
        table_t=np.asarray(wc["table_t"]) if "table_t" in wc else None,
        table_f=np.asarray(wc["table_f"]) if "table_f" in wc else None)
    k = cfg["k"]
    cc = cfg["coefficients"]
    if cc["kind"] == "builtin":
        coeffs = CoefficientFamily([CoefficientTerm(**t) for t in cc["terms"]], k)
    else:
        samples, tables = None, []
        for fname in cc["files"]:
            us, table = load_coefficient_table(Path(base_dir) / fname, grid)
            if samples is not None and not np.array_equal(us, samples):
                raise WarpcurveError("coefficient tables disagree on u samples")
            samples = us
            tables.append(table)
        coeffs = TabulatedCoefficients(samples, tables, k)
    cont = cfg["continuation"]
    return ProblemSpec(
        grid=grid, warping=warping, k=k, coeffs=coeffs,
        phi=PhiFunction(**cfg["phi"]),
        r1=cfg["r1"], r2=cfg["r2"],
        **{key: cont[key] for key in _CONTINUATION_DEFAULTS})


# ---------------------------------------------------------------------------
# Archives
# ---------------------------------------------------------------------------

def _coord_names(grid):
    if isinstance(grid, Sphere2):
        return ["theta", "phi"]
    return [f"x{i + 1}" for i in range(grid.n)]


_BLOCK_ROWS = 1024
# one %-conversion of one number: flags, width, precision, type
_CONVERSION = re.compile(r"%[-+ #0]*\d*(?:\.\d+)?[diouxXeEfFgG]")


def _write_rows(fh, template, table):
    """Write template % tuple(row) for each row of a 2-D array, where the
    template is literal text around one numeric %-conversion per column.
    Each distinct value of a column, told apart by its bits so that -0.0
    ("-0") and 0.0 stay apart, is formatted once with the literal after it."""
    conversions = _CONVERSION.findall(template)
    literals = _CONVERSION.split(template)
    if len(conversions) != table.shape[1] or any("%" in t or "\0" in t for t in literals):
        raise ValueError(f"template {template!r} needs one %-conversion per column of a "
                         f"{table.shape[1]}-column table, and no other % or NUL")
    columns = []
    for column, fmt, literal in zip(table.T, conversions, literals[1:]):
        bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
        parts = np.split(bits.view(column.dtype), range(_BLOCK_ROWS, len(bits), _BLOCK_ROWS))
        # Python numbers format faster than numpy scalars; by blocks, to keep RSS down
        texts = [np.array([(fmt + literal) % x for x in p.tolist()], dtype="S") for p in parts]
        columns.append((np.concatenate(texts), inverse))
    for start in range(0, len(table), _BLOCK_ROWS):
        rows = literals[0].encode()
        for texts, inverse in columns:
            rows = np.char.add(rows, texts[inverse[start:start + _BLOCK_ROWS]])
        fh.write(b"".join(rows.tolist()).decode())


def _write_coefficient_tables(out, files, coeffs):
    """Copy table coefficients into the archive under their configured
    relative names, so build_spec can rebuild the spec from the archive.
    Names that resolve outside the archive are left to point at the
    original files."""
    for fname, table in zip(files, coeffs.tables):
        path = out / fname
        if not path.resolve().is_relative_to(out.resolve()):
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("u,node,value\n")
            nodes = np.arange(table.shape[1])
            for u, row in zip(coeffs.u_samples, table):
                _write_rows(fh, f"{FLOAT_FMT},%d,{FLOAT_FMT}\n",
                            np.column_stack([np.full(row.size, u), nodes, row]))


def write_archive(out_dir, cfg, spec, state, status):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if isinstance(spec.coeffs, TabulatedCoefficients):
        _write_coefficient_tables(out, cfg["coefficients"]["files"], spec.coeffs)
    names = _coord_names(spec.grid)
    with open(out / "solution.csv", "w") as fh:
        fh.write(",".join(names + ["u"]) + "\n")
        _write_rows(fh, ",".join([FLOAT_FMT] * (len(names) + 1)) + "\n",
                    np.column_stack([spec.grid.coords, state.u.values]))
    meta = {"version": __version__, "config": cfg, "status": status,
            "t_final": state.t, "diagnostics": state.diagnostics.as_dict(),
            "totals": {key: sum(rec[key] for rec in state.steps if rec["accepted"])
                       for key in ("newton_iters", "linear_iters", "backtracks")},
            "libraries": {"numpy": np.__version__, "scipy": scipy.__version__},
            # BLAS thread counts as set in the environment, None when unset
            "blas_threads": {var: os.environ.get(var) for var in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "log.jsonl", "w") as fh:
        for rec in state.steps:
            fh.write(json.dumps(rec) + "\n")


def read_archive(path):
    path = Path(path)
    meta = json.loads((path / "metadata.json").read_text())
    with open(path / "solution.csv") as fh:
        ucol = fh.readline().strip().split(",").index("u")
        values = np.loadtxt(fh, delimiter=",", usecols=ucol, ndmin=1)
    return meta, values


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args):
    try:
        with open(args.config) as fh:
            cfg = normalize_config(json.load(fh))
        spec = build_spec(cfg, base_dir=Path(args.config).parent)
    except (OSError, json.JSONDecodeError, WarpcurveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # jsonschema.ValidationError and friends
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1

    report = problem.check_hypotheses(spec)
    if not report.passed:
        for chk in report.failing():
            print(f"hypothesis {chk.name} violated: margin {chk.worst_margin:.6e}, "
                  f"offender (u, node, l) = {chk.offender}", file=sys.stderr)
        if not args.force:
            return 3
        print("warning: --force given, continuing despite hypothesis rejection",
              file=sys.stderr)

    out_dir = Path(args.out or cfg["output_dir"])
    try:
        state = solver.continuation(spec)
    except ContinuationError as exc:
        if exc.last_state is not None:
            write_archive(out_dir, cfg, spec, exc.last_state, "continuation-failure")
            print(f"continuation failed: {exc}; last good state written to {out_dir}",
                  file=sys.stderr)
        else:
            print(f"continuation failed: {exc}", file=sys.stderr)
        return 2

    write_archive(out_dir, cfg, spec, state, "converged")
    diag = state.diagnostics
    print(f"converged at t={state.t:g}: u in [{diag.u_min:.6f}, {diag.u_max:.6f}], "
          f"tau_min={diag.tau_min:.6f}, |lambda|_max={diag.lambda_abs_max:.6f}")
    print(f"archive written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_sigma_brute(rng):
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        lam = rng.standard_normal(n) * 3.0
        for k in range(n + 1):
            a = symfunc.elem_sym(lam, k)
            b = oracle.brute_sigma(lam, k)
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    return worst, worst <= 1e-12


def _verify_newton_maclaurin(rng):
    worst = np.inf
    found = 0
    while found < 300:
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, n + 1))
        lam = rng.normal(1.0, 1.0, size=n)
        if symfunc.cone_margins(lam, k) <= 0:
            continue
        found += 1
        m1, m2 = symfunc.newton_maclaurin_margins(lam, k, k - 1, 1, 0)
        worst = min(worst, float(m1), float(m2))
    return worst, worst >= -1e-12


def _verify_leaf_identity(rng):
    worst = 0.0
    grids = [FlatTorus((8, 8, 8)), Sphere2(16, 32)]
    warps = [WarpingFunction("hyperbolic", 1.0),
             WarpingFunction("euclidean"),
             WarpingFunction("sphere", 1.0)]
    for grid in grids:
        for w in warps:
            for c in (0.5, 0.9, 1.3):
                f, fp, _ = geometry.warp_eval(w, c)
                rec = geometry.fundamental_forms(GridFunction.constant(c, grid), w)
                worst = max(worst, float(np.abs(rec.lam - fp / f).max()))
    return worst, worst <= 1e-12


def _radial_spec(resolution=(8, 8, 8)):
    grid = FlatTorus(resolution)
    w = WarpingFunction("hyperbolic", 1.0)
    coeffs = CoefficientFamily(
        [CoefficientTerm(6.0), CoefficientTerm(1.0)], 2)
    return ProblemSpec(grid=grid, warping=w, k=2, coeffs=coeffs,
                       phi=PhiFunction(pivot=1.3), r1=1.0, r2=1.6)


def _jacobian_fd_cases():
    """(spec, u) by name, at which the Jacobian is checked against finite
    differences: the radial 6^3 torus (k = 2), a perturbed 6^3 torus with
    k = 3, a perturbed Sphere2(12, 24) with a u smooth across the poles, and
    a perturbed 6^4 torus with k = 4."""
    radial = _radial_spec((6, 6, 6))
    x = radial.grid.coords
    hyperbolic = WarpingFunction("hyperbolic", 1.0)
    torus3 = ProblemSpec(
        grid=radial.grid, warping=hyperbolic, k=3,
        coeffs=CoefficientFamily([CoefficientTerm(2.0, 0.05, {"kind": "cos", "axis": 0}),
                                  CoefficientTerm(0.5, 0.05, {"kind": "sin", "axis": 1}),
                                  CoefficientTerm(0.25, 0.05, {"kind": "cos", "axis": 2})], 3),
        phi=PhiFunction(pivot=1.3), r1=1.0, r2=1.6)
    sphere = ProblemSpec(
        grid=Sphere2(12, 24), warping=hyperbolic, k=2,
        coeffs=CoefficientFamily([CoefficientTerm(3.0, 0.05, {"kind": "sphere_z"}),
                                  CoefficientTerm(0.5, 0.05, {"kind": "sphere_x"})], 2),
        phi=PhiFunction(pivot=1.45), r1=1.0, r2=1.6)
    torus4 = ProblemSpec(
        grid=FlatTorus((6,) * 4), warping=hyperbolic, k=4,
        coeffs=CoefficientFamily([CoefficientTerm(a, 0.05, {"kind": kind, "axis": axis})
                                  for axis, (a, kind) in enumerate(zip(
                                      (4.0, 1.0, 0.3, 0.1), ("cos", "sin", "cos", "sin")))], 4),
        phi=PhiFunction(pivot=1.45), r1=1.0, r2=1.6)
    x4 = torus4.grid.coords
    th, ph = sphere.grid.coords[:, 0], sphere.grid.coords[:, 1]
    return {
        "torus3-k2": (radial, 1.3 + 0.05 * np.sin(x[:, 0])),
        "torus3-k3": (torus3, 1.3 + 0.03 * np.sin(x[:, 0]) + 0.02 * np.cos(x[:, 1])),
        "sphere-12x24": (sphere, 1.45 + 0.03 * np.sin(th) * np.cos(ph) + 0.02 * np.cos(th)),
        "torus4-k4": (torus4, 1.45 + 0.03 * np.sin(x4[:, 0]) + 0.02 * np.cos(x4[:, 1])
                      + 0.01 * np.sin(x4[:, 2] + x4[:, 3])),
    }


def _jacobian_fd_misses(rng, directions, t=0.7):
    """Worst relative miss of the colored-FD and the analytic Jacobian
    against oracle.fd_directional, along random directions, per case of
    _jacobian_fd_cases: {case: {"fd": miss, "analytic": miss}}.  The
    analytic one is applied matrix-free, as Newton applies it."""
    out = {}
    for name, (spec, values) in _jacobian_fd_cases().items():
        u = GridFunction(values, spec.grid)
        dirs = [rng.standard_normal(spec.grid.num_nodes) for _ in range(directions)]
        refs = [oracle.fd_directional(u, GridFunction(d, spec.grid), t, spec).values
                for d in dirs]
        out[name] = {
            method: max(float(np.abs(J @ d - ref).max() / max(1.0, np.abs(ref).max()))
                        for d, ref in zip(dirs, refs))
            for method, J in (("fd", oracle.colored_fd_jacobian(u, t, spec)),
                              ("analytic", spec.grid.operator_sum(problem.jacobian(u, t, spec))))}
    return out


def _verify_jacobian_fd(rng):
    """Worst miss of either Jacobian in any case, and a line per case with
    both misses, so a change in the analytic one shows under the colored
    FD's larger O(h^2) miss."""
    misses = _jacobian_fd_misses(rng, 5)
    worst = max(max(m.values()) for m in misses.values())
    return (worst, worst <= 1e-6, *(f"{name}: colored-FD {m['fd']:.3e}, analytic {m['analytic']:.3e}"
                                    for name, m in misses.items()))


def _verify_radial_end_to_end(rng):
    spec = _radial_spec((8, 8, 8))
    target = acosh(2.0)
    state = solver.continuation(spec)
    err = float(np.abs(state.u.values - target).max())
    return err, err <= 1e-6


# each check returns (margin, ok, *lines), the lines printed under its row
VERIFY_CHECKS = {
    "sigma-brute": _verify_sigma_brute,
    "newton-maclaurin": _verify_newton_maclaurin,
    "leaf-identity": _verify_leaf_identity,
    "jacobian-fd": _verify_jacobian_fd,
    "radial-end-to-end": _verify_radial_end_to_end,
}


def cmd_verify(args):
    names = [args.filter] if args.filter else list(VERIFY_CHECKS)
    if args.filter and args.filter not in VERIFY_CHECKS:
        print(f"error: unknown check {args.filter!r}; choose from "
              f"{', '.join(VERIFY_CHECKS)}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(20240817)
    failures = []
    print(f"{'check':<22}{'margin':>16}  status")
    for name in names:
        lines = ()
        try:
            margin, ok, *lines = VERIFY_CHECKS[name](rng)
        except WarpcurveError as exc:
            margin, ok = float("nan"), False
            failures.append({"check": name, "error": str(exc)})
        else:
            if not ok:
                failures.append({"check": name, "margin": margin})
        print(f"{name:<22}{margin:>16.3e}  {'ok' if ok else 'FAIL'}")
        for line in lines:
            print(f"  {line}")
    if failures:
        path = Path(args.out or ".") / "verify_failure.json"
        with open(path, "w") as fh:
            json.dump(failures, fh, indent=2)
        print(f"failures serialized to {path}", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args):
    try:
        meta, values = read_archive(args.archive)
        spec = build_spec(meta["config"], base_dir=args.archive)
        grid = spec.grid
        rec = geometry.fundamental_forms(GridFunction(values, grid), spec.warping, spec.k)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, WarpcurveError) as exc:
        print(f"error: cannot read archive: {exc}", file=sys.stderr)
        return 1
    if args.format not in ("csv", "mesh"):
        print(f"error: unknown format {args.format!r}", file=sys.stderr)
        return 1
    out = Path(args.out or args.archive)
    out.mkdir(parents=True, exist_ok=True)
    lam_max = rec.lam[:, -1]

    if args.format == "csv":
        names = _coord_names(grid) + ["u", "lambda_max"]
        table = np.column_stack([grid.coords, values, lam_max])
        if isinstance(grid, Sphere2):
            files = [("field_latlong.csv", names, table)]
        else:  # the mid-plane across each axis, without that axis's column
            cells = table.reshape(grid.shape + (len(names),))
            files = []
            for axis, size in enumerate(grid.shape):
                keep = [c for c in range(len(names)) if c != axis]
                files.append((f"slice_axis{axis + 1}.csv", [names[c] for c in keep],
                              np.take(cells, size // 2, axis=axis)[..., keep].reshape(-1, len(keep))))
        for fname, header, rows in files:
            with open(out / fname, "w") as fh:
                fh.write(",".join(header) + "\n")
                _write_rows(fh, ",".join([FLOAT_FMT] * len(header)) + "\n", rows)
            print(f"wrote {out / fname}")
        return 0

    # wavefront mesh of the radius-graph embedding (generalized space form)
    if not isinstance(grid, Sphere2):
        print("error: mesh export is only defined for Sphere2 archives", file=sys.stderr)
        return 1
    nt, nphi = grid.shape
    th = grid.coords[:, 0]
    ph = grid.coords[:, 1]
    xyz = np.column_stack([values * np.sin(th) * np.cos(ph),
                           values * np.sin(th) * np.sin(ph),
                           values * np.cos(th)])
    # quad (i, j), (i, j + 1), (i + 1, j + 1), (i + 1, j) per cell, 1-based
    # vertex numbers, j + 1 wrapping around in phi
    i, j = np.meshgrid(np.arange(nt - 1), np.arange(nphi), indexing="ij")
    jn = (j + 1) % nphi
    faces = np.stack([i * nphi + j, i * nphi + jn, (i + 1) * nphi + jn,
                      (i + 1) * nphi + j], axis=-1).reshape(-1, 4) + 1
    path = out / "surface.obj"
    with open(path, "w") as fh:
        _write_rows(fh, f"v {FLOAT_FMT} {FLOAT_FMT} {FLOAT_FMT}\n", xyz)
        _write_rows(fh, "f %d %d %d %d\n", faces)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="warpcurve",
        description="Prescribed Weingarten curvature solver for graphs in warped products")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the homotopy continuation solver")
    p_solve.add_argument("config", help="JSON configuration file")
    p_solve.add_argument("--out", help="override the output directory")
    p_solve.add_argument("--force", action="store_true",
                         help="continue despite hypothesis rejection")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the oracle/property suite")
    p_verify.add_argument("--filter", help="run only the named check family")
    p_verify.add_argument("--out", help="directory for failure serialization")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="emit plot-ready data from an archive")
    p_export.add_argument("archive", help="archive directory written by solve")
    p_export.add_argument("--format", default="csv", help="csv or mesh")
    p_export.add_argument("--out", help="output directory (default: the archive)")
    p_export.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
