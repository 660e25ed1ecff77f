"""Span tracing of the warpcurve layers from outside the package.

`Tracer` replaces the module (or class) attribute a caller looks up with a
timing wrapper and puts the original back on exit, so the package itself
carries no instrumentation.  Each span records its name, start, end, the
span that was open when it began (its parent), the exception type if the
call raised, and optional facts taken from the call.  Spans stay in memory
until `layer_metrics` and `write` are called at the end of a run.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from warpcurve import cli, geometry, problem, solver, symfunc


def _nodes(args, result):
    return {"nodes": args[0].grid.num_nodes}


def _newton(args, result):
    stats = result[1]
    return {"iterations": stats.iterations, "backtracks": stats.backtracks}


def _fill(args, result):
    return {"nnz": int(result.nnz)}


# (owner, attribute, span name, facts taken from the call).  The owner is
# the object the calling code looks the attribute up on: `residual` finds
# `geometry.fundamental_forms` on the module, `spla.splu` on
# scipy.sparse.linalg, and `grid.gradient_hessian` on BaseGrid.
LAYERS = [
    (symfunc, "sigma_all", "symfunc.sigma_all", None),
    (symfunc, "quotient_and_grads", "symfunc.quotient_and_grads", None),
    (geometry, "fundamental_forms", "geometry.fundamental_forms", _nodes),
    (geometry, "principal_curvatures", "geometry.principal_curvatures", None),
    (geometry, "pencil_eigensystem", "geometry.pencil_eigensystem", None),
    (geometry.BaseGrid, "gradient_hessian", "geometry.gradient_hessian", None),
    (problem, "check_hypotheses", "problem.check_hypotheses", None),
    (problem, "residual", "problem.residual", None),
    (problem, "jacobian", "problem.jacobian", None),
    (solver, "newton_solve", "solver.newton_solve", _newton),
    (solver, "_solve_linear", "solver.linear_solve", None),
    (solver.spla, "splu", "solver.lu_factor", _fill),
    (solver, "diagnostics", "solver.diagnostics", None),
    (cli, "build_spec", "cli.build_spec", None),
    (cli, "write_archive", "cli.write_archive", None),
]


class Tracer:
    """Context manager that records a span per call of every layer in
    LAYERS while it is open."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._next_id = 0
        self._originals = []

    def __enter__(self):
        for owner, attr, name, facts in LAYERS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, facts))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True when every wrapped attribute holds its original again."""
        return all(getattr(owner, attr) is original
                   for owner, attr, original in self._originals)

    def _wrap(self, fn, name, facts):
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            error = None
            extra = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if facts is not None:
                    extra = facts(args, result)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans.append({"id": span_id, "parent": parent, "name": name,
                                   "start": start, "end": end, "error": error,
                                   "extra": extra})
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans):
    """Per-layer counts and times from a list of spans.

    `<layer>.calls` counts calls, `<layer>.s` sums their wall time and
    `<layer>.failed` counts calls that raised.  Self time subtracts the time
    covered by direct child spans.
    """
    by_id = {s["id"]: s for s in spans}
    calls = Counter()
    total = defaultdict(float)
    failed = Counter()
    child_s = defaultdict(float)
    residuals_in_jacobian = 0
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        calls[name] += 1
        total[name] += dur
        if s["error"] is not None:
            failed[name] += 1
        if s["parent"] is not None:
            child_s[s["parent"]] += dur
            if name == "problem.residual" and by_id[s["parent"]]["name"] == "problem.jacobian":
                residuals_in_jacobian += 1
    jac_self = sum(s["end"] - s["start"] - child_s[s["id"]]
                   for s in spans if s["name"] == "problem.jacobian")
    ff_nodes = sum(s["extra"]["nodes"] for s in spans
                   if s["name"] == "geometry.fundamental_forms" and s["extra"])
    newton_ok = [s["extra"] for s in spans
                 if s["name"] == "solver.newton_solve" and s["error"] is None]
    fills = [s["extra"]["nnz"] for s in spans
             if s["name"] == "solver.lu_factor" and s["extra"]]

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in ("symfunc.sigma_all", "symfunc.quotient_and_grads",
                  "geometry.fundamental_forms", "geometry.principal_curvatures",
                  "geometry.pencil_eigensystem", "geometry.gradient_hessian",
                  "problem.check_hypotheses", "problem.residual", "problem.jacobian",
                  "solver.newton_solve", "solver.linear_solve", "solver.lu_factor",
                  "solver.diagnostics"):
        put(f"{layer}.calls", calls[layer], "count")
        put(f"{layer}.s", total[layer], "s")
    put("geometry.fundamental_forms.ns_per_node",
        1e9 * total["geometry.fundamental_forms"] / ff_nodes if ff_nodes else 0.0, "ns")
    put("problem.residual.failed", failed["problem.residual"], "count")
    put("problem.jacobian.self_s", jac_self, "s")
    put("problem.residual_per_jacobian",
        residuals_in_jacobian / calls["problem.jacobian"] if calls["problem.jacobian"] else 0.0,
        "ratio")
    put("solver.newton_solve.failed", failed["solver.newton_solve"], "count")
    put("solver.steps_accepted", len(newton_ok), "count")
    put("solver.step_accept_ratio",
        len(newton_ok) / calls["solver.newton_solve"] if calls["solver.newton_solve"] else 0.0,
        "ratio")
    put("solver.newton_iters", sum(e["iterations"] for e in newton_ok), "count")
    put("solver.backtracks", sum(e["backtracks"] for e in newton_ok), "count")
    put("solver.lu_fill_nnz", sum(fills) / len(fills) if fills else 0.0, "count")
    put("cli.build_spec.s", total["cli.build_spec"], "s")
    put("cli.write_archive.s", total["cli.write_archive"], "s")
    return out
