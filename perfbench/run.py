"""warpcurve benchmark: time to a checked solution on fixed continuation
workloads, with a separately traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload torus3-radial-16 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a set of JSON configs driven through the calls `warpcurve
solve` makes: cli.normalize_config -> cli.build_spec ->
problem.check_hypotheses (set-up), then solver.continuation ->
cli.write_archive (solve).  Every archive is read back from disk and checked
against a reference; a failed check or a solver error counts as a failed
attempt.  One process runs one workload, one solve at a time (closed loop),
with BLAS pinned to one thread.

--trace 0 repeats set-up and solve for --seconds seconds and reports the
end-to-end metrics (medians).  --trace 1 runs a tracer self-check on a 6^3
radial torus, then one untraced and one traced pass, and reports the
per-layer metrics of the traced pass (see spans.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Archives, a full result record and the span log go to perfbench/_out/.

Seed 0 gives the reference configs exactly; other seeds vary only inputs
under which the reference stays valid and the amount of work stays that of
seed 0 (the sphere may take one Newton iteration fewer: 20 instead of 21).
"""
import os

# Before numpy loads OpenBLAS: setting these later has no effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import logging
import platform
import resource
import statistics
import subprocess
import sys
from math import acosh, log2
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
SETUP_REPEATS = 5


def _import_package():
    """Import warpcurve from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "warpcurve" / "__init__.py").is_file():
        sys.exit(f"error: no warpcurve sources under {src}")
    sys.path.insert(0, str(src))
    import warpcurve
    if Path(warpcurve.__file__).resolve().parent != src / "warpcurve":
        sys.exit(f"error: imported warpcurve from {warpcurve.__file__}, not {src}")


class BenchmarkError(Exception):
    """The benchmark itself is at fault (for example a drawn config that
    fails the hypotheses); not a failure of the program."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _builtin(resolution, kind, terms, pivot, **extra):
    cfg = {"manifold": {"type": kind, "resolution": list(resolution)},
           "warping": {"kind": "hyperbolic", "param": 1.0},
           "k": 2, "r1": 1.0, "r2": 1.6, "phi": {"pivot": pivot},
           "coefficients": {"kind": "builtin", "terms": terms}}
    cfg.update(extra)
    return cfg


class Radial:
    name = "torus3-radial-16"

    def configs(self, rng):
        # Pivots in [1.300, 1.304] keep the 16 Newton iterations of 1.3.
        pivot = 1.3 if rng is None else float(rng.uniform(1.300, 1.304))
        return [_builtin((16, 16, 16), "flat_torus",
                         [{"amplitude": 6.0}, {"amplitude": 1.0}], pivot)]

    def check(self, seed, cfgs, archives):
        (meta, u), = archives
        err = float(abs(u - acosh(2.0)).max())
        return meta["status"] == "converged" and err <= 1e-6, f"|u - arccosh 2| = {err:.2e}"


class Refine:
    name = "torus2-refine"
    sizes = (16, 32, 64)

    def configs(self, rng):
        # eps in [0.045, 0.05] with any phases keeps 21 iterations per grid.
        eps, phases = (0.05, (0.0, 0.0)) if rng is None else (
            float(rng.uniform(0.045, 0.05)), rng.uniform(0.0, 6.283185307179586, 2))
        terms = [{"amplitude": 3.0, "epsilon": eps,
                  "profile": {"kind": "cos", "axis": 0, "phase": float(phases[0])}},
                 {"amplitude": 0.5, "epsilon": eps,
                  "profile": {"kind": "sin", "axis": 1, "phase": float(phases[1])}}]
        return [_builtin((n, n), "flat_torus", terms, 1.45) for n in self.sizes]

    def check(self, seed, cfgs, archives):
        from warpcurve import cli
        grids = [cli.build_spec(cli.normalize_config(c)).grid for c in cfgs]
        u = [values for _, values in archives]
        e_coarse = float(abs(u[0] - grids[0].inject_from(u[1], grids[1])).max())
        e_fine = float(abs(u[1] - grids[1].inject_from(u[2], grids[2])).max())
        order = log2(e_coarse / e_fine)
        ok = all(m["status"] == "converged" for m, _ in archives) and 1.8 <= order <= 2.2
        return ok, f"observed order {order:.4f}"


class Sphere:
    name = "sphere-64x128-analytic"
    reference = HERE / "sphere-64x128-seed0-u.npy"

    def configs(self, rng):
        # eps in [0.04, 0.05]: 7 steps and 20 or 21 Newton iterations; the
        # last step needs 2 or 3 depending on eps, with no trend.
        eps = 0.05 if rng is None else float(rng.uniform(0.04, 0.05))
        terms = [{"amplitude": 3.0, "epsilon": eps, "profile": {"kind": "sphere_z"}},
                 {"amplitude": 0.5, "epsilon": eps, "profile": {"kind": "sphere_x"}}]
        return [_builtin((64, 128), "sphere2", terms, 1.45,
                         continuation={"jacobian_method": "analytic"})]

    def check(self, seed, cfgs, archives):
        import numpy as np
        from warpcurve import cli, problem
        from warpcurve.geometry import GridFunction
        (meta, u), = archives
        spec = cli.build_spec(cli.normalize_config(cfgs[0]))
        res = float(abs(problem.residual(GridFunction(u, spec.grid), 1.0, spec).values).max())
        flags = meta["diagnostics"]["flags"]
        ok = (meta["status"] == "converged" and res <= 1e-8 and not flags
              and spec.r1 <= u.min() and u.max() <= spec.r2)
        detail = f"|F(u, 1)| = {res:.2e}, flags {flags}, u in [{u.min():.6f}, {u.max():.6f}]"
        if seed == 0:
            # Bound accepts both Jacobian paths (they agree to ~1e-10).
            diff = float(abs(u - np.load(self.reference)).max())
            ok = ok and diff <= 1e-8
            detail += f", |u - seed-commit u| = {diff:.2e}"
        return ok, detail


WORKLOADS = {w.name: w for w in (Radial(), Refine(), Sphere())}


# ---------------------------------------------------------------------------
# Set-up, solve, check
# ---------------------------------------------------------------------------

def setup(cfgs):
    """Config dicts to checked specs; returns (pairs, seconds)."""
    from warpcurve import cli, problem
    start = perf_counter()
    pairs = []
    for cfg in cfgs:
        norm = cli.normalize_config(cfg)
        spec = cli.build_spec(norm)
        if not problem.check_hypotheses(spec).passed:
            raise BenchmarkError(f"drawn config fails the hypotheses: {json.dumps(cfg)}")
        pairs.append((norm, spec))
    return pairs, perf_counter() - start


def solve(pairs, out_dir):
    """Continuation plus archive for every spec; returns (archive dirs, seconds)."""
    from warpcurve import cli, solver
    dirs = [out_dir / f"grid{i}" for i in range(len(pairs))]
    start = perf_counter()
    for (norm, spec), path in zip(pairs, dirs):
        state = solver.continuation(spec)
        cli.write_archive(path, norm, spec, state, "converged")
    return dirs, perf_counter() - start


def attempt(workload, seed, cfgs, out_dir, tracer=None):
    """One set-up and solve, traced if a tracer is given, then checked
    untraced.  Returns (setup_s, solve_s or None if it failed)."""
    from warpcurve import cli
    from warpcurve.errors import WarpcurveError
    with tracer or contextlib.nullcontext():
        pairs, setup_s = setup(cfgs)
        try:
            dirs, solve_s = solve(pairs, out_dir)
        except WarpcurveError as exc:
            print(f"attempt failed: {type(exc).__name__}: {exc}")
            return setup_s, None
    ok, detail = workload.check(seed, cfgs, [cli.read_archive(d) for d in dirs])
    print(f"check {'ok' if ok else 'FAILED'}: {detail}")
    return setup_s, solve_s if ok else None


def measure(workload, seed, cfgs, seconds, out_dir):
    """Untraced attempts for `seconds`; medians of set-up and solve times."""
    setup(cfgs)  # warm-up: first-call imports (jsonschema) are not set-up work
    setup_samples = [setup(cfgs)[1] for _ in range(SETUP_REPEATS)]
    solve_samples = []
    attempted = 0
    start = perf_counter()
    while True:
        attempted += 1
        t0 = perf_counter()
        setup_s, solve_s = attempt(workload, seed, cfgs, out_dir)
        setup_samples.append(setup_s)
        if solve_s is not None:
            solve_samples.append(solve_s)
        last = perf_counter() - t0
        # start another attempt only if it is expected to end in the window
        if perf_counter() - start + last > seconds:
            break
    failed = attempted - len(solve_samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    if solve_samples:
        metrics["solve_s"] = {"value": statistics.median(solve_samples), "unit": "s"}
    metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MiB"}
    samples = {"solve_s": solve_samples, "setup_s": setup_samples}
    for name, m in metrics.items():
        count = f"  (median of {len(samples[name])})" if name in samples else ""
        print(f"{name:<14}{m['value']:>14.6g} {m['unit']}{count}")
    print(f"{'failed_frac':<14}{failed / attempted:>14.6g} ratio  ({failed} of {attempted})")
    return attempted, failed, metrics, samples


def self_check():
    """Traced and untraced solves of a 6^3 radial torus give bit-identical u,
    the traced counts repeat exactly and match the untraced step log, and
    the wrappers are gone afterwards."""
    import numpy as np
    from spans import Tracer, layer_metrics
    from warpcurve import cli, solver
    cfg = Radial().configs(None)[0]
    cfg["manifold"]["resolution"] = [6, 6, 6]
    plain = solver.continuation(cli.build_spec(cli.normalize_config(cfg)))
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            state = solver.continuation(cli.build_spec(cli.normalize_config(cfg)))
        counts = {k: m["value"] for k, m in layer_metrics(tracer.spans).items()
                  if m["unit"] != "s" and m["unit"] != "ns"}
        runs.append((state, counts, tracer.restored()))
    logged = plain.steps[1:]
    ok = (all(np.array_equal(s.u.values, plain.u.values) for s, _, _ in runs)
          and runs[0][1] == runs[1][1]
          and runs[0][1]["solver.steps_accepted"] == len(logged)
          and runs[0][1]["solver.newton_iters"] == sum(r["newton_iters"] for r in logged)
          and all(restored for _, _, restored in runs))
    print(f"tracer self-check {'ok: identical u and counts' if ok else 'FAILED'} "
          f"({runs[0][1]['solver.steps_accepted']} steps, "
          f"{runs[0][1]['problem.residual.calls']} residuals)")
    return ok


def traced(workload, seed, cfgs, out_dir):
    from spans import Tracer, layer_metrics
    ok = self_check()
    setup(cfgs)  # warm-up, as in the untraced run
    _, plain_s = attempt(workload, seed, cfgs, out_dir)
    tracer = Tracer()
    _, traced_s = attempt(workload, seed, cfgs, out_dir, tracer)
    tracer.write(out_dir / "spans.jsonl")
    failed = (plain_s is None) + (traced_s is None)
    metrics = layer_metrics(tracer.spans)
    overhead = traced_s / plain_s - 1.0 if not failed else 0.0
    metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"{name:<42}{m['value']:>16.6g} {m['unit']}")
    return ok and tracer.restored(), 2, failed, metrics, {"solve_s": [plain_s, traced_s]}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def environment():
    import numpy
    import scipy
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except OSError:
        sha = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "threads": threads, "blas_env": {v: os.environ[v] for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_sha": sha}


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    code = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        code = max(code, proc.returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    _import_package()
    import numpy as np
    logging.getLogger("warpcurve").setLevel(logging.ERROR)  # n = 2 borderline notice
    workload = WORKLOADS[args.workload]
    cfgs = workload.configs(None if args.seed == 0 else np.random.default_rng(args.seed))
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    print(f"workload {workload.name} seed {args.seed}")
    try:
        if args.trace:
            ok, attempted, failed, metrics, samples = traced(workload, args.seed, cfgs, out_dir)
        else:
            attempted, failed, metrics, samples = measure(
                workload, args.seed, cfgs, args.seconds, out_dir)
            ok = "solve_s" in metrics
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env: " + json.dumps(env))
    correct = ok and failed == 0
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "configs": cfgs, "env": env, "samples": samples,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
