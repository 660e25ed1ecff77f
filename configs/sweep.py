"""Sweep the hypothesis envelope: solve 40 perturbed configurations across
and beyond the structural hypotheses, and report for each whether the
hypotheses hold, whether the solve converged or which error it raised,
its Newton, GMRES and rejected-step counts, summed over every grid the
solve ran on, the seconds `solver.continuation` took, the grid its path
started on (the first record's) and, for a failure, the t of its last
accepted record (where the path stopped).

    PYTHONPATH=src python configs/sweep.py

The points are the torus2 amplitudes (3.0, 0.5) with pivot 1.45: on T^2
32^2 and 64^2 with cos/sin profiles at every eps in EPSILONS and freq in
FREQS, and on Sphere2 32x64 and 64x128 with sphere_z/sphere_x profiles at
the same eps.  A point outside the hypotheses may fail, but only with a
named WarpcurveError.  Each point's status and exit t (the t of its last
accepted record, 1.0 when it converged) are checked against the table
configs/sweep-expected.json, t to 1e-4; the exit status is 1 when a point
differs from it or a point inside the hypotheses does not converge.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import json
import sys
from pathlib import Path
from time import perf_counter

from warpcurve import cli, problem, solver
from warpcurve.errors import WarpcurveError

EXPECTED = Path(__file__).with_name("sweep-expected.json")
EPSILONS = (0.05, 0.2, 0.5, 0.9)
FREQS = (1, 4, 8, 16)


def _config(manifold, resolution, eps, profiles):
    return {"manifold": {"type": manifold, "resolution": list(resolution)},
            "warping": {"kind": "hyperbolic", "param": 1.0},
            "k": 2, "r1": 1.0, "r2": 1.6, "phi": {"pivot": 1.45},
            "coefficients": {"kind": "builtin", "terms": [
                {"amplitude": a, "epsilon": eps, "profile": p}
                for a, p in zip((3.0, 0.5), profiles)]}}


def points():
    """(label, config) of every sweep point."""
    for n in (32, 64):
        for eps in EPSILONS:
            for freq in FREQS:
                profiles = ({"kind": "cos", "axis": 0, "freq": freq},
                            {"kind": "sin", "axis": 1, "freq": freq})
                yield (f"torus {n}x{n} eps {eps} freq {freq}",
                       _config("flat_torus", (n, n), eps, profiles))
    for shape in ((32, 64), (64, 128)):
        for eps in EPSILONS:
            yield (f"sphere {shape[0]}x{shape[1]} eps {eps}",
                   _config("sphere2", shape, eps, ({"kind": "sphere_z"}, {"kind": "sphere_x"})))


def main():
    start = perf_counter()
    print(f"{'point':<30} {'hypotheses':<10} {'status':<20} newton gmres rejected "
          f"solve s {'start grid':<10} exit t")
    expected = json.loads(EXPECTED.read_text())
    statuses, missed, changed = [], [], []
    for label, cfg in points():
        spec = cli.build_spec(cli.normalize_config(cfg))
        inside = problem.check_hypotheses(spec).passed
        solve_start = perf_counter()
        try:
            steps, status = solver.continuation(spec).steps, "converged"
        except WarpcurveError as exc:
            steps = exc.last_state.steps if getattr(exc, "last_state", None) else []
            status = type(exc).__name__
        solve_s = perf_counter() - solve_start
        accepted = [rec for rec in steps if rec["accepted"]]
        start_grid = "x".join(map(str, steps[0]["grid"])) if steps else "-"
        exit_t = f"{accepted[-1]['t']:.4f}" if status != "converged" and accepted else ""
        print(f"{label:<30} {'pass' if inside else 'fail':<10} {status:<20} "
              f"{sum(rec['newton_iters'] for rec in accepted):>6} "
              f"{sum(rec['linear_iters'] for rec in accepted):>5} "
              f"{len(steps) - len(accepted):>8} {solve_s:>7.3f} {start_grid:<10} {exit_t}")
        statuses.append((inside, status))
        if inside and status != "converged":
            missed.append(label)
        want, t = expected.get(label), accepted[-1]["t"] if accepted else None
        if want is None or want[0] != status or (t is None) != (want[1] is None) or (
                t is not None and abs(t - want[1]) > 1e-4):
            changed.append(f"{label}: {want} in {EXPECTED.name}, now {[status, t]}")
    converged = sum(status == "converged" for _, status in statuses)
    inside = sum(ok for ok, _ in statuses)
    print(f"{converged} of {len(statuses)} points converged; {inside} inside the hypotheses, "
          f"{inside - len(missed)} of them converged ({perf_counter() - start:.1f} s)")
    for line in changed:
        print(f"changed: {line}")
    return 1 if missed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
