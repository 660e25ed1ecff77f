"""Solve one configuration and report its set-up and solve times, the time
to write its archive, peak RSS and the Newton and GMRES iterations summed
per grid level.

    PYTHONPATH=src python configs/measure.py configs/torus2-512.json

setup_s is the set-up: reading the config, cli.build_spec (which builds the
grid and its stacked operators) and the hypothesis check.  solve_s is the
continuation alone, with BLAS on one thread.  archive_s is
cli.write_archive of the solved state (solution.csv, metadata.json,
log.jsonl) into a temporary directory, removed afterwards.  Peak RSS is the
process's, so run one config per process: peak_rss_setup_mib is read after
the set-up, peak_rss_mib after the solve, peak_rss_archive_mib after the
archive is written.

The Newton iterations per level, coarsest first, are checked against the
table configs/measure-expected.json beside this script, keyed by the
config's file name; the exit status is 1 when they differ from it (a
config the table does not name is only reported).
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import json
import resource
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from warpcurve import cli, problem, solver

EXPECTED = Path(__file__).with_name("measure-expected.json")


def _peak_rss_mib():
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def main(path):
    start = perf_counter()
    with open(path) as fh:
        cfg = cli.normalize_config(json.load(fh))
    spec = cli.build_spec(cfg)
    problem.check_hypotheses(spec).raise_if_failed()
    setup_s, peak_setup = perf_counter() - start, _peak_rss_mib()
    start = perf_counter()
    state = solver.continuation(spec)
    solve_s = perf_counter() - start
    peak_solve = _peak_rss_mib()
    with tempfile.TemporaryDirectory() as out:
        start = perf_counter()
        cli.write_archive(out, cfg, spec, state, "converged")
        archive_s = perf_counter() - start
    levels = {}
    for rec in state.steps:
        if rec["accepted"]:
            counts = levels.setdefault("x".join(map(str, rec["grid"])), [0, 0])
            counts[0] += rec["newton_iters"]
            counts[1] += rec["linear_iters"]
    print(json.dumps({"config": path, "setup_s": round(setup_s, 3),
                      "solve_s": round(solve_s, 3), "archive_s": round(archive_s, 3),
                      "peak_rss_setup_mib": peak_setup, "peak_rss_mib": peak_solve,
                      "peak_rss_archive_mib": _peak_rss_mib(),
                      "newton_gmres_per_level": levels}))
    newton = [counts[0] for counts in levels.values()]
    want = json.loads(EXPECTED.read_text()).get(Path(path).name)
    if want is None:
        print(f"no entry for {Path(path).name} in {EXPECTED.name}")
    elif newton != want:
        print(f"changed: Newton iterations per level {want} in {EXPECTED.name}, now {newton}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
