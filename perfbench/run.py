"""Benchmark of wavegal's sweep, reference and diagnostics paths.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every input is a built-in problem at fixed levels,
so ``--seed`` is recorded but changes nothing.

Each measurement runs in a fresh interpreter (``child.py``) with BLAS and
OpenMP pinned to one thread:

- ``setup_s``: median over SETUP_STARTS starts, after one discarded, of
  ``import wavegal`` + ``builtin_order2_system()`` + ``builtin_problem()``;
  half the starts come before the rounds, one between each two rounds
  and the rest after them, so that the median spans the run rather than
  one moment of a machine whose speed drifts;
- ``run_s`` and ``peak_rss_mb``: medians over whole rounds of the workload,
  one interpreter per round.  Another round is run while it and the
  starts still owed are expected to end within ``--seconds`` of the
  first measured start; there is always at least one round.

``--trace 1`` reports the per-layer metrics instead (see README.md).  The
last line of standard output is the result; details of every round go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

SETUP_STARTS = 8  # measured, after one discarded
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

SETUP_LAYERS = {"wavegal.import_s": "s", "wavelets.system_s": "s", "problems.build_s": "s"}
PER_LAYER = {
    **SETUP_LAYERS,
    "basis.build_s": "s", "basis.build_calls": "count", "basis.N": "count",
    "galerkin.stiffness_s": "s", "galerkin.stiffness_calls": "count",
    "galerkin.nnz": "count", "galerkin.useful_ratio": "ratio",
    "galerkin.stiffness_peak_mb": "MiB",
    "galerkin.load_s": "s", "galerkin.load_calls": "count",
    "galerkin.solve_s": "s", "galerkin.solve_calls": "count",
    "galerkin.kappa_s": "s", "galerkin.kappa_calls": "count",
    "galerkin.eval_s": "s", "galerkin.eval_calls": "count", "galerkin.eval_points": "count",
    "analysis.errors_s": "s", "analysis.errors_calls": "count", "analysis.errors_peak_mb": "MiB",
    "cli.reference_s": "s",
    "analysis.tail_energy_s": "s", "analysis.tail_energy_calls": "count",
    "analysis.tail_energy_peak_mb": "MiB",
    "analysis.decay_probe_s": "s", "analysis.decay_probe_calls": "count",
    "cli.self_s": "s", "cli.run_calls": "count",
    "trace.run_s": "s",
}

# one thread for every numerical library the child may load
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise ChildError(f"{' '.join(args)}: no result within {CHILD_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, trace: bool, seconds: float) -> dict:
    env = child_env()
    setup_args = ["setup", WORKLOADS[workload].problem]
    starts, start_walls, rounds = [], [], []

    def setup_start():
        t = time.monotonic()
        starts.append(run_child(setup_args, env))
        start_walls.append(time.monotonic() - t)

    run_child(setup_args, env)  # discarded
    began = time.monotonic()
    for _ in range(SETUP_STARTS // 2):
        setup_start()
    while True:
        t = time.monotonic()
        rounds.append(run_child(["work", workload, "1" if trace else "0"], env))
        last = time.monotonic() - t
        owed = (SETUP_STARTS - len(starts)) * statistics.mean(start_walls)
        if time.monotonic() - began + last + owed > seconds:
            break
        if len(starts) < SETUP_STARTS - 1:
            setup_start()
    while len(starts) < SETUP_STARTS:
        setup_start()
    return {"starts": starts, "rounds": rounds}


def summarize(data: dict, trace: bool) -> dict:
    starts, rounds = data["starts"], data["rounds"]
    if trace:
        values = {k: statistics.median(s[k] for s in starts) for k in SETUP_LAYERS}
        values.update({k: statistics.median(r["layers"][k] for r in rounds)
                       for k in PER_LAYER if k not in SETUP_LAYERS})
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(sum(s.values()) for s in starts),
            "run_s": statistics.median(r["run_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = END_TO_END
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wavegal", "__init__.py")):
        print(f"no wavegal package under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2
    try:
        data = measure(args.workload, bool(args.trace), args.seconds)
    except ChildError as e:
        print(f"benchmark child failed: {e}", file=sys.stderr)
        return 1
    result = summarize(data, bool(args.trace))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"args": vars(args), "result": result, **data}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
