"""Run the benchmark repeatedly and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--trace 0] [workload ...]

For every workload (all by default) this runs run.py once per seed, one
after another, then prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, and their distance as a share of
the median, next to the bound in BENCHMARK.json.  The raw results go to
``perfbench/out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(run.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        path = os.path.join(run.OUT_DIR, f"spread-{workload}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(results, fh, indent=1)
        shares = {(r["failed"], r["attempted"]) for r in results}
        print(f"{workload}: {len(results)} runs, failed/attempted {sorted(shares)}, "
              f"correct {all(r['correct'] for r in results)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:32s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:7.2%}" + (f"  bound {bound:.0%}" if bound else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
