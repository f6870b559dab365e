"""One fresh interpreter of the benchmark, started by run.py.

    python3 perfbench/child.py setup <problem>
        times ``import wavegal``, ``builtin_order2_system()`` and
        ``builtin_problem(<problem>)`` in this interpreter.
    python3 perfbench/child.py work <workload> <trace 0|1>
        sets up untimed, then runs one round of the workload.

Either way the last line of standard output is one JSON object.  The
package must come from the ``src`` directory next to this one.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_wavegal():
    import wavegal

    src = os.path.join(ROOT, "src", "wavegal")
    if os.path.dirname(os.path.abspath(wavegal.__file__)) != src:
        raise SystemExit(f"wavegal imported from {wavegal.__file__}, expected {src}")
    return wavegal


def setup(problem: str) -> dict:
    t0 = time.perf_counter()
    wavegal = _import_wavegal()
    t1 = time.perf_counter()
    wavegal.builtin_order2_system()
    t2 = time.perf_counter()
    wavegal.builtin_problem(problem)
    t3 = time.perf_counter()
    return {"wavegal.import_s": t1 - t0, "wavelets.system_s": t2 - t1,
            "problems.build_s": t3 - t2}


def work(name: str, trace: bool) -> dict:
    wavegal = _import_wavegal()
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    sysdef = wavegal.builtin_order2_system()
    problem = wavegal.builtin_problem(wl.problem)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = wl.run(sysdef, problem)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run_s = out.run_s - (tracer.overhead_s if tracer else 0.0)
    result = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "correct": out.correct,
        "problems": out.problems,
        "ops": out.ops,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.reference_s"] = out.reference_s
        layers["cli.run_calls"] = out.cli_runs
        # the CLI's own time: what the wrapped layers leave of the run
        layers["cli.self_s"] = run_s - sum(tracer.self_s.values()) if out.cli_runs else 0.0
        layers["trace.run_s"] = run_s
        result["layers"] = layers
        result["spans"] = tracer.span_records()
    return result


def main(argv: list) -> int:
    if argv[0] == "setup":
        result = setup(argv[1])
    elif argv[0] == "work":
        result = work(argv[1], argv[2] == "1")
    else:
        raise SystemExit(f"unknown child mode {argv[0]!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
