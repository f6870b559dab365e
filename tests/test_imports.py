"""What `import wavegal` loads, and the names the package root exports."""

import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import wavegal

# every name the package root exported before its solver names were loaded
# on first access, by the module that defines it
ROOT_EXPORTS = {
    "wavegal.piecewise": ("Interval", "PiecewisePolynomial", "inner_product"),
    "wavegal.wavelets": (
        "SystemFormatError", "SystemVerificationError", "VerificationReport", "WaveletSystem",
        "builtin_order2_system", "full_verification", "load_system", "save_system",
    ),
    "wavegal.basis": ("BasisFunction", "EnrichedBasis", "enriched_basis", "interface_set",
                      "truncated_basis"),
    "wavegal.galerkin": (
        "DiscreteSolution", "LinearSystem", "SolverError", "assemble", "assemble_load",
        "assemble_stiffness", "condition_number", "solve",
    ),
    "wavegal.analysis": (
        "ConvergenceRecord", "DecayProbe", "ErrorPair", "coefficient_decay_probe",
        "convergence_orders", "error_norms", "evaluate_solution", "tail_energy",
        "write_records_csv",
    ),
    "wavegal.expressions": ("Expression", "ExpressionError", "parse_expression"),
    "wavegal.problems": ("BUILTIN_PROBLEMS", "ExactSolution", "InterfaceProblem",
                         "builtin_problem", "problem_from_spec"),
}

# system, problems, a save/load round trip, a basis and both decay
# diagnostics on ex1; then the solver module, which loads scipy
NO_SCIPY = """
import json, os, sys, tempfile
import wavegal as wg

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

sys2 = wg.builtin_order2_system()
ex1, _, _ = (wg.builtin_problem(p) for p in ("ex1", "ex2", "ex3"))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "sys.txt")
    wg.save_system(sys2, path)
    wg.load_system(path)
wg.enriched_basis(sys2, sys2.J0, 5, ex1.gamma)
wg.tail_energy(ex1.u, sys2, ex1.gamma, 5)
wg.coefficient_decay_probe(ex1.u, sys2, ex1.gamma, range(4, 9))
before = scipy_modules()
import wavegal.galerkin
print(json.dumps({"before": before, "after": scipy_modules()}))
"""


def test_system_problems_and_diagnostics_load_no_scipy():
    # a fresh interpreter, importing the package this one imported
    src = os.path.dirname(os.path.dirname(os.path.abspath(wavegal.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True, text=True, check=True, env=env)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded["before"] == []
    assert "scipy.sparse.linalg" in loaded["after"]


@pytest.mark.parametrize("module", sorted(ROOT_EXPORTS))
def test_root_exports_are_the_defining_objects(module):
    mod = importlib.import_module(module)
    for name in ROOT_EXPORTS[module]:
        assert getattr(wavegal, name) is getattr(mod, name), name
        assert name in dir(wavegal)


def test_unknown_root_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        wavegal.no_such_name  # noqa: B018


def test_names_the_benchmark_reads_resolve(monkeypatch):
    # perfbench wraps the layers' module attributes, drives cli.run and has its
    # oracle read each basis function's primal, so removing any of them fails
    # here, and not only in a traced benchmark round
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        assert callable(getattr(importlib.import_module(layer.module), layer.attr)), layer.name

    import wavegal.cli as cli

    assert callable(cli.run) and callable(cli.ExperimentConfig)
    # its workloads build their configs by these keywords, and their problems
    # by one positional id
    cfg = cli.ExperimentConfig(problem="ex2", jmin=2, jmax=3)
    assert (cfg.problem, cfg.jmin, cfg.jmax) == ("ex2", 2, 3)
    assert list(inspect.signature(wavegal.builtin_problem).parameters) == ["pid"]
    assert wavegal.builtin_problem("ex2").name == "ex2"
    # the benchmark's hook calls it positionally
    assert list(inspect.signature(cli.enriched_basis).parameters) == ["sys", "J0", "J", "gamma"]
    sys2 = wavegal.builtin_order2_system()
    basis = cli.enriched_basis(sys2, sys2.J0, sys2.J0 + 1, 0.3)
    assert [bf.primal for bf in basis]
    pp = basis[0].primal
    x = np.linspace(float(pp.breakpoints[0]), float(pp.breakpoints[-1]), 5)
    assert pp.evaluate_array(x).shape == x.shape and len(pp.pieces) == len(pp.breakpoints) - 1
