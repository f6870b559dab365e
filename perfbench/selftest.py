"""Tests of the benchmark itself (not part of the package's test suite).

    python3 perfbench/selftest.py

They show that the closed forms solve their problems, that the checks
pass the program's Galerkin solution and refuse a perturbed one, that
the per-layer tracer adds up, and that the benchmark refuses to run
where there is no package to measure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Layer, Tracer, _RssSampler  # noqa: E402


def _fd(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


class ClosedForms(unittest.TestCase):
    def check_interface_problem(self, ex, flux_jump, source):
        (um, up), (dum, dup), (am, ap) = ex.u, ex.du, ex.a
        g = ex.gamma
        x = np.array([0.0, 1.0, g])
        self.assertAlmostEqual(float(um(x[:1])[0]), 0.0, places=14)
        self.assertAlmostEqual(float(up(x[1:2])[0]), 0.0, places=14)
        self.assertAlmostEqual(float(um(x[2:])[0]), float(up(x[2:])[0]), places=12)
        jump = float(ap(x[2:])[0] * dup(x[2:])[0] - am(x[2:])[0] * dum(x[2:])[0])
        self.assertTrue(math.isclose(jump, flux_jump, rel_tol=1e-10, abs_tol=1e-10))
        for side, pts in ((0, np.linspace(0.05, g - 0.05, 7)), (1, np.linspace(g + 0.05, 0.95, 7))):
            np.testing.assert_allclose(_fd(ex.u[side], pts), ex.du[side](pts), rtol=1e-7)
            flux = lambda y: ex.a[side](y) * ex.du[side](y)  # noqa: E731
            np.testing.assert_allclose(-_fd(flux, pts, 1e-4), source[side](pts),
                                       rtol=1e-5, atol=1e-5)

    def test_ex2(self):
        A, G = 2.0e4, math.sqrt(2) / 2
        g = (1 - A) * math.sin(1 - G) - A * math.exp(G) + 2 * A - 1
        self.check_interface_problem(
            oracle.ex2_exact(), g, (lambda x: -np.exp(x), lambda x: -A * np.sin(G - x)))
        self.assertAlmostEqual(oracle.ex2_exact().energy_sq(), 643.10556405, places=7)

    def test_ex3(self):
        one = lambda x: np.ones_like(x)  # noqa: E731
        self.check_interface_problem(oracle.ex3_exact(), 0.0, (one, one))
        self.assertAlmostEqual(oracle.ex3_exact().energy_sq(), 0.0120184501, places=10)


class LevelChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        import wavegal

        sysdef = wavegal.builtin_order2_system()
        problem = wavegal.builtin_problem("ex2")
        cls.basis = wavegal.enriched_basis(sysdef, sysdef.J0, 6, problem.gamma)
        cls.system = wavegal.assemble(cls.basis, problem)
        cls.c = wavegal.solve(cls.system).coefficients
        cls.exact = oracle.ex2_exact()
        cls.energy_sq = cls.exact.energy_sq()

    def errors(self, c):
        return oracle.level_errors(self.exact, self.basis, c, self.system.b, self.energy_sq)

    def test_galerkin_solution_passes_energy_check(self):
        errs = self.errors(self.c)
        self.assertTrue(oracle.energy_ok(errs), errs)
        self.assertTrue(oracle.reported_ok(errs, errs["E_L2"] * 1.035, errs["E_H1"] / 1.035))

    def test_perturbed_coefficients_fail_energy_check(self):
        rng = np.random.default_rng(0)
        for c in (self.c * (1 + 1e-3), self.c + 1e-3 * np.abs(self.c).max() * rng.standard_normal(len(self.c))):
            self.assertFalse(oracle.energy_ok(self.errors(c)))

    def test_under_reported_error_fails_report_check(self):
        errs = self.errors(self.c)
        self.assertFalse(oracle.reported_ok(errs, errs["E_L2"], errs["E_H1"] / 1.26))

    def test_synthesis_matches_program_evaluation(self):
        tables = oracle.basis_tables(self.basis)
        for i in (0, len(self.basis) // 2, len(self.basis) - 1):
            c = np.zeros(len(self.basis))
            c[i] = 1.0
            x, _, u, _ = oracle.synthesize(tables, c, self.exact.gamma)
            np.testing.assert_allclose(u, self.basis[i].primal.evaluate_array(x), atol=1e-12)


class Tracing(unittest.TestCase):
    def test_self_times_and_counts_add_up(self):
        import time

        mod = types.ModuleType("perfbench_toy")

        def inner(x):
            time.sleep(0.02)
            return x

        def outer(x):
            time.sleep(0.01)
            return mod.inner(x) + mod.inner(x)

        mod.inner, mod.outer = inner, outer
        sys.modules[mod.__name__] = mod
        tracer = Tracer((Layer("toy.outer", mod.__name__, "outer", peak=True),
                         Layer("toy.inner", mod.__name__, "inner")))
        tracer.install()
        try:
            t0 = time.perf_counter()
            self.assertEqual(mod.outer(2), 4)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
            del sys.modules[mod.__name__]
        self.assertIs(mod.outer, outer)
        m = tracer.metrics()
        self.assertEqual((m["toy.outer_calls"], m["toy.inner_calls"]), (1, 2))
        self.assertGreaterEqual(m["toy.inner_s"], 0.04)
        self.assertTrue(0.01 <= m["toy.outer_s"] < 0.02)
        self.assertLessEqual(m["toy.outer_s"] + m["toy.inner_s"], wall)
        self.assertEqual([s["parent"] for s in tracer.span_records()], [None, 0, 0])

    def test_sampler_idles_without_watches(self):
        sampler = _RssSampler()
        try:
            self.assertFalse(sampler._active.is_set())
            outer, inner = sampler.open(), sampler.open()
            sampler.close(inner)
            self.assertTrue(sampler._active.is_set())
            sampler.close(outer)
            self.assertFalse(sampler._active.is_set())
        finally:
            sampler.stop()
        self.assertFalse(sampler._thread.is_alive())


class Harness(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))

    def test_refuses_without_package(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ex2-enriched",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
