"""End-to-end acceptance suite.

Each test is one acceptance criterion and prints a single PASS line with
the measured quantities when it succeeds (pytest shows the prints with
-v on failure, and the test name carries the pass/fail verdict).  The
heavyweight sweeps are shared through module-scoped fixtures.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from wavegal.analysis import (
    ConvergenceRecord,
    coefficient_decay_probe,
    convergence_orders,
    error_norms,
    tail_energy,
)
from wavegal.basis import enriched_basis, truncated_basis
from wavegal.cli import ExperimentConfig, run
from wavegal.galerkin import assemble, condition_number, solve
from wavegal.problems import ExactSolution, InterfaceProblem, builtin_problem
from wavegal.wavelets import builtin_order2_system, full_verification


@pytest.fixture(scope="module")
def sys2():
    return builtin_order2_system()


@pytest.fixture(scope="module")
def ex1():
    return builtin_problem("ex1")


@pytest.fixture(scope="module")
def ex2():
    return builtin_problem("ex2")


def sweep(sys2, problem, jmin, jmax, mode="enriched"):
    """Solve the problem over a level range, returning timed records."""
    t0 = time.perf_counter()
    records = []
    for J in range(jmin, jmax + 1):
        if mode == "enriched":
            basis = enriched_basis(sys2, sys2.J0, J, problem.gamma)
        else:
            basis = truncated_basis(sys2, sys2.J0, J)
        system = assemble(basis, problem)
        sol = solve(system)
        kappa = condition_number(system.A)
        pair = error_norms(sol, problem)
        records.append(ConvergenceRecord(J, len(basis), kappa, pair.E_L2, pair.E_H1))
    convergence_orders(records)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ex2_enriched(sys2, ex2):
    return sweep(sys2, ex2, 5, 10, mode="enriched")


@pytest.fixture(scope="module")
def ex1_fem(sys2, ex1):
    return sweep(sys2, ex1, 6, 10, mode="fem")


def test_criterion_01_system_verification():
    """All wavelet-system verification residuals pass, construction < 5 s."""
    builtin_order2_system.cache_clear()
    t0 = time.perf_counter()
    sys2 = builtin_order2_system()
    report = full_verification(sys2)
    elapsed = time.perf_counter() - t0
    assert report.all_passed, str(report)
    assert elapsed < 5.0, f"system construction took {elapsed:.2f} s"
    print(f"criterion 1: PASS (worst residual {max(report.checks.values()):.1e}, {elapsed:.2f} s)")


def test_criterion_02_patch_test(sys2):
    """A point load at a dyadic interface is reproduced to roundoff: the
    exact tent solution lies in the discrete span at every level."""
    t0 = time.perf_counter()
    tent = lambda x: -0.5 * np.minimum(np.asarray(x), 1 - np.asarray(x))
    dtent = lambda x: np.where(np.asarray(x) < 0.5, -0.5, 0.5)
    zero = lambda x: np.zeros(np.shape(x))
    one = lambda x: np.ones(np.shape(x))
    problem = InterfaceProblem(
        gamma=0.5, a_minus=one, a_plus=one, f_minus=zero, f_plus=zero, g_gamma=1.0,
        exact=ExactSolution(tent, tent, dtent, dtent),
    )
    worst = 0.0
    for J in range(2, 9):
        basis = enriched_basis(sys2, 2, J, 0.5)
        sol = solve(assemble(basis, problem))
        pair = error_norms(sol, problem)
        worst = max(worst, pair.E_L2)
        assert pair.E_L2 <= 1e-9, f"patch test failed at J={J}: E_L2={pair.E_L2:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"patch test took {elapsed:.2f} s"
    print(f"criterion 2: PASS (worst E_L2 {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_03_enriched_convergence_orders(ex2_enriched):
    """Enriched sweep on the Dirac-load jump problem: second-order L2 and
    first-order H1 on average, with the expected basis dimensions."""
    records, elapsed = ex2_enriched
    assert [r.N_J for r in records] == [75, 142, 273, 532, 1047, 2074]
    ord_l2 = [r.Ord_L2_h for r in records[1:]]
    ord_h1 = [r.Ord_H1_h for r in records[1:]]
    mean_l2 = sum(ord_l2) / len(ord_l2)
    mean_h1 = sum(ord_h1) / len(ord_h1)
    assert 1.75 <= mean_l2 <= 2.6, f"mean Ord_L2_h={mean_l2:.3f} outside [1.75, 2.6]"
    assert 0.8 <= mean_h1 <= 1.6, f"mean Ord_H1_h={mean_h1:.3f} outside [0.8, 1.6]"
    assert elapsed < 120.0, f"sweep took {elapsed:.1f} s"
    print(
        f"criterion 3: PASS (mean Ord_L2_h={mean_l2:.2f}, "
        f"mean Ord_H1_h={mean_h1:.2f}, {elapsed:.1f} s)"
    )


def test_criterion_04_unenriched_degradation(ex1_fem):
    """Without enrichment the same space stalls: the L2 error plateaus at
    the interface-approximation floor, so the average measured order over
    the final refinements drops below one."""
    records, elapsed = ex1_fem
    assert [r.N_J for r in records] == [2**J - 1 for J in range(7, 12)]
    orders = [r.Ord_L2_h for r in records[1:]]
    avg = sum(orders) / len(orders)
    assert avg < 1.0, f"average Ord_L2_h={avg:.3f}, expected stalling (< 1.0)"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"
    print(f"criterion 4: PASS (average Ord_L2_h={avg:.2f}, {elapsed:.1f} s)")


def test_criterion_05_condition_numbers_flat(ex2_enriched):
    """Condition numbers of the rescaled stiffness matrices stay flat
    across levels (ratio of the largest to smallest at most 3)."""
    records, _ = ex2_enriched
    kappas = [r.kappa for r in records]
    ratio = max(kappas) / min(kappas)
    assert all(np.isfinite(k) and k > 1 for k in kappas)
    assert ratio <= 3.0, f"kappa ratio {ratio:.2f} over levels {kappas}"
    print(f"criterion 5: PASS (kappa in [{min(kappas):.2e}, {max(kappas):.2e}], ratio {ratio:.2f})")


def test_criterion_06_coefficient_decay(sys2, ex1):
    """Dual-coefficient decay of the exact solution splits into a fast
    family away from the interface and a slow family touching it."""
    t0 = time.perf_counter()
    away, touch = coefficient_decay_probe(ex1.u, sys2, ex1.gamma, range(4, 13))
    elapsed = time.perf_counter() - t0
    assert away.slope <= -0.8, f"away-family slope {away.slope:.3f} > -0.8"
    assert touch.slope <= -0.3, f"touching-family slope {touch.slope:.3f} > -0.3"
    assert away.slope < touch.slope, "away family must decay faster"
    assert elapsed < 30.0, f"decay probe took {elapsed:.1f} s"
    print(
        f"criterion 6: PASS (slopes away={away.slope:.2f}, "
        f"touching={touch.slope:.2f}, {elapsed:.1f} s)"
    )


def test_criterion_07_tail_energy_scaling(sys2, ex1):
    """Both discarded-coefficient energy tails shrink by a factor between
    3 and 5 per unit increase of the truncation level."""
    t0 = time.perf_counter()
    levels = range(5, 10)
    smooth, interface = [], []
    for J in levels:
        s, i = tail_energy(ex1.u, sys2, ex1.gamma, J)
        smooth.append(s)
        interface.append(i)
    elapsed = time.perf_counter() - t0
    assert all(v > 0 for v in smooth + interface)
    f_smooth = 2.0 ** -np.polyfit(list(levels), np.log2(smooth), 1)[0]
    f_interface = 2.0 ** -np.polyfit(list(levels), np.log2(interface), 1)[0]
    assert 3.0 <= f_smooth <= 5.0, f"smooth-tail factor {f_smooth:.2f} outside [3, 5]"
    assert 3.0 <= f_interface <= 5.0, f"interface-tail factor {f_interface:.2f} outside [3, 5]"
    print(
        f"criterion 7: PASS (reduction factors smooth={f_smooth:.2f}, "
        f"interface={f_interface:.2f}, {elapsed:.1f} s)"
    )


def test_criterion_08_sparse_matches_dense(sys2):
    """The sparse direct solve agrees with dense elimination to 1e-9
    relative accuracy on a batch of randomized problems."""
    rng = np.random.default_rng(12345)

    def const(v):
        return lambda x, v=float(v): np.full(np.shape(x), v, dtype=float)

    def poly(coeffs):
        return lambda x, c=tuple(coeffs): np.polyval(c, np.asarray(x, dtype=float))

    worst = 0.0
    for trial in range(20):
        gamma = float(rng.uniform(0.1, 0.9))
        am, ap = (float(v) for v in rng.uniform(0.5, 50.0, size=2))
        fm = poly(rng.uniform(-5, 5, size=3))
        fp = poly(rng.uniform(-5, 5, size=3))
        g = float(rng.uniform(-3, 3))
        p = InterfaceProblem(
            gamma=gamma, a_minus=const(am), a_plus=const(ap),
            f_minus=fm, f_plus=fp, g_gamma=g,
        )
        basis = enriched_basis(sys2, 2, 4, gamma)
        assert len(basis) <= 40
        system = assemble(basis, p)
        c_sp = solve(system).coefficients
        c_dn = np.linalg.solve(system.A.toarray(), system.b)
        rel = np.linalg.norm(c_sp - c_dn) / np.linalg.norm(c_dn)
        worst = max(worst, rel)
        assert rel <= 1e-9, f"trial {trial}: relative difference {rel:.2e}"
    print(f"criterion 8: PASS (worst relative difference {worst:.1e} over 20 trials)")


def test_criterion_09_deterministic_outputs(tmp_path):
    """Two identical full pipeline runs produce byte-identical CSV output."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        run(ExperimentConfig(problem="ex2", jmin=2, jmax=5, out=str(out)))
        outs.append(out / "ex2_enriched.csv")
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert filecmp.cmp(outs[0], outs[1], shallow=False)
    print(f"criterion 9: PASS (byte-identical CSV, {outs[0].stat().st_size} bytes)")


def test_criterion_10_higher_order_system():
    """Convergence at order m for a supplied system with m >= 3."""
    pytest.skip(
        "no order m >= 3 system definition file is available: the shipped "
        "construction is the order-2 spline system, and the file format "
        "accepts external higher-order systems only if they pass the full "
        "verification battery, which none has been provided to do"
    )
