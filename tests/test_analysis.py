"""Unit tests for error norms, convergence orders, and decay diagnostics."""

import math
from fractions import Fraction

import numpy as np
import pytest

from wavegal.analysis import (
    CSV_HEADER,
    ConvergenceRecord,
    _coeffs_vectorized,
    _DualQuad,
    _level_coefficients,
    _level_families,
    coefficient_decay_probe,
    convergence_orders,
    error_norms,
    tail_energy,
    write_records_csv,
)
from wavegal.basis import enriched_basis
from wavegal.galerkin import DiscreteSolution, InterfaceProblem, assemble, solve
from wavegal.problems import builtin_problem
from wavegal.wavelets import builtin_order2_system


@pytest.fixture(scope="module")
def sys2():
    return builtin_order2_system()


def union_gauss(bases, gamma):
    """10-point Gauss nodes and weights on the cells of the union of all
    basis breakpoints plus gamma, built from the exact breakpoints."""
    edges = {b for basis in bases for bf in basis for b in bf.primal.breakpoints}
    edges = np.array([float(e) for e in sorted(edges | {Fraction(gamma)})])
    t, wt = np.polynomial.legendre.leggauss(10)
    h = np.diff(edges)
    x = (edges[:-1, None] + h[:, None] * (t + 1) / 2).ravel()
    return x, (h[:, None] * wt / 2).ravel()


def expand(sol, x):
    """u_J and u_J' at sorted x, one basis function at a time."""
    u = np.zeros_like(x)
    du = np.zeros_like(x)
    for c, bf in zip(sol.coefficients, sol.basis):
        i0, i1 = np.searchsorted(x, [float(bf.support.lo), float(bf.support.hi)])
        u[i0:i1] += c * bf.primal.evaluate_array(x[i0:i1])
        du[i0:i1] += c * bf.primal.derivative().evaluate_array(x[i0:i1])
    return u, du


def zero_solution(sys2, J=2, gamma=0.3):
    eb = enriched_basis(sys2, 2, J, gamma)
    return DiscreteSolution(np.zeros(eb.N), eb)


class TestErrorNorms:
    def test_zero_against_polynomial_reference(self, sys2):
        sol = zero_solution(sys2)
        u = lambda x: x * (1 - x)
        du = lambda x: 1 - 2 * np.asarray(x)
        pair = error_norms(sol, (u, du))
        assert pair.E_L2 == pytest.approx(1 / math.sqrt(30), abs=1e-6)
        assert pair.E_H1 == pytest.approx(math.sqrt(1 / 3), abs=1e-6)

    def test_self_reference_is_zero(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        rng = np.random.default_rng(0)
        sol = DiscreteSolution(rng.normal(size=eb.N), eb)
        pair = error_norms(sol, sol)
        assert pair.E_L2 == 0.0 and pair.E_H1 == 0.0

    def test_h1_error_resolves_enrichment_levels(self, sys2):
        # ex2 at J=9 has enrichment levels up to 17, which a uniform grid misses
        p = builtin_problem("ex2")
        sol = solve(assemble(enriched_basis(sys2, 2, 9, p.gamma), p))
        x, w = union_gauss([sol.basis], p.gamma)
        u, du = expand(sol, x)
        pair = error_norms(sol, p)
        assert pair.E_H1 == pytest.approx(math.sqrt(w @ (du - p.du(x)) ** 2), rel=1e-10)
        assert pair.E_L2 == pytest.approx(math.sqrt(w @ (u - p.u(x)) ** 2), rel=1e-10)

    def test_discrete_reference_mesh(self, sys2):
        # the reference's own, finer breakpoints are part of the mesh
        p = builtin_problem("ex2")
        sol = solve(assemble(enriched_basis(sys2, 2, 3, p.gamma), p))
        ref = solve(assemble(enriched_basis(sys2, 2, 5, p.gamma), p))
        x, w = union_gauss([sol.basis, ref.basis], p.gamma)
        (u, du), (ur, dur) = expand(sol, x), expand(ref, x)
        pair = error_norms(sol, ref)
        assert pair.E_H1 == pytest.approx(math.sqrt(w @ (du - dur) ** 2), rel=1e-10)
        assert pair.E_L2 == pytest.approx(math.sqrt(w @ (u - ur) ** 2), rel=1e-10)

    def test_bad_reference_type(self, sys2):
        sol = zero_solution(sys2)
        with pytest.raises(TypeError):
            error_norms(sol, object())
        with pytest.raises(ValueError):
            error_norms(sol, None)


class TestConvergenceOrders:
    def make(self, es, ns):
        return [
            ConvergenceRecord(J=i + 2, N_J=n, kappa=1.0, E_L2=e, E_H1=e)
            for i, (e, n) in enumerate(zip(es, ns))
        ]

    def test_quartering_errors_doubled_unknowns(self):
        recs = convergence_orders(self.make([1.0, 0.25, 0.0625], [10, 20, 40]))
        assert recs[0].Ord_L2_h is None
        for r in recs[1:]:
            assert r.Ord_L2_h == pytest.approx(2.0, abs=1e-12)
            assert r.Ord_L2_N == pytest.approx(2.0, abs=1e-12)

    def test_known_pair(self):
        recs = convergence_orders(self.make([2.78e-6, 6.32e-7], [1047, 2074]))
        assert round(recs[1].Ord_L2_h, 2) == 2.14
        assert round(recs[1].Ord_L2_N, 2) == 2.17

    def test_single_record_has_no_orders(self):
        (r,) = convergence_orders(self.make([1.0], [10]))
        assert r.Ord_L2_h is None and r.Ord_H1_N is None

    def test_zero_error_leaves_order_undefined(self):
        recs = convergence_orders(self.make([1.0, 0.0], [10, 20]))
        assert recs[1].Ord_L2_h is None

    def test_rescaling_invariance(self):
        a = convergence_orders(self.make([1e-2, 3e-3, 8e-4], [10, 20, 40]))
        b = convergence_orders(self.make([1e2, 3e1, 8e0], [10, 20, 40]))
        assert a[2].Ord_L2_h == pytest.approx(b[2].Ord_L2_h, rel=1e-12)

    def test_levels_must_increase(self):
        recs = self.make([1.0, 0.5], [10, 20])
        recs[1].J = recs[0].J
        with pytest.raises(ValueError):
            convergence_orders(recs)


class TestCsvOutput:
    def test_header_and_blank_orders(self, tmp_path):
        recs = convergence_orders(
            [
                ConvergenceRecord(2, 10, 1.5e4, 1e-3, 1e-2),
                ConvergenceRecord(3, 21, 1.5e4, 2.5e-4, 5e-3),
            ]
        )
        p = tmp_path / "out.csv"
        write_records_csv(recs, p)
        lines = p.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        first = lines[1].split(",")
        assert first[0] == "2" and first[4] == ""  # no order on the first row
        assert lines[2].split(",")[4] == "2.0000"


class TestDecayFamilies:
    def test_partition_counts(self, sys2):
        g = math.pi / 6
        for j in (4, 6, 9):
            interior, boundary = _level_families(sys2, j, g)
            total = sum(len(a) + len(t) for _, a, t in interior) + len(boundary)
            assert total == 2**j

    def test_touching_matches_enrichment_rule(self, sys2):
        from wavegal.basis import interface_set

        g = math.pi / 6
        for j in (5, 8):
            interior, boundary = _level_families(sys2, j, g)
            ks = sorted(int(k) for _, _, t in interior for k in t)
            ks += sorted(k for _, k, is_t in boundary if is_t)
            want = sorted(bf.k for bf in interface_set(sys2, j, g))
            assert ks == want

    def test_linear_function_kills_interior_away_coefficients(self, sys2):
        # two vanishing moments annihilate global linears exactly
        u = lambda x: np.asarray(x, dtype=float)
        for j in (4, 7):
            ks = np.array(sys2.interior_range("wavelet", j))
            c = _coeffs_vectorized(u, _DualQuad(sys2.psi_dual[0]), j, ks)
            assert float(c.max()) < 1e-12

    def test_level_coefficients_shapes(self, sys2):
        u = lambda x: np.sin(3 * np.asarray(x))
        away, touch = _level_coefficients(u, sys2, 5, math.pi / 6)
        assert len(away) + len(touch) == 2**5
        assert len(touch) >= 1


def kinked_u(g):
    """Continuous, boundary-vanishing, smooth except for a derivative kink
    at g: sin(pi x) plus |x - g| minus its linear interpolant on [0, 1]."""

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.sin(np.pi * x) + np.abs(x - g) - g - x * (1 - 2 * g)

    return u


class TestDecayProbe:
    def test_smooth_vs_kinked_slopes(self, sys2):
        g = 0.4
        u = kinked_u(g)
        away, touch = coefficient_decay_probe(u, sys2, g, range(4, 11))
        assert away.slope <= -1.2  # vanishing-moment driven decay
        assert -1.0 <= touch.slope <= -0.25  # kink-limited decay
        assert away.slope < touch.slope

    def test_needs_enough_levels(self, sys2):
        u = lambda x: np.asarray(x)
        with pytest.raises(ValueError, match="at least 4 levels"):
            coefficient_decay_probe(u, sys2, 0.4, range(4, 7))


class TestTailEnergy:
    def test_in_span_function_has_negligible_smooth_tail(self, sys2):
        # the tent with its only kink at gamma: every away-family dual sees
        # a globally linear restriction, so the smooth tail is roundoff
        g = 0.5
        u = lambda x: -0.5 * np.minimum(np.asarray(x), 1 - np.asarray(x))
        smooth, interface = tail_energy(u, sys2, g, J=4)
        assert smooth < 1e-16
        assert interface < 1e-4

    def test_tails_decrease_with_level(self, sys2):
        g = 0.4
        u = kinked_u(g)
        s4, i4 = tail_energy(u, sys2, g, J=4)
        s6, i6 = tail_energy(u, sys2, g, J=6)
        assert 0 < s6 < s4
        assert 0 < i6 < i4
