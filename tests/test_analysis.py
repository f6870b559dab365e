"""Unit tests for error norms, convergence orders, and decay diagnostics."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from wavegal.analysis import (
    CSV_HEADER,
    _LATTICE_CHUNK,
    DECAY_QUAD_NODES,
    ConvergenceRecord,
    _dual_lattices,
    _lattice,
    _lattice_coefficients,
    _level_coefficients,
    _level_families,
    coefficient_decay_probe,
    convergence_orders,
    error_norms,
    tail_energy,
    write_records_csv,
)
from wavegal.basis import enriched_basis, truncated_basis
from wavegal.galerkin import DiscreteSolution, assemble, solve
from wavegal.piecewise import PiecewisePolynomial, gauss_rule, inner_product
from wavegal.problems import ExactSolution, InterfaceProblem, builtin_problem
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


def zero_problem(gamma=0.3, exact=None):
    zero, one = (lambda x, v=v: np.full(np.shape(x), v) for v in (0.0, 1.0))
    return InterfaceProblem(gamma=gamma, a_minus=one, a_plus=one, f_minus=zero, f_plus=zero,
                            exact=exact)


def zero_solution(sys2, J=2, gamma=0.3):
    eb = enriched_basis(sys2, 2, J, gamma)
    return DiscreteSolution(np.zeros(len(eb)), eb, assemble(eb, zero_problem(gamma)).form)


class TestErrorNorms:
    def test_zero_against_polynomial_reference(self, sys2):
        sol = zero_solution(sys2)
        u = lambda x: x * (1 - x)
        du = lambda x: 1 - 2 * np.asarray(x)
        pair = error_norms(sol, zero_problem(exact=ExactSolution(u, u, du, du)))
        assert pair.E_L2 == pytest.approx(1 / math.sqrt(30), abs=1e-6)
        assert pair.E_H1 == pytest.approx(math.sqrt(1 / 3), abs=1e-6)

    def test_h1_error_resolves_enrichment_levels(self, sys2):
        # ex2 at J=9 has enrichment levels up to 17, which a uniform grid misses
        p = builtin_problem("ex2")
        sol = solve(assemble(enriched_basis(sys2, 2, 9, p.gamma), p))
        x, w = union_gauss([sol.basis], p.gamma)
        u, du = expand(sol, x)
        pair = error_norms(sol, p)
        assert pair.E_H1 == pytest.approx(math.sqrt(w @ (du - p.du(x)) ** 2), rel=1e-10)
        assert pair.E_L2 == pytest.approx(math.sqrt(w @ (u - p.u(x)) ** 2), rel=1e-10)

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    @pytest.mark.parametrize("enriched", [True, False])
    def test_solved_and_hand_built_agree_bit_for_bit(self, sys2, name, enriched):
        # a solution hand-built on the mesh of a second assembly of its basis
        # measures what the solved one does, against the problem or against
        # the problem's values at the mesh's nodes
        p = builtin_problem(name)
        basis = enriched_basis(sys2, 2, 6, p.gamma) if enriched else truncated_basis(sys2, 2, 6)
        sol = solve(assemble(basis, p))
        hand = DiscreteSolution(sol.coefficients, basis, assemble(basis, p).form)
        want = error_norms(sol, p)
        assert error_norms(hand, p) == want
        assert error_norms(hand, p.exact.values(p.gamma, hand.form.nodes())) == want

    def test_bad_reference_type(self, sys2):
        sol = zero_solution(sys2)
        with pytest.raises(TypeError):
            error_norms(sol, object())
        with pytest.raises(TypeError):  # references are exact solutions, never discrete
            error_norms(sol, sol)
        with pytest.raises(TypeError):
            error_norms(sol, None)
        with pytest.raises(ValueError, match="no exact solution"):
            error_norms(sol, zero_problem())


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


def kinked_u(g):
    """Continuous, boundary-vanishing, smooth except for a derivative kink
    at g: sin(pi x) plus |x - g| minus its linear interpolant on [0, 1]."""

    def u(x):
        x = np.asarray(x, dtype=float)
        return np.sin(np.pi * x) + np.abs(x - g) - g - x * (1 - 2 * g)

    return u


class TestDecayFamilies:
    def test_partition_counts(self, sys2):
        lattices = _dual_lattices(sys2)
        for g in (math.pi / 6, 0.5, 0.02):
            for j in (4, 6, 9):
                families = _level_families(sys2, j, g, lattices)
                assert sum(len(ks) for _, ks, _ in families) == 2**j
                assert all(t.start >= ks.start and t.stop <= ks.stop for _, ks, t in families)

    def test_touching_matches_enrichment_rule(self, sys2):
        from wavegal.basis import interface_set

        lattices = _dual_lattices(sys2)
        for g in (math.pi / 6, 0.5, 0.375, 0.02):
            for j in (5, 8):
                ks = sorted(k for _, _, t in _level_families(sys2, j, g, lattices) for k in t)
                want = sorted(interface_set(sys2, j, g)[:, 3].tolist())
                assert ks == want

    def test_linear_function_kills_interior_away_coefficients(self, sys2):
        # two vanishing moments annihilate global linears exactly
        u = lambda x: np.asarray(x, dtype=float)
        for j in (4, 7):
            ks = sys2.interior_range("wavelet", j)
            lat = _lattice(sys2.psi_dual[0], "interior")
            c = np.concatenate(list(_lattice_coefficients(u, lat, j, ks, 0.4)))
            assert len(c) == len(ks)
            assert float(np.abs(c).max()) < 1e-12

    def test_level_coefficients_shapes(self, sys2):
        u = lambda x: np.sin(3 * np.asarray(x))
        level = _level_coefficients(u, sys2, 5, math.pi / 6, _dual_lattices(sys2))
        assert level.n_away + len(level.touching) == 2**5
        assert len(level.touching) >= 1


class TestInvalidInput:
    def test_level_below_coarsest(self, sys2):
        # at level 0 the left and right boundary duals are the same k = 0
        u = kinked_u(0.4)
        with pytest.raises(ValueError, match="level 0 below"):
            _level_coefficients(u, sys2, 0, 0.4, _dual_lattices(sys2))
        with pytest.raises(ValueError, match="level 0 below"):
            coefficient_decay_probe(u, sys2, 0.4, range(0, 6))

    @pytest.mark.parametrize("g,J,bad", [
        (1.7, 3, "interface point 1.7"),
        (0.4, 0, "J=0 below"),
    ])
    def test_tail_energy_refuses_before_any_level(self, sys2, g, J, bad):
        def u(x):
            raise AssertionError("u evaluated before the input was checked")

        with pytest.raises(ValueError, match=re.escape(bad)):
            tail_energy(u, sys2, g, J)

    @pytest.mark.parametrize("g", [1.7, 0.0, 1.0, float("nan")])
    def test_gamma_outside_unit_interval(self, sys2, g):
        u = lambda x: np.asarray(x, dtype=float)
        msg = re.escape(f"interface point {g} must lie in (0, 1)")
        with pytest.raises(ValueError, match=msg):
            tail_energy(u, sys2, g, 3)
        with pytest.raises(ValueError, match=msg):
            coefficient_decay_probe(u, sys2, g, range(4, 8))


def coeff_split_at_gamma(u, pp, j, k, gamma):
    """|<u, 2^j eta~_{j;k}>|, one dual at a time: Gauss nodes on each piece
    of the exact dyadic transform of the dual, the piece holding gamma split
    there."""
    mapped = pp.dyadic_transform(j, k)
    breaks = sorted({max(0.0, min(1.0, float(b))) for b in mapped.breakpoints} | {gamma})
    breaks = [b for b in breaks if float(mapped.breakpoints[0]) <= b <= float(mapped.breakpoints[-1])]
    xs, ws = gauss_rule(DECAY_QUAD_NODES)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        nodes = a + (b - a) * xs
        total += (b - a) * float(np.dot(ws, np.asarray(u(nodes)) * mapped.evaluate_array(nodes)))
    return abs(2.0**j * total)


def per_dual_coefficients(u, pp, j, ks):
    """|<u, 2^j eta~_{j;k}>| for each k in ks, every dual on Gauss nodes of
    its own cells (none may straddle an interface)."""
    breaks = np.array([float(b) for b in pp.breakpoints])
    xs, ws = gauss_rule(DECAY_QUAD_NODES)
    lo, h = breaks[:-1, None], np.diff(breaks)[:, None]
    t = (lo + h * xs).ravel()
    wv = (h * ws).ravel() * pp.evaluate_array(t)
    x = 2.0**-j * (t + np.asarray(ks, dtype=float)[:, None])
    return np.abs(2.0 ** (j / 2) * (np.asarray(u(x)) @ wv))


def per_dual_tails(u, sys, g, J):
    """tail_energy's two sums, one dual at a time."""
    top = (2 * sys.m - 2) * J - 1
    smooth = interface = 0.0
    for j in range(J + 1, (2 * sys.m - 2) * J + 7):
        duals = [(pp, k) for pp in sys.psi_dual for k in sys.interior_range("wavelet", j)]
        duals += [(pp, 0) for pp in sys.psi_left_dual] + [(pp, 2**j - 1) for pp in sys.psi_right_dual]
        away = {}
        for pp, k in duals:
            lo, hi = (float(b + k) / 2**j for b in (pp.breakpoints[0], pp.breakpoints[-1]))
            if lo <= g <= hi:
                if j > top:
                    interface += coeff_split_at_gamma(u, pp, j, k, g) ** 2
            elif pp in sys.psi_dual:
                away.setdefault(pp, []).append(k)
            else:
                smooth += coeff_split_at_gamma(u, pp, j, k, g) ** 2
        smooth += sum(float(np.sum(per_dual_coefficients(u, pp, j, ks) ** 2)) for pp, ks in away.items())
    return smooth, interface


def lattice(u, lat, j, ks, gamma):
    return np.abs(np.concatenate(list(_lattice_coefficients(u, lat, j, ks, gamma))))


def sample(n, j):
    """Every index below level 9; above, a stride plus a few indices on
    each side of every seam between two chunks of the lattice pass."""
    if j <= 8:
        return list(range(n))
    seams = range(_LATTICE_CHUNK, n + _LATTICE_CHUNK, _LATTICE_CHUNK)
    near = {i for b in seams for i in range(b - 4, b + 3) if 0 <= i < n}
    return sorted(near | set(range(0, n, 97)))


def assert_matches_per_dual(u, sys, g, levels):
    """Every dual of each level, away, touching and boundary alike, from the
    lattice pass against the per-dual rule split at g.  The duals'
    vanishing moments cancel terms of size 2^(j/2) |u| |eta~|_1 down to
    coefficients up to 2^-j times smaller, so both rules carry roundoff
    relative to the terms: on ex1 the two differ by up to 3.9e-12 of the
    level's largest coefficient at j = 12, but by less than 2e-16 of the
    terms."""
    u_max = float(np.abs(u(np.linspace(0.0, 1.0, 1001))).max())
    lattices = _dual_lattices(sys)
    for j in levels:
        for lat, ks, touch in _level_families(sys, j, g, lattices):
            lo, hi = float(lat.pp.support.lo), float(lat.pp.support.hi)
            l1 = float(np.abs(lat.pp.evaluate_array(np.linspace(lo, hi, 3001))).mean() * (hi - lo))
            c = lattice(u, lat, j, ks, g)
            assert len(c) == len(ks)
            idx = sorted(set(sample(len(ks), j)) | {k - ks.start for k in touch})
            ref = [coeff_split_at_gamma(u, lat.pp, j, ks[i], g) for i in idx]
            err = np.abs(c[idx] - ref)
            assert np.all(err <= 1e-14 * 2 ** (j / 2) * u_max * l1), (j, ks)


class TestLatticePass:
    def test_matches_per_dual_quadrature(self, sys2):
        # pi/6 lies strictly inside a lattice cell at every level, so the
        # pass splits that cell
        p = builtin_problem("ex1")
        assert_matches_per_dual(p.u, sys2, p.gamma, (4, 5, 6, 7, 8, 12, 14))

    @pytest.mark.parametrize("g", [0.5, 0.375, 0.02])
    def test_gamma_placements(self, sys2, g):
        # 0.5 and 0.375 are lattice edges, where two neighbouring duals both
        # touch and no cell is split; 0.02 lies in the first or second block
        # at j = 4..6, where the left boundary dual touches it
        assert_matches_per_dual(kinked_u(g), sys2, g, (4, 5, 6, 7, 8, 12))

    def test_quarter_point_dual(self):
        # non-uniform breakpoints on a quarter grid, support not on whole
        # numbers, and no vanishing moments: the lattice width is 1/4
        pp = PiecewisePolynomial(
            [Fraction(-3, 4), Fraction(-1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(5, 4)],
            [(1, -2, 3), (Fraction(1, 3), 4), (-1, Fraction(3, 2), -5), (2, -1, Fraction(1, 4))],
        )
        u = lambda x: np.exp(np.asarray(x)) * np.cos(3 * np.asarray(x))
        for g in (0.0, 1 / 3):  # no cell split, and one cell split
            for j in (4, 5, 6, 7, 8, 12, 14):
                ks = range(1, 2**j - 1)  # supports inside (0, 1)
                c = lattice(u, _lattice(pp, "interior"), j, ks, g)
                assert len(c) == len(ks)
                idx = sample(len(ks), j)
                ref = [coeff_split_at_gamma(u, pp, j, ks[i], g) for i in idx]
                assert np.all(np.abs(c[idx] - ref) <= 1e-12 * c.max())

    @pytest.mark.parametrize("j", [12, 15, 18])
    def test_touching_against_exact_reference(self, sys2, j):
        # u is a piecewise quintic kinked at gamma, so the 4-node rule is
        # exact on every cell and the reference is exact rational
        # arithmetic, rounded once; the bound is the lattice pass's own
        # roundoff, 1e-14 of the terms 2^(j/2) |u| |eta~|_1 it cancels
        g = Fraction(math.pi / 6)
        left = (0, 1, -2, Fraction(3, 2), Fraction(1, 4), Fraction(-1, 3))
        right = (sum(c * g**n for n, c in enumerate(left)), Fraction(-5, 2), 1, Fraction(1, 2),
                 Fraction(-1, 5), Fraction(1, 7))
        u = PiecewisePolynomial([0, g, 1], [left, right])
        lat = _lattice(sys2.psi_dual[0], "interior")
        (_, _, touch), = _level_families(sys2, j, float(g), [lat])
        got = lattice(u.evaluate_array, lat, j, touch, float(g))
        two = Fraction(2) ** j
        want = [abs(float(two * inner_product(u, PiecewisePolynomial(
            [(b + k) / two for b in lat.pp.breakpoints],  # eta~(2^j x - k)
            [[c * two**n for n, c in enumerate(piece)] for piece in lat.pp.pieces])))) * 2.0 ** (j / 2)
            for k in touch]
        u_max = float(np.abs(u.evaluate_array(np.linspace(0.0, 1.0, 1001))).max())
        lo, hi = float(lat.pp.support.lo), float(lat.pp.support.hi)
        l1 = float(np.abs(lat.pp.evaluate_array(np.linspace(lo, hi, 3001))).mean() * (hi - lo))
        assert len(touch) >= 1
        assert np.all(np.abs(got - want) <= 1e-14 * 2 ** (j / 2) * u_max * l1)

    def test_shallow_levels_match_ten_nodes(self, sys2, monkeypatch):
        # on ex1's smooth sides 4 nodes per lattice cell already resolve
        # every coefficient of j = 4..6 to the roundoff bound above
        import wavegal.analysis as analysis

        p = builtin_problem("ex1")
        u_max = float(np.abs(p.u(np.linspace(0.0, 1.0, 1001))).max())

        def coefficients(nodes):
            monkeypatch.setattr(analysis, "DECAY_QUAD_NODES", nodes)
            lattices = _dual_lattices(sys2)
            return [lattice(p.u, lat, j, ks, p.gamma)
                    for j in (4, 5, 6) for lat, ks, _ in _level_families(sys2, j, p.gamma, lattices)]

        four, ten = coefficients(4), coefficients(10)
        families = [(j, lat) for j in (4, 5, 6) for lat in _dual_lattices(sys2)]
        for (j, lat), a, b in zip(families, four, ten):
            lo, hi = float(lat.pp.support.lo), float(lat.pp.support.hi)
            l1 = float(np.abs(lat.pp.evaluate_array(np.linspace(lo, hi, 3001))).mean() * (hi - lo))
            assert len(a) == len(b) and np.all(np.abs(a - b) <= 1e-14 * 2 ** (j / 2) * u_max * l1)

    def test_tail_energy_matches_per_dual_sums(self, sys2):
        p = builtin_problem("ex1")
        for u, g in ((p.u, p.gamma), (kinked_u(0.375), 0.375)):
            got = tail_energy(u, sys2, g, J=3)
            want = per_dual_tails(u, sys2, g, 3)
            assert got == pytest.approx(want, rel=1e-12)


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
