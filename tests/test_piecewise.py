"""Unit tests for the piecewise polynomial representation."""

from fractions import Fraction

import numpy as np
import pytest

from wavegal.piecewise import Interval, PiecewisePolynomial, dyadic_amplitude, inner_product


def hat(lo=0, peak=1, hi=2):
    """Tent function rising 0->1 on [lo, peak], falling on [peak, hi]."""
    w1, w2 = peak - lo, hi - peak
    return PiecewisePolynomial(
        [lo, peak, hi],
        [(Fraction(0), Fraction(1, w1)), (Fraction(1), Fraction(-1, w2))],
    )


def rand_spline(rng, deg=3, ncells=4):
    breaks = [Fraction(k, 4) for k in range(ncells + 1)]
    pieces = [tuple(float(c) for c in rng.normal(size=deg + 1)) for _ in range(ncells)]
    return PiecewisePolynomial(breaks, pieces)


class TestInterval:
    def test_contains_inclusive(self):
        iv = Interval(Fraction(0), Fraction(1, 2))
        assert iv.contains(0.0) and iv.contains(0.5) and iv.contains(0.25)
        assert not iv.contains(0.51)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(1, 0)

    def test_interior_intersection(self):
        assert not Interval(0, 1).intersects(Interval(1, 2))  # touching only
        assert Interval(0, 1).intersects(Interval(0.5, 2))


class TestConstruction:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0, 0, 1], [(1,), (1,)])

    def test_piece_count_must_match(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0, 1], [(1,), (1,)])

    def test_non_dyadic_breakpoint_rejected(self):
        with pytest.raises(ValueError):
            PiecewisePolynomial([0, Fraction(1, 3), 1], [(1,), (1,)])

    def test_immutable(self):
        p = hat()
        with pytest.raises(AttributeError):
            p.breakpoints = ()


class TestEvaluate:
    def test_hat_midpoint(self):
        assert hat()(0.5) == 0.5

    def test_outside_support_is_zero(self):
        p = hat()
        assert p(-3.0) == 0.0 and p(7.5) == 0.0

    def test_hat_breakpoint_continuous(self):
        assert hat()(1.0) == 1.0

    def test_left_limit_convention(self):
        # derivative of the hat is a step: +1 on (0,1), -1 on (1,2)
        d = hat().derivative()
        assert d(1.0) == 1.0  # left limit at interior break
        assert d(0.0) == 1.0  # right limit at the support's left end
        assert d(2.0) == -1.0

    def test_vectorized_matches_scalar(self):
        p = rand_spline(np.random.default_rng(0))
        xs = np.linspace(-0.5, 1.5, 101)
        vec = p.evaluate_array(xs)
        assert vec == pytest.approx([p(float(x)) for x in xs])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hat()(float("nan"))
        with pytest.raises(ValueError):
            hat().evaluate_array(np.array([0.5, np.inf]))


class TestCalculus:
    def test_derivative_of_constant(self):
        p = PiecewisePolynomial([0, 1], [(Fraction(3),)])
        assert p.derivative()(0.5) == 0.0

    def test_derivative_of_square(self):
        p = PiecewisePolynomial([0, 1], [(0, 0, 1)])  # t^2
        assert p.derivative()(0.5) == pytest.approx(1.0)

    def test_antiderivative_of_indicator(self):
        ind = PiecewisePolynomial([0, 1], [(Fraction(1),)])
        F, compact = ind.antiderivative_from_left()
        assert not compact  # total integral is 1
        assert F(0.5) == 0.5
        G, _ = ind.antiderivative_to_right()
        assert G(1.0) == 0.0
        assert float(G._local_coeffs(Fraction(0))[0]) == -1.0

    def test_derivative_inverts_antiderivative(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = rand_spline(rng)
            F, _ = p.antiderivative_from_left()
            d = F.derivative()
            xs = np.linspace(0.01, 0.99, 37)
            assert d.evaluate_array(xs) == pytest.approx(p.evaluate_array(xs), abs=1e-12)

    def test_vanishing_moments_compactify_antiderivatives(self):
        # two vanishing moments => two antiderivatives stay inside the support
        from wavegal.wavelets import builtin_order2_system

        psi_d = builtin_order2_system().psi_dual[0]
        cur = psi_d
        for _ in range(2):
            cur, compact = cur.antiderivative_from_left()
            assert compact
            assert cur.support.lo >= psi_d.support.lo
            assert cur.support.hi <= psi_d.support.hi


class TestDyadicTransform:
    def test_l2_norm_preserved(self):
        p = rand_spline(np.random.default_rng(2))
        ref = float(inner_product(p, p))
        for j in (0, 1, 3, 7, 12):
            for k in (-8, -1, 0, 5, 8):
                q = p.dyadic_transform(j, k)
                assert float(inner_product(q, q)) == pytest.approx(ref, rel=1e-12)

    def test_support_map(self):
        p = PiecewisePolynomial([0, 1, 3], [(1,), (1,)])
        q = p.dyadic_transform(2, 1)
        assert (float(q.support.lo), float(q.support.hi)) == (0.25, 1.0)

    def test_dilate_is_the_exact_level_map(self):
        p = PiecewisePolynomial([-1, 0, 2], [(Fraction(1), Fraction(-3), Fraction(1, 2)), (Fraction(2), Fraction(1, 4))])
        for j in (-2, 0, 1, 3):
            for k in (-3, 0, Fraction(5, 2)):
                q = p.dilate(j, k)
                assert q.is_exact()
                for x in (Fraction(n, 16) for n in range(-80, 81)):
                    assert q.evaluate(x) == p.evaluate(2**j * Fraction(x) - k), (j, k, x)

    def test_transform_is_dilate_times_the_amplitude(self):
        p = hat()
        for j in (2, 3):
            q, d = p.dyadic_transform(j, 1), p.dilate(j, 1)
            assert q.breakpoints == d.breakpoints
            assert q.pieces == tuple(tuple(dyadic_amplitude(j) * c for c in piece) for piece in d.pieces)
        assert dyadic_amplitude(2) == 2 and dyadic_amplitude(-4) == Fraction(1, 4)
        assert isinstance(dyadic_amplitude(3), float) and dyadic_amplitude(3) == pytest.approx(2 * 2**0.5, rel=1e-15)

    def test_identity(self):
        p = hat()
        q = p.dyadic_transform(0, 0)
        xs = np.linspace(0, 2, 21)
        assert q.evaluate_array(xs) == pytest.approx(p.evaluate_array(xs))


class TestInnerProduct:
    def test_hat_hat_exact(self):
        # oracle: integral of (1-|x-1|)^2 over [0,2]
        assert inner_product(hat(), hat()) == Fraction(2, 3)

    def test_disjoint_supports(self):
        assert inner_product(hat(0, 1, 2), hat(4, 5, 6)) == 0

    def test_positivity(self):
        p = rand_spline(np.random.default_rng(3))
        assert inner_product(p, p) > 0

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(4)
        p, q, s = (rand_spline(rng) for _ in range(3))
        assert inner_product(p, q) == pytest.approx(inner_product(q, p), rel=1e-12)
        lhs = inner_product(p.scale(2.5) + q, s)
        rhs = 2.5 * inner_product(p, s) + inner_product(q, s)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_weight_breakpoints_split_cells(self):
        one = PiecewisePolynomial([0, 1], [(Fraction(1),)])
        w = PiecewisePolynomial([0, Fraction(1, 2), 1], [(1,), (3,)])
        assert inner_product(one, one, w) == 2

    def test_weight_on_a_cell_a_few_ulps_wide(self):
        # the weight's breakpoint four ulps right of the breakpoint 1/2 of p
        # leaves the cell [1/2, g], where p' = -4, q' = 4 and the weight is high
        g = Fraction(0.5 + 4 * 2.0**-53)
        p, q = hat(Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), hat(Fraction(1, 2), Fraction(3, 4), 1)
        w = PiecewisePolynomial([0, g, 1], [(10**6,), (1,)])
        v = inner_product(p.derivative(), q.derivative(), w)
        assert v == -16 * (10**6 * (g - Fraction(1, 2)) + (Fraction(3, 4) - g))


class TestMoment:
    def test_indicator_first_moment(self):
        ind = PiecewisePolynomial([0, 1], [(Fraction(1),)])
        assert ind.moment(1, 0) == Fraction(1, 2)

    def test_odd_symmetry(self):
        # f(x) = x on [-1, 1] (coefficients are local to each cell's left end)
        p = PiecewisePolynomial([-1, 0, 1], [(-1, 1), (0, 1)])
        assert p.moment(0) == 0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            hat().moment(-1)


class TestReflect:
    def test_mirror_values(self):
        # q(x) = p(1 - x); sample away from breakpoints, where the
        # left-limit convention would flip sides under the mirror
        p = rand_spline(np.random.default_rng(5))
        q = p.reflect(1)
        xs = np.linspace(0.013, 0.987, 22)  # even count: no sample at 0.5
        assert q.evaluate_array(xs) == pytest.approx(p.evaluate_array(1 - xs), abs=1e-12)
