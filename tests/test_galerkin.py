"""Unit tests for assembly, solving, and solution evaluation."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from wavegal.basis import build_phi_level, enriched_basis, truncated_basis
from wavegal.galerkin import (
    DiscreteSolution,
    ExactSolution,
    InterfaceProblem,
    SolverError,
    _cg_jacobi,
    assemble,
    assemble_load,
    assemble_stiffness,
    condition_number,
    evaluate_solution,
    export_matrix_market,
    solve,
)
from wavegal.piecewise import PiecewisePolynomial, inner_product
from wavegal.wavelets import builtin_order2_system


@pytest.fixture(scope="module")
def sys2():
    return builtin_order2_system()


def const(v):
    return lambda x, v=float(v): np.full(np.shape(x), v, dtype=float)


def plain_problem(gamma=0.3, am=1.0, ap=1.0, f=0.0, g=0.0, exact=None):
    return InterfaceProblem(
        gamma=gamma,
        a_minus=const(am),
        a_plus=const(ap),
        f_minus=const(f),
        f_plus=const(f),
        g_gamma=g,
        exact=exact,
    )


class TestInterfaceProblem:
    def test_gamma_must_be_interior(self):
        with pytest.raises(ValueError):
            plain_problem(gamma=1.0)

    def test_coefficient_must_be_positive(self):
        with pytest.raises(ValueError, match="not positive"):
            plain_problem(ap=-2.0)

    def test_piecewise_dispatch(self):
        p = InterfaceProblem(
            gamma=0.5,
            a_minus=const(1.0),
            a_plus=const(7.0),
            f_minus=const(0.0),
            f_plus=const(0.0),
        )
        assert p.a(np.array([0.25, 0.75])) == pytest.approx([1.0, 7.0])
        assert p.a(np.array([0.5])) == pytest.approx([7.0])  # gamma goes right

    def test_missing_exact_solution(self):
        with pytest.raises(ValueError, match="no exact solution"):
            plain_problem().u(0.5)


class TestStiffness:
    def test_hat_stencil_constant_coefficient(self, sys2):
        # rescaled level-3 hats with a == 1: the classic tridiagonal
        # stencil, independent of the level thanks to the 2^-j rescaling
        basis = build_phi_level(sys2, 3)
        from wavegal.basis import EnrichedBasis

        eb = EnrichedBasis(tuple(basis), 3, 3, sys2.m, 0.3)
        A = assemble_stiffness(eb, plain_problem()).toarray()
        n = len(basis)
        for i in range(1, n - 1):
            assert A[i, i] == pytest.approx(2.0, rel=1e-13)
            assert A[i, i + 1] == pytest.approx(-1.0, rel=1e-13)
        assert A[2, 4] == 0.0

    def test_symmetry(self, sys2):
        eb = enriched_basis(sys2, 2, 4, 0.3)
        A = assemble_stiffness(eb, plain_problem(gamma=0.3, ap=100.0))
        d = abs(A - A.T).max()
        assert d <= 1e-12 * abs(A).max()

    def test_positive_definite(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        A = assemble_stiffness(eb, plain_problem(gamma=0.3, ap=50.0))
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = rng.normal(size=A.shape[0])
            assert float(c @ (A @ c)) > 0.0

    def test_jump_scales_one_side(self, sys2):
        # a hat supported strictly right of gamma scales linearly in a+
        basis = build_phi_level(sys2, 4)
        from wavegal.basis import EnrichedBasis

        eb = EnrichedBasis(tuple(basis), 4, 4, sys2.m, 0.2)
        A1 = assemble_stiffness(eb, plain_problem(gamma=0.2, ap=1.0)).toarray()
        A9 = assemble_stiffness(eb, plain_problem(gamma=0.2, ap=9.0)).toarray()
        i = next(
            idx for idx, bf in enumerate(eb) if float(bf.support.lo) > 0.2
        )
        assert A9[i, i] == pytest.approx(9.0 * A1[i, i], rel=1e-12)

    def test_diagonal_bounded_across_levels(self, sys2):
        eb = truncated_basis(sys2, 2, 8)
        A = assemble_stiffness(eb, plain_problem())
        d = A.diagonal()
        assert d.min() > 0.5 and d.max() < 10.0


def reference_system(basis, problem):
    """A and b entry by entry from the per-pair Gauss rule of inner_product."""
    n = len(basis)
    ders = [bf.primal.derivative() for bf in basis]
    one = PiecewisePolynomial([0, 1], [(1,)])
    A = np.zeros((n, n))
    b = np.zeros(n)
    for i, bi in enumerate(basis):
        b[i] = inner_product(bi.primal, one, weight=problem.f, gamma=problem.gamma)
        b[i] -= problem.g_gamma * bi.primal(problem.gamma)
        for j in range(i, n):
            if bi.support.intersects(basis[j].support):
                A[i, j] = A[j, i] = inner_product(
                    ders[i], ders[j], weight=problem.a, gamma=problem.gamma
                )
    return A, b


def assert_matches_reference(basis, problem, rtol=1e-12):
    A = assemble_stiffness(basis, problem).toarray()
    b = assemble_load(basis, problem)
    A_ref, b_ref = reference_system(basis, problem)
    d = np.sqrt(np.outer(np.diag(A_ref), np.diag(A_ref)))
    assert np.all(np.abs(A - A_ref) <= rtol * d)
    assert np.all(np.abs(b - b_ref) <= 1e-12 * np.abs(b_ref).max())
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) > 0.0)
    apart = np.array([[not p.support.intersects(q.support) for q in basis] for p in basis])
    assert np.all(A[apart] == 0.0)


class TestAgainstPairwiseQuadrature:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_builtin_problems(self, sys2, name):
        from wavegal.problems import builtin_problem

        p = builtin_problem(name)
        assert_matches_reference(enriched_basis(sys2, 2, 4, p.gamma), p)

    @settings(max_examples=25, deadline=None)
    @given(
        gamma=st.one_of(
            st.floats(1e-3, 1 - 1e-3),
            st.tuples(
                st.integers(1, 8).flatmap(lambda e: st.integers(1, 2**e - 1).map(lambda k: k / 2**e)),
                st.floats(-1e-15, 1e-15),
            ).map(sum),
        ),
        contrast=st.floats(1e-3, 1e6),
        g=st.floats(-10.0, 10.0),
    )
    def test_random_interface_data(self, sys2, gamma, contrast, g):
        p = InterfaceProblem(
            gamma=gamma,
            a_minus=const(1.0),
            a_plus=const(contrast),
            f_minus=lambda x: 1.0 + np.asarray(x),
            f_plus=lambda x: np.cos(np.asarray(x)),
            g_gamma=g,
        )
        # within 1e-15 of a breakpoint, gamma leaves a cell a few ulps wide
        # whose Gauss nodes round onto its edges in the reference rule; that
        # cell's share, up to width * contrast * 2^j ~ 2e-12 here, is the slack
        assert_matches_reference(enriched_basis(sys2, 2, 3, gamma), p, rtol=1e-11)


class TestLoad:
    def test_point_load_only(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        p = plain_problem(gamma=0.3, f=0.0, g=2.0)
        b = assemble_load(eb, p)
        for i, bf in enumerate(eb):
            assert b[i] == pytest.approx(-2.0 * bf.primal(0.3), abs=1e-14)

    def test_zero_data_gives_zero_vector(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        b = assemble_load(eb, plain_problem())
        assert np.all(b == 0.0)

    def test_constant_source_integrates_exactly(self, sys2):
        # b[i] = int eta_i for f == 1; check against the exact integral
        eb = truncated_basis(sys2, 2, 2)
        b = assemble_load(eb, plain_problem(f=1.0))
        for i, bf in enumerate(eb):
            assert b[i] == pytest.approx(float(bf.primal.integral()), abs=1e-14)


class TestSolve:
    def test_manufactured_coefficients_recovered(self, sys2):
        eb = enriched_basis(sys2, 2, 4, 0.3)
        system = assemble(eb, plain_problem(gamma=0.3, ap=30.0))
        rng = np.random.default_rng(1)
        c_star = rng.normal(size=eb.N)
        system.b = system.A @ c_star
        for method in ("cholesky", "cg"):
            sol = solve(system, method=method)
            assert sol.coefficients == pytest.approx(c_star, rel=1e-9, abs=1e-11)

    def test_point_load_tent_solution(self, sys2):
        # -(u')' = -delta at 1/2 has the closed form u = -min(x, 1-x)/2
        eb = enriched_basis(sys2, 2, 3, 0.5)
        sol = solve(assemble(eb, plain_problem(gamma=0.5, g=1.0)))
        xs = np.linspace(0, 1, 33)
        want = -0.5 * np.minimum(xs, 1 - xs)
        vals, _ = evaluate_solution(sol, xs)
        assert vals == pytest.approx(want, abs=1e-12)

    def test_unknown_method(self, sys2):
        eb = enriched_basis(sys2, 2, 2, 0.3)
        system = assemble(eb, plain_problem(gamma=0.3))
        with pytest.raises(ValueError, match="unknown solve method"):
            solve(system, method="magic")

    def test_cg_rejects_non_spd(self):
        A = scipy.sparse.csr_matrix(np.diag([1.0, -1.0, 2.0]))
        with pytest.raises(SolverError):
            _cg_jacobi(A, np.ones(3))

    def test_cg_zero_rhs(self):
        A = scipy.sparse.identity(4, format="csr")
        assert np.all(_cg_jacobi(A, np.zeros(4)) == 0.0)

    def test_galerkin_orthogonality_residual(self, sys2):
        from wavegal.problems import builtin_problem

        p = builtin_problem("ex2")
        eb = enriched_basis(sys2, 2, 4, p.gamma)
        system = assemble(eb, p)
        sol = solve(system)
        res = np.abs(system.A @ sol.coefficients - system.b).max()
        assert res <= 1e-9 * max(1.0, np.abs(system.b).max())

    def test_coefficient_length_checked(self, sys2):
        eb = enriched_basis(sys2, 2, 2, 0.3)
        with pytest.raises(ValueError):
            DiscreteSolution(np.zeros(eb.N + 1), eb)


class TestConditionNumber:
    def test_identity(self):
        A = scipy.sparse.identity(20, format="csr")
        assert condition_number(A) == pytest.approx(1.0, rel=1e-3)

    def test_small_diagonal_exact(self):
        A = np.diag([1.0, 5.0, 10.0])
        assert condition_number(A) == pytest.approx(10.0, rel=1e-12)

    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(2)
        Q, _ = np.linalg.qr(rng.normal(size=(50, 50)))
        d = np.linspace(0.5, 200.0, 50)
        A = scipy.sparse.csr_matrix(Q @ np.diag(d) @ Q.T)
        assert condition_number(A) == pytest.approx(400.0, rel=1e-3)


class TestEvaluateSolution:
    def test_zero_coefficients(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        sol = DiscreteSolution(np.zeros(eb.N), eb)
        v, d = evaluate_solution(sol, np.linspace(0, 1, 17))
        assert np.all(v == 0.0) and np.all(d == 0.0)

    def test_single_function(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        c = np.zeros(eb.N)
        c[5] = 2.0
        sol = DiscreteSolution(c, eb)
        xs = np.linspace(0, 1, 29)
        v, d = evaluate_solution(sol, xs)
        assert v == pytest.approx(2.0 * eb[5].primal.evaluate_array(xs), abs=1e-14)
        dref = eb[5].primal.derivative().evaluate_array(xs)
        assert d == pytest.approx(2.0 * dref, abs=1e-14)

    def test_breakpoint_convention(self, sys2):
        # left limit at interior breakpoints and at the right end of the
        # support, right limit at its left end, as in evaluate_array
        eb = enriched_basis(sys2, 2, 3, 0.3)
        xs = np.unique([float(b) for bf in eb for b in bf.primal.breakpoints])
        for i, bf in enumerate(eb):
            c = np.zeros(eb.N)
            c[i] = 1.0
            v, d = evaluate_solution(DiscreteSolution(c, eb), xs)
            assert v == pytest.approx(bf.primal.evaluate_array(xs), abs=1e-14)
            assert d == pytest.approx(bf.primal.derivative().evaluate_array(xs), abs=1e-14)

    def test_unsorted_grid(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        rng = np.random.default_rng(3)
        c = rng.normal(size=eb.N)
        sol = DiscreteSolution(c, eb)
        xs = rng.uniform(0, 1, 40)
        v1, _ = evaluate_solution(sol, xs)
        order = np.argsort(xs)
        v2, _ = evaluate_solution(sol, xs[order])
        assert v1[order] == pytest.approx(v2, abs=1e-14)

    def test_out_of_domain_rejected(self, sys2):
        eb = enriched_basis(sys2, 2, 2, 0.3)
        sol = DiscreteSolution(np.zeros(eb.N), eb)
        with pytest.raises(ValueError):
            evaluate_solution(sol, np.array([-0.1, 0.5]))


class TestExport:
    def test_matrix_market_round_trip(self, sys2, tmp_path):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        system = assemble(eb, plain_problem(gamma=0.3, ap=4.0, f=1.0))
        mpath = tmp_path / "A.mtx"
        vpath = tmp_path / "b.mtx"
        export_matrix_market(system.A, mpath)
        export_matrix_market(system.b, vpath)
        assert mpath.read_text().startswith("%%MatrixMarket")
        A2 = scipy.io.mmread(mpath).tocsr()
        assert abs(A2 - system.A).max() <= 1e-15
        b2 = np.asarray(scipy.io.mmread(vpath).todense()).ravel()
        assert b2 == pytest.approx(system.b, abs=1e-15)
