"""Unit tests for assembly, solving, and solution evaluation."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wavegal.galerkin as galerkin
from wavegal.basis import EnrichedBasis, _rows, enriched_basis, truncated_basis
from wavegal.analysis import error_norms, evaluate_solution
from wavegal.expressions import parse_expression
from wavegal.galerkin import (
    DiscreteSolution,
    LinearSystem,
    SolverError,
    KAPPA_DENSE_ROWS,
    _factor_solve,
    _graded_mesh,
    _spd_factor,
    _stiffness_product,
    _structural_zeros,
    _synthesis,
    assemble,
    assemble_load,
    assemble_stiffness,
    condition_number,
    solve,
    subsystem,
)
from wavegal.piecewise import PiecewisePolynomial, inner_product
from wavegal.problems import ExactSolution, InterfaceProblem, _piecewise_call, builtin_problem
from wavegal.wavelets import builtin_order2_system


@pytest.fixture(scope="module")
def sys2():
    return builtin_order2_system()


def level_rows(sys, kind, j):
    """Rows (family, component, j, k) of the level-j scaling or wavelet set."""
    return _rows(sys, kind, j, sys.translates(kind, j))


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


def hand_built(c, basis):
    """A solution with coefficients c on the graded mesh of `basis` split
    at its gamma."""
    return DiscreteSolution(c, basis, assemble(basis, plain_problem(gamma=basis.gamma)).form)


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


class TestPiecewiseCall:
    def test_straddling_array_unchanged(self):
        # both sides present: each side's function sees only its own points
        x = np.linspace(0.0, 1.0, 101)
        want = np.empty_like(x)
        want[x < 0.3] = np.sin(x[x < 0.3])
        want[x >= 0.3] = np.exp(x[x >= 0.3])
        got = _piecewise_call(np.sin, np.exp, 0.3, x)
        assert got.tobytes() == want.tobytes()

    def test_one_side_calls_that_side_on_x(self):
        x = np.array([[0.1, 0.2], [0.25, 0.05]])
        assert _piecewise_call(np.sin, np.exp, 0.3, x).tobytes() == np.sin(x).tobytes()
        assert _piecewise_call(np.sin, np.exp, 0.01, x).tobytes() == np.exp(x).tobytes()

    def test_gamma_takes_plus_side(self):
        out = _piecewise_call(lambda x: -np.ones_like(x), lambda x: np.ones_like(x), 0.5, [0.5])
        assert out.tolist() == [1.0]
        assert _piecewise_call(lambda x: -1.0, lambda x: 1.0, 0.5, [0.25, 0.5]).tolist() == [-1.0, 1.0]

    def test_scalar_return_broadcast(self):
        for x in (np.array([0.1, 0.2, 0.3]), np.full((2, 3), 0.7), np.array([])):
            for gamma in (0.5, 0.05):
                out = _piecewise_call(lambda x: 2.0, lambda x: 3, gamma, x)
                assert out.dtype == float and out.shape == x.shape
                assert np.all(out == np.where(x < gamma, 2.0, 3.0))


class TestStiffness:
    def test_hat_stencil_constant_coefficient(self, sys2):
        # rescaled level-3 hats with a == 1: the classic tridiagonal
        # stencil, independent of the level thanks to the 2^-j rescaling
        eb = EnrichedBasis(sys2, *level_rows(sys2, "scaling", 3).T, J0=3, J=3, gamma=0.3)
        A = assemble_stiffness(eb, plain_problem()).toarray()
        n = len(eb)
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
        eb = EnrichedBasis(sys2, *level_rows(sys2, "scaling", 4).T, J0=4, J=4, gamma=0.2)
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


def exact(p):
    """p with every coefficient a Fraction, the exact value of its float."""
    return PiecewisePolynomial(p.breakpoints, [[Fraction(c) for c in piece] for piece in p.pieces])


def exact_system(basis, gamma, contrast, g):
    """A and b in exact arithmetic, rounded once, for a = 1 | contrast and
    f = 1 + x | 1 - x^2/2 split at gamma.  The breakpoints, coefficients,
    gamma and contrast are all dyadic floats, so every integral is exact."""
    G = Fraction(gamma)
    a = PiecewisePolynomial([0, G, 1], [(1,), (Fraction(contrast),)])
    # each piece about its left end: 1 - (G + s)^2/2 = 1 - G^2/2 - G s - s^2/2
    f = PiecewisePolynomial([0, G, 1], [(1, 1), (1 - G**2 / 2, -G, Fraction(-1, 2))])
    fs = [exact(bf.primal) for bf in basis]
    ders = [q.derivative() for q in fs]
    n = len(fs)
    A = np.zeros((n, n))
    b = np.array([float(inner_product(q, f) - Fraction(g) * q.evaluate(G)) for q in fs])
    for i in range(n):
        for j in range(i, n):
            if fs[i].support.intersects(fs[j].support):
                A[i, j] = A[j, i] = inner_product(ders[i], ders[j], a)
    return A, b


def assert_matches_reference(basis, problem, A_ref, b_ref):
    A = assemble_stiffness(basis, problem).toarray()
    b = assemble_load(basis, problem)
    d = np.sqrt(np.outer(np.diag(A_ref), np.diag(A_ref)))
    assert np.all(np.abs(A - A_ref) <= 1e-14 * d)
    assert np.all(np.abs(b - b_ref) <= 1e-14 * np.abs(b_ref).max())
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) > 0.0)
    lo, hi = support_ends(basis)
    assert np.all(A[(lo[:, None] >= hi) | (lo >= hi[:, None])] == 0.0)


# interface data: any gamma, or one within 1e-15 of a dyadic point, and
# the coefficient contrast a+ / a- of a problem with a- = 1
GAMMAS = st.one_of(
    st.floats(1e-3, 1 - 1e-3),
    st.tuples(
        st.integers(1, 8).flatmap(lambda e: st.integers(1, 2**e - 1).map(lambda k: k / 2**e)),
        st.floats(-1e-15, 1e-15),
    ).map(sum),
)
CONTRASTS = st.floats(1e-3, 1e6)


class TestAgainstPairwiseQuadrature:
    """Assembly against two references: exact rational integrals where a
    and f are polynomial on each side of gamma, and the long-double point
    form for the built-in problems."""

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_builtin_problems(self, sys2, name):
        p = builtin_problem(name)
        basis = enriched_basis(sys2, 2, 4, p.gamma)
        A_ref, b_ref = point_form(basis, p)
        assert_matches_reference(basis, p, A_ref.toarray(), b_ref)

    @settings(max_examples=25, deadline=None)
    @given(gamma=GAMMAS, contrast=CONTRASTS, g=st.floats(-10.0, 10.0))
    # gamma one ulp right and left of a breakpoint, at both contrast ends
    @example(gamma=0.5 + 2.0**-53, contrast=1e-3, g=0.0)
    @example(gamma=0.5 + 2.0**-53, contrast=1e6, g=1.0)
    @example(gamma=0.25 - 2.0**-55, contrast=1e6, g=0.0)
    def test_random_interface_data(self, sys2, gamma, contrast, g):
        p = InterfaceProblem(
            gamma=gamma,
            a_minus=const(1.0),
            a_plus=const(contrast),
            f_minus=lambda x: 1.0 + np.asarray(x),
            f_plus=lambda x: 1.0 - np.asarray(x) ** 2 / 2,
            g_gamma=g,
        )
        # within 1e-15 of a breakpoint, gamma leaves a cell a few ulps wide,
        # whose nodes the assembly keeps inside it and on its side of gamma
        basis = enriched_basis(sys2, 2, 3, gamma)
        assert_matches_reference(basis, p, *exact_system(basis, gamma, contrast, g))

    def test_truncated_basis_one_ulp_right_of_breakpoint(self, sys2):
        # a truncated basis has no gamma of its own: the one-ulp cell
        # [1/2, gamma] is read at the gamma the mesh was split at
        basis = truncated_basis(sys2, 2, 4)
        p = plain_problem(gamma=0.5 + 2.0**-53, ap=1e-3)
        A = assemble_stiffness(basis, p).toarray()
        apart = np.array([[not f.support.intersects(h.support) for h in basis] for f in basis])
        assert apart.any() and np.all(A[apart] == 0.0)


def full_stiffness(basis, problem):
    """S^T S before the structural zeros are dropped: the product `assemble`
    forms.  The sparse product stores no entry that sums to exactly 0."""
    edges, x, _ = _graded_mesh(basis, problem.gamma)
    return _stiffness_product(problem, edges, x, _synthesis(basis, edges))


def point_values(basis, x):
    """Sparse len(x) x N matrices (V, D) of basis values and derivatives at x,
    each function read by `evaluate_array` on the points of its closed
    support.  Functions alike up to a translation share one
    `PiecewisePolynomial`, built from their row of the float tables and
    moved to start at 0.  For x in [0, 1] and lo <= x a dyadic of
    denominator at most 2^52, x - lo is exact, so every point is read bit
    for bit as the function's own `PiecewisePolynomial` would read it."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = len(basis)
    nb = np.isfinite(basis.breaks).sum(axis=1)
    lo, hi = support_ends(basis)
    i0, i1 = np.searchsorted(xs, lo, side="left"), np.searchsorted(xs, hi, side="right")
    count = i1 - i0
    indptr = np.concatenate([[0], np.cumsum(count)])
    # one entry per (function, point in its closed support), grouped by function
    f = np.repeat(np.arange(n), count)
    pos = np.arange(indptr[-1]) + np.repeat(i0 - indptr[:-1], count)
    rel = basis.breaks - lo[:, None]
    key = np.concatenate([rel, basis.coeffs.reshape(n, -1)], axis=1)
    first, kind = np.unique(key, axis=0, return_index=True, return_inverse=True)[1:]
    by_kind = np.argsort(kind[f], kind="stable")
    ends = np.searchsorted(kind[f][by_kind], np.arange(len(first) + 1))
    val, der = np.empty(len(f)), np.empty(len(f))
    for i, a, b in zip(first, ends[:-1], ends[1:]):
        p = PiecewisePolynomial(rel[i, : nb[i]], basis.coeffs[i, : nb[i] - 1])
        e = by_kind[a:b]
        t = xs[pos[e]] - lo[f[e]]
        val[e], der[e] = p.evaluate_array(t), p.derivative().evaluate_array(t)
    shape = (len(x), n)
    return (scipy.sparse.csc_matrix((m, order[pos], indptr), shape=shape) for m in (val, der))


def point_form(basis, problem):
    """A = D^T diag(w a) D and b = V^T (w f) - g_gamma V(gamma) from the basis
    values V and derivatives D at the QUAD_NODES Gauss nodes of every cell,
    summed in long double.  A node on a breakpoint is read from the left,
    so this does not model a cell one ulp wide (gamma one ulp right of a
    breakpoint), whose nodes lie on its left edge."""
    _, x, w = _graded_mesh(basis, problem.gamma)
    x, w = x.ravel(), w.ravel().astype(np.longdouble)
    V, D = (M.tocsr().astype(np.longdouble) for M in point_values(basis, x))
    Vg, _ = point_values(basis, np.array([problem.gamma]))
    A = (D.T @ scipy.sparse.diags(w * problem.a(x)) @ D).tocsr()
    b = V.T @ (w * problem.f(x)) - problem.g_gamma * Vg.toarray().ravel()
    return A, b


def support_ends(basis):
    """Each function's support [lo, hi] from the basis's float tables."""
    nb = np.isfinite(basis.breaks).sum(axis=1)
    return basis.breaks[:, 0], basis.breaks[np.arange(len(basis)), nb - 1]


def dropped_pairs(A, F):
    """Check that A is F less some off-diagonal entries: each kept entry bit
    for bit, each dropped one at most 1e-14 sqrt(F_ii F_jj), the diagonal
    kept.  Returns the dropped (row, col) pairs."""
    n = F.shape[0]
    A, F = A.tocoo(), F.tocoo()
    ka, kf = A.row.astype(np.int64) * n + A.col, F.row.astype(np.int64) * n + F.col
    of = np.argsort(kf)
    at = np.searchsorted(kf[of], ka)
    assert len(np.unique(ka)) == len(ka)
    assert np.all(at < len(kf)) and np.array_equal(kf[of][np.minimum(at, len(kf) - 1)], ka)
    assert F.data[of][at].tobytes() == A.data.tobytes()
    dropped = np.ones(len(kf), dtype=bool)
    dropped[of[at]] = False
    r, c, v = F.row[dropped], F.col[dropped], F.data[dropped]
    assert np.all(r != c)
    d = F.diagonal()
    assert np.all(np.abs(v) <= 1e-14 * np.sqrt(d[r] * d[c]))
    return r, c


def rule_oracle(basis, gamma, left_constant=True, right_constant=True):
    """Unordered pairs {i, j} the zero rule proves, from the exact rational
    functions: one support inside one piece of degree <= 1 of the other,
    on a side of gamma where a is constant (no side test for gamma None)."""
    fs = [bf.primal for bf in basis]

    def inside(p, q):
        lo, hi = p.breakpoints[0], p.breakpoints[-1]
        if gamma is not None and not (
            hi <= Fraction(gamma) and left_constant or lo >= Fraction(gamma) and right_constant
        ):
            return False
        return any(a <= lo and hi <= b and not any(piece[2:])
                   for a, b, piece in zip(q.breakpoints, q.breakpoints[1:], q.pieces))

    return {(i, j) for i in range(len(fs)) for j in range(i + 1, len(fs))
            if inside(fs[i], fs[j]) or inside(fs[j], fs[i])}


def parsed_problem(gamma, a_minus, a_plus, g=0.0, constants=None):
    return InterfaceProblem(
        gamma=gamma,
        a_minus=parse_expression(a_minus, constants),
        a_plus=parse_expression(a_plus, constants),
        f_minus=parse_expression("1 + x"),
        f_plus=parse_expression("cos(x)"),
        g_gamma=g,
    )


class TestStructuralZeros:
    """`assemble` stores only the entries the support rule cannot prove zero."""

    @pytest.mark.parametrize("mode", ["enriched", "fem"])
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_matches_full_product(self, sys2, name, mode):
        p = builtin_problem(name)
        for J in range(5, 13):
            if mode == "enriched":
                basis = enriched_basis(sys2, 2, J, p.gamma)
            else:
                basis = truncated_basis(sys2, 2, J)
            system = assemble(basis, p)
            r, c = dropped_pairs(system.A, full_stiffness(basis, p))
            assert len(r) > 0
            if name == "ex3":  # a+ = 1000 e^x: only pairs left of gamma go
                _, hi = support_ends(basis)
                assert np.all(np.minimum(hi[r], hi[c]) <= p.gamma)

    def test_ex2_stores_few_entries(self, sys2):
        p = builtin_problem("ex2")
        A = assemble(enriched_basis(sys2, 2, 12, p.gamma), p).A
        assert A.nnz <= 9000  # 156 414 with every overlapping pair stored

    @settings(max_examples=30, deadline=None)
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
        a_minus=st.sampled_from(["1", "1 + x^2"]),
        a_plus=st.sampled_from(["A", "A*exp(x)"]),
        J=st.integers(2, 7),
        enriched=st.booleans(),
    )
    @example(gamma=0.5 + 2.0**-53, contrast=1e6, g=1.0, a_minus="1", a_plus="A", J=5, enriched=True)
    @example(gamma=0.5 - 2.0**-54, contrast=1e-3, g=0.0, a_minus="1", a_plus="A", J=5, enriched=True)
    @example(gamma=0.25 + 2.0**-54, contrast=1e6, g=-2.0, a_minus="1", a_plus="A", J=4, enriched=False)
    def test_symmetric_spd_and_agrees(self, sys2, gamma, contrast, g, a_minus, a_plus, J, enriched):
        p = parsed_problem(gamma, a_minus, a_plus, g, {"A": contrast})
        basis = enriched_basis(sys2, 2, J, gamma) if enriched else truncated_basis(sys2, 2, J)
        A = assemble(basis, p).A
        dropped_pairs(A, full_stiffness(basis, p))
        assert (A != A.T).nnz == 0
        np.linalg.cholesky(A.toarray())  # raises unless A is SPD

    def assert_nothing_dropped(self, basis, p):
        A, F = assemble_stiffness(basis, p), full_stiffness(basis, p)
        assert len(dropped_pairs(A, F)[0]) == 0 and A.nnz == F.nnz

    def test_plain_callable_proves_nothing(self, sys2):
        self.assert_nothing_dropped(enriched_basis(sys2, 2, 6, 0.3), plain_problem(ap=1e3))

    def test_coefficient_depending_on_x_proves_nothing(self, sys2):
        p = parsed_problem(0.3, "1 + x", "2 + x^2")
        self.assert_nothing_dropped(enriched_basis(sys2, 2, 6, 0.3), p)

    def test_degree_two_piece_proves_nothing(self, sys2):
        # one more coefficient column: zero keeps every piece linear, so the
        # rule drops what it dropped before; nonzero makes every piece quadratic
        p = parsed_problem(0.3, "1", "100")
        basis = enriched_basis(sys2, 2, 6, 0.3)
        linear = assemble_stiffness(basis, p)
        wide = np.concatenate([basis.coeffs, np.zeros(basis.coeffs.shape[:2] + (1,))], axis=2)
        object.__setattr__(basis, "coeffs", wide)
        assert np.array_equal(assemble_stiffness(basis, p).indices, linear.indices)
        wide[:, :, 2] = 1e-3
        self.assert_nothing_dropped(basis, p)

    def assert_drops_what_the_rule_proves(self, basis, gamma, left, right):
        p = parsed_problem(gamma, "1" if left else "1 + x", "7" if right else "7 + x")
        F = full_stiffness(basis, p)
        r, c = dropped_pairs(assemble_stiffness(basis, p), F)
        got = {(min(i, j), max(i, j)) for i, j in zip(r.tolist(), c.tolist())}
        stored = {(min(i, j), max(i, j)) for i, j in zip(*(k.tolist() for k in F.nonzero()))}
        # many proved pairs sum to exactly 0 and are absent from the product,
        # so the rule is also asked about every pair of overlapping supports
        lo, hi = support_ends(basis)
        i, j = np.nonzero(np.triu((lo[:, None] < hi) & (lo < hi[:, None]), 1))
        proved = _structural_zeros(basis, p, i, j)
        want = rule_oracle(basis, gamma, left, right)
        assert set(zip(i[proved].tolist(), j[proved].tolist())) == want and want
        # assemble drops every proved pair the product stores, and no other
        assert got == want & stored
        return want

    @pytest.mark.parametrize("gamma,left,right", [(0.3, True, True), (0.3, True, False), (5 / 16, False, True)])
    def test_fem_basis(self, sys2, gamma, left, right):
        # a truncated basis has no gamma of its own, so the rule must read the
        # problem's, which lies inside some supports
        basis = truncated_basis(sys2, 2, 5)
        want = self.assert_drops_what_the_rule_proves(basis, gamma, left, right)
        # pairs the rule would prove if gamma were ignored straddle it, and stay
        assert rule_oracle(basis, None) - want

    def test_support_across_a_breakpoint(self, sys2):
        # in the hierarchical basis a nested support never crosses a coarser
        # breakpoint; level-3 and level-4 hats together do (the level-4 hat
        # peaked at 1/8 lies in the support of the level-3 one, not in a piece)
        rows = np.concatenate([level_rows(sys2, "scaling", 3), level_rows(sys2, "scaling", 4)])
        basis = EnrichedBasis(sys2, *rows.T, J0=3, J=4, gamma=None)
        self.assert_drops_what_the_rule_proves(basis, 0.9, True, True)


class TestCellForm:
    """Assembly from each cell's polynomial agrees with the point form, the
    basis evaluated at every Gauss node, summed in long double."""

    @pytest.mark.parametrize("name,J", [("ex1", 12), ("ex2", 12), ("ex3", 10)])
    def test_stiffness_matches_long_double_point_form(self, sys2, name, J):
        # the point form summed in float64 is off by up to 3.6e-13 here
        p = builtin_problem(name)
        basis = enriched_basis(sys2, 2, J, p.gamma)
        A = assemble_stiffness(basis, p).tocoo()
        R, _ = point_form(basis, p)
        ref = np.asarray(R[A.row, A.col]).ravel()
        d = A.diagonal()
        assert np.all(np.abs(A.data - ref) <= 1e-14 * np.sqrt(d[A.row] * d[A.col]))

    def test_degree_two_pieces(self, sys2):
        # a degree-2 column in the tables: each cell's Gram matrix is 2 x 2
        # and its Cholesky factor is no longer a scalar
        p = parsed_problem(0.3, "1 + x^2", "100*exp(x)", g=1.5)
        basis = enriched_basis(sys2, 2, 6, 0.3)
        wide = np.concatenate([basis.coeffs, np.zeros(basis.coeffs.shape[:2] + (1,))], axis=2)
        wide[:, :, 2] = np.random.default_rng(4).uniform(-20.0, 20.0, wide.shape[:2])
        object.__setattr__(basis, "coeffs", wide)
        A, b = assemble_stiffness(basis, p).toarray(), assemble_load(basis, p)
        R, rb = point_form(basis, p)
        R = R.toarray()
        d = np.diag(A)
        assert np.all(np.abs(A - R) <= 1e-14 * np.sqrt(np.outer(d, d)))
        assert np.all(np.abs(b - rb) <= 1e-14 * np.abs(b).max())
        assert np.all(d > 0.0) and np.array_equal(A, A.T)


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
        c_star = rng.normal(size=len(eb))
        system.b = system.A @ c_star
        sol = solve(system)
        assert sol.coefficients == pytest.approx(c_star, rel=1e-9, abs=1e-11)

    def test_point_load_tent_solution(self, sys2):
        # -(u')' = -delta at 1/2 has the closed form u = -min(x, 1-x)/2
        eb = enriched_basis(sys2, 2, 3, 0.5)
        sol = solve(assemble(eb, plain_problem(gamma=0.5, g=1.0)))
        xs = np.linspace(0, 1, 33)
        want = -0.5 * np.minimum(xs, 1 - xs)
        vals, _ = evaluate_solution(sol, xs)
        assert vals == pytest.approx(want, abs=1e-12)

    def test_rejects_non_spd(self, sys2):
        # an indefinite diagonal, and a zero diagonal that needs an
        # off-diagonal pivot, each padded with the identity to the basis size
        eb = truncated_basis(sys2, 2, 2)
        form = assemble(eb, plain_problem()).form
        for M in (np.diag([1.0, -1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])):
            A = scipy.sparse.block_diag([M, scipy.sparse.identity(len(eb) - len(M))], format="csr")
            with pytest.raises(SolverError):
                solve(LinearSystem(A, np.ones(len(eb)), eb, form))

    def test_zero_rhs(self, sys2):
        eb = truncated_basis(sys2, 2, 2)
        system = LinearSystem(scipy.sparse.identity(len(eb), format="csr"), np.zeros(len(eb)), eb,
                              assemble(eb, plain_problem()).form)
        assert np.all(solve(system).coefficients == 0.0)

    def test_galerkin_orthogonality_residual(self, sys2):
        p = builtin_problem("ex2")
        eb = enriched_basis(sys2, 2, 4, p.gamma)
        system = assemble(eb, p)
        sol = solve(system)
        res = np.abs(system.A @ sol.coefficients - system.b).max()
        assert res <= 1e-9 * max(1.0, np.abs(system.b).max())

    def test_coefficient_length_checked(self, sys2):
        eb = enriched_basis(sys2, 2, 2, 0.3)
        with pytest.raises(ValueError):
            DiscreteSolution(np.zeros(len(eb) + 1), eb, assemble(eb, plain_problem()).form)


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

    def test_reuses_the_factor_solve_keeps(self, sys2):
        p = builtin_problem("ex3")
        system = assemble(enriched_basis(sys2, 2, 6, p.gamma), p)
        solve(system)
        assert system.factor is not None
        assert condition_number(system.A, system.factor) == pytest.approx(
            condition_number(system.A), rel=1e-12)


def system_of(sys2, A, b):
    """A LinearSystem holding A and b on a truncated basis of A's size
    (2^(J+1) - 1 rows)."""
    eb = truncated_basis(sys2, 2, int(np.log2(A.shape[0] + 1)) - 1)
    assert len(eb) == A.shape[0]
    return LinearSystem(scipy.sparse.csr_matrix(A), b, eb, assemble(eb, plain_problem()).form)


def interleaved(rng, n, k):
    """An n x n SPD matrix: a random dense SPD block, eigenvalues 1..1e3,
    on k random rows, and a random positive diagonal on the others."""
    coupled = np.sort(rng.choice(n, size=k, replace=False))
    Q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    B = (Q * np.geomspace(1.0, 1e3, k)) @ Q.T
    M = np.diag(rng.uniform(1.0, 1e3, n))
    M[np.ix_(coupled, coupled)] = (B + B.T) / 2
    return scipy.sparse.csr_matrix(M)


def forbidden(A):
    raise AssertionError("_spd_factor called")


class TestDecoupledUnknowns:
    """`solve` and `condition_number` read the unknowns whose row and column
    store only the diagonal off it, and factor only the coupled rest."""

    def test_diagonal_matrix_needs_no_factor(self, sys2, monkeypatch):
        monkeypatch.setattr(galerkin, "_spd_factor", forbidden)
        rng = np.random.default_rng(3)
        d, b = rng.uniform(0.1, 1e4, 63), rng.normal(size=63)
        system = system_of(sys2, scipy.sparse.diags(d), b)
        assert np.array_equal(solve(system).coefficients, b / d)
        assert condition_number(system.A, system.factor) == d.max() / d.min()
        assert condition_number(system.A) == d.max() / d.min()

    def test_no_decoupled_row_takes_the_whole_matrix(self, sys2):
        # a 1D stiffness matrix with random coefficients, larger than the
        # dense bound: the solution and kappa of one factor of all of A
        rng = np.random.default_rng(4)
        n = 511
        assert n > KAPPA_DENSE_ROWS
        a = rng.uniform(0.5, 2.0, n + 1)
        A = scipy.sparse.diags([-a[1:-1], a[:-1] + a[1:], -a[1:-1]], [-1, 0, 1], format="csr")
        b = rng.normal(size=n)
        system = system_of(sys2, A, b)
        lu = galerkin._spd_factor(A)
        assert np.array_equal(solve(system).coefficients, _factor_solve(lu, b))
        v0 = np.ones(n) / np.sqrt(n)
        top = v0.copy()
        top[np.argmax(A.diagonal())] += 1.0
        top /= np.linalg.norm(top)
        lmax = scipy.sparse.linalg.eigsh(A, k=1, which="LA", tol=galerkin.KAPPA_TOL, v0=top,
                                         return_eigenvectors=False)[0]
        lmin = scipy.sparse.linalg.eigsh(
            A, k=1, sigma=0.0, which="LM", tol=galerkin.KAPPA_TOL, v0=v0, ncv=6, return_eigenvectors=False,
            OPinv=scipy.sparse.linalg.LinearOperator(A.shape, matvec=lambda v: _factor_solve(lu, v)),
        )[0]
        assert condition_number(system.A, system.factor) == lmax / lmin

    @pytest.mark.parametrize("n, k", [(63, 1), (63, 25), (511, KAPPA_DENSE_ROWS), (511, 300)])
    def test_interleaved_block(self, sys2, n, k):
        rng = np.random.default_rng(n + k)
        A = interleaved(rng, n, k)
        b = rng.normal(size=n)
        system = system_of(sys2, A, b)
        c = solve(system).coefficients
        ref = scipy.sparse.linalg.spsolve(scipy.sparse.csc_matrix(A), b)
        assert np.linalg.norm(c - ref) <= 1e-13 * np.linalg.norm(ref)
        assert len(system.factor.coupled) == (k if k > 1 else 0)
        if k <= KAPPA_DENSE_ROWS:
            w = np.linalg.eigvalsh(A.toarray())
            assert condition_number(system.A, system.factor) == pytest.approx(w[-1] / w[0], rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_non_positive_decoupled_diagonal_refused(self, sys2, bad):
        d = np.ones(7)
        d[3] = bad
        A = scipy.sparse.diags(d, format="csr")  # stores the bad entry
        with pytest.raises(SolverError):
            solve(system_of(sys2, A, np.ones(7)))
        with pytest.raises(SolverError):
            condition_number(A)

    def test_empty_row_refused(self, sys2):
        A = scipy.sparse.csr_matrix(np.diag([2.0, 0.0, 3.0, 1.0, 1.0, 1.0, 1.0]))
        assert np.diff(A.indptr)[1] == 0  # row 1 stores nothing
        with pytest.raises(SolverError):
            solve(system_of(sys2, A, np.ones(7)))


@pytest.fixture(scope="module", params=[(pid, mode) for pid in ("ex1", "ex2", "ex3")
                                        for mode in ("enriched", "fem")], ids="-".join)
def sweep_top(request, sys2):
    """The J=12 system a CLI sweep to jmax=12 assembles."""
    pid, mode = request.param
    p = builtin_problem(pid)
    basis = enriched_basis(sys2, 2, 12, p.gamma) if mode == "enriched" else truncated_basis(sys2, 2, 12)
    return assemble(basis, p)


def assert_factor_fills_nothing(A):
    assert _spd_factor(A).L.nnz == scipy.sparse.tril(A).nnz


def stored(M):
    """The (row, column) pairs M stores."""
    M = M.tocoo()
    return set(zip(M.row.tolist(), M.col.tolist()))


class TestSparseFactor:
    """The SPD factor eliminates the finest level first, with no ordering
    step."""

    def test_no_fill_at_every_level(self, sweep_top):
        for J in range(5, 13):
            assert_factor_fills_nothing(subsystem(sweep_top, J).A)

    @settings(max_examples=25, deadline=None)
    @given(gamma=GAMMAS, contrast=CONTRASTS)
    @example(gamma=0.5 + 2.0**-53, contrast=1e6)
    @example(gamma=0.25 - 2.0**-55, contrast=1e-3)
    @example(gamma=0.3, contrast=1.0)
    def test_fill_stays_among_functions_sharing_a_cell(self, sys2, gamma, contrast):
        # finest-first elimination fills nothing on the graph of all pairs
        # of functions sharing a cell.  A stores a subset of it: here a is a
        # plain callable, so A leaves out exactly the pairs whose entry sums
        # to 0.0, a roundoff-dependent choice, and its factor may fill some
        # of them back in, but never a pair outside that graph
        top = assemble(enriched_basis(sys2, 2, 8, gamma), plain_problem(gamma, ap=contrast, f=1.0))
        cells = top.form.C.copy()
        cells.data[:] = 1.0
        for J in range(3, 9):
            rows, _ = top.basis.level(J)
            sharing = (cells[:, rows].T @ cells[:, rows] + scipy.sparse.identity(len(rows))).tocsr()
            pattern = _spd_factor(sharing).L
            assert pattern.nnz == scipy.sparse.tril(sharing).nnz
            assert stored(_spd_factor(subsystem(top, J).A).L) <= stored(pattern)


class TestKappaAccuracy:
    def test_within_1e_6_of_exact_eigensolves(self, sweep_top):
        # eigsh at tol=0 converges to machine precision; shift-invert there
        # factors with SuperLU's own ordering, not `_spd_factor`
        for J in range(5, 11):
            A = subsystem(sweep_top, J).A
            lmax = scipy.sparse.linalg.eigsh(A, k=1, which="LA", tol=0, return_eigenvectors=False)[0]
            lmin = scipy.sparse.linalg.eigsh(A, k=1, sigma=0.0, which="LM", tol=0,
                                             return_eigenvectors=False)[0]
            assert abs(condition_number(A) / (lmax / lmin) - 1.0) <= 1e-6, J

    @pytest.mark.parametrize("mode", ["enriched", "fem"])
    @pytest.mark.parametrize("pid", ["ex1", "ex2"])
    def test_ex1_ex2_match_a_dense_eigensolve(self, sys2, pid, mode):
        # a is constant on each side: every coupled block is under the
        # dense bound, so kappa is a full eigensolve
        p = builtin_problem(pid)
        basis = enriched_basis(sys2, 2, 10, p.gamma) if mode == "enriched" else truncated_basis(sys2, 2, 10)
        top = assemble(basis, p)
        for J in range(5, 11):
            A = subsystem(top, J).A
            w = np.linalg.eigvalsh(A.toarray())
            assert condition_number(A) == pytest.approx(w[-1] / w[0], rel=1e-10), J


def mesh_derivative(f, x):
    """f' at x as `evaluate_solution` reads it: from the left, except at 0.
    This is evaluate_array's reading of the derivative except at the left
    end of f's support, where the left limit is 0."""
    d = f.derivative().evaluate_array(x)
    return np.where((x == float(f.support.lo)) & (x > 0.0), 0.0, d)


class TestEvaluateSolution:
    def test_zero_coefficients(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        sol = hand_built(np.zeros(len(eb)), eb)
        v, d = evaluate_solution(sol, np.linspace(0, 1, 17))
        assert np.all(v == 0.0) and np.all(d == 0.0)

    def test_single_function(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        c = np.zeros(len(eb))
        c[5] = 2.0
        sol = hand_built(c, eb)
        xs = np.linspace(0, 1, 29)
        v, d = evaluate_solution(sol, xs)
        assert v == pytest.approx(2.0 * eb[5].primal.evaluate_array(xs), abs=1e-14)
        assert d == pytest.approx(2.0 * mesh_derivative(eb[5].primal, xs), abs=1e-14)

    def test_breakpoint_convention(self, sys2):
        # values are continuous; at a mesh edge the derivative is the left
        # limit, which evaluate_array reads the same way everywhere but at
        # the left end of a support
        eb = enriched_basis(sys2, 2, 3, 0.3)
        xs = _graded_mesh(eb, 0.3)[0]
        for i, bf in enumerate(eb):
            c = np.zeros(len(eb))
            c[i] = 1.0
            v, d = evaluate_solution(hand_built(c, eb), xs)
            assert v == pytest.approx(bf.primal.evaluate_array(xs), abs=1e-14)
            assert d == pytest.approx(mesh_derivative(bf.primal, xs), abs=1e-14)

    def test_breakpoint_one_ulp_left_of_gamma(self, sys2):
        # 1/2 reads the cell left of it, and gamma the cell [1/2, gamma] one
        # ulp wide, whose pieces are those right of 1/2
        g = 0.5 + 2.0**-53
        eb = enriched_basis(sys2, 2, 3, g)
        xs = np.array([0.5 - 2.0**-40, 0.5, g, 0.5 + 2.0**-40])
        for c in np.eye(len(eb)):
            v, d = evaluate_solution(hand_built(c, eb), xs)
            assert d[0] == d[1] and d[2] == pytest.approx(d[3], rel=1e-15)
            assert v == pytest.approx(v[1], abs=1e-10)

    def test_matches_cell_values_at_gauss_nodes(self, sys2):
        # the values error measurement reads, from the same C c
        p = builtin_problem("ex2")
        sol = solve(assemble(enriched_basis(sys2, 2, 8, p.gamma), p))
        v, d = evaluate_solution(sol, sol.form.nodes().ravel())
        cv, cd = (m.ravel() for m in sol.form.values(sol.coefficients))
        assert np.all(np.abs(v - cv) <= 1e-15 * np.abs(cv).max())
        assert np.all(np.abs(d - cd) <= 1e-15 * np.abs(cd).max())

    def test_unsorted_grid(self, sys2):
        eb = enriched_basis(sys2, 2, 3, 0.3)
        rng = np.random.default_rng(3)
        c = rng.normal(size=len(eb))
        sol = hand_built(c, eb)
        xs = rng.uniform(0, 1, 40)
        v1, _ = evaluate_solution(sol, xs)
        order = np.argsort(xs)
        v2, _ = evaluate_solution(sol, xs[order])
        assert v1[order] == pytest.approx(v2, abs=1e-14)

    def test_out_of_domain_rejected(self, sys2):
        eb = enriched_basis(sys2, 2, 2, 0.3)
        sol = hand_built(np.zeros(len(eb)), eb)
        with pytest.raises(ValueError):
            evaluate_solution(sol, np.array([-0.1, 0.5]))

    def test_non_finite_grid_rejected(self, sys2):
        eb = enriched_basis(sys2, 2, 4, np.sqrt(2) / 2)
        sol = hand_built(np.ones(len(eb)), eb)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                evaluate_solution(sol, [0.3, bad, 0.7])


class TestSubsystem:
    """A level's system as a principal sub-system of a deeper level's."""

    @pytest.mark.parametrize("mode", ["enriched", "fem"])
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    def test_matches_per_level_assembly(self, sys2, name, mode):
        # the deeper mesh refines the level's own, so only the summation of
        # A and b differs
        p = builtin_problem(name)
        make = (lambda J: enriched_basis(sys2, 2, J, p.gamma)) if mode == "enriched" else (
            lambda J: truncated_basis(sys2, 2, J))
        full = assemble(make(10), p)
        for J in range(2, 11):
            sub, ref = subsystem(full, J), assemble(make(J), p)
            assert len(sub.basis) == len(ref.basis) and sub.basis.J == J
            D = (sub.A - ref.A).tocoo()
            d = ref.A.diagonal()
            assert np.all(np.abs(D.data) <= 1e-14 * np.sqrt(d[D.row] * d[D.col]))
            assert np.all(np.abs(sub.b - ref.b) <= 1e-14 * np.abs(ref.b).max())

    def test_top_level_shares_everything(self, sys2):
        p = builtin_problem("ex2")
        full = assemble(enriched_basis(sys2, 2, 6, p.gamma), p)
        top = subsystem(full, 6)
        assert all(getattr(top, name) is getattr(full, name) for name in ("A", "b", "basis", "form"))
        assert top is not full  # its factor is its own

    @pytest.mark.parametrize("mode", ["enriched", "fem"])
    def test_solutions_read_the_deeper_synthesis(self, sys2, mode):
        # coefficients scattered into the deeper C's columns give the
        # level's own u_J, at any point and in the error norms
        p = builtin_problem("ex3")
        make = (lambda J: enriched_basis(sys2, 2, J, p.gamma)) if mode == "enriched" else (
            lambda J: truncated_basis(sys2, 2, J))
        full = assemble(make(9), p)
        xs = np.random.default_rng(5).uniform(0.0, 1.0, 200)
        for J in (3, 6, 8):
            system = subsystem(full, J)
            assert system.form.C is full.form.C and len(system.form.cols) == len(system.basis)
            sol = solve(system)
            own = DiscreteSolution(sol.coefficients, system.basis,
                                   assemble(system.basis, p).form)  # its own mesh and C
            for got, want in zip(evaluate_solution(sol, xs), evaluate_solution(own, xs)):
                assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max())
            got = error_norms(sol, p.exact.values(p.gamma, sol.form.nodes()))
            want = error_norms(own, p.exact.values(p.gamma, own.form.nodes()))
            assert got.E_L2 == pytest.approx(want.E_L2, rel=1e-8)
            assert got.E_H1 == pytest.approx(want.E_H1, rel=1e-8)
        # a sub-system of a sub-system reads the same columns of the top C
        inner, direct = subsystem(subsystem(full, 8), 6), subsystem(full, 6)
        assert np.array_equal(inner.form.cols, direct.form.cols)
        assert (inner.A != direct.A).nnz == 0 and np.array_equal(inner.b, direct.b)

    def test_nodes_rebuilt_once_dropped(self, sys2):
        # assembly drops its node array once a and f are read: the form's
        # nodes are rebuilt from the edges, bit for bit those a and f were
        # read at, and the sweep's once-made values give a level the errors
        # its own nodes give it
        p = builtin_problem("ex1")
        basis = enriched_basis(sys2, 2, 7, p.gamma)
        full = assemble(basis, p)
        assert np.array_equal(full.form.nodes(), _graded_mesh(basis, p.gamma)[1])
        sol = solve(subsystem(full, 5))
        assert error_norms(sol, p.exact.values(p.gamma, full.form.nodes())) == error_norms(
            sol, p.exact.values(p.gamma, sol.form.nodes()))

    def test_given_values_need_the_solutions_own_mesh(self, sys2):
        p = builtin_problem("ex1")
        full = assemble(enriched_basis(sys2, 2, 5, p.gamma), p)
        sol = solve(subsystem(full, 4))
        u, du = p.exact.values(p.gamma, full.form.nodes())
        with pytest.raises(ValueError, match="own mesh"):
            error_norms(sol, (u[1:], du[1:]))
