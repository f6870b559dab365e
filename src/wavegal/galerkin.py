"""Galerkin assembly and solve for the 1D elliptic interface problem.

Weak form: find u in the discrete space with
    int a u' v' = int f v - g_gamma v(gamma)   for all basis v,
where a and f may jump at the interface point gamma.  Every integral
runs on one graded mesh: the union of all basis breakpoints plus gamma,
which is finest near gamma where the enrichment levels sit.  On each of
its cells every basis function is a single polynomial in the cell's
local coordinate t in [0, 1], and one sparse synthesis matrix C holds
them all: row (cell, n) holds each function's coefficient of t^n, for
n < p = coeffs.shape[2].  From C come
- the stiffness matrix, A = S^T S with S = L C', where C' takes d/dt
  and L factors each cell's a-weighted Gram matrix of the derivative's
  monomials;
- the load vector, C^T times each cell's moments of f t^n, less g_gamma
  times C's t^0 row on the cell right of gamma;
- the per-cell coefficients C c of a discrete solution
  (`_CellForm.per_cell`), and its values and derivatives at the Gauss
  nodes (`_CellForm.values`), which `analysis.error_norms` and
  `analysis.evaluate_solution` read.
a and f are read at a QUAD_NODES-point Gauss rule per cell, exact for
the polynomial part.  Summing A over cells, not over Gauss nodes, keeps
its entries within 5e-15 sqrt(A_ii A_jj) of a long-double sum of the
same quadrature (3.6e-13 when summed node by node).  Everything reads
the basis's float tables (`EnrichedBasis.breaks` and `coeffs`, gathered
from the system's per-family tables), never the polynomials that
`basis[i]` builds on access.
Every `LinearSystem` and `DiscreteSolution` carries its mesh: `assemble`
keeps the edges, the Gauss weights and C together (`_CellForm`), and
`solve` hands them on, so errors are measured on the mesh and C the
system was assembled from.  The problem types (`InterfaceProblem`,
`ExactSolution`) live in `problems`, and evaluation and error
measurement in `analysis`: only this module and `cli` import scipy, so
building a problem or running the decay diagnostics loads none.  The
Gauss nodes are rebuilt from the edges when asked for
(`_CellForm.nodes`), bit for bit the ones a and f were read at.

The enriched spaces are nested, so the system of a coarser level J is
the principal sub-system of a deeper one on the rows of its basis
(`subsystem`): A[rows][:, rows] and b[rows], assembled on the deeper
mesh, which is a refinement of level J's.  Its form is the deeper one
with `cols` = rows, and its solutions are evaluated from the deeper C,
their coefficients scattered into those columns; no copy of C is made.

The stiffness matrix stores only the entries that support arithmetic
cannot prove zero.  An off-diagonal pair is dropped when the support
[lo, hi] of one function lies in a single piece of the other, that piece
has degree <= 1, [lo, hi] lies on one side of gamma (hi <= gamma or
lo >= gamma), and `a` is constant on that side (an `Expression` whose
`is_constant()` holds; a plain callable never is).  The other function's
derivative is then a constant c on [lo, hi], so the entry is
a c (eta(hi) - eta(lo)) = 0, since every basis function vanishes at the
ends of its support.  These are the zeros of the hierarchical basis
(Yserentant, Numer. Math. 49, 1986); the quadrature leaves exact zeros
or roundoff of at most about 2e-16 sqrt(A_ii A_jj) in their place, and
neither is stored.
The rule reads the degree of the piece, not the order m, so it drops
nothing it cannot prove for higher-order systems either.

A is sparse and SPD, and where a is constant the zeros above leave
most rows storing only their diagonal entry.  `solve` splits A's
unknowns by its stored pattern (`_split`): each decoupled unknown, whose
row stores only A_ii, is b_i / A_ii, and the coupled rest is solved by
one factorization of its principal block (`_spd_factor`: SuperLU with
diagonal pivots only, a sparse Cholesky factorization up to the scaling
of its rows).  On ex1 and ex2 the block holds 2J+1 rows at level J
(J+2 unenriched); on ex3, whose a varies right of gamma, about half of
them.  `solve` keeps the split, with the block's factor, on the system,
and `condition_number` reads it when it is passed in: the decoupled
eigenvalues are the diagonal entries, and the block's extremes come
from a dense eigensolve when it has at most KAPPA_DENSE_ROWS rows, and
otherwise from Lanczos, inverting with the block's factor.
There is no ordering step.  Every basis runs from its coarsest level to
its finest, so the factor takes the block with its rows and columns
reversed, in that order, and eliminates the finest level first.  On the
graph of the pairs of functions that share a cell, this order has
filled nothing in every case tested.  A stores a subset of that graph,
so the factor stays inside it; on the built-in problems L holds exactly
the entries of the block's lower triangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .basis import EnrichedBasis
from .expressions import Expression
from .piecewise import gauss_rule
from .problems import InterfaceProblem

__all__ = [
    "LinearSystem",
    "DiscreteSolution",
    "SolverError",
    "assemble_stiffness",
    "assemble_load",
    "assemble",
    "subsystem",
    "solve",
    "condition_number",
]

QUAD_NODES = 10

# relative tolerance of the Lanczos eigenvalue estimates in
# `condition_number`; kappa's 7th significant digit is noise at this value
KAPPA_TOL = 1e-4

# coupled blocks up to this many rows take kappa's extremes from a dense
# eigvalsh, larger ones from two Lanczos runs.  On one core of a 2-CPU
# Xeon VM (one BLAS thread, best of 7-15), eigvalsh took 0.87 ms at 137
# rows, 1.6 ms at 175, 2.7 ms at 200 and 4.7 ms at 261, and the two
# Lanczos runs 1.2-2.7 ms on ex3's blocks of 125-261 rows
KAPPA_DENSE_ROWS = 180


class SolverError(RuntimeError):
    """Raised when a matrix is not SPD or an eigenvalue estimate fails."""


class _CellForm(NamedTuple):
    """The graded mesh of a basis split at gamma: its edges, the Gauss
    weights w of its cells (cells x QUAD_NODES), and the synthesis matrix
    C of the basis on it.  A sub-system's form holds a deeper basis's C,
    and cols, the columns of its own functions."""

    edges: np.ndarray
    w: np.ndarray
    C: scipy.sparse.csc_matrix
    cols: np.ndarray | None = None

    def nodes(self) -> np.ndarray:
        """The Gauss nodes of the cells (cells x QUAD_NODES), bit for bit
        the ones the system was assembled at."""
        return _gauss_nodes(self.edges)[0]

    def scatter(self, coefficients) -> np.ndarray:
        """Coefficients of the basis's functions in C's columns."""
        if self.cols is None:
            return coefficients
        out = np.zeros(self.C.shape[1])
        out[self.cols] = coefficients
        return out

    def per_cell(self, coefficients) -> np.ndarray:
        """The per-cell coefficients C c of sum_i coefficients[i] eta_i
        (cells x p), c being the coefficients scattered into C's columns."""
        return (self.C @ self.scatter(coefficients)).reshape(len(self.edges) - 1, -1)

    def values(self, coefficients) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives of sum_i coefficients[i] eta_i at the Gauss
        nodes of every cell (cells x QUAD_NODES each), from `per_cell`."""
        U = self.per_cell(coefficients)
        p = U.shape[1]
        T = _cell_powers(p)
        return U @ T.T, (U[:, 1:] * np.arange(1, p)) @ T[:, : p - 1].T / np.diff(self.edges)[:, None]


@dataclass
class LinearSystem:
    A: scipy.sparse.csr_matrix
    b: np.ndarray
    basis: EnrichedBasis
    form: _CellForm = field(repr=False)
    # A's decoupled unknowns and the SPD factor of its coupled block
    # (`_split`, `_spd_factor`), set by `solve` for `condition_number` to
    # reuse; the block and its factor are about as large as the block's
    # lower triangle, so a caller drops them once kappa is known
    factor: _Split | None = field(default=None, repr=False)


@dataclass
class DiscreteSolution:
    coefficients: np.ndarray
    basis: EnrichedBasis
    form: _CellForm = field(repr=False, compare=False)

    def __post_init__(self):
        if len(self.coefficients) != len(self.basis):
            raise ValueError("coefficient count does not match basis size")


def _graded_mesh(basis, gamma):
    """Edges of the graded mesh (the union of the breakpoints of all
    functions in `basis`, plus gamma), the QUAD_NODES Gauss nodes x of
    each of its cells and their weights w, both as cells x QUAD_NODES
    arrays."""
    edges = np.unique(np.append(basis.breaks[np.isfinite(basis.breaks)], gamma))
    return (edges, *_gauss_nodes(edges))


def _gauss_nodes(edges):
    """The QUAD_NODES Gauss nodes x and weights w of each cell of `edges`."""
    t, wt = gauss_rule(QUAD_NODES)
    lo, hi = edges[:-1, None], edges[1:, None]
    # on cells only a few ulps wide the nodes may round onto an edge, where
    # a and f would be read on the wrong side of gamma; keep them inside (a
    # cell one ulp wide has them on its left edge, the side its pieces are
    # read from)
    x = np.clip(lo + (hi - lo) * t, np.nextafter(lo, hi), np.nextafter(hi, lo))
    return x, (hi - lo) * wt


def _synthesis(basis, edges):
    """Sparse (cells * p) x N matrix C of the basis on the cells of `edges`.

    p = coeffs.shape[2] is the number of coefficients per piece.  Row
    c * p + n holds every function's coefficient of t^n on cell c, where
    x = e_c + h_c t: the coefficients of the piece holding the cell's left
    edge e_c, Taylor-shifted to e_c and scaled by h_c^n.  A function has
    rows on the cells of its support only.  `edges` must hold every
    breakpoint of the basis, so each cell lies in one piece.
    """
    breaks, coeffs = basis.breaks, basis.coeffs
    n, width = breaks.shape
    p = coeffs.shape[2]
    nb = np.isfinite(breaks).sum(axis=1)
    c0 = np.searchsorted(edges, breaks[:, 0])
    count = np.searchsorted(edges, breaks[np.arange(n), nb - 1]) - c0
    start = np.concatenate([[0], np.cumsum(count)])
    # one entry per (function, cell of its support), grouped by function
    f = np.repeat(np.arange(n), count)
    cell = np.arange(start[-1]) + np.repeat(c0 - start[:-1], count)
    left = edges[cell]
    piece = np.zeros(len(f), dtype=np.intp)
    for k in range(1, width - 1):  # breakpoints at or below the left edge, past the first
        piece += breaks[f, k] <= left
    s = left - breaks[f, piece]
    a = coeffs[f, piece]
    for i in range(p - 1):  # Taylor shift by s, by repeated synthetic division
        for k in range(p - 2, i - 1, -1):
            a[:, k] += s * a[:, k + 1]
    a *= (edges[cell + 1] - left)[:, None] ** np.arange(p)
    rows = (cell[:, None] * p + np.arange(p)).ravel()
    return scipy.sparse.csc_matrix((a.ravel(), rows, p * start), shape=((len(edges) - 1) * p, n))


def _cell_powers(p):
    """The powers t^n, n < p, at the QUAD_NODES Gauss nodes on [0, 1]
    (QUAD_NODES x p)."""
    t, _ = gauss_rule(QUAD_NODES)
    return t[:, None] ** np.arange(p)


def _is_constant(a) -> bool:
    """Whether a coefficient is provably constant: an `Expression` that folded
    to a number.  A plain callable proves nothing."""
    return isinstance(a, Expression) and a.is_constant()


def _structural_zeros(basis, problem, row, col):
    """Mask of the stored pairs (row[k], col[k]) that the rule of the module
    docstring proves zero.  Every primal vanishing at its support ends is
    the battery's h1-membership check.  Breakpoints are dyadic, so the
    float comparisons are exact.
    """
    left_ok, right_ok = _is_constant(problem.a_minus), _is_constant(problem.a_plus)
    if not (left_ok or right_ok):
        return np.zeros(len(row), dtype=bool)
    breaks, gamma = basis.breaks, problem.gamma
    nb = np.isfinite(breaks).sum(axis=1)
    lo, hi = breaks[:, 0], breaks[np.arange(len(nb)), nb - 1]
    linear = ~np.any(basis.coeffs[:, :, 2:] != 0.0, axis=2)  # (function, piece)

    # only the narrower support can lie in a piece of the other: a function
    # whose whole support is one linear piece vanishing at both ends is 0
    narrow = hi[row] - lo[row] <= hi[col] - lo[col]
    i, j = np.where(narrow, row, col), np.where(narrow, col, row)
    drop = (i != j) & ((hi[i] <= gamma) & left_ok | (lo[i] >= gamma) & right_ok)
    i, j = i[drop], j[drop]
    p = (breaks[j] <= lo[i][:, None]).sum(axis=1) - 1  # piece of j holding lo_i
    q = np.clip(p, 0, linear.shape[1] - 1)
    drop[drop] = (p >= 0) & (p < nb[j] - 1) & (hi[i] <= breaks[j, q + 1]) & linear[j, q]
    return drop


def _stiffness_product(problem, edges, x, C):
    """S^T S with S = L C', before any structural zero is dropped.

    C' takes d/dt of each cell's polynomial from C (row c * d + n holds
    (n + 1) times row c * p + n + 1, d = p - 1), and L is block diagonal
    with one d x d block per cell: L_c^T for the Cholesky factor L_c of
    the cell's Gram matrix G_nm = (1/h) sum_q w_q a(x_q) t_q^(n+m), the
    QUAD_NODES Gauss rule applied to a t^n t^m dt/dx.  So
    int_c a u' v' = (C'u)_c^T G (C'v)_c, and A = S^T S is exactly
    symmetric.  For d = 1, L is the scalar sqrt(int_c a) / h.  The sparse
    product stores every pair of functions sharing a cell, except pairs
    whose sum is exactly 0.
    """
    h = np.diff(edges)
    d = C.shape[0] // len(h) - 1
    _, wt = gauss_rule(QUAD_NODES)
    T = _cell_powers(2 * d - 1)
    G = ((wt * problem.a(x)) @ T / h[:, None])[:, np.add.outer(np.arange(d), np.arange(d))]
    L = np.linalg.cholesky(G)
    # row n of block c of L C' holds (k + 1) L_c[k, n] against C's row
    # c * p + k + 1, for k >= n (L_c is lower triangular)
    cell, k, n = np.indices((len(h), d, d)).reshape(3, -1)
    cell, k, n = cell[k >= n], k[k >= n], n[k >= n]
    M = scipy.sparse.csr_matrix(
        ((k + 1) * L[cell, k, n], (cell * d + n, cell * (d + 1) + k + 1)),
        shape=(len(h) * d, C.shape[0]),
    )
    S = M @ C
    return (S.T @ S).tocsr()


def _stiffness(basis, problem, edges, x, C):
    """`_stiffness_product` with the structural zeros of `_structural_zeros`
    not stored."""
    A = _stiffness_product(problem, edges, x, C)
    row = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    keep = ~_structural_zeros(basis, problem, row, A.indices)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row[keep], minlength=A.shape[0]))])
    return scipy.sparse.csr_matrix((A.data[keep], A.indices[keep], indptr), shape=A.shape)


def _load(problem, edges, x, w, C):
    """b = C^T m - g_gamma eta(gamma): m holds each cell's moments
    int_c f t^n, and eta(gamma) is C's t^0 row on the cell right of gamma."""
    p = C.shape[0] // len(w)
    rhs = np.zeros((C.shape[0], 2))
    rhs[:, 0] = ((w * problem.f(x)) @ _cell_powers(p)).ravel()
    rhs[p * np.searchsorted(edges, problem.gamma), 1] = problem.g_gamma
    load, dirac = (C.T @ rhs).T
    return load - dirac


def assemble_stiffness(basis: EnrichedBasis, problem: InterfaceProblem) -> scipy.sparse.csr_matrix:
    """Stiffness matrix A[i,j] = int a eta_i' eta_j', split at the interface."""
    return assemble(basis, problem).A


def assemble_load(basis: EnrichedBasis, problem: InterfaceProblem) -> np.ndarray:
    """Load vector b[i] = int f eta_i - g_gamma eta_i(gamma)."""
    return assemble(basis, problem).b


def assemble(basis: EnrichedBasis, problem: InterfaceProblem) -> LinearSystem:
    """Stiffness and load on the graded mesh of `basis` split at gamma, from
    one synthesis matrix; the system keeps the mesh, its Gauss weights and
    C for measuring its solution's errors.  a and f are read at the Gauss
    nodes, which are not kept."""
    edges, x, w = _graded_mesh(basis, problem.gamma)
    C = _synthesis(basis, edges)
    A, b = _stiffness(basis, problem, edges, x, C), _load(problem, edges, x, w, C)
    return LinearSystem(A, b, basis, _CellForm(edges, w, C))


def subsystem(system: LinearSystem, J: int) -> LinearSystem:
    """The level-J system nested in `system`, whose basis `enriched_basis`
    or `truncated_basis` built at a level >= J: the principal sub-matrix
    A[rows][:, rows] and sub-vector b[rows] on the rows of the level-J
    basis (`EnrichedBasis.level`), sharing system's mesh and C.  At
    system's own level it shares A, b and the basis too."""
    if J == system.basis.J:
        return LinearSystem(system.A, system.b, system.basis, system.form)
    rows, basis = system.basis.level(J)
    cols = rows if system.form.cols is None else system.form.cols[rows]
    return LinearSystem(system.A[rows][:, rows], system.b[rows], basis, system.form._replace(cols=cols))


def _reversed(A):
    """A with its rows and columns in reverse order, as a CSC matrix."""
    A = scipy.sparse.csc_matrix(A)
    n, nnz = A.shape[0], A.indptr[-1]
    # column j of the result is column n-1-j of A, read backwards
    data = np.ascontiguousarray(A.data[:nnz][::-1])
    rows = np.ascontiguousarray((n - 1 - A.indices[:nnz])[::-1])
    return scipy.sparse.csc_matrix((data, rows, nnz - A.indptr[::-1]), shape=A.shape)


def _spd_factor(A):
    """SuperLU factor of an SPD matrix A with its rows and columns reversed,
    in that order, diagonal pivots only; `_factor_solve` applies it.  A
    basis runs from its coarsest level to its finest, so this eliminates
    the finest level first, with no ordering step (see the module
    docstring for its fill).  Raises SolverError unless every pivot was
    taken on the diagonal and is positive, which for a symmetric A holds
    exactly when A is positive definite."""
    try:
        lu = scipy.sparse.linalg.splu(
            _reversed(A), permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True},
        )
    except RuntimeError as e:  # an exactly singular factor
        raise SolverError(f"factorization failed: {e}") from e
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise SolverError("matrix is not symmetric positive definite")
    return lu


def _factor_solve(factor, b):
    """A^-1 b from `factor`, the `_spd_factor` of A."""
    return factor.solve(np.ascontiguousarray(b[::-1]))[::-1]


class _Split(NamedTuple):
    """An SPD matrix A split into its decoupled unknowns `free`, whose rows
    store nothing but the diagonal entry `diag` (A is symmetric, so their
    columns store nothing else either), and the `coupled` rest, whose
    principal sub-matrix A[coupled][:, coupled] is `block`.  `factor` is
    the block's `_spd_factor`: None until it is made, and for an empty
    block."""

    free: np.ndarray
    diag: np.ndarray
    coupled: np.ndarray
    block: scipy.sparse.csr_matrix
    factor: scipy.sparse.linalg.SuperLU | None = None


def _split(A) -> _Split:
    """The `_Split` of A, read off its stored pattern: a row is decoupled
    when it stores at most one entry, so an off-diagonal entry stored as
    0.0 couples its row.  Raises SolverError unless every decoupled
    diagonal entry is positive (a row storing only an off-diagonal entry
    has a zero diagonal)."""
    A = scipy.sparse.csr_matrix(A)
    stored = np.diff(A.indptr)
    free, coupled = np.flatnonzero(stored <= 1), np.flatnonzero(stored > 1)
    diag = A.diagonal()[free]
    if not np.all(diag > 0.0):
        raise SolverError("matrix is not symmetric positive definite")
    block = A if len(coupled) == A.shape[0] else A[coupled][:, coupled]
    return _Split(free, diag, coupled, block)


def solve(system: LinearSystem) -> DiscreteSolution:
    """Solve A c = b.  Each decoupled unknown of A (`_split`) is
    b_i / A_ii, and the coupled ones come from one sparse SPD
    factorization of their block.  The split, holding that factor, is
    kept as `system.factor`."""
    split = _split(system.A)
    if len(split.coupled):
        split = split._replace(factor=_spd_factor(split.block))
    b = np.asarray(system.b, dtype=float)
    c = np.empty(len(b))
    c[split.free] = b[split.free] / split.diag
    if split.factor is not None:
        c[split.coupled] = _factor_solve(split.factor, b[split.coupled])
    system.factor = split
    return DiscreteSolution(c, system.basis, system.form)


def condition_number(A, factor=None) -> float:
    """kappa = lambda_max / lambda_min of an SPD matrix A.

    `factor` is the `_split` of A that `solve` keeps, made here when not
    given.  The eigenvalues of the decoupled unknowns are their diagonal
    entries, exactly.  A coupled block of at most KAPPA_DENSE_ROWS rows
    gives its extremes by a dense symmetric eigensolve; a larger one by
    Lanczos (`_lanczos_extremes`).
    """
    split = factor if factor is not None else _split(A)
    lo, hi = (split.diag.min(), split.diag.max()) if len(split.free) else (np.inf, 0.0)
    n = len(split.coupled)
    if n:
        if n <= KAPPA_DENSE_ROWS:
            w = np.linalg.eigvalsh(split.block.toarray())
            lmin, lmax = w[0], w[-1]
        else:
            lmin, lmax = _lanczos_extremes(split)
        if not 0.0 < lmin <= lmax < np.inf:
            raise SolverError(f"bad extreme eigenvalues ({lmin}, {lmax})")
        lo, hi = min(lo, lmin), max(hi, lmax)
    return float(hi / lo)


def _lanczos_extremes(split: _Split) -> tuple[float, float]:
    """The extreme eigenvalues of the coupled block, by Lanczos with
    deterministic start vectors and relative tolerance KAPPA_TOL.  The
    largest is found directly, from the unit vector along
    ones/sqrt(n) + e_i, i the row of the block's largest diagonal entry:
    the top eigenvector often puts most of its weight there (65-77% on ex3
    at J=5..10), and the uniform part keeps an overlap with it where it
    does not.  The smallest comes from shift-invert at zero in a Krylov
    space of 6 vectors (the inverted spectrum's top is well separated),
    inverting with the block's factor, which is made here when the split
    has none.
    """
    B = split.block
    n = B.shape[0]
    v0 = np.ones(n) / np.sqrt(n)
    top = v0.copy()
    top[np.argmax(B.diagonal())] += 1.0
    top /= np.linalg.norm(top)
    lu = split.factor if split.factor is not None else _spd_factor(B)
    try:
        lmax = scipy.sparse.linalg.eigsh(
            B, k=1, which="LA", tol=KAPPA_TOL, v0=top, return_eigenvectors=False
        )[0]
        lmin = scipy.sparse.linalg.eigsh(
            B, k=1, sigma=0.0, which="LM", tol=KAPPA_TOL, v0=v0, ncv=6,
            return_eigenvectors=False,
            OPinv=scipy.sparse.linalg.LinearOperator(
                B.shape, matvec=lambda v: _factor_solve(lu, v), dtype=float),
        )[0]
    except Exception as e:  # scipy raises several unrelated types here
        raise SolverError(f"eigenvalue estimation failed: {e}") from e
    return lmin, lmax
