"""Galerkin assembly and solve for the 1D elliptic interface problem.

Weak form: find u in the discrete space with
    int a u' v' = int f v - g_gamma v(gamma)   for all basis v,
where a and f may jump at the interface point gamma.  Every integral
runs on one graded mesh: the union of all basis breakpoints plus gamma,
which is finest near gamma where the enrichment levels sit.  On each of
its cells every basis function is a single polynomial and a, f are
smooth, so a QUAD_NODES-point Gauss rule per cell is exact for the
polynomial part.  One sparse point operator (basis values and
derivatives at the Gauss nodes) gives the stiffness matrix, the load
vector and the evaluation of discrete solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .basis import EnrichedBasis
from .piecewise import gauss_rule

__all__ = [
    "InterfaceProblem",
    "ExactSolution",
    "LinearSystem",
    "DiscreteSolution",
    "SolverError",
    "assemble_stiffness",
    "assemble_load",
    "assemble",
    "solve",
    "condition_number",
    "evaluate_solution",
    "export_matrix_market",
]

QUAD_NODES = 10
CG_RTOL = 1e-12
DENSE_CUTOFF = 2000


class SolverError(RuntimeError):
    """Raised when an iterative solve or eigenvalue estimate fails."""


@dataclass(frozen=True)
class ExactSolution:
    """Closed forms for u and u' on the two subdomains."""

    u_minus: Callable
    u_plus: Callable
    du_minus: Callable
    du_plus: Callable


def _piecewise_call(fm: Callable, fp: Callable, gamma: float, x: np.ndarray) -> np.ndarray:
    """Evaluate fm on x < gamma and fp on x >= gamma without mixing domains."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    neg = x < gamma
    if neg.any():
        out[neg] = fm(x[neg])
    if (~neg).any():
        out[~neg] = fp(x[~neg])
    return out


@dataclass(frozen=True)
class InterfaceProblem:
    """Data of -(a u')' = f - g_gamma * delta_gamma on (0,1), u(0)=u(1)=0."""

    gamma: float
    a_minus: Callable
    a_plus: Callable
    f_minus: Callable
    f_plus: Callable
    g_gamma: float = 0.0
    exact: ExactSolution | None = None
    name: str = ""

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"interface point {self.gamma} must lie in (0, 1)")
        # positivity spot check on a dense grid per subdomain
        xm = np.linspace(0.0, self.gamma, 513)[:-1]
        xp = np.linspace(self.gamma, 1.0, 513)[1:]
        am = np.asarray(self.a_minus(xm), dtype=float)
        ap = np.asarray(self.a_plus(xp), dtype=float)
        lo = min(am.min() if am.ndim else float(am), ap.min() if ap.ndim else float(ap))
        if not lo > 0.0:
            raise ValueError(f"diffusion coefficient not positive (min sample {lo})")

    def a(self, x):
        return _piecewise_call(self.a_minus, self.a_plus, self.gamma, x)

    def f(self, x):
        return _piecewise_call(self.f_minus, self.f_plus, self.gamma, x)

    def u(self, x):
        if self.exact is None:
            raise ValueError("problem has no exact solution")
        return _piecewise_call(self.exact.u_minus, self.exact.u_plus, self.gamma, x)

    def du(self, x):
        if self.exact is None:
            raise ValueError("problem has no exact solution")
        return _piecewise_call(self.exact.du_minus, self.exact.du_plus, self.gamma, x)


@dataclass
class LinearSystem:
    A: scipy.sparse.csr_matrix
    b: np.ndarray
    basis: EnrichedBasis


@dataclass
class DiscreteSolution:
    coefficients: np.ndarray
    basis: EnrichedBasis

    def __post_init__(self):
        if len(self.coefficients) != len(self.basis):
            raise ValueError("coefficient count does not match basis size")


def _tables(basis):
    """Float tables of every basis function, padded to common widths.

    Returns (breaks, coeffs, first): breakpoints per function padded with
    +inf, the local monomial coefficients of all pieces stacked and padded
    with zeros to the highest degree, and each function's first piece row.
    """
    caches = [bf.primal._float_cache() for bf in basis]
    nb = np.array([len(b) for b, _ in caches])
    breaks = np.full((len(nb), nb.max()), np.inf)
    breaks[np.arange(nb.max()) < nb[:, None]] = np.concatenate([b for b, _ in caches])
    widths = np.repeat([c.shape[1] for _, c in caches], nb - 1)
    coeffs = np.zeros((len(widths), widths.max()))
    coeffs[np.arange(widths.max()) < widths[:, None]] = np.concatenate([c.ravel() for _, c in caches])
    first = np.cumsum(nb - 1) - (nb - 1)
    return breaks, coeffs, first


def _point_operator(basis, x):
    """Sparse len(x) x N matrices (V, D) of basis values and derivatives at x.

    Each function follows `PiecewisePolynomial.evaluate_array`: the left
    limit at interior breakpoints and at the right end of its support, the
    right limit at its left end, and zero outside the support.
    """
    x = np.asarray(x, dtype=float)
    breaks, coeffs, first = _tables(basis)
    n, width = breaks.shape
    order = np.argsort(x, kind="stable")
    xs = x[order]
    nb = np.isfinite(breaks).sum(axis=1)
    i0 = np.searchsorted(xs, breaks[:, 0], side="left")
    i1 = np.searchsorted(xs, breaks[np.arange(n), nb - 1], side="right")
    count = i1 - i0
    indptr = np.concatenate([[0], np.cumsum(count)])
    # one entry per (function, point in its closed support), grouped by function
    f = np.repeat(np.arange(n), count)
    pos = np.arange(indptr[-1]) + np.repeat(i0 - indptr[:-1], count)
    xp = xs[pos]
    piece = np.zeros(len(f), dtype=np.intp)
    for k in range(1, width - 1):  # breakpoints strictly below x, past the first
        piece += breaks[f, k] < xp
    t = xp - breaks[f, piece]
    c = coeffs[first[f] + piece]
    val = c[:, -1].copy()
    der = np.zeros_like(t)
    for d in range(c.shape[1] - 2, -1, -1):
        der = der * t + val
        val = val * t + c[:, d]
    shape = (len(x), n)
    rows = order[pos]
    V = scipy.sparse.csc_matrix((val, rows, indptr), shape=shape)
    D = scipy.sparse.csc_matrix((der, rows, indptr), shape=shape)
    return V, D


def _gauss_mesh(bases, gamma=None):
    """QUAD_NODES Gauss nodes and weights on every cell of the union of the
    breakpoints of all functions in `bases`, plus gamma when given."""
    pts = [bf.primal._float_cache()[0] for basis in bases for bf in basis]
    if gamma is not None:
        pts.append([gamma])
    edges = np.unique(np.concatenate(pts))
    t, wt = gauss_rule(QUAD_NODES)
    lo, hi = edges[:-1, None], edges[1:, None]
    h = hi - lo
    # on cells only a few ulps wide the nodes may round onto an edge, where
    # the functions meeting there would all be evaluated; keep them inside
    x = np.clip(lo + h * t, np.nextafter(lo, hi), np.nextafter(hi, lo))
    return x.ravel(), (h * wt).ravel()


def assemble_stiffness(basis: EnrichedBasis, problem: InterfaceProblem) -> scipy.sparse.csr_matrix:
    """Stiffness matrix A[i,j] = int a eta_i' eta_j', split at the interface."""
    x, w = _gauss_mesh([basis], problem.gamma)
    _, D = _point_operator(basis, x)
    # A = D^T diag(w a) D, formed as S^T S so that it is exactly symmetric
    S = scipy.sparse.diags(np.sqrt(w * problem.a(x))) @ D
    return (S.T @ S).tocsr()


def assemble_load(basis: EnrichedBasis, problem: InterfaceProblem) -> np.ndarray:
    """Load vector b[i] = int f eta_i - g_gamma eta_i(gamma)."""
    x, w = _gauss_mesh([basis], problem.gamma)
    V, _ = _point_operator(basis, x)
    Vg, _ = _point_operator(basis, [problem.gamma])
    return V.T @ (w * problem.f(x)) - Vg.T @ np.array([problem.g_gamma])


def assemble(basis: EnrichedBasis, problem: InterfaceProblem) -> LinearSystem:
    return LinearSystem(assemble_stiffness(basis, problem), assemble_load(basis, problem), basis)


def _cg_jacobi(A, b, rtol=CG_RTOL):
    """Conjugate gradients on the Jacobi-scaled system, hand-rolled so the
    iteration and its stopping rule are fully deterministic."""
    n = len(b)
    d = A.diagonal()
    if np.any(d <= 0):
        raise SolverError("non-positive diagonal entry; matrix is not SPD")
    s = 1.0 / np.sqrt(d)
    As = scipy.sparse.diags(s) @ A @ scipy.sparse.diags(s)
    bs = s * b
    bnorm = np.linalg.norm(bs)
    if bnorm == 0.0:
        return np.zeros(n)
    y = np.zeros(n)
    r = bs.copy()
    p = r.copy()
    rs = float(r @ r)
    maxiter = 50 * n
    for _ in range(maxiter):
        if np.sqrt(rs) <= rtol * bnorm:
            return s * y
        Ap = As @ p
        alpha = rs / float(p @ Ap)
        y += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) <= rtol * bnorm:
        return s * y
    raise SolverError(
        f"CG did not converge in {maxiter} iterations "
        f"(relative residual {np.sqrt(rs) / bnorm:.3e})"
    )


def solve(system: LinearSystem, method: str = "auto") -> DiscreteSolution:
    """Solve A c = b.  method: 'auto' (Cholesky below DENSE_CUTOFF unknowns,
    CG above), 'cholesky' or 'cg'."""
    A, b = system.A, system.b
    n = len(b)
    if method == "auto":
        method = "cholesky" if n < DENSE_CUTOFF else "cg"
    if method == "cholesky":
        try:
            cf = scipy.linalg.cho_factor(A.toarray())
        except scipy.linalg.LinAlgError as e:
            raise SolverError(f"Cholesky factorization failed: {e}") from e
        c = scipy.linalg.cho_solve(cf, b)
    elif method == "cg":
        c = _cg_jacobi(A, b)
    else:
        raise ValueError(f"unknown solve method {method!r}")
    return DiscreteSolution(np.asarray(c, dtype=float), system.basis)


def condition_number(A, tol: float = 1e-4) -> float:
    """kappa = lambda_max / lambda_min of an SPD matrix.

    Small matrices use a direct symmetric eigensolve; larger ones use
    Lanczos with a deterministic start vector (largest eigenvalue
    directly, smallest via shift-invert at zero).
    """
    n = A.shape[0]
    if n <= 3:
        w = np.linalg.eigvalsh(np.asarray(A.todense() if scipy.sparse.issparse(A) else A))
        return float(w[-1] / w[0])
    As = scipy.sparse.csc_matrix(A)
    v0 = np.ones(n) / np.sqrt(n)
    try:
        lmax = scipy.sparse.linalg.eigsh(
            As, k=1, which="LA", tol=tol, v0=v0, return_eigenvectors=False
        )[0]
        lmin = scipy.sparse.linalg.eigsh(
            As, k=1, sigma=0.0, which="LM", tol=tol, v0=v0, return_eigenvectors=False
        )[0]
    except Exception as e:  # scipy raises several unrelated types here
        raise SolverError(f"eigenvalue estimation failed: {e}") from e
    if lmin <= 0 or not np.isfinite(lmin) or not np.isfinite(lmax):
        raise SolverError(f"bad extreme eigenvalues ({lmin}, {lmax})")
    return float(lmax / lmin)


def evaluate_solution(sol: DiscreteSolution, grid) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise values and derivative values of u_J = sum c_i eta_i."""
    x = np.asarray(grid, dtype=float)
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("evaluation grid must lie in [0, 1]")
    V, D = _point_operator(sol.basis, x)
    return V @ sol.coefficients, D @ sol.coefficients


def export_matrix_market(obj, path) -> None:
    """Write a matrix (symmetric coordinate format) or vector to disk."""
    if scipy.sparse.issparse(obj):
        scipy.io.mmwrite(path, obj.tocoo(), symmetry="symmetric")
    else:
        arr = np.asarray(obj)
        scipy.io.mmwrite(path, scipy.sparse.coo_matrix(arr.reshape(-1, 1)))
