"""Interface problems: their types, the built-in ones, and construction
from expression specs.

An `InterfaceProblem` holds gamma, a, f and g on the two sides of gamma,
and optionally an `ExactSolution`, the closed forms of u and u' per side;
each callable is read only on its own side (`_piecewise_call`).
Three ready-made problems are provided:

- ``ex1``: huge constant jump (a+ = 1e5) at gamma = pi/6, smooth exact
  solution (x e^x on the left, a quintic on the right), no Dirac load.
- ``ex2``: constant jump a+ = 2e4 at gamma = sqrt(2)/2 with a nonzero
  Dirac weight at the interface.
- ``ex3``: variable coefficient a+ = 1000 e^x, f = 1, no closed form.

Every field is text in the grammar of `wavegal.expressions`; constants
are numbers or constant expression text such as "pi/6".  Whenever an
exact solution is given and no source term is, f = -(a u')' is
manufactured on each subdomain by differentiating the parsed trees, so
it is itself a folded expression tree.  Whenever the sources are given
and no exact solution is, u is built by quadrature of the flux
a u' = C - int_0^x f + g [x > gamma], with C fixed by u(1) = 0, so
every problem has an exact u to measure errors against.

The quadrature runs once, when the problem is built.  Each side of gamma
starts from _FLUX_CELLS equal cells; on each, f, 1/a and G/a are
interpolated at Chebyshev points, G being the exact integral of f's
interpolant from the cell's left edge, and a cell is halved while the
last coefficients of G, 1/a or G/a exceed _TABLE_TOL of the side's
scale, at most _TABLE_DEPTH times and up to _TABLE_CELLS cells per side.
Past either limit, or where f or 1/a is not finite, the problem is
refused with ExpressionError, naming the side and the cell.  u' and u
are then the series' exact products and integrals, read per cell by
one searchsorted and one Clenshaw pass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .expressions import Expression, ExpressionError, parse_expression

__all__ = ["InterfaceProblem", "ExactSolution", "BUILTIN_PROBLEMS", "builtin_problem", "problem_from_spec"]


@dataclass(frozen=True)
class ExactSolution:
    """Closed forms for u and u' on the two subdomains."""

    u_minus: Callable
    u_plus: Callable
    du_minus: Callable
    du_plus: Callable

    def values(self, gamma: float, x) -> tuple[np.ndarray, np.ndarray]:
        """(u, u') at x, each side's closed forms on its side of gamma."""
        return (_piecewise_call(self.u_minus, self.u_plus, gamma, x),
                _piecewise_call(self.du_minus, self.du_plus, gamma, x))


def _piecewise_call(fm: Callable, fp: Callable, gamma: float, x: np.ndarray) -> np.ndarray:
    """Evaluate fm on x < gamma and fp on x >= gamma without mixing domains."""
    x = np.asarray(x, dtype=float)
    neg = x < gamma
    n = np.count_nonzero(neg)
    if n in (0, x.size):  # one side only: call it on x itself, no masked copies
        out = np.asarray((fm if n else fp)(x), dtype=float)
        return out if out.shape == x.shape else np.full(x.shape, out)
    out = np.empty_like(x)
    out[neg] = fm(x[neg])
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
        lo = np.minimum(am.min(), ap.min())  # a NaN sample propagates, and fails
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


# quintic coefficients of ex1's right-hand solution, in the constants
# G (interface point) and A (right coefficient value)
_EX1_C2 = (
    "((-3*G^4 + 20*G^3*A + (-5*A+6)*G^2 - 16*A*G + 9*A - 3) * exp(G))"
    " / (G * (G-1)^3 * A * (G-3))"
)
_EX1_C3 = (
    "((3*G^5 + (-20*A+7)*G^4 + (-40*A-10)*G^3 + (50*A-10)*G^2 + (-8*A+7)*G - 6*A + 3)"
    " * exp(G)) / ((G-1)^3 * A * (G-3) * G^2)"
)
_EX1_C4 = (
    "((-7*G^4 + 45*G^3*A + (-10*A+14)*G^2 - 25*A*G + 14*A - 7) * exp(G))"
    " / ((G-1)^3 * A * (G-3) * G^2)"
)
_EX1_C5 = (
    "((4*G^3 + (-24*A-4)*G^2 + (24*A-4)*G - 8*A + 4) * exp(G))"
    " / ((G-1)^3 * A * (G-3) * G^2)"
)

BUILTIN_PROBLEMS = {
    "ex1": {
        "gamma": "pi/6",
        "a_minus": "1",
        "a_plus": "A",
        "u_minus": "x*exp(x)",
        "u_plus": f"({_EX1_C2})*x^2 + ({_EX1_C3})*x^3 + ({_EX1_C4})*x^4 + ({_EX1_C5})*x^5",
        "g_gamma": "0",
        "constants": {"A": 100000, "G": "pi/6"},
    },
    "ex2": {
        "gamma": "sqrt(2)/2",
        "a_minus": "1",
        "a_plus": "A",
        "u_minus": "exp(x) - (sin(1-G) + exp(G) - 1)*x - 1",
        "u_plus": "-sin(G - x) + exp(G) - (sin(1-G) + exp(G) - 1)*x - 1",
        "g_gamma": "(1-A)*sin(1-G) - A*exp(G) + 2*A - 1",
        "constants": {"A": 20000, "G": "sqrt(2)/2"},
    },
    "ex3": {
        "gamma": "pi/6",
        "a_minus": "1",
        "a_plus": "1000*exp(x)",
        "f_minus": "1",
        "f_plus": "1",
        "g_gamma": "0",
        "constants": {},
    },
}


def _const_value(text, constants) -> float:
    expr = parse_expression(str(text), constants)
    if not expr.is_constant():
        raise ExpressionError(f"{text!r} must not depend on x")
    return expr(0.0)


def _manufactured_source(a: Expression, u: Expression) -> Expression:
    """f := -(a u')' on one subdomain, differentiated on the folded trees."""
    return -(a * u.diff()).diff()


# flux table: the cells each side starts from; the Chebyshev degree of the
# interpolants of f, 1/a and G/a on a cell, and the tolerance their last
# two coefficients are checked to, relative to the side's scale; the most
# times a cell is halved, and the most cells a side may have, before the
# problem is refused
_FLUX_CELLS = 32
_TABLE_DEGREE, _TABLE_TOL, _TABLE_DEPTH, _TABLE_CELLS = 16, 1e-14, 30, 512


def _refuse(side, lo, hi, why):
    """Raise ExpressionError naming the side and its leftmost failing cell."""
    i = np.argmin(lo)
    raise ExpressionError(f"flux quadrature of the {side} side: {why} on [{lo[i]:.17g}, {hi[i]:.17g}]")


def _local(x, lo, hi):
    """x in [lo, hi] as s in [-1, 1], from the offset x - lo: its rounding
    is relative to the cell's width, not to x."""
    return 2 * ((x - lo) / (hi - lo)) - 1


def _clenshaw(c, s, k):
    """(u, u') = sum_j c[j, k] T_j(s), shape (2,) + s.shape, by Clenshaw's
    recurrence: c holds the Chebyshev coefficients (degree + 1, cells, 2)
    of u and u' per cell, and k (broadcasting against s) the cell of each
    s.  The coefficients are gathered one degree at a time, so no
    (points x degree) array is formed."""
    k, s = np.broadcast_to(k, s.shape), s[..., None]
    s2 = 2 * s
    b1 = b2 = 0.0
    for cj in c[:0:-1]:
        b = np.take(cj, k, axis=0)
        b += s2 * b1
        b -= b2
        b1, b2 = b, b1
    b = np.take(c[0], k, axis=0)
    b += s * b1
    b -= b2
    return np.moveaxis(b, -1, 0)


class _FluxSide:
    """u and u' on one side of gamma from the flux a u' = C - F~, where
    F~ = int_0^x f - g [x > gamma], tabulated per cell as Chebyshev series.

    On each cell [l, h], f, 1/a and G/a are interpolated at the
    _TABLE_DEGREE + 1 first-kind Chebyshev points, where G = int_l^x f is
    the exact integral of f's interpolant.  So F~ = F~(l) + G, and
    P = int 1/a and Q = int F~/a over the side, which fix C, come exactly
    from the series.  `tabulate` then sets u' = (C - F~(l)) / a - G/a and u,
    its exact integral, and calling the side evaluates that table."""

    def __init__(self, a, f, lo, hi, F0, side):
        """Build the side's cells from _FLUX_CELLS equal ones, halving a cell
        while the last two coefficients of G, 1/a or G/a exceed _TABLE_TOL
        of the side's scale: |F0| + sum over the cells of max |G| for G,
        max |1/a| for 1/a and their product for G/a.  ExpressionError is
        raised where f or 1/a is not finite at a point, when a cell still
        fails after _TABLE_DEPTH halvings, or when halving would take the
        side past _TABLE_CELLS cells."""
        n = _TABLE_DEGREE + 1
        # T_j(s_i) = cos(j (2i + 1) pi / 2n), its angle reduced in integers
        # first, so that no recurrence's or multiple's rounding enters
        m = np.outer(2 * np.arange(n) + 1, np.arange(n + 1)) % (4 * n)
        V = np.cos(np.pi * m / (2 * n))
        s = V[:, 1]
        # values at the points to Chebyshev coefficients: the discrete cosine transform
        T = V[:, :n].T * (2 / n)
        T[0] /= 2
        edges = np.linspace(lo, hi, _FLUX_CELLS + 1)
        lo, hi = edges[:-1], edges[1:]
        F_scale = r_scale = G_done = 0.0
        done, kept = [], 0
        for depth in range(_TABLE_DEPTH + 1):
            x = lo + (hi - lo) * (s[:, None] + 1) / 2
            with np.errstate(all="ignore"):  # refused below
                rx, fx = 1 / a(x), f(x)
            finite = np.isfinite(rx).all(axis=0) & np.isfinite(fx).all(axis=0)
            if not finite.all():
                _refuse(side, lo[~finite], hi[~finite], "f or 1/a is not finite")
            G = np.polynomial.chebyshev.chebint(T @ fx, lbnd=-1) * ((hi - lo) / 2)
            Gx = V @ G
            Gmax = np.maximum(np.abs(Gx).max(axis=0), np.abs(G.sum(axis=0)))
            q, r = T @ (Gx * rx), T @ rx
            F_scale = max(F_scale, abs(F0) + G_done + Gmax.sum())
            r_scale = max(r_scale, np.abs(rx).max())
            ok = ((np.abs(G[-2:]).max(axis=0) <= _TABLE_TOL * F_scale)
                  & (np.abs(r[-2:]).max(axis=0) <= _TABLE_TOL * r_scale)
                  & (np.abs(q[-2:]).max(axis=0) <= _TABLE_TOL * F_scale * r_scale))
            done.append((lo[ok], hi[ok], r[:, ok], G[:, ok], q[:, ok]))
            G_done += Gmax[ok].sum()
            kept += np.count_nonzero(ok)
            lo, hi = lo[~ok], hi[~ok]
            if not len(lo):
                break
            why = f"the last Chebyshev coefficients of G, 1/a or G/a exceed {_TABLE_TOL:g} of the side's scale"
            if depth == _TABLE_DEPTH:
                _refuse(side, lo, hi, f"{why} after {_TABLE_DEPTH} halvings")
            if kept + 2 * len(lo) > _TABLE_CELLS:
                _refuse(side, lo, hi, f"{why} with {_TABLE_CELLS} cells")
            mid = (lo + hi) / 2
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        lo, hi, r, G, q = (np.concatenate(v, axis=-1) for v in zip(*done))
        order = np.argsort(lo)
        self.edges = np.append(lo[order], hi[order[-1]])
        self.r, self.q, G = r[:, order], q[:, order], G[:, order]
        self.half = np.diff(self.edges) / 2
        # F~ at each cell's left edge and at the side's right end
        F = F0 + np.concatenate([[0.0], np.cumsum(G.sum(axis=0))])
        self.Fl, self.F = F[:-1], F[-1]
        # int_-1^1 T_j = 2 / (1 - j^2) for even j, 0 for odd j
        w = np.zeros(n)
        w[::2] = 2 / (1 - np.arange(0, n, 2) ** 2)
        self.P = self.half @ (w @ self.r)
        self.Q = self.half @ (self.Fl * (w @ self.r) + w @ self.q)

    def tabulate(self, C, end):
        """Set the table's u' = (C - F~(l)) / a - G/a per cell and u, its
        integral, cumulated so that u vanishes at the edge `end`."""
        du = (C - self.Fl) * self.r - self.q
        u = np.polynomial.chebyshev.chebint(du, lbnd=-1) * self.half
        U = np.concatenate([[0.0], np.cumsum(u.sum(axis=0))])
        u[0] += (U - U[end])[:-1]
        self.coef = np.stack([u, np.pad(du, ((0, 1), (0, 0)))], axis=-1)

    def __call__(self, x):
        """(u, u') at x from the table; a point outside the side extrapolates
        the polynomial of the end cell nearest it."""
        x = np.asarray(x, dtype=float)
        xs = x.ravel()
        k = np.clip(np.searchsorted(self.edges, xs, side="right") - 1, 0, len(self.edges) - 2)
        s = _local(xs, self.edges[k], self.edges[k + 1])
        return _clenshaw(self.coef, s, k).reshape((2,) + x.shape)


def _flux_quadrature(gamma, a_minus, a_plus, f_minus, f_plus, g_gamma) -> ExactSolution:
    """The exact solution of a problem given by its sources, by quadrature.

    u is cumulated from 0 on the left side and from 1 on the right, so it
    meets both boundary conditions and neither side carries the other's
    magnitude; C makes u continuous at gamma."""
    left = _FluxSide(a_minus, f_minus, 0.0, gamma, 0.0, "left (0 < x < gamma)")
    right = _FluxSide(a_plus, f_plus, gamma, 1.0, left.F - g_gamma, "right (gamma < x < 1)")
    C = (left.Q + right.Q) / (left.P + right.P)
    left.tabulate(C, 0)
    right.tabulate(C, -1)
    return _FluxSolution(lambda x: left(x)[0], lambda x: right(x)[0],
                         lambda x: left(x)[1], lambda x: right(x)[1], left, right)


@dataclass(frozen=True)
class _FluxSolution(ExactSolution):
    """A flux-quadrature solution: each side's one pass gives both u and
    u', so `values` runs it once per side where u and du would run it
    twice."""

    left: _FluxSide
    right: _FluxSide

    def values(self, gamma, x):
        x = np.asarray(x, dtype=float)
        neg = x < gamma
        out = np.empty((2,) + x.shape)
        out[:, neg] = self.left(x[neg])
        out[:, ~neg] = self.right(x[~neg])
        return out[0], out[1]


def _pair(spec, name, what, constants):
    """The (minus, plus) expressions of a field given on both sides, or None
    when it is given on neither; ExpressionError when on one only."""
    texts = spec.get(f"{name}_minus"), spec.get(f"{name}_plus")
    if texts == (None, None):
        return None
    if None in texts:
        raise ExpressionError(f"{what} requires both {name}_minus and {name}_plus")
    return tuple(parse_expression(str(t), constants) for t in texts)


def problem_from_spec(spec: dict, name: str = "") -> InterfaceProblem:
    """Build an InterfaceProblem from an expression-level description.

    Required keys: gamma, a_minus, a_plus, g_gamma.  The sources
    (f_minus, f_plus) and the exact solutions (u_minus, u_plus) are each
    given as a pair or not at all, and at least one pair is given.  Missing
    sources are manufactured from the exact solution, and a missing exact
    solution is built by quadrature of the flux.
    """
    constants = dict(spec.get("constants", {}))
    gamma = _const_value(spec["gamma"], constants)
    g_gamma = _const_value(spec["g_gamma"], constants)
    a_minus = parse_expression(str(spec["a_minus"]), constants)
    a_plus = parse_expression(str(spec["a_plus"]), constants)
    u = _pair(spec, "u", "exact solution", constants)
    f = _pair(spec, "f", "source term", constants)

    exact = None if u is None else ExactSolution(u[0], u[1], u[0].diff(), u[1].diff())
    if f is None:
        if exact is None:
            raise ExpressionError("spec needs sources f_minus/f_plus or an exact solution")
        f = _manufactured_source(a_minus, u[0]), _manufactured_source(a_plus, u[1])
    f_minus, f_plus = f
    problem = InterfaceProblem(
        gamma=gamma,
        a_minus=a_minus,
        a_plus=a_plus,
        f_minus=f_minus,
        f_plus=f_plus,
        g_gamma=g_gamma,
        exact=exact,
        name=name,
    )
    if exact is None:  # the table divides by a, so it is built once a > 0 is checked
        exact = _flux_quadrature(gamma, a_minus, a_plus, f_minus, f_plus, g_gamma)
        problem = replace(problem, exact=exact)
    return problem


def builtin_problem(pid: str, **overrides) -> InterfaceProblem:
    """One of the built-in problems, with optional field overrides."""
    if pid not in BUILTIN_PROBLEMS:
        raise KeyError(f"unknown problem id {pid!r}; choose from {sorted(BUILTIN_PROBLEMS)}")
    spec = dict(BUILTIN_PROBLEMS[pid])
    constants = dict(spec.get("constants", {}))
    if "constants" in overrides:
        constants.update(overrides.pop("constants"))
    spec.update(overrides)
    spec["constants"] = constants
    return problem_from_spec(spec, name=pid)
