"""Built-in interface problems and construction from expression specs.

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
it is itself a folded expression with parseable text.  Whenever the
sources are given and no exact solution is, u is built by quadrature of
the flux a u' = C - int_0^x f + g [x > gamma], with C fixed by u(1) = 0,
so every problem has an exact u to measure errors against.

The quadrature runs once, when the problem is built: a nested Gauss rule
on _FLUX_CELLS cells per side of gamma fills a table of per-cell
Chebyshev interpolants of u and u', each checked against the rule to
_TABLE_TOL of the side's largest |u| and |u'|.  A cell that fails is
halved, at most _TABLE_DEPTH times and up to _TABLE_CELLS cells per
side; past either limit, or where the rule is not finite, the problem
is refused with ExpressionError, naming the side and the cell.  u and
u' are then read from the table: one searchsorted and one Clenshaw
pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import Expression, ExpressionError, parse_expression
from .galerkin import ExactSolution, InterfaceProblem
from .piecewise import gauss_rule

__all__ = ["BUILTIN_PROBLEMS", "builtin_problem", "problem_from_spec"]

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


# flux quadrature: the nested rule's mesh cells per side of gamma and its
# Gauss nodes per cell (and per sub-interval for F); the table's Chebyshev
# degree, its check tolerance relative to the side's max |u| and max |u'|,
# and the most times a table cell is halved, and the most cells a side may
# have, before the problem is refused
_FLUX_CELLS, _FLUX_NODES = 32, 10
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
    F~ = int_0^x f - g [x > gamma]: u = C P - Q with P = int 1/a and
    Q = int F~/a.

    The nested rule cumulates F, P and Q on a fixed mesh from the side's
    left end; P and Q are kept as the side's totals, which fix C.
    `tabulate` then cumulates u itself, int (C - F~)/a, which does not
    cancel where |C P| >> |u|; `rule` steps F and u from the mesh node at
    or before a start point to it, and from there to the query points.
    `tabulate` fits each cell a Chebyshev interpolant of the rule's
    (u, u') started at the cell's left edge, and calling the side
    evaluates that table."""

    def __init__(self, a, f, lo, hi, F0):
        self.a, self.f, self.x = a, f, np.linspace(lo, hi, _FLUX_CELLS + 1)
        dF, self.dP, self.G = self._steps(self.x[:-1], self.x[1:])
        self.F = F0 + np.concatenate([[0.0], np.cumsum(dF)])
        self.P = np.cumsum(self.dP)[-1]
        self.Q = np.cumsum(self.F[:-1] * self.dP + self.G)[-1]

    def _steps(self, lo, x):
        """int_lo^x of f, of 1/a and of (int_lo^s f) / a ds, elementwise."""
        t, w = gauss_rule(_FLUX_NODES)
        h = (x - lo)[:, None] * t
        F = h * (w * self.f(lo[:, None, None] + h[..., None] * t)).sum(-1)
        s, hw = lo[:, None] + h, (x - lo)[:, None] * w
        return (hw * self.f(s)).sum(-1), (hw / self.a(s)).sum(-1), (hw * F / self.a(s)).sum(-1)

    def _step(self, lo, F, u, x):
        """F, u and the flux C - F at the points x (1-d), stepped from F and
        u at the points lo <= x, elementwise."""
        dF, dP, G = self._steps(lo, x)
        flux = self.C - F
        return F + dF, u + flux * dP - G, flux - dF

    def rule(self, x, lo):
        """(u, u') at the points x (1-d) by the nested rule, stepped from the
        points lo <= x (one per point), where F and u are stepped to once
        per distinct lo from the mesh node at or before it.  `tabulate`
        starts each point at its table cell's left edge, so halving a cell
        shortens every step taken in it."""
        starts, at = np.unique(lo, return_inverse=True)
        k = np.clip(np.searchsorted(self.x, starts, side="right") - 1, 0, _FLUX_CELLS - 1)
        F, u, _ = self._step(self.x[k], self.F[k], self.U[k], starts)
        _, u, flux = self._step(lo, F[at], u[at], x)
        return np.array([u, flux / self.a(x)])

    def tabulate(self, C, side, end):
        """Set C, cumulate u so that it vanishes at mesh node `end`, and fit
        the table from the rule, starting from the rule's cells.

        Each cell takes the rule from its left edge: it interpolates the
        rule's u and u' at _TABLE_DEGREE + 1 Chebyshev points, and is
        checked against it at its _FLUX_NODES Gauss nodes and both ends, to
        _TABLE_TOL times the largest |u| and |u'| the rule gave on this
        side.  A cell that fails is halved.
        ExpressionError is raised when a cell still fails after
        _TABLE_DEPTH halvings, when halving would take the side past
        _TABLE_CELLS cells, or when the rule gives a value that is not
        finite (a source singular at a cell's end).
        """
        self.C = C
        U = np.concatenate([[0.0], np.cumsum((C - self.F[:-1]) * self.dP - self.G)])
        self.U = U - U[end]
        n = _TABLE_DEGREE + 1
        tg, _ = gauss_rule(_FLUX_NODES)
        t = np.concatenate([(1 - np.cos(np.pi * (np.arange(n) + 0.5) / n)) / 2, tg])
        lo, hi = self.x[:-1], self.x[1:]
        scale, done, kept = np.zeros((2, 1)), [], 0
        for depth in range(_TABLE_DEPTH + 1):
            x = np.column_stack([lo[:, None] + (hi - lo)[:, None] * t, lo, hi])
            with np.errstate(all="ignore"):  # a singular source is refused below
                vals = self.rule(x.ravel(), np.repeat(lo, x.shape[1])).reshape(2, len(lo), -1)
            finite = np.all(np.isfinite(vals), axis=(0, 2))
            if not finite.all():
                _refuse(side, lo[~finite], hi[~finite], "the rule is not finite")
            scale = np.maximum(scale, np.abs(vals).max(axis=(1, 2))[:, None])
            # interpolate at the points as rounded, located as __call__ locates them
            s = _local(x, lo[:, None], hi[:, None])
            V = np.polynomial.chebyshev.chebvander(s[:, :n], _TABLE_DEGREE)
            c = np.linalg.solve(V, np.moveaxis(vals[..., :n], 0, -1)).transpose(1, 0, 2)
            err = np.abs(_clenshaw(c, s[:, n:], np.arange(len(lo))[:, None]) - vals[..., n:])
            ok = np.all(err.max(axis=2) <= _TABLE_TOL * scale, axis=0)
            done.append((lo[ok], hi[ok], c[:, ok]))
            kept += np.count_nonzero(ok)
            lo, hi = lo[~ok], hi[~ok]
            if not len(lo):
                break
            why = f"the table misses the rule by more than {_TABLE_TOL:g} of its max |u| or |u'|"
            if depth == _TABLE_DEPTH:
                _refuse(side, lo, hi, f"{why} after {_TABLE_DEPTH} halvings")
            if kept + 2 * len(lo) > _TABLE_CELLS:
                _refuse(side, lo, hi, f"{why} with {_TABLE_CELLS} cells")
            mid = (lo + hi) / 2
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        lo, hi, c = zip(*done)
        lo, hi, c = np.concatenate(lo), np.concatenate(hi), np.concatenate(c, axis=1)
        order = np.argsort(lo)
        self.edges, self.coef = np.append(lo[order], hi[order[-1]]), c[:, order]

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
    left = _FluxSide(a_minus, f_minus, 0.0, gamma, 0.0)
    right = _FluxSide(a_plus, f_plus, gamma, 1.0, left.F[-1] - g_gamma)
    C = (left.Q + right.Q) / (left.P + right.P)
    left.tabulate(C, "left (0 < x < gamma)", 0)
    right.tabulate(C, "right (gamma < x < 1)", -1)
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


def problem_from_spec(spec: dict, name: str = "") -> InterfaceProblem:
    """Build an InterfaceProblem from an expression-level description.

    Required keys: gamma, a_minus, a_plus, g_gamma.  Either both sources
    (f_minus, f_plus) or both exact solutions (u_minus, u_plus) must be
    present.  Missing sources are manufactured from the exact solution,
    and a missing exact solution is built by quadrature of the flux.
    """
    constants = dict(spec.get("constants", {}))
    gamma = _const_value(spec["gamma"], constants)
    g_gamma = _const_value(spec["g_gamma"], constants)
    a_minus = parse_expression(str(spec["a_minus"]), constants)
    a_plus = parse_expression(str(spec["a_plus"]), constants)

    exact = None
    if spec.get("u_minus") is not None or spec.get("u_plus") is not None:
        if spec.get("u_minus") is None or spec.get("u_plus") is None:
            raise ExpressionError("exact solution requires both u_minus and u_plus")
        u_minus = parse_expression(str(spec["u_minus"]), constants)
        u_plus = parse_expression(str(spec["u_plus"]), constants)
        exact = ExactSolution(u_minus, u_plus, u_minus.diff(), u_plus.diff())

    if spec.get("f_minus") is not None and spec.get("f_plus") is not None:
        f_minus = parse_expression(str(spec["f_minus"]), constants)
        f_plus = parse_expression(str(spec["f_plus"]), constants)
    elif exact is not None:
        f_minus = _manufactured_source(a_minus, exact.u_minus)
        f_plus = _manufactured_source(a_plus, exact.u_plus)
    else:
        raise ExpressionError("spec needs sources f_minus/f_plus or an exact solution")
    if exact is None:
        exact = _flux_quadrature(gamma, a_minus, a_plus, f_minus, f_plus, g_gamma)

    return InterfaceProblem(
        gamma=gamma,
        a_minus=a_minus,
        a_plus=a_plus,
        f_minus=f_minus,
        f_plus=f_plus,
        g_gamma=g_gamma,
        exact=exact,
        name=name,
    )


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
