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


# flux quadrature: mesh cells per side of gamma, Gauss nodes per cell (and
# per sub-interval of the nested rule for F), query points per block
_FLUX_CELLS, _FLUX_NODES, _FLUX_BLOCK = 32, 10, 4096


class _FluxSide:
    """u and u' on one side of gamma from the flux a u' = C - F~, where
    F~ = int_0^x f - g [x > gamma]: u = C P - Q with P = int 1/a and
    Q = int F~/a, cumulated on a fixed mesh from the side's left end and
    completed from the mesh node at or before each query point.  C is set
    once both sides are cumulated."""

    def __init__(self, a, f, lo, hi, F0):
        self.a, self.f, self.x = a, f, np.linspace(lo, hi, _FLUX_CELLS + 1)
        dF, dP, G = self._steps(self.x[:-1], self.x[1:])
        self.F = F0 + np.concatenate([[0.0], np.cumsum(dF)])
        self.P = np.concatenate([[0.0], np.cumsum(dP)])
        self.Q = np.concatenate([[0.0], np.cumsum(self.F[:-1] * dP + G)])

    def _steps(self, lo, x):
        """int_lo^x of f, of 1/a and of (int_lo^s f) / a ds, elementwise."""
        t, w = gauss_rule(_FLUX_NODES)
        h = (x - lo)[:, None] * t
        F = h * (w * self.f(lo[:, None, None] + h[..., None] * t)).sum(-1)
        s, hw = lo[:, None] + h, (x - lo)[:, None] * w
        return (hw * self.f(s)).sum(-1), (hw / self.a(s)).sum(-1), (hw * F / self.a(s)).sum(-1)

    def __call__(self, x):
        """(u, u') at x."""
        x = np.asarray(x, dtype=float)
        out = []
        for xs in np.array_split(x.ravel(), x.size // _FLUX_BLOCK + 1):
            k = np.clip(np.searchsorted(self.x, xs, side="right") - 1, 0, _FLUX_CELLS - 1)
            dF, dP, G = self._steps(self.x[k], xs)
            P, Q = self.P[k] + dP, self.Q[k] + self.F[k] * dP + G
            out.append((self.C * P - Q, (self.C - self.F[k] - dF) / self.a(xs)))
        return np.concatenate(out, axis=1).reshape((2,) + x.shape)


def _flux_quadrature(gamma, a_minus, a_plus, f_minus, f_plus, g_gamma) -> ExactSolution:
    """The exact solution of a problem given by its sources, by quadrature.

    P and Q vanish at 0 on the left side and at 1 on the right, so u meets
    both boundary conditions and neither side carries the other's
    magnitude; C makes u continuous at gamma."""
    left = _FluxSide(a_minus, f_minus, 0.0, gamma, 0.0)
    right = _FluxSide(a_plus, f_plus, gamma, 1.0, left.F[-1] - g_gamma)
    right.P, right.Q = right.P - right.P[-1], right.Q - right.Q[-1]
    left.C = right.C = (left.Q[-1] - right.Q[0]) / (left.P[-1] - right.P[0])
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
