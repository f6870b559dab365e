"""Small expression language for problem definitions.

Problem data (coefficients, sources, exact solutions) is entered as
arithmetic expressions in the variable x using +, -, *, /, ^, exp, sin,
cos, sqrt, pi, and optional named constants.  Expressions are parsed
once into a symbolic tree, which also lets the runner differentiate
exact solutions to manufacture source terms instead of transcribing
them by hand.
"""

from __future__ import annotations

import math
import tokenize

import numpy as np
import sympy as sp
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

__all__ = ["Expression", "ExpressionError", "parse_expression"]

_X = sp.Symbol("x")
_TRANSFORMS = standard_transformations + (convert_xor,)
_LOCALS = {
    "x": _X,
    "exp": sp.exp,
    "sin": sp.sin,
    "cos": sp.cos,
    "sqrt": sp.sqrt,
    "pi": sp.pi,
    "e": sp.E,
}


class ExpressionError(ValueError):
    """Parse or evaluation failure for a problem expression."""


class Expression:
    """A parsed expression in x, callable on scalars and numpy arrays."""

    def __init__(self, tree: sp.Expr, text: str = ""):
        self.tree = tree
        self.text = text or str(tree)
        self._fn = sp.lambdify(_X, self.tree, modules=["numpy", {"pi": math.pi}])

    def __call__(self, x):
        try:
            out = self._fn(x)
        except (ZeroDivisionError, OverflowError) as e:
            raise ExpressionError(
                f"expression {self.text!r} is not finite at x={x!r}: {e}"
            ) from e
        if np.ndim(x) == 0:
            val = float(out)
            if not math.isfinite(val):
                raise ExpressionError(
                    f"expression {self.text!r} is not finite at x={x!r}"
                )
            return val
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() \
            if np.ndim(out) == 0 else np.asarray(out, dtype=float)

    def diff(self, n: int = 1) -> "Expression":
        return Expression(sp.diff(self.tree, _X, n))

    def is_constant(self) -> bool:
        return not self.tree.free_symbols

    def __repr__(self) -> str:
        return f"Expression({self.text!r})"


def parse_expression(text: str, constants: dict | None = None) -> Expression:
    """Parse `text` into an Expression; named constants are substituted.

    Raises ExpressionError with position information on bad syntax and on
    any symbol that is neither x nor a declared constant.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    local = dict(_LOCALS)
    consts = {}
    for name, val in (constants or {}).items():
        sym = sp.Symbol(name)
        local[name] = sym
        consts[sym] = sp.Float(val, 17) if isinstance(val, float) else sp.sympify(val)
    try:
        tree = parse_expr(text, local_dict=local, transformations=_TRANSFORMS, evaluate=True)
    except SyntaxError as e:
        raise ExpressionError(
            f"syntax error in {text!r} at position {e.offset}: {e.msg}"
        ) from e
    except (sp.SympifyError, tokenize.TokenError, TypeError, ValueError) as e:
        raise ExpressionError(f"cannot parse {text!r}: {e}") from e
    tree = tree.subs(consts)
    stray = tree.free_symbols - {_X}
    if stray:
        names = ", ".join(sorted(str(s) for s in stray))
        raise ExpressionError(f"unknown symbol(s) in {text!r}: {names}")
    return Expression(tree, text)
