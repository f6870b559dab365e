"""Small expression language for problem definitions.

Problem data (coefficients, sources, exact solutions) is entered as an
arithmetic expression in the variable x.  The grammar is exactly:

- int and float literals;
- the names x, pi, e and the declared constants;
- unary + and -, and binary +, -, *, / and ^ (``**`` is the same as ^),
  where an exponent that depends on x needs a positive constant base
  (2^x is exp(x log 2));
- the one-argument functions exp, sin, cos and sqrt.

Anything else (other names or functions, attributes, keywords, lambdas,
comparisons, comments, ...) raises ExpressionError.  The text is read
with Python's ``ast`` parser and never evaluated as Python code.

Parsing folds the text into a small tree: every subtree free of x
becomes one float, and every subtree polynomial in x becomes one
coefficient vector, evaluated by Horner's rule.  Trees are
differentiated symbolically (sum, product, quotient, constant-power and
chain rules, polynomials by their coefficients) and folded again, so an
exact solution yields its manufactured source as another tree.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = ["Expression", "ExpressionError", "parse_expression"]

# products and integer powers of polynomials are expanded up to this degree
MAX_DEGREE = 32

_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}


class ExpressionError(ValueError):
    """Parse or evaluation failure for a problem expression."""


# ---------------------------------------------------------------------------
# tree nodes: eval(x) and diff()
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    v: float

    def eval(self, x):
        return self.v

    def diff(self):
        return ZERO


@dataclass(frozen=True)
class Poly:
    """c[0] + c[1] x + ... + c[n] x^n with n >= 1 and c[n] != 0."""

    c: tuple

    def eval(self, x):
        # Horner's rule, skipping the additions of zero coefficients; no
        # tree modifies the array a subtree returns, so x itself is safe
        c = self.c
        if c == (0.0, 1.0):
            return x
        v = x * c[-1]
        for ck in c[-2:0:-1]:
            if ck:
                v += ck
            v *= x
        if c[0]:
            v += c[0]
        return v

    def diff(self):
        return _poly([k * ck for k, ck in enumerate(self.c)][1:])


@dataclass(frozen=True)
class Sum:
    """terms[0] + terms[1] + ... + poly, where no term is Const, Poly or Sum."""

    terms: tuple
    poly: Const | Poly

    def eval(self, x):
        out = self.terms[0].eval(x)
        for t in self.terms[1:]:
            out = out + t.eval(x)
        return out if self.poly == ZERO else out + self.poly.eval(x)

    def diff(self):
        return reduce(add, [t.diff() for t in self.terms] + [self.poly.diff()])


@dataclass(frozen=True)
class Mul:
    """a * b.  In a scaled node k * core, a is the Const k (never 1) and
    the core b is no Const, Poly, Sum or scaled node."""

    a: object
    b: object

    def eval(self, x):
        return self.a.eval(x) * self.b.eval(x)

    def diff(self):
        return add(mul(self.a.diff(), self.b), mul(self.a, self.b.diff()))


@dataclass(frozen=True)
class Div:
    a: object
    b: object

    def eval(self, x):
        return self.a.eval(x) / self.b.eval(x)

    def diff(self):
        da, db = self.a.diff(), self.b.diff()
        return div(add(mul(da, self.b), neg(mul(self.a, db))), power(self.b, Const(2.0)))


@dataclass(frozen=True)
class Pow:
    """a ^ p for a constant exponent p."""

    a: object
    p: float

    def eval(self, x):
        return self.a.eval(x) ** self.p

    def diff(self):
        p = self.p
        return mul(mul(Const(p), power(self.a, _const(p - 1.0))), self.a.diff())


@dataclass(frozen=True)
class Call:
    name: str
    arg: object

    def eval(self, x):
        return _FUNCS[self.name](self.arg.eval(x))

    def diff(self):
        g, dg = self.arg, self.arg.diff()
        if self.name == "exp":
            return mul(self, dg)
        if self.name == "sin":
            return mul(call("cos", g), dg)
        if self.name == "cos":
            return mul(neg(call("sin", g)), dg)
        return div(dg, mul(Const(2.0), self))  # sqrt


ZERO = Const(0.0)
X = Poly((0.0, 1.0))


# ---------------------------------------------------------------------------
# folding constructors: every tree is built through these
# ---------------------------------------------------------------------------


def _const(v) -> Const:
    v = float(v)
    if not math.isfinite(v):
        raise ExpressionError("a constant subexpression is not finite")
    return Const(v + 0.0)  # no negative zero


def _apply(fn, *args) -> Const:
    """fn of constants, folded; an overflow or domain error is not finite."""
    with np.errstate(all="ignore"):
        return _const(fn(*args))


def _poly(coeffs):
    """Const or Poly from ascending coefficients."""
    coeffs = [float(c) + 0.0 for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) == 1:
        return _const(coeffs[0])
    if not all(math.isfinite(c) for c in coeffs):
        raise ExpressionError("a polynomial coefficient is not finite")
    return Poly(tuple(coeffs))


def _coeffs(node):
    """Ascending coefficients of a Const or Poly node, else None."""
    if isinstance(node, Const):
        return (node.v,)
    return node.c if isinstance(node, Poly) else None


def _split(node):
    """(k, core) with node = k * core; core is None for a Const."""
    if isinstance(node, Const):
        return node.v, None
    if isinstance(node, Mul) and isinstance(node.a, Const):
        return node.a.v, node.b
    return 1.0, node


def scale(k: float, node):
    """k * node, with k folded into a constant factor or coefficient, or
    spread over a sum's terms and polynomial for `add` to collect."""
    if k == 1.0:
        return node
    if k == 0.0:
        return ZERO
    c = _coeffs(node)
    if c is not None:
        return _poly([k * ck for ck in c])
    if isinstance(node, Sum):
        return reduce(add, [scale(k, t) for t in node.terms], scale(k, node.poly))
    m, core = _split(node)
    return scale(k * m, core) if m != 1.0 else Mul(_const(k), node)


def neg(a):
    return scale(-1.0, a)


def add(a, b):
    parts = []
    for node in (a, b):
        if isinstance(node, Sum):
            parts.append((node.terms, _coeffs(node.poly)))
        else:
            c = _coeffs(node)
            parts.append(((), c) if c is not None else ((node,), (0.0,)))
    (ta, ca), (tb, cb) = parts
    n = max(len(ca), len(cb))
    poly = _poly([(ca[k] if k < len(ca) else 0.0) + (cb[k] if k < len(cb) else 0.0) for k in range(n)])
    like = {}  # like terms k1 * core + k2 * core collected, in order of first use
    for t in ta + tb:
        k, core = _split(t)
        like[core] = like.get(core, 0.0) + k
    terms = tuple(scale(k, core) for core, k in like.items() if k != 0.0)
    if not terms:
        return poly
    return terms[0] if len(terms) == 1 and poly == ZERO else Sum(terms, poly)


def mul(a, b):
    ca, cb = _coeffs(a), _coeffs(b)
    if ca is not None and cb is not None:
        if len(ca) + len(cb) - 2 > MAX_DEGREE:
            return Mul(a, b)
        out = [0.0] * (len(ca) + len(cb) - 1)
        for i, ai in enumerate(ca):
            for j, bj in enumerate(cb):
                out[i + j] += ai * bj
        return _poly(out)
    (ka, a), (kb, b) = _split(a), _split(b)
    core = b if a is None else a if b is None else Mul(a, b)
    return scale(ka * kb, core)


def div(a, b):
    if isinstance(b, Const):
        if b.v == 0.0:
            raise ExpressionError("division by zero")
        c = _coeffs(a)
        if c is not None:
            return _poly([ck / b.v for ck in c])
        k, core = _split(a)
        return scale(k / b.v, core)
    (ka, a), (kb, b) = _split(a), _split(b)
    return scale(ka / kb, Div(Const(1.0) if a is None else a, b))


def power(a, b):
    if not isinstance(b, Const):
        if isinstance(a, Const) and a.v > 0:
            return call("exp", mul(_apply(np.log, a.v), b))
        raise ExpressionError("an exponent depending on x needs a positive constant base")
    p = b.v
    if isinstance(a, Const):
        return _apply(np.power, a.v, p)
    if p == 0.0:
        return Const(1.0)
    if p == 1.0:
        return a
    if isinstance(a, Poly) and p.is_integer() and 0 < p * (len(a.c) - 1) <= MAX_DEGREE:
        return reduce(mul, [a] * int(p))
    return Pow(a, p)


def call(name: str, arg):
    if isinstance(arg, Const):
        return _apply(_FUNCS[name], arg.v)
    return Call(name, arg)


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


class Expression:
    """A folded expression tree in x, callable on scalars and numpy arrays.

    A scalar call returns a float and raises ExpressionError where the
    value is not finite; an array call returns an array of x's shape (a
    constant is broadcast)."""

    def __init__(self, tree):
        self.tree = tree

    def __call__(self, x):
        if np.ndim(x) == 0:
            with np.errstate(all="ignore"):
                val = float(self.tree.eval(np.float64(x)))
            if not math.isfinite(val):
                raise ExpressionError(f"expression {self.tree!r} is not finite at x={x!r}")
            return val
        x = np.asarray(x, dtype=float)
        out = self.tree.eval(x)
        if np.ndim(out) == 0:
            return np.full(x.shape, out)
        return out.copy() if out is x else out  # the tree "x" evaluates to x itself

    def diff(self) -> "Expression":
        return Expression(self.tree.diff())

    def is_constant(self) -> bool:
        return isinstance(self.tree, Const)

    def __mul__(self, other: "Expression") -> "Expression":
        return Expression(mul(self.tree, other.tree))

    def __neg__(self) -> "Expression":
        return Expression(neg(self.tree))

    def __repr__(self) -> str:
        return f"Expression({self.tree!r})"


_BINOPS = {ast.Add: add, ast.Sub: lambda a, b: add(a, neg(b)), ast.Mult: mul, ast.Div: div, ast.Pow: power}
_UNARYOPS = {ast.UAdd: lambda a: a, ast.USub: neg}


def _position(text: str, col: int) -> int:
    """1-based position in text of column col (0-based) of the parsed
    source, which is text without leading blanks and with each ^ as **."""
    i = len(text) - len(text.lstrip())
    while i < len(text) and col > 0:
        col -= 2 if text[i] == "^" else 1
        i += 1
    return i + 1


def _constant_value(name: str, val) -> Const:
    if isinstance(val, str):
        tree = parse_expression(val).tree
        if not isinstance(tree, Const):
            raise ExpressionError(f"constant {name} = {val!r} depends on x")
        return tree
    try:
        return _const(val)
    except (TypeError, ValueError) as e:
        raise ExpressionError(f"constant {name} = {val!r} is not a finite number: {e}") from None


def parse_expression(text: str, constants: dict | None = None) -> Expression:
    """Parse `text` into a folded Expression; named constants are
    substituted by their values, given as numbers or as constant
    expression text such as "pi/6".

    Raises ExpressionError, with the position where there is one, on bad
    syntax, on any construct outside the grammar, on any symbol that is
    neither x, pi, e nor a declared constant, and on constant
    subexpressions that are not finite.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    names = {"pi": Const(math.pi), "e": Const(math.e)}
    for name, val in (constants or {}).items():
        names[name] = _constant_value(name, val)
    names["x"] = X
    if "#" in text:  # Python would read the rest as a comment
        raise ExpressionError(f"unsupported character '#' in {text!r} at position {text.index('#') + 1}")
    src = text.strip().replace("^", "**").translate({ord(c): " " for c in "\t\n\r\f\v"})
    try:
        body = ast.parse(src, mode="eval").body
    except SyntaxError as e:
        pos = _position(text, (e.offset or 1) - 1)
        raise ExpressionError(f"syntax error in {text!r} at position {pos}: {e.msg}") from None
    except (ValueError, RecursionError, MemoryError) as e:
        raise ExpressionError(f"cannot parse {text!r}: {type(e).__name__} {e}") from None

    def fail(msg, node):
        pos = _position(text, node.col_offset)
        raise ExpressionError(f"{msg} in {text!r} at position {pos}")

    def fold(node):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            op, args = _const, [node.value]
        elif isinstance(node, ast.Name):
            if node.id not in names:
                fail(f"unknown symbol {node.id!r}", node)
            return names[node.id]
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
            op, args = _UNARYOPS[type(node.op)], [fold(node.operand)]
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op, args = _BINOPS[type(node.op)], [fold(node.left), fold(node.right)]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _FUNCS:
                fail(f"unknown function {node.func.id!r} (functions: {', '.join(_FUNCS)})", node)
            if len(node.args) != 1 or node.keywords:
                fail(f"{node.func.id} takes exactly one argument", node)
            op, args = call, [node.func.id, fold(node.args[0])]
        else:
            fail(f"unsupported syntax ({type(node).__name__})", node)
        try:
            return op(*args)
        except (ExpressionError, OverflowError) as e:
            msg = str(e)
        fail(msg, node)

    try:
        return Expression(fold(body))
    except RecursionError:
        raise ExpressionError(f"cannot parse {text!r}: nested too deeply") from None
