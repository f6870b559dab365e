"""Unit tests for the expression language and the built-in problems."""

import builtins
import dataclasses
import math
import os
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavegal.expressions import (
    _FUNCS,
    X,
    Call,
    Const,
    Expression,
    ExpressionError,
    Mul,
    Poly,
    Sum,
    parse_expression,
)
from wavegal.problems import BUILTIN_PROBLEMS, _flux_quadrature, builtin_problem, problem_from_spec


class TestExpressions:
    def test_basic_values(self):
        assert parse_expression("x*exp(x)")(1.0) == pytest.approx(math.e, rel=1e-14)
        assert parse_expression("sin(1-x)")(1.0) == pytest.approx(0.0, abs=1e-15)
        assert parse_expression("pi/6")(0.0) == pytest.approx(math.pi / 6, rel=1e-14)

    def test_caret_is_power(self):
        assert parse_expression("x^3 + 2")(2.0) == pytest.approx(10.0)

    def test_constants_substituted(self):
        assert parse_expression("A*x + G", {"A": 3, "G": 0.5})(2.0) == pytest.approx(6.5)

    def test_array_evaluation(self):
        f = parse_expression("x^2")
        out = f(np.array([1.0, 2.0, 3.0]))
        assert out == pytest.approx([1.0, 4.0, 9.0])

    def test_constant_broadcasts_over_arrays(self):
        f = parse_expression("2")
        out = f(np.linspace(0, 1, 5))
        assert out.shape == (5,) and np.all(out == 2.0)

    def test_derivative(self):
        df = parse_expression("x*exp(x)").diff()
        assert df(1.0) == pytest.approx(2 * math.e, rel=1e-14)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExpressionError, match="position"):
            parse_expression("x + * 2")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("x*(1 + 2")

    def test_unknown_symbol(self):
        with pytest.raises(ExpressionError, match="unknown symbol"):
            parse_expression("x + qq")

    def test_empty_expression(self):
        with pytest.raises(ExpressionError, match="empty"):
            parse_expression("   ")

    def test_non_finite_value(self):
        with pytest.raises(ExpressionError, match="not finite"):
            parse_expression("1/x")(0.0)

    def test_is_constant(self):
        assert parse_expression("sqrt(2)/2").is_constant()
        assert not parse_expression("x/2").is_constant()

    def test_constants_as_text(self):
        f = parse_expression("G*x", {"G": "pi/6"})
        assert f(2.0) == 2.0 * (math.pi / 6)
        with pytest.raises(ExpressionError, match="depends on x"):
            parse_expression("G*x", {"G": "x/6"})

    def test_scalar_call_returns_float(self):
        assert type(parse_expression("x^2 + sin(x)")(0.5)) is float

    def test_x_dependent_exponent(self):
        assert parse_expression("2^x")(3.0) == pytest.approx(8.0, rel=1e-15)
        assert parse_expression("e^x").tree == parse_expression("exp(x)").tree
        with pytest.raises(ExpressionError, match="positive constant base"):
            parse_expression("x^x")


class TestGrammar:
    """Only the documented grammar parses; nothing in the text is run."""

    @pytest.mark.parametrize(
        "text",
        [
            '__import__("os").getpid()',
            "(lambda: 3)()",
            "log(x)",
            "abs(x)",
            "E*x",
            "exp",
            "x.real",
            "x[0]",
            "[x][0]",
            "x if x else 1",
            "x < 1",
            "x // 2",
            "x % 2",
            "x | 1",
            "True*x",
            "1j*x",
            "'x'",
            "exp(x, 2)",
            "exp(x=1)",
            "exp(*[x])",
            "x # comment",
        ],
    )
    def test_outside_grammar_rejected(self, text):
        with pytest.raises(ExpressionError):
            parse_expression(text)

    def test_text_never_runs(self, monkeypatch):
        # a module whose function records each call, importable by name
        ran = []
        probe = types.SimpleNamespace(run=lambda *a: ran.append(a) or 1.0)
        monkeypatch.setitem(sys.modules, "wavegal_probe", probe)
        monkeypatch.setattr(builtins, "run", probe.run, raising=False)
        for text in (
            "__import__('wavegal_probe').run()",
            "x + __import__('wavegal_probe').run(x)",
            "run(x)",
            "(lambda: run())()",
            "[run() for _ in 'a'][0]",
        ):
            with pytest.raises(ExpressionError):
                parse_expression(text)
        assert ran == []

    def test_import_does_not_load_sympy(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        code = "import sys, wavegal; sys.exit('sympy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.fixture(scope="module")
def ex1():
    return builtin_problem("ex1")


@pytest.fixture(scope="module")
def ex2():
    return builtin_problem("ex2")


class TestBuiltinProblems:
    def test_ids(self):
        assert set(BUILTIN_PROBLEMS) == {"ex1", "ex2", "ex3"}
        with pytest.raises(KeyError):
            builtin_problem("nope")

    def test_ex1_data(self, ex1):
        assert ex1.gamma == pytest.approx(math.pi / 6, rel=1e-15)
        assert ex1.a(np.array([0.9]))[0] == pytest.approx(1e5)
        assert ex1.g_gamma == 0.0

    def test_ex2_dirac_weight(self, ex2):
        s = math.sqrt(2) / 2
        want = (1 - 20000) * math.sin(1 - s) - 20000 * math.exp(s) + 2 * 20000 - 1
        assert ex2.gamma == pytest.approx(s, rel=1e-15)
        assert ex2.g_gamma == pytest.approx(want, rel=1e-12)

    def test_boundary_values_vanish(self, ex1, ex2):
        for p in (ex1, ex2):
            assert p.u(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-9)
            assert p.u(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-9)

    def test_solution_continuous_at_interface(self, ex1, ex2):
        for p in (ex1, ex2):
            g = p.gamma
            left = p.exact.u_minus(g)
            right = p.exact.u_plus(g)
            assert left == pytest.approx(right, rel=1e-10, abs=1e-12)

    def test_flux_jump_matches_dirac_weight(self, ex1, ex2):
        # a+ u+'(gamma) - a- u-'(gamma) must equal the Dirac weight
        for p in (ex1, ex2):
            g = p.gamma
            jump = p.a_plus(g) * p.exact.du_plus(g) - p.a_minus(g) * p.exact.du_minus(g)
            scale = max(1.0, abs(p.a_plus(g) * p.exact.du_plus(g)))
            assert jump == pytest.approx(p.g_gamma, abs=1e-8 * scale)

    def test_manufactured_source_matches_difference_quotient(self, ex2):
        # f == -(a u')' checked against central differences of a u'
        g, h = ex2.gamma, 1e-6
        for x in (0.3, 0.9):
            a = ex2.a_minus if x < g else ex2.a_plus
            du = ex2.exact.du_minus if x < g else ex2.exact.du_plus
            flux = lambda t: a(t) * du(t)
            fd = -(flux(x + h) - flux(x - h)) / (2 * h)
            f = ex2.f(np.array([x]))[0]
            assert f == pytest.approx(fd, rel=1e-6, abs=1e-4 * max(1.0, abs(fd)))

    def test_ex3_has_no_exact_solution(self):
        # no closed form is given, so u comes from the flux quadrature
        assert "u_minus" not in BUILTIN_PROBLEMS["ex3"]
        p = builtin_problem("ex3")
        assert p.exact is not None
        assert p.u(np.array([0.0, 1.0])) == pytest.approx([0.0, 0.0], abs=1e-15)
        assert p.f(np.array([0.2, 0.8])) == pytest.approx([1.0, 1.0])
        assert p.a(np.array([0.9]))[0] == pytest.approx(1000 * math.exp(0.9))

    def test_constant_override(self):
        spec = BUILTIN_PROBLEMS["ex2"]
        p = problem_from_spec({**spec, "constants": {**spec["constants"], "A": 7.0}}, name="ex2")
        assert p.a(np.array([0.9]))[0] == pytest.approx(7.0)


def written_out(pid):
    """(u', f) per side of ex1 and ex2, differentiated by hand."""
    if pid == "ex1":
        G, A = math.pi / 6, 1e5
        e, den = math.exp(G), (G - 1) ** 3 * A * (G - 3)
        C = {
            2: (-3 * G**4 + 20 * G**3 * A + (-5 * A + 6) * G**2 - 16 * A * G + 9 * A - 3) * e / (G * den),
            3: (3 * G**5 + (-20 * A + 7) * G**4 + (-40 * A - 10) * G**3 + (50 * A - 10) * G**2
                + (-8 * A + 7) * G - 6 * A + 3) * e / (den * G**2),
            4: (-7 * G**4 + 45 * G**3 * A + (-10 * A + 14) * G**2 - 25 * A * G + 14 * A - 7) * e / (den * G**2),
            5: (4 * G**3 + (-24 * A - 4) * G**2 + (24 * A - 4) * G - 8 * A + 4) * e / (den * G**2),
        }
        du = (lambda x: (1 + x) * np.exp(x), lambda x: sum(k * c * x ** (k - 1) for k, c in C.items()))
        f = (lambda x: -(2 + x) * np.exp(x), lambda x: -A * sum(k * (k - 1) * c * x ** (k - 2) for k, c in C.items()))
        return du, f
    G, A = math.sqrt(2) / 2, 2e4
    K = math.sin(1 - G) + math.exp(G) - 1
    du = (lambda x: np.exp(x) - K, lambda x: np.cos(G - x) - K)
    f = (lambda x: -np.exp(x), lambda x: -A * np.sin(G - x))
    return du, f


class TestFoldedTrees:
    @pytest.mark.parametrize("pid", ["ex1", "ex2"])
    def test_derivatives_match_written_out(self, pid):
        p = builtin_problem(pid)
        du, f = written_out(pid)
        got = ((p.exact.du_minus, p.exact.du_plus), (p.f_minus, p.f_plus))
        for i, (lo, hi) in enumerate(((0.0, p.gamma), (p.gamma, 1.0))):
            x = np.linspace(lo, hi, 1001)
            for side, want in zip(got, (du[i], f[i])):
                ref = want(x)
                scale = max(np.abs(ref).max(), np.abs(side[i](x)).max())
                assert np.abs(side[i](x) - ref).max() <= 1e-13 * scale

    def test_polynomials_and_constants_fold(self, ex1):
        assert isinstance(ex1.exact.u_plus.tree, Poly)
        assert len(ex1.exact.u_plus.tree.c) == 6
        assert isinstance(ex1.f_plus.tree, Poly)
        c = parse_expression("sin(pi/6)*exp(1) - A", {"A": 2})
        assert c.is_constant() and c.tree == Const(c(0.0))
        assert c(0.0) == pytest.approx(math.sin(math.pi / 6) * math.e - 2, rel=1e-15)
        out = c(np.zeros((2, 3)))
        assert out.shape == (2, 3) and np.all(out == c(0.0))


    def test_like_terms_are_collected(self, ex1, monkeypatch):
        # term by term, u'' of x*exp(x) is exp(x) + exp(x) + x*exp(x)
        e = Call("exp", X)
        f = ex1.f_minus
        assert f.tree == Sum((Mul(Const(-2.0), e), Mul(Const(-1.0), Mul(X, e))), Const(0.0))
        assert parse_expression("sin(x) + 2*sin(x)").tree == Mul(Const(3.0), Call("sin", X))
        assert parse_expression("exp(x) - exp(x) + x").tree == X
        # a scaled sum is distributed, so like terms collect across it
        for text, want in (("exp(x) - (exp(x) + x*exp(x))", Mul(Const(-1.0), Mul(X, e))),
                           ("2*(exp(x)+x) - exp(x)", Sum((e,), Poly((0.0, 2.0))))):
            assert parse_expression(text).tree == want, text
        unfolded = Mul(Const(-1.0), Sum((e, e, Mul(X, e)), Const(0.0)))
        x = np.linspace(0.0, 1.0, 1001)
        want = unfolded.eval(x)
        assert np.all(np.abs(f(x) - want) <= 4 * np.spacing(np.abs(want)))
        calls = []
        monkeypatch.setitem(_FUNCS, "exp", lambda v: calls.append(v) or np.exp(v))
        f(x)
        assert len(calls) == 2


SMOOTH = {"gamma": "0.5", "a_minus": "1", "a_plus": "1", "g_gamma": "0", "u_minus": "x*(1-x)", "u_plus": "x*(1-x)"}


class TestProblemFromSpec:
    def test_required_keys(self):
        spec = {k: v for k, v in SMOOTH.items() if k not in ("gamma", "g_gamma")}
        with pytest.raises(ExpressionError, match="problem spec lacks gamma, g_gamma"):
            problem_from_spec(spec)

    @pytest.mark.parametrize("fields, condition", [
        ({"u_minus": "x*(1-x) + 0.01", "u_plus": "x*(1-x) + 0.01"}, "u(0) = 0"),
        ({"u_plus": "x*(1-x) + 0.01*(2*x-1)^2"}, "u(1) = 0"),
        ({"u_plus": "x*(1-x) + 0.01*(x-1)"}, "[u](gamma) = 0"),
        ({"g_gamma": "0.01"}, "a+ u+'(gamma) - a- u-'(gamma) = g_gamma"),
    ])
    def test_exact_solution_meets_its_conditions(self, fields, condition):
        with pytest.raises(ExpressionError, match=re.escape(f"the exact solution misses {condition}: residual ")):
            problem_from_spec({**SMOOTH, **fields})

    def test_exact_solution_within_tolerance(self):
        # a flux jump off by 1e-8 of max |a u'| = 1 is rounding, not a wrong solution
        problem_from_spec({**SMOOTH, "g_gamma": "1e-8"})

    def test_sources_or_exact_required(self):
        with pytest.raises(ExpressionError, match="sources"):
            problem_from_spec({"gamma": "0.5", "a_minus": "1", "a_plus": "2", "g_gamma": "0"})

    def test_partial_exact_rejected(self):
        with pytest.raises(ExpressionError, match="both"):
            problem_from_spec(
                {
                    "gamma": "0.5",
                    "a_minus": "1",
                    "a_plus": "2",
                    "g_gamma": "0",
                    "u_minus": "x",
                }
            )

    @pytest.mark.parametrize("source", ["f_minus", "f_plus"])
    def test_partial_sources_rejected(self, source):
        # beside an exact solution, a lone source is not dropped for the
        # manufactured pair
        with pytest.raises(ExpressionError, match="both f_minus and f_plus"):
            problem_from_spec(
                {
                    "gamma": "0.5",
                    "a_minus": "1",
                    "a_plus": "1",
                    "g_gamma": "0",
                    "u_minus": "x*(1-x)",
                    "u_plus": "x*(1-x)",
                    source: "100",
                }
            )

    @pytest.mark.parametrize("a_minus", ["-1", "0"])
    def test_nonpositive_coefficient_refused_before_the_flux_table(self, a_minus):
        # the flux table divides by a, so it is built only once a > 0 holds
        spec = {"gamma": "0.5", "a_minus": a_minus, "a_plus": "1", "g_gamma": "0",
                "f_minus": "1", "f_plus": "1"}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="diffusion coefficient not positive"):
                problem_from_spec(spec)

    def test_gamma_must_be_constant(self):
        with pytest.raises(ExpressionError, match="must not depend on x"):
            problem_from_spec(
                {
                    "gamma": "x/2",
                    "a_minus": "1",
                    "a_plus": "2",
                    "g_gamma": "0",
                    "f_minus": "1",
                    "f_plus": "1",
                }
            )

    def test_inline_manufactured_problem(self):
        p = problem_from_spec(
            {
                "gamma": "0.5",
                "a_minus": "1",
                "a_plus": "1",
                "g_gamma": "0",
                "u_minus": "x*(1-x)",
                "u_plus": "x*(1-x)",
            },
            name="smooth",
        )
        # -(u')' = 2 for u = x(1-x)
        assert p.f(np.array([0.2, 0.8])) == pytest.approx([2.0, 2.0])
        assert p.name == "smooth"


def ex3_closed_form():
    """ex3's u and u' per side, from its flux a u' = C - x.

    Left (a = 1): u = C x - x^2/2.  Right (a = 1000 e^x), integrating
    (C - t) e^-t / 1000 back from u(1) = 0:
    u = ((x - C + 1) e^-x - (2 - C) e^-1) / 1000.  C makes u continuous."""
    G, e1 = math.pi / 6, math.exp(-1.0)
    eg = math.exp(-G)
    C = (G * G / 2 + ((G + 1) * eg - 2 * e1) / 1000) / (G - (e1 - eg) / 1000)
    u = (lambda x: C * x - x * x / 2, lambda x: ((x - C + 1) * np.exp(-x) - (2 - C) * e1) / 1000)
    du = (lambda x: C - x, lambda x: (C - x) * np.exp(-x) / 1000)
    return u, du


def assert_sides_match(p, u, du, rtol):
    """The problem's exact u and u' against (left, right) pairs of callables,
    relative to the largest value on each side."""
    sides = (p.exact.u_minus, p.exact.u_plus), (p.exact.du_minus, p.exact.du_plus)
    for i, (lo, hi) in enumerate(((0.0, p.gamma), (p.gamma, 1.0))):
        x = np.linspace(lo, hi, 1001)
        for got, want in ((sides[0][i], u[i]), (sides[1][i], du[i])):
            ref = want(x)
            assert np.abs(got(x) - ref).max() <= rtol * np.abs(ref).max()


def flux_closed_form(left, right, gamma=math.pi / 6):
    """u and u' per side of a problem whose flux is a u' = C - F~, from each
    side's (a, F~, P, Q): P = int 1/a and Q = int F~/a, from 0 to x on the
    left and from x to 1 on the right, so that u = C P - Q on the left and
    u = Q - C P on the right.  C makes u continuous at gamma."""
    (al, Fl, Pl, Ql), (ar, Fr, Pr, Qr) = left, right
    C = (Ql(gamma) + Qr(gamma)) / (Pl(gamma) + Pr(gamma))
    u = (lambda x: C * Pl(x) - Ql(x), lambda x: Qr(x) - C * Pr(x))
    du = (lambda x: (C - Fl(x)) / al(x), lambda x: (C - Fr(x)) / ar(x))
    return u, du


def ex3_variant(kind=None, value=None):
    """ex3's u and u' per side with a- = value + x, f- = x^value or
    f+ = sin(value x) in place of 1, as `kind` says: integrated by hand,
    each side as in `flux_closed_form`, the right as in `ex3_closed_form`."""
    G, e1 = math.pi / 6, math.exp(-1.0)
    a, F, P, Q = (lambda x: 1.0), (lambda x: x), (lambda x: x), (lambda x: x * x / 2)
    if kind == "a_minus":  # 1 / (eps + x)
        a, P = (lambda x: value + x), (lambda x: np.log1p(x / value))
        Q = lambda x: x - value * np.log1p(x / value)
    elif kind == "f_minus":  # x^p
        F, Q = (lambda x: x ** (value + 1) / (value + 1)), (lambda x: x ** (value + 2) / ((value + 1) * (value + 2)))
    F0 = F(G)
    # right of gamma, a = 1000 e^x and F~ = F0 + H with H(gamma) = 0
    H = lambda x: x - G
    EH = lambda x: (x + 1 - G) * np.exp(-x) - (2 - G) * e1  # int_x^1 H e^-t
    if kind == "f_plus":  # sin(k x)
        k = value
        H = lambda x: (math.cos(k * G) - np.cos(k * x)) / k
        E = lambda t: np.exp(-t) * (k * np.sin(k * t) - np.cos(k * t)) / (1 + k * k)  # of cos(k t) e^-t
        EH = lambda x: (math.cos(k * G) * (np.exp(-x) - e1) - (E(1.0) - E(x))) / k
    right = (
        lambda x: 1000 * np.exp(x),
        lambda x: F0 + H(x),
        lambda x: (np.exp(-x) - e1) / 1000,
        lambda x: (F0 * (np.exp(-x) - e1) + EH(x)) / 1000,
    )
    return flux_closed_form((a, F, P, Q), right)


class TestFluxQuadrature:
    @pytest.mark.parametrize("pid", ["ex1", "ex2"])
    def test_matches_closed_forms(self, pid):
        # the same problem's manufactured sources, by quadrature of the flux
        closed = builtin_problem(pid)
        p = dataclasses.replace(closed, exact=_flux_quadrature(
            closed.gamma, closed.a_minus, closed.a_plus, closed.f_minus, closed.f_plus, closed.g_gamma))
        e = closed.exact
        assert_sides_match(p, (e.u_minus, e.u_plus), (e.du_minus, e.du_plus), rtol=1e-12)

    def test_ex3_matches_flux_closed_form(self):
        assert_sides_match(builtin_problem("ex3"), *ex3_closed_form(), rtol=1e-12)

    def test_scalar_and_array_queries(self):
        p = builtin_problem("ex3")
        x = np.linspace(0.0, p.gamma, 12).reshape(3, 4)
        assert p.exact.u_minus(x).shape == (3, 4)
        assert float(p.exact.u_minus(x[1, 2])) == p.exact.u_minus(x)[1, 2]

    def test_empty_and_zero_d_queries(self):
        e = builtin_problem("ex3").exact
        for f in (e.u_minus, e.u_plus, e.du_minus, e.du_plus):
            assert f(np.array([])).shape == (0,)
            assert f(np.empty((0, 3))).shape == (0, 3)
            assert f(np.float64(0.6)).shape == ()
        u, du = e.values(math.pi / 6, np.array([]))
        assert u.shape == du.shape == (0,)
        for x in (0.2, 0.7):  # one on each side
            u, du = e.values(math.pi / 6, x)
            assert u.shape == du.shape == ()
            assert (u, du) == tuple(v[0] for v in e.values(math.pi / 6, np.array([x])))

    @pytest.mark.parametrize("kind, text, value, rtol", [
        (None, None, None, 1e-13),
        ("a_minus", "0.001 + x", 1e-3, 1e-13),
        ("a_minus", "0.000001 + x", 1e-6, 1e-13),
        ("f_minus", "sqrt(x)", 1 / 2, 1e-13),
        ("f_minus", "x^(1/3)", 1 / 3, 1e-13),
        ("f_plus", "sin(2000*x)", 2000.0, 1e-12),
    ], ids=["ex3", "a-=0.001+x", "a-=1e-6+x", "f-=sqrt(x)", "f-=x^(1/3)", "f+=sin(2000x)"])
    def test_matches_hand_integrated_closed_forms(self, kind, text, value, rtol):
        # a coefficient with a pole just left of 0, sources with a singular
        # derivative at 0, a source with about 150 periods on the right side
        u, du = ex3_variant(kind, value)
        p = problem_from_spec(dict(BUILTIN_PROBLEMS["ex3"], **({kind: text} if kind else {})))
        assert_sides_match(p, u, du, rtol)
        # no table edge jumps: each inner edge read from the cell to its left
        # (one ulp before it) and from the cell to its right
        for i, side in enumerate((p.exact.left, p.exact.right)):
            x = np.linspace(*((0.0, p.gamma), (p.gamma, 1.0))[i], 1001)
            scale = np.abs([u[i](x), du[i](x)]).max(axis=1)
            edges = side.edges[1:-1]
            jump = np.abs(side(np.nextafter(edges, -np.inf)) - side(edges)).max(axis=1)
            assert np.all(jump <= 1e-14 * scale)

    def test_source_not_finite_is_refused(self):
        # exp(2000 x) overflows from x = 0.355 on, inside the left side
        spec = dict(BUILTIN_PROBLEMS["ex3"], gamma="0.5", f_minus="exp(2000*x)")
        with pytest.raises(ExpressionError, match=r"left \(0 < x < gamma\) side: f or 1/a is not finite on \[0.34375, "):
            problem_from_spec(spec)

    def test_fast_oscillating_source(self):
        # 16 periods on each side
        p = problem_from_spec({"gamma": "0.5", "a_minus": "1", "a_plus": "1", "g_gamma": "0",
                               "f_minus": "sin(200*x)", "f_plus": "sin(200*x)"})
        u = lambda x: (np.sin(200 * x) - x * math.sin(200)) / 200**2
        du = lambda x: (200 * np.cos(200 * x) - math.sin(200)) / 200**2
        assert_sides_match(p, (u, u), (du, du), rtol=2e-13)

    @settings(max_examples=20, deadline=None)
    @given(gamma=st.floats(1e-3, 1 - 1e-3), contrast=st.floats(1e-3, 1e6), g=st.floats(-10.0, 10.0))
    def test_solves_the_interface_problem(self, gamma, contrast, g):
        p = problem_from_spec(
            {
                "gamma": "G",
                "a_minus": "1 + x",
                "a_plus": "A*exp(x)",
                "f_minus": "cos(3*x)",
                "f_plus": "1 + x^2",
                "g_gamma": "W",
                "constants": {"G": gamma, "A": contrast, "W": g},
            }
        )
        e = p.exact
        scale = np.abs(p.u(np.linspace(0.0, 1.0, 201))).max()
        assert abs(e.u_minus(0.0)) <= 1e-12 * scale and abs(e.u_plus(1.0)) <= 1e-12 * scale
        assert abs(e.u_minus(gamma) - e.u_plus(gamma)) <= 1e-12 * scale
        jump = p.a_plus(gamma) * e.du_plus(gamma) - p.a_minus(gamma) * e.du_minus(gamma)
        assert jump == pytest.approx(g, abs=1e-12 * max(1.0, abs(g)))
        # -(a u')' = f by central differences inside each side
        for lo, hi, a, du in ((0.0, gamma, p.a_minus, e.du_minus), (gamma, 1.0, p.a_plus, e.du_plus)):
            x, h = lo + np.array([0.25, 0.5, 0.75]) * (hi - lo), 1e-4 * (hi - lo)
            fd = -(a(x + h) * du(x + h) - a(x - h) * du(x - h)) / (2 * h)
            assert fd == pytest.approx(p.f(x), rel=1e-6, abs=1e-6)
