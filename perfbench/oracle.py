"""Closed forms and error quadrature computed apart from the wavegal package.

The benchmark checks the program's outputs against what is coded here:

- the exact solutions of ex2 and ex3, written out by hand rather than
  taken from ``wavegal.problems``;
- errors of a discrete solution, integrated by Gauss quadrature on the
  union of its basis functions' breakpoints plus the interface point, so
  every cell holds one polynomial piece of u_J and one side of gamma.

Only the basis functions' breakpoints and piece coefficients are read
from the program; evaluation and integration are done here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAUSS_NODES = 5  # per union-mesh cell: exact for u_J, ample for smooth u
NORM_NODES = 64  # per subdomain, for the energy of the smooth exact solution

# tolerances of the per-level checks
ENERGY_RTOL = 1e-2  # Galerkin identity against directly integrated energy error
REPORT_RTOL = 0.1  # program's E_L2 / E_H1 against the benchmark's own


def gauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@dataclass(frozen=True)
class Exact:
    """u, u' and a on (0, gamma) and (gamma, 1)."""

    gamma: float
    a: tuple[Callable, Callable]
    u: tuple[Callable, Callable]
    du: tuple[Callable, Callable]

    def _sides(self, funcs, x: np.ndarray) -> np.ndarray:
        left = x < self.gamma
        return np.where(left, funcs[0](np.where(left, x, 0.0)), funcs[1](np.where(left, 1.0, x)))

    def values(self, x: np.ndarray):
        """(a, u, u') at x, each side's closed form on its own side of gamma."""
        return self._sides(self.a, x), self._sides(self.u, x), self._sides(self.du, x)

    def energy_sq(self) -> float:
        """||u||_a^2 = int a u'^2, by high-order Gauss on each smooth side."""
        t, w = gauss(NORM_NODES)
        total = 0.0
        for side, (lo, hi) in enumerate(((0.0, self.gamma), (self.gamma, 1.0))):
            x = lo + (hi - lo) * t
            total += (hi - lo) * float(w @ (self.a[side](x) * self.du[side](x) ** 2))
        return total


def _const(v: float) -> Callable:
    return lambda x: np.full(np.shape(x), v)


def ex2_exact() -> Exact:
    """ex2: a = 1 | 2e4, a Dirac load at sqrt(2)/2, and (with K fixed by u(1)=0)
    u- = e^x - K x - 1,  u+ = -sin(G - x) + e^G - K x - 1."""
    G = math.sqrt(2.0) / 2.0
    K = math.sin(1.0 - G) + math.exp(G) - 1.0
    return Exact(
        gamma=G,
        a=(_const(1.0), _const(2.0e4)),
        u=(
            lambda x: np.exp(x) - K * x - 1.0,
            lambda x: -np.sin(G - x) + math.exp(G) - K * x - 1.0,
        ),
        du=(lambda x: np.exp(x) - K, lambda x: np.cos(G - x) - K),
    )


def ex3_exact() -> Exact:
    """ex3: -(a u')' = 1 with a = 1 | 1000 e^x at pi/6 and no Dirac load.

    The flux is a u' = C - x on both sides, so u = C x - x^2/2 on the left
    and, integrating (C - t) e^-t / 1000 back from u(1) = 0,
    u = ((x - C + 1) e^-x - (2 - C) e^-1) / 1000 on the right.  C makes u
    continuous at gamma."""
    G = math.pi / 6.0
    e1 = math.exp(-1.0)
    eg = math.exp(-G)
    # C G - G^2/2 = ((G + 1) e^-G - 2 e^-1 + C (e^-1 - e^-G)) / 1000
    C = (G * G / 2.0 + ((G + 1.0) * eg - 2.0 * e1) / 1000.0) / (G - (e1 - eg) / 1000.0)
    return Exact(
        gamma=G,
        a=(_const(1.0), lambda x: 1000.0 * np.exp(x)),
        u=(
            lambda x: C * x - x * x / 2.0,
            lambda x: ((x - C + 1.0) * np.exp(-x) - (2.0 - C) * e1) / 1000.0,
        ),
        du=(lambda x: C - x, lambda x: (C - x) * np.exp(-x) / 1000.0),
    )


EXACT = {"ex2": ex2_exact, "ex3": ex3_exact}


def basis_tables(basis) -> list:
    """(breakpoints, local monomial coefficients) of every basis function, as floats."""
    tables = []
    for bf in basis:
        pp = bf.primal
        deg = max(len(p) for p in pp.pieces)
        coeffs = np.zeros((len(pp.pieces), deg))
        for i, piece in enumerate(pp.pieces):
            coeffs[i, : len(piece)] = [float(c) for c in piece]
        tables.append((np.array([float(b) for b in pp.breakpoints]), coeffs))
    return tables


def synthesize(tables: list, c: np.ndarray, gamma: float):
    """u_J = sum c_i eta_i and u_J' at Gauss nodes of the union mesh.

    Returns (x, w, u_J, u_J') with the weights w of the composite rule."""
    nodes = np.unique(np.concatenate([br for br, _ in tables] + [np.array([gamma])]))
    nodes = nodes[(nodes >= 0.0) & (nodes <= 1.0)]
    t, tw = gauss(GAUSS_NODES)
    h = np.diff(nodes)
    x = (nodes[:-1, None] + h[:, None] * t[None, :]).ravel()
    w = (h[:, None] * tw[None, :]).ravel()
    mid = nodes[:-1] + h / 2.0
    q = GAUSS_NODES
    u = np.zeros_like(x)
    du = np.zeros_like(x)
    for ci, (br, co) in zip(c, tables):
        if ci == 0.0:
            continue
        s, e = np.searchsorted(nodes, (br[0], br[-1]))
        piece = np.searchsorted(br, mid[s:e]) - 1  # each cell lies in one piece
        xs = x[s * q : e * q]
        pc = np.repeat(piece, q)
        tt = xs - br[pc]
        v = np.zeros_like(tt)
        dv = np.zeros_like(tt)
        for d in range(co.shape[1] - 1, -1, -1):
            dv = dv * tt + v
            v = v * tt + co[pc, d]
        u[s * q : e * q] += ci * v
        du[s * q : e * q] += ci * dv
    return x, w, u, du


def level_errors(exact: Exact, basis, c: np.ndarray, b: np.ndarray, energy_sq: float) -> dict:
    """The benchmark's own errors of the discrete solution c on basis.

    E_a is the energy error integrated directly; E_a_identity is the same
    quantity from Galerkin orthogonality, sqrt(||u||_a^2 - c.b), which
    holds only when c solves the Galerkin system with load b."""
    x, w, uj, duj = synthesize(basis_tables(basis), c, exact.gamma)
    a, u, du = exact.values(x)
    gap = energy_sq - float(c @ b)
    return {
        "J": basis.J,
        "N": len(basis),
        "E_L2": math.sqrt(float(w @ (u - uj) ** 2)),
        "E_H1": math.sqrt(float(w @ (du - duj) ** 2)),
        "E_a": math.sqrt(float(w @ (a * (du - duj) ** 2))),
        "E_a_identity": math.sqrt(gap) if gap > 0.0 else float("nan"),
    }


def energy_ok(errs: dict) -> bool:
    """The Galerkin identity matches the directly integrated energy error."""
    ident, direct = errs["E_a_identity"], errs["E_a"]
    return math.isfinite(ident) and abs(ident / direct - 1.0) <= ENERGY_RTOL


def reported_ok(errs: dict, E_L2: float, E_H1: float) -> bool:
    """The program's reported errors agree with the benchmark's own."""
    return all(
        math.isfinite(rep) and abs(rep / own - 1.0) <= REPORT_RTOL
        for rep, own in ((E_L2, errs["E_L2"]), (E_H1, errs["E_H1"]))
    )


def mean_order(values: list) -> float:
    """Mean of log2(e_{J-1} / e_J) over successive levels."""
    orders = [math.log2(p / q) for p, q in zip(values, values[1:])]
    return sum(orders) / len(orders)


def fitted_factor(levels: list, values: list) -> float:
    """Per-level reduction factor 2^-slope of a least-squares fit of log2(values)."""
    return float(2.0 ** -np.polyfit(levels, np.log2(values), 1)[0])
