"""Compactly supported piecewise polynomials with exact dyadic breakpoints.

Every basis function in this package (primal and dual, interior and
boundary) is a spline, stored as a list of strictly increasing dyadic
breakpoints plus one polynomial per interval.  Polynomial coefficients are
kept in a local monomial basis about each piece's left endpoint, which
keeps evaluation well conditioned at fine dyadic levels.  Coefficients may
be `fractions.Fraction` (exact construction/verification path) or floats
(assembly path); all operations are closed over either.

Evaluation convention: the value at an interior breakpoint is the left
limit; at the left end of the support it is the right limit.  Outside the
support the function is identically zero.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = [
    "Interval",
    "PiecewisePolynomial",
    "inner_product",
    "gauss_rule",
]

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = ((x + 1.0) / 2.0, w / 2.0)
    return _GAUSS_CACHE[n]


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]."""

    lo: Fraction | float
    hi: Fraction | float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, x: float) -> bool:
        """Closed-interval membership, inclusive at both endpoints."""
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        """True when the interiors overlap (touching endpoints do not count)."""
        return max(self.lo, other.lo) < min(self.hi, other.hi)


def _as_dyadic(x) -> Fraction:
    f = Fraction(x)
    d = f.denominator
    if d & (d - 1):
        raise ValueError(f"breakpoint {x!r} is not a dyadic rational")
    return f


def _poly_mul(p: Sequence, q: Sequence) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_shift(coeffs: Sequence, d):
    """Re-expand sum c_n t^n about t = d, i.e. coefficients of p(t + d)."""
    n = len(coeffs)
    out = [0] * n
    for k in range(n):
        s = 0
        for j in range(k, n):
            s += coeffs[j] * math.comb(j, k) * d ** (j - k)
        out[k] = s
    return out


def _integrate(coeffs: Sequence, h, d: int = 0):
    """Integral over [0, h] of t^d sum_n c_n t^n: sum_n c_n h^(n+d+1)/(n+d+1)."""
    return sum(c * h ** (n + d + 1) / (n + d + 1) for n, c in enumerate(coeffs))


def dyadic_amplitude(j: int):
    """2^(j/2), the L2 normalisation of level j: exact at an even j, the
    float sqrt(2)**j at an odd one."""
    return math.sqrt(2.0) ** j if j % 2 else Fraction(2) ** (j // 2)


def _poly_eval(coeffs: Sequence, t):
    v = 0
    for c in reversed(coeffs):
        v = v * t + c
    return v


class PiecewisePolynomial:
    """A compactly supported piecewise polynomial on the real line."""

    __slots__ = ("breakpoints", "pieces", "_breaks_f", "_coeffs_f")

    def __init__(self, breakpoints: Sequence, pieces: Sequence[Sequence]) -> None:
        bps = tuple(_as_dyadic(b) for b in breakpoints)
        if len(bps) < 2:
            raise ValueError("need at least two breakpoints")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(pieces) != len(bps) - 1:
            raise ValueError(
                f"{len(pieces)} pieces for {len(bps)} breakpoints; expected {len(bps) - 1}"
            )
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(tuple(p) for p in pieces))
        object.__setattr__(self, "_breaks_f", None)
        object.__setattr__(self, "_coeffs_f", None)

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("PiecewisePolynomial is immutable")

    # -- basic structure ------------------------------------------------

    @property
    def support(self) -> Interval:
        return Interval(self.breakpoints[0], self.breakpoints[-1])

    @property
    def degree(self) -> int:
        return max(len(p) for p in self.pieces) - 1

    def is_exact(self) -> bool:
        """True when every coefficient is a Fraction (or int)."""
        return all(
            isinstance(c, (Fraction, int)) for p in self.pieces for c in p
        )

    def _float_cache(self) -> tuple[np.ndarray, np.ndarray]:
        if self._breaks_f is None:
            deg = self.degree
            coeffs = np.zeros((len(self.pieces), deg + 1))
            for i, p in enumerate(self.pieces):
                for d, c in enumerate(p):
                    coeffs[i, d] = float(c)
            object.__setattr__(self, "_breaks_f", np.array([float(b) for b in self.breakpoints]))
            object.__setattr__(self, "_coeffs_f", coeffs)
        return self._breaks_f, self._coeffs_f

    # -- evaluation -----------------------------------------------------

    def piece_index(self, x: float) -> int | None:
        """Index of the piece providing the value at x, or None outside."""
        bps = self.breakpoints
        if x < bps[0] or x > bps[-1]:
            return None
        i = bisect_left(bps, Fraction(x) if not isinstance(x, Fraction) else x)
        if i < len(bps) and bps[i] == x:
            return min(max(i - 1, 0), len(self.pieces) - 1)
        return i - 1

    def evaluate(self, x: float) -> float:
        """Point value under the left-limit convention."""
        if not math.isfinite(x):
            raise ValueError(f"cannot evaluate at non-finite x={x!r}")
        i = self.piece_index(x)
        if i is None:
            return 0.0 if not self.is_exact() else Fraction(0)
        xi = self.breakpoints[i]
        t = (Fraction(x) - xi) if self.is_exact() and float(x) == x else (float(x) - float(xi))
        return _poly_eval(self.pieces[i], t)

    def __call__(self, x):
        if np.ndim(x) == 0:
            return float(self.evaluate(float(x)))
        return self.evaluate_array(np.asarray(x, dtype=float))

    def evaluate_array(self, x: np.ndarray) -> np.ndarray:
        """Vectorized evaluation (float path)."""
        if not np.all(np.isfinite(x)):
            raise ValueError("cannot evaluate at non-finite points")
        breaks, coeffs = self._float_cache()
        idx = np.searchsorted(breaks, x, side="left")
        # left-limit convention: exact hits use the piece to the left,
        # except at the support's left endpoint
        piece = np.clip(idx - 1, 0, len(self.pieces) - 1)
        inside = (x >= breaks[0]) & (x <= breaks[-1])
        t = x - breaks[piece]
        out = np.zeros_like(x)
        for d in range(coeffs.shape[1] - 1, -1, -1):
            out = out * t + coeffs[piece, d]
        return np.where(inside, out, 0.0)

    # -- calculus -------------------------------------------------------

    def derivative(self) -> "PiecewisePolynomial":
        """Formal per-piece derivative; jump discontinuities are dropped."""
        new = []
        for p in self.pieces:
            if len(p) == 1:
                new.append((0 * p[0],))
            else:
                new.append(tuple(c * n for n, c in enumerate(p) if n >= 1))
        return PiecewisePolynomial(self.breakpoints, new)

    def _piece_integrals(self) -> list:
        bps = self.breakpoints
        return [_integrate(p, b - a) for a, b, p in zip(bps, bps[1:], self.pieces)]

    def integral(self):
        """Total integral over the real line."""
        return sum(self._piece_integrals())

    def antiderivative_from_left(self) -> tuple["PiecewisePolynomial", bool]:
        """x -> integral of self over (-inf, x].

        Returns (result, compact).  `compact` is True when the total
        integral vanishes, so the result is again supported on the same
        interval; otherwise the result only represents the restriction to
        the original support (it tends to the nonzero total to the right).
        """
        cell = self._piece_integrals()
        run = 0
        new = []
        for p, ci in zip(self.pieces, cell):
            ints = [run] + [c / Fraction(n + 1) for n, c in enumerate(p)]  # an int c stays exact
            new.append(tuple(ints))
            run = run + ci
        compact = run == 0 if isinstance(run, (Fraction, int)) else abs(run) <= 1e-12
        return PiecewisePolynomial(self.breakpoints, new), compact

    def antiderivative_to_right(self) -> tuple["PiecewisePolynomial", bool]:
        """x -> minus the integral of self over [x, inf).

        Equals antiderivative_from_left minus the total integral; the
        same compactness report applies (to the left side).
        """
        left, compact = self.antiderivative_from_left()
        total = self.integral()
        new = [(p[0] - total,) + p[1:] for p in left.pieces]
        return PiecewisePolynomial(self.breakpoints, new), compact

    def moment(self, degree: int, center=0):
        """Exact integral of (x - center)^degree * self."""
        if degree < 0:
            raise ValueError("moment degree must be >= 0")
        bps, unit = self.breakpoints, [0] * degree + [1]
        # (x - center)^degree about each piece's left endpoint a
        return sum(_integrate(_poly_mul(_poly_shift(unit, a - center), p), b - a)
                   for a, b, p in zip(bps, bps[1:], self.pieces))

    # -- transforms -----------------------------------------------------

    def translate(self, k) -> "PiecewisePolynomial":
        """self(. - k) for a dyadic shift k."""
        k = _as_dyadic(k)
        return PiecewisePolynomial([b + k for b in self.breakpoints], self.pieces)

    def reflect(self, center) -> "PiecewisePolynomial":
        """The mirror image x -> self(center - x), for a dyadic center."""
        c, bps = _as_dyadic(center), self.breakpoints
        # the new piece at local s is the old one at h - s: shifted by h, then s -> -s
        pieces = [tuple((-1) ** k * v for k, v in enumerate(_poly_shift(p, b - a)))
                  for a, b, p in zip(bps, bps[1:], self.pieces)]
        return PiecewisePolynomial([c - b for b in reversed(bps)], pieces[::-1])

    def scale(self, c) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self.breakpoints, [tuple(c * v for v in p) for p in self.pieces]
        )

    def __add__(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        lo = min(self.breakpoints[0], other.breakpoints[0])
        hi = max(self.breakpoints[-1], other.breakpoints[-1])
        pts = sorted(set(self.breakpoints) | set(other.breakpoints) | {lo, hi})
        pieces = []
        for a in pts[:-1]:
            ps = self._local_coeffs(a)
            qs = other._local_coeffs(a)
            n = max(len(ps), len(qs))
            ps = list(ps) + [0] * (n - len(ps))
            qs = list(qs) + [0] * (n - len(qs))
            pieces.append(tuple(p + q for p, q in zip(ps, qs)))
        return PiecewisePolynomial(pts, pieces)

    def _local_coeffs(self, a):
        """Coefficients about a of the piece covering (a, a + eps), or (0,)."""
        bps = self.breakpoints
        if a < bps[0] or a >= bps[-1]:
            return (0,)
        i = bisect_left(bps, a)
        if i >= len(bps) or bps[i] != a:
            i -= 1
        if i >= len(self.pieces):
            return (0,)
        return tuple(_poly_shift(self.pieces[i], a - bps[i]))

    def dilate(self, j: int, k) -> "PiecewisePolynomial":
        """x -> self(2^j x - k), exactly, for an integer j and a dyadic k."""
        two_j = Fraction(2) ** j
        return PiecewisePolynomial([(b + k) / two_j for b in self.breakpoints],
                                   [tuple(c * two_j**n for n, c in enumerate(p)) for p in self.pieces])

    def dyadic_transform(self, j: int, k: int) -> "PiecewisePolynomial":
        """2^(j/2) * self(2^j . - k), the L2-normalized dyadic transform."""
        return self.dilate(j, k).scale(dyadic_amplitude(j))

    def __repr__(self) -> str:
        lo, hi = self.breakpoints[0], self.breakpoints[-1]
        return (
            f"PiecewisePolynomial(supp=[{lo}, {hi}], "
            f"pieces={len(self.pieces)}, degree={self.degree})"
        )


def _overlap_grid(p: PiecewisePolynomial, q: PiecewisePolynomial, extra=()) -> list:
    lo = max(p.breakpoints[0], q.breakpoints[0])
    hi = min(p.breakpoints[-1], q.breakpoints[-1])
    if lo >= hi:
        return []
    pts = {b for b in p.breakpoints if lo <= b <= hi}
    pts |= {b for b in q.breakpoints if lo <= b <= hi}
    pts |= {e for e in extra if lo < e < hi}
    pts |= {lo, hi}
    return sorted(pts)


def inner_product(
    p: PiecewisePolynomial,
    q: PiecewisePolynomial,
    weight: PiecewisePolynomial | None = None,
) -> float | Fraction:
    """Integral of p * q, optionally against a piecewise polynomial weight.

    Computed in closed form on each cell between the breakpoints of p, q
    and the weight, from the product of the local coefficients; exact
    when every coefficient is a Fraction.
    """
    pts = _overlap_grid(p, q, extra=() if weight is None else weight.breakpoints)
    total = 0
    for a, b in zip(pts[:-1], pts[1:]):
        prod = _poly_mul(p._local_coeffs(a), q._local_coeffs(a))
        if weight is not None:
            prod = _poly_mul(prod, weight._local_coeffs(a))
        total += _integrate(prod, b - a)
    return total
