"""Error measurement, convergence orders, and coefficient-decay diagnostics.

Errors are integrated with the Gauss rule of the Galerkin assembly on
the graded mesh of all basis breakpoints plus gamma (see
`galerkin._gauss_mesh`), so the quadrature resolves every enrichment
level and never straddles the derivative jump.  The decay diagnostics
measure the wavelet coefficients <u, 2^j eta~_{j;k}> of a known
piecewise-smooth function against the dual wavelets, split into the
family away from the interface (fast decay, driven by vanishing moments)
and the family whose dual support touches the interface (slow decay,
driven by the kink) — the quantities behind the enrichment rule.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .galerkin import DiscreteSolution, _gauss_mesh, evaluate_solution
from .piecewise import PiecewisePolynomial, gauss_rule
from .wavelets import WaveletSystem

__all__ = [
    "ErrorPair",
    "ConvergenceRecord",
    "DecayProbe",
    "error_norms",
    "convergence_orders",
    "coefficient_decay_probe",
    "tail_energy",
    "write_records_csv",
    "CSV_HEADER",
]

CSV_HEADER = "J,N_J,kappa,E_L2,Ord_L2_h,Ord_L2_N,E_H1,Ord_H1_h,Ord_H1_N"

DECAY_QUAD_NODES = 5


@dataclass(frozen=True)
class ErrorPair:
    E_L2: float
    E_H1: float


@dataclass
class ConvergenceRecord:
    J: int
    N_J: int
    kappa: float
    E_L2: float
    E_H1: float
    Ord_L2_h: float | None = None
    Ord_L2_N: float | None = None
    Ord_H1_h: float | None = None
    Ord_H1_N: float | None = None


@dataclass(frozen=True)
class DecayProbe:
    """Per-level maxima of |<u, 2^j eta~_{j;k}>| in one family, plus slope."""

    levels: tuple
    maxima: tuple
    slope: float


def _reference_values(reference, x):
    if reference is None:
        raise ValueError("error measurement requires a reference solution")
    if isinstance(reference, DiscreteSolution):
        return evaluate_solution(reference, x)
    if hasattr(reference, "u") and hasattr(reference, "du"):
        return np.asarray(reference.u(x)), np.asarray(reference.du(x))
    if isinstance(reference, tuple) and len(reference) == 2:
        return np.asarray(reference[0](x)), np.asarray(reference[1](x))
    raise TypeError(f"unsupported reference type {type(reference).__name__}")


def error_norms(sol: DiscreteSolution, reference, gamma: float | None = None) -> ErrorPair:
    """L2 and H1-seminorm errors of sol against a reference.

    Gauss quadrature on every cell of the union of sol's breakpoints (and
    the reference's, when it is discrete) plus gamma, so each cell holds
    one polynomial piece of every basis function and one side of gamma.
    """
    if gamma is None:
        gamma = sol.basis.gamma
    bases = [sol.basis]
    if isinstance(reference, DiscreteSolution):
        bases.append(reference.basis)
    x, w = _gauss_mesh(bases, gamma)
    ur, dur = _reference_values(reference, x)
    uj, duj = evaluate_solution(sol, x)
    e_l2 = math.sqrt(float(np.dot(w, (uj - ur) ** 2)))
    e_h1 = math.sqrt(float(np.dot(w, (duj - dur) ** 2)))
    return ErrorPair(e_l2, e_h1)


def convergence_orders(records: list) -> list:
    """Fill the order columns from successive error ratios.

    Ord_h at level J is log2(E_{J-1} / E_J); Ord_N divides that by
    log2(N_J / N_{J-1}).  Zero errors leave the order undefined (None).
    """
    if any(b.J <= a.J for a, b in zip(records, records[1:])):
        raise ValueError("records must have strictly increasing J")
    for prev, cur in zip(records, records[1:]):
        logn = math.log2(cur.N_J / prev.N_J)
        for norm in ("L2", "H1"):
            e0 = getattr(prev, f"E_{norm}")
            e1 = getattr(cur, f"E_{norm}")
            if e0 > 0 and e1 > 0:
                ord_h = math.log2(e0 / e1)
                setattr(cur, f"Ord_{norm}_h", ord_h)
                setattr(cur, f"Ord_{norm}_N", ord_h / logn)
    return records


def _fmt(v, spec="{:.6e}") -> str:
    if v is None:
        return ""
    return spec.format(v)


def write_records_csv(records: list, path) -> None:
    """Emit convergence records with the fixed header used across tables."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(CSV_HEADER.split(","))
        for r in records:
            wr.writerow(
                [
                    r.J,
                    r.N_J,
                    _fmt(r.kappa),
                    _fmt(r.E_L2),
                    _fmt(r.Ord_L2_h, "{:.4f}"),
                    _fmt(r.Ord_L2_N, "{:.4f}"),
                    _fmt(r.E_H1),
                    _fmt(r.Ord_H1_h, "{:.4f}"),
                    _fmt(r.Ord_H1_N, "{:.4f}"),
                ]
            )


# ---------------------------------------------------------------------------
# coefficient decay against the dual wavelets
# ---------------------------------------------------------------------------


class _DualQuad:
    """Quadrature data of one unit-level dual wavelet: nodes t, w * value."""

    __slots__ = ("t", "wv", "lo", "hi")

    def __init__(self, pp: PiecewisePolynomial):
        breaks = np.array([float(b) for b in pp.breakpoints])
        xs, ws = gauss_rule(DECAY_QUAD_NODES)
        lo, h = breaks[:-1], np.diff(breaks)
        self.t = (lo[:, None] + h[:, None] * xs[None, :]).ravel()
        w = (h[:, None] * ws[None, :]).ravel()
        self.wv = w * pp.evaluate_array(self.t)
        self.lo = breaks[0]
        self.hi = breaks[-1]


def _coeffs_vectorized(u, dq: _DualQuad, j: int, ks: np.ndarray, chunk: int = 1 << 16):
    """|<u, 2^j eta~_{j;k}>| for many k at once (no interface in support)."""
    out = np.empty(len(ks))
    amp = 2.0 ** (j / 2.0)
    scale = 2.0**-j
    for s in range(0, len(ks), chunk):
        kk = ks[s : s + chunk]
        x = scale * (dq.t[None, :] + kk[:, None])
        np.clip(x, 0.0, 1.0, out=x)
        out[s : s + chunk] = np.abs(amp * (np.asarray(u(x)) @ dq.wv))
    return out


def _coeff_split_at_gamma(u, pp: PiecewisePolynomial, j: int, k: int, gamma: float) -> float:
    """|<u, 2^j eta~_{j;k}>| with the straddling cell split at gamma."""
    mapped = pp.dyadic_transform(j, k)
    breaks = sorted({max(0.0, min(1.0, float(b))) for b in mapped.breakpoints} | {gamma})
    breaks = [b for b in breaks if float(mapped.breakpoints[0]) <= b <= float(mapped.breakpoints[-1])]
    xs, ws = gauss_rule(DECAY_QUAD_NODES)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        if b <= a:
            continue
        nodes = a + (b - a) * xs
        total += (b - a) * float(
            np.dot(ws, np.asarray(u(nodes)) * mapped.evaluate_array(nodes))
        )
    return abs(2.0**j * total)


def _level_families(sys: WaveletSystem, j: int, gamma: float):
    """Split level-j dual wavelet indices into away / touching families.

    Touching means gamma lies in the closed dual support (the indices
    the enrichment rule would pick up).  Returns (interior away-k per
    component, interior touching-k per component, boundary entries) where
    boundary entries are (pp, k, touching)."""
    ks = np.array(sys.interior_range("wavelet", j))
    interior = []
    for comp, pp in enumerate(sys.psi_dual):
        lo, hi = float(pp.support.lo), float(pp.support.hi)
        # gamma in 2^-j [lo + k, hi + k]  <=>  2^j gamma - hi <= k <= 2^j gamma - lo
        t = 2.0**j * gamma
        touch = (ks >= t - hi) & (ks <= t - lo)
        interior.append((pp, ks[~touch], ks[touch]))
    boundary = []
    for pp in sys.psi_left_dual:
        sup = pp.dyadic_transform(j, 0).support
        boundary.append((pp, 0, sup.contains(gamma)))
    for pp in sys.psi_right_dual:
        k = 2**j - 1
        sup = pp.dyadic_transform(j, k).support
        boundary.append((pp, k, sup.contains(gamma)))
    return interior, boundary


def _level_coefficients(u, sys: WaveletSystem, j: int, gamma: float):
    """Arrays (away, touching) of |<u, 2^j eta~_{j;k}>| over level j."""
    interior, boundary = _level_families(sys, j, gamma)
    away, touching = [], []
    for pp, ks_away, ks_touch in interior:
        if len(ks_away):
            away.append(_coeffs_vectorized(u, _DualQuad(pp), j, ks_away))
        for k in ks_touch:
            touching.append(_coeff_split_at_gamma(u, pp, j, int(k), gamma))
    for pp, k, is_touch in boundary:
        c = _coeff_split_at_gamma(u, pp, j, k, gamma)
        if is_touch:
            touching.append(c)
        else:
            away.append(np.array([c]))
    away_arr = np.concatenate([np.atleast_1d(a) for a in away]) if away else np.zeros(0)
    touch_arr = np.asarray(touching, dtype=float)
    return away_arr, touch_arr


def _fit_slope(levels, maxima):
    lv = [j for j, v in zip(levels, maxima) if v > 0]
    vals = [math.log2(v) for v in maxima if v > 0]
    if len(lv) < 2:
        return float("nan")
    return float(np.polyfit(lv, vals, 1)[0])


def coefficient_decay_probe(u, sys: WaveletSystem, gamma: float, j_range) -> tuple:
    """Decay of dual-wavelet coefficients of u, by family.

    Returns (away, touching) DecayProbes: per-level maxima of
    |<u, 2^j eta~_{j;k}>| over duals not containing / containing gamma,
    with least-squares slopes of log2(max) against j.
    """
    levels = list(j_range)
    if len(levels) < 4:
        raise ValueError("slope fit needs at least 4 levels")
    max_away, max_touch = [], []
    for j in levels:
        a, t = _level_coefficients(u, sys, j, gamma)
        max_away.append(float(a.max()) if a.size else 0.0)
        max_touch.append(float(t.max()) if t.size else 0.0)
    return (
        DecayProbe(tuple(levels), tuple(max_away), _fit_slope(levels, max_away)),
        DecayProbe(tuple(levels), tuple(max_touch), _fit_slope(levels, max_touch)),
    )


def tail_energy(u, sys: WaveletSystem, gamma: float, J: int, j_max: int | None = None) -> tuple:
    """Energy of the coefficients outside the enriched index set at level J.

    Returns (tail_smooth, tail_interface): the away-family sum runs over
    levels J+1..j_max (those wavelets are never enriched); the touching-
    family sum starts at (2m-2)J, the first level past the enrichment
    range.  Both should scale like 2^(-2(m-1)J).
    """
    m = sys.m
    top_enriched = (2 * m - 2) * J - 1
    if j_max is None:
        j_max = (2 * m - 2) * J + 6
    tail_smooth = 0.0
    tail_interface = 0.0
    for j in range(J + 1, j_max + 1):
        a, t = _level_coefficients(u, sys, j, gamma)
        tail_smooth += float(np.sum(a**2))
        if j > top_enriched:
            tail_interface += float(np.sum(t**2))
    return tail_smooth, tail_interface
