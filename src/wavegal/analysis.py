"""Error measurement, convergence orders, and coefficient-decay diagnostics.

Errors are integrated with the Gauss rule of the Galerkin assembly on
the graded mesh of all basis breakpoints plus gamma (see
`galerkin._graded_mesh`), so the quadrature resolves every enrichment
level and never straddles the derivative jump.  A solution from
`galerkin.solve` carries the mesh and synthesis matrix C its system was
assembled on, and they are reused whenever they were split at the gamma
asked for.  The discrete solution is evaluated from its per-cell
polynomials, the coefficients C c (`galerkin._cell_values`), and the
exact one from a problem's `ExactSolution.values`, u and u' together.

The decay diagnostics measure the coefficients <u, 2^j eta~_{j;k}> of a
known piecewise-smooth u against the dual wavelets, split into the family
away from the interface (fast decay, driven by vanishing moments) and the
family whose dual support touches it (slow decay, driven by the kink) —
the quantities behind the enrichment rule.  The away family is nearly all
of a level, and its duals are translates on one lattice of cells 2^-j/p
wide, (1/p)Z being the coarsest grid that holds the dual's breakpoints.  u is
evaluated once per Gauss node of each lattice cell and every coefficient
is a shifted sum of per-block shares (one shared quadrature for all
translates, as in Sweldens and Piessens, SIAM J. Numer. Anal. 31, 1994).
The pass streams a few thousand blocks at a time into the count, sum of
squares and maximum the diagnostics need, so its memory does not grow
with the level.  The touching duals, a few per level, and the boundary
duals are integrated one at a time with the cell split at gamma.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .galerkin import (
    DiscreteSolution,
    ExactSolution,
    _cell_form,
    _cell_values,
    evaluate_solution,  # noqa: F401  (looked up here by perfbench's traced run)
)
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
# unit blocks per step of the lattice pass: memory stays flat in the level;
# of 2^10..2^14, 2^11 and 2^12 ran fastest and 2^13 up 1.7-1.9x slower
# (ex1 tail_energy at J=8, 2-CPU x86 VM, numpy 2.4)
_LATTICE_CHUNK = 1 << 12


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
    exact = getattr(reference, "exact", None)
    if isinstance(exact, ExactSolution):  # a problem: u and u' in one pass
        return exact.values(reference.gamma, x)
    if hasattr(reference, "u") and hasattr(reference, "du"):
        return np.asarray(reference.u(x)), np.asarray(reference.du(x))
    if isinstance(reference, tuple) and len(reference) == 2:
        return np.asarray(reference[0](x)), np.asarray(reference[1](x))
    raise TypeError(f"unsupported reference type {type(reference).__name__}")


def error_norms(sol: DiscreteSolution, reference, gamma: float | None = None) -> ErrorPair:
    """L2 and H1-seminorm errors of sol against an exact solution.

    The reference is a problem (or any object with u and du methods) or a
    pair of callables (u, u').  Gauss quadrature on every cell of the union
    of sol's breakpoints plus gamma (default: the basis's), so each cell
    holds one polynomial piece of every basis function and one side of
    gamma; u_J is evaluated from its per-cell polynomials.  The mesh is
    sol's own when it was split at this gamma, and is built otherwise.
    """
    gamma = sol.basis.gamma if gamma is None else gamma
    form = sol.form
    if form is None or form.gamma != gamma:
        form = _cell_form(sol.basis, gamma)
    ur, dur = _reference_values(reference, form.x)
    uj, duj = _cell_values(form.C, form.edges, sol.coefficients)
    w = form.w.ravel()
    e_l2 = math.sqrt(float(np.dot(w, ((uj - ur) ** 2).ravel())))
    e_h1 = math.sqrt(float(np.dot(w, ((duj - dur) ** 2).ravel())))
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


def _lattice_coefficients(u, pp: PiecewisePolynomial, j: int, ks: range):
    """<u, 2^j eta~_{j;k}> for k in ks, yielded in order, chunk by chunk.

    Every breakpoint of the unit dual is a multiple of 1/p, so the duals of
    level j share one lattice of cells 2^-j/p wide.  u is evaluated once at
    the DECAY_QUAD_NODES Gauss nodes of every lattice cell.  The dual spans
    nb unit blocks of p cells, so one (nb x Q*p) @ (Q*p x blocks) product
    gives each block's share in the nb duals it meets, and nb shifted adds
    give the coefficients.  Cells are not split at gamma, so no dual in ks
    may straddle it; where the dual's breakpoints fill the lattice, as the
    built-in dual's do, the nodes are those `_coeff_split_at_gamma` forms.
    No array grows with the level.
    """
    if not ks:
        return
    bps = pp.breakpoints
    p = max(b.denominator for b in bps)  # dyadic, so the largest is their lcm
    lo = math.floor(bps[0])
    nb = math.ceil(bps[-1]) - lo
    xs, ws = gauss_rule(DECAY_QUAD_NODES)
    # node (q, c) of unit block i of the dual, cell edge + xs/p rounded
    # once, and its weight w_q/p * eta~
    t = lo + np.arange(nb) + np.arange(p)[:, None] / p + xs[:, None, None] / p
    weights = (ws[:, None, None] / p * pp.evaluate_array(t)).reshape(-1, nb).T
    nq = weights.shape[1]
    h = 2.0**-j / p
    amp = 2.0 ** (j / 2.0)
    # nodes laid out (q, c, block): each sum is exact but the last, so they
    # round once, as cell edge + h * xs does
    cell_h = (np.arange(p) * h)[:, None]
    xs_h = (xs * h)[:, None, None]
    # dual k meets blocks k + lo .. k + lo + nb - 1; the last nb - 1 blocks
    # of a chunk carry their shares over to the next
    first, stop = ks.start + lo, ks.stop + lo + nb - 1
    carry = np.zeros((nb, 0))
    for b0 in range(first, stop, _LATTICE_CHUNK):
        x = np.arange(b0, min(b0 + _LATTICE_CHUNK, stop)) * (p * h) + cell_h + xs_h
        ux = np.asarray(u(x.ravel())).reshape(nq, -1)
        share = np.concatenate([carry, weights @ ux], axis=1)
        n = share.shape[1] - nb + 1
        c = share[0, :n].copy()
        for i in range(1, nb):
            c += share[i, i : i + n]
        yield amp * c
        carry = share[:, n:]


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
    the enrichment rule would pick up).  Returns (interior, boundary):
    per interior component (pp, away, touching), where `touching` is the
    contiguous range of such k and `away` the two ranges either side of
    it; and boundary entries (pp, k, touching)."""
    ks = sys.interior_range("wavelet", j)
    t = 2.0**j * gamma
    interior = []
    for pp in sys.psi_dual:
        lo, hi = float(pp.support.lo), float(pp.support.hi)
        # gamma in 2^-j [lo + k, hi + k]  <=>  2^j gamma - hi <= k <= 2^j gamma - lo
        t0 = min(max(math.ceil(t - hi), ks.start), ks.stop)
        t1 = min(max(math.floor(t - lo) + 1, t0), ks.stop)
        interior.append((pp, (range(ks.start, t0), range(t1, ks.stop)), range(t0, t1)))
    boundary = [(pp, k, (pp.support.lo + k) / 2**j <= gamma <= (pp.support.hi + k) / 2**j)
                for pps, k in ((sys.psi_left_dual, 0), (sys.psi_right_dual, 2**j - 1)) for pp in pps]
    return interior, boundary


@dataclass(frozen=True)
class _Level:
    """|<u, 2^j eta~_{j;k}>| over level j: the away family reduced to its
    count, sum of squares and maximum, the touching family in full."""

    n_away: int
    away_sumsq: float
    away_max: float
    touching: np.ndarray


def _level_coefficients(u, sys: WaveletSystem, j: int, gamma: float) -> _Level:
    """Level j's coefficients by family: the interior away duals stream
    through the lattice pass, the touching and boundary duals take the
    per-dual quadrature split at gamma."""
    interior, boundary = _level_families(sys, j, gamma)
    n, sumsq, peak = 0, 0.0, 0.0
    for pp, ranges, _ in interior:
        for ks in ranges:
            for c in _lattice_coefficients(u, pp, j, ks):
                n += len(c)
                sumsq += float(c @ c)
                peak = max(peak, float(np.abs(c).max()))
    touching = [_coeff_split_at_gamma(u, pp, j, k, gamma) for pp, _, ks in interior for k in ks]
    for pp, k, is_touch in boundary:
        c = _coeff_split_at_gamma(u, pp, j, k, gamma)
        if is_touch:
            touching.append(c)
        else:
            n, sumsq, peak = n + 1, sumsq + c * c, max(peak, c)
    return _Level(n, sumsq, peak, np.array(touching))


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
        level = _level_coefficients(u, sys, j, gamma)
        max_away.append(level.away_max)
        max_touch.append(float(level.touching.max()) if level.touching.size else 0.0)
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
        level = _level_coefficients(u, sys, j, gamma)
        tail_smooth += level.away_sumsq
        if j > top_enriched:
            tail_interface += float(np.sum(level.touching**2))
    return tail_smooth, tail_interface
