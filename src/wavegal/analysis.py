"""Evaluation and error measurement of discrete solutions, convergence
orders, and coefficient-decay diagnostics.

Errors are integrated with the Gauss rule of the Galerkin assembly, on
the mesh and synthesis matrix C that every solution carries from its
system: the graded mesh of all basis breakpoints plus gamma (see
`galerkin._graded_mesh`), so the quadrature resolves every enrichment
level and never straddles the derivative jump.  The discrete solution is
evaluated from its per-cell polynomials, the coefficients C c, by the
form it carries (`_CellForm.values`; `evaluate_solution` reads them at
any point).  The exact u and u' come as given at the mesh's Gauss
nodes, as `ExactSolution.values` evaluates and checks them: a sweep
whose levels share one mesh evaluates the pair once and hands it to
every level.

The decay diagnostics measure the coefficients <u, 2^j eta~_{j;k}> of a
known piecewise-smooth u against the dual wavelets, split into the family
away from the interface (fast decay, driven by vanishing moments) and the
family whose dual support touches it (slow decay, driven by the kink) —
the quantities behind the enrichment rule.  The translates of a dual
share a lattice of cells 2^-j/p wide, (1/p)Z the coarsest grid holding its
breakpoints: u is evaluated once per Gauss node of each cell, and every
coefficient is a shifted sum of per-block shares (one quadrature for all
translates, as in Sweldens and Piessens, SIAM J. Numer. Anal. 31, 1994).
One pass per dual, interior and boundary alike, gives a level; the cell
gamma splits is integrated either side of it, and the touching family is
the interface set, the k range `WaveletSystem.touching` decides exactly.
The pass streams a few thousand blocks at a time into the count, sum of
squares and maximum the diagnostics need, so its memory does not grow
with the level.

This module imports nothing from `galerkin` or `problems`: the solutions
it measures bring their form with them, the exact values come as
arrays, and the diagnostics need only numpy, so neither loads scipy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .piecewise import PiecewisePolynomial, gauss_rule
from .wavelets import WaveletSystem

if TYPE_CHECKING:  # an annotation only: importing the solver loads scipy
    from .galerkin import DiscreteSolution

__all__ = [
    "ErrorPair",
    "ConvergenceRecord",
    "DecayProbe",
    "error_norms",
    "evaluate_solution",
    "convergence_orders",
    "coefficient_decay_probe",
    "tail_energy",
    "write_records_csv",
    "CSV_HEADER",
]

CSV_HEADER = "J,N_J,kappa,E_L2,Ord_L2_h,Ord_L2_N,E_H1,Ord_H1_h,Ord_H1_N"

# Gauss nodes per lattice cell: 4, exact for a quintic u times the
# piecewise-linear duals.  The count is even on purpose.  The nodes are
# placed in absolute x, each rounded by up to ulp(x)/2, a share of the
# lattice cell that doubles with every level.  Symmetric pairs of nodes
# round antisymmetrically and their errors cancel to first order; an odd
# rule's midpoint has no partner, and the touching coefficients, a
# cancellation about 2^j deep, amplify what it leaves.  Against exact
# rational arithmetic on a quintic kinked at pi/6, 5 nodes were off by
# 3.6e-12, 8.0e-11 and 1.8e-9 at j = 12, 15 and 18, and 4 by <= 5.6e-14.
DECAY_QUAD_NODES = 4
# unit blocks per step of the lattice pass: memory stays flat in the level;
# of 2^10..2^14, 2^12 and 2^13 ran fastest (median 0.48 and 0.50 s), 2^11
# and 2^14 1.2x and 2^10 1.6x slower (ex1 tail_energy at J=8, seven runs
# each, 2-CPU x86 VM, numpy 2.4, one BLAS thread)
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


def error_norms(sol: DiscreteSolution, reference) -> ErrorPair:
    """L2 and H1-seminorm errors of sol against an exact solution.

    Gauss quadrature on every cell of the mesh sol's system was assembled
    on (`sol.form`), whose cells each hold one polynomial piece of every
    basis function and lie on one side of gamma; u_J is evaluated from its
    per-cell polynomials.  The reference is the pair (u, u') at the mesh's
    Gauss nodes, as `problem.exact.values(problem.gamma, sol.form.nodes())`
    gives it; ValueError is raised for arrays of another shape.
    """
    form = sol.form
    ur, dur = reference
    if np.shape(ur) != form.w.shape or np.shape(dur) != form.w.shape:
        raise ValueError("reference values must be given at the Gauss nodes of the solution's own mesh")
    uj, duj = form.values(sol.coefficients)
    w = form.w.ravel()
    e_l2 = math.sqrt(float(np.dot(w, ((uj - ur) ** 2).ravel())))
    e_h1 = math.sqrt(float(np.dot(w, ((duj - dur) ** 2).ravel())))
    return ErrorPair(e_l2, e_h1)


def evaluate_solution(sol: DiscreteSolution, grid) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise values and derivative values of u_J = sum c_i eta_i.

    Reads the per-cell coefficients C c on the graded mesh of `sol.form`,
    as error measurement does.
    A point on a mesh edge reads the cell to its left, except x = 0,
    which reads the first cell: u_J is continuous, so only the derivative
    depends on this, and there it is the left limit (the right limit at 0).
    """
    x = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot evaluate at non-finite points")
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("evaluation grid must lie in [0, 1]")
    edges = sol.form.edges
    U = sol.form.per_cell(sol.coefficients)
    cell = np.clip(np.searchsorted(edges, x) - 1, 0, len(edges) - 2)
    h = edges[cell + 1] - edges[cell]
    t = (x - edges[cell]) / h
    c = U[cell]
    val, der = c[..., -1], np.zeros_like(t)
    for n in range(U.shape[1] - 2, -1, -1):
        der = der * t + val
        val = val * t + c[..., n]
    return val, der / h


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


class _Lattice(NamedTuple):
    """A unit dual's lattice, independent of the level: its breakpoints are multiples of 1/p,
    it spans nb unit blocks from lo, and row i of `weights` holds w_q/p * eta~ at the
    DECAY_QUAD_NODES Gauss nodes of the p cells of its block i, laid out (q, c).  The dual
    is member `component` of the `side` family."""

    side: str
    pp: PiecewisePolynomial
    p: int
    lo: int
    nb: int
    weights: np.ndarray
    component: int = 0


def _lattice(pp: PiecewisePolynomial, side: str, component: int = 0) -> _Lattice:
    p = max(b.denominator for b in pp.breakpoints)  # dyadic, so the largest is their lcm
    lo, hi = math.floor(pp.breakpoints[0]), math.ceil(pp.breakpoints[-1])
    xs, ws = gauss_rule(DECAY_QUAD_NODES)
    # node (q, c) of unit block i of the dual, cell edge + xs/p rounded once
    t = lo + np.arange(hi - lo) + np.arange(p)[:, None] / p + xs[:, None, None] / p
    weights = (ws[:, None, None] / p * pp.evaluate_array(t)).reshape(-1, hi - lo).T
    return _Lattice(side, pp, p, lo, hi - lo, weights, component)


def _dual_lattices(sys: WaveletSystem) -> list:
    """The lattice of every dual wavelet, built once per diagnostic call."""
    return [_lattice(sys.family("wavelet", side, dual=True)[comp], side, comp)
            for side, comp, _ in sys.translates("wavelet", sys.J0)]


def _lattice_coefficients(u, lat: _Lattice, j: int, ks: range, gamma: float):
    """<u, 2^j eta~_{j;k}> for k in ks, yielded in order, chunk by chunk.

    The duals of level j share one lattice of cells 2^-j/p wide.  u is
    evaluated once at the DECAY_QUAD_NODES Gauss nodes of every lattice
    cell; one (nb x Q*p) @ (Q*p x blocks) product gives each block's share
    in the nb duals it meets, and nb shifted adds give the coefficients.
    The block that holds gamma has its share patched in place: its cell
    around gamma is integrated as two cells either side of gamma (one of
    them empty when gamma is a cell edge), so no rule straddles the kink.
    No array grows with the level.
    """
    p, lo, nb, weights = lat.p, lat.lo, lat.nb, lat.weights
    xs, ws = gauss_rule(DECAY_QUAD_NODES)
    h, amp = 2.0**-j / p, 2.0 ** (j / 2.0)
    # nodes laid out (q, c, block): each sum is exact but the last, so they
    # round once, as cell edge + h * xs does
    cell_h, xs_h = (np.arange(p) * h)[:, None], (xs * h)[:, None, None]
    gblock, gcell = divmod(math.floor(math.ldexp(gamma, j) * p), p)
    # dual k meets blocks k + lo .. k + lo + nb - 1, so a chunk's last nb - 1 blocks
    # carry their shares to the next; gamma's block alone straddles gamma
    first, stop = ks.start + lo, ks.stop + lo + nb - 1
    seams = {b for b in (gblock, gblock + 1) if first < b < stop}
    starts = sorted(seams.union(range(first, stop, _LATTICE_CHUNK)))
    carry = np.zeros((nb, 0))
    for b0, b1 in zip(starts, starts[1:] + [stop]):
        ux = np.asarray(u((np.arange(b0, b1) * (p * h) + cell_h + xs_h).ravel())).reshape(len(xs) * p, -1)
        share = weights @ ux
        if b0 == gblock:  # patch gamma's block, its cell integrated either side of gamma
            e = (gblock * p + gcell) * h  # the cell's left edge, exact
            w = np.array([gamma - e, e + h - gamma])
            xg = (np.array([e, gamma])[:, None] + w[:, None] * xs).ravel()
            # the dual meeting this block as its block i sees x at lo + i + 2^j x - gblock
            eta = lat.pp.evaluate_array(lo + np.arange(nb)[:, None] + (np.ldexp(xg, j) - gblock))
            keep = np.arange(len(ux)) % p != gcell  # the other cells' nodes
            wg = eta * np.ldexp(np.outer(w, ws), j).ravel()
            share[:, 0] = weights[:, keep] @ ux[keep, 0] + wg @ np.asarray(u(xg))
        share = np.concatenate([carry, share], axis=1)
        n = max(share.shape[1] - nb + 1, 0)
        c = share[0, :n].copy()
        for i in range(1, nb):
            c += share[i, i : i + n]
        yield amp * c
        # a copy: a view keeps the whole share alive into the next chunk, and in some
        # processes malloc then trimmed and re-faulted the heap every chunk (1.5x slower)
        carry = share[:, n:].copy()


def _level_families(sys: WaveletSystem, j: int, gamma: float, lattices: list) -> list:
    """(lattice, ks, touching) per lattice's dual wavelet at level j: its
    translates (`sys.translates`) and the sub-range of them whose closed
    support holds gamma (`sys.touching`), the interface set.  The rest
    are the away family."""
    by_member = {(side, comp): (ks, touch) for (side, comp, ks), (*_, touch)
                 in zip(sys.translates("wavelet", j), sys.touching(j, gamma))}
    return [(lat, *by_member[lat.side, lat.component]) for lat in lattices]


@dataclass(frozen=True)
class _Level:
    """|<u, 2^j eta~_{j;k}>| over level j: the away family reduced to its
    count, sum of squares and maximum, the touching family in full."""

    n_away: int
    away_sumsq: float
    away_max: float
    touching: np.ndarray


def _level_coefficients(u, sys: WaveletSystem, j: int, gamma: float, lattices: list) -> _Level:
    """Level j's coefficients by family, from one lattice pass per dual wavelet."""
    n, sumsq, peak, touching = 0, 0.0, 0.0, [np.zeros(0)]
    for lat, ks, touch in _level_families(sys, j, gamma, lattices):
        k = ks.start
        for c in _lattice_coefficients(u, lat, j, ks, gamma):
            t0, t1 = min(max(touch.start - k, 0), len(c)), min(max(touch.stop - k, 0), len(c))
            k += len(c)
            if t1 > t0:  # the touching duals, taken out of the stream
                touching.append(np.abs(c[t0:t1]))
                c = np.concatenate((c[:t0], c[t1:]))
            n, sumsq, peak = n + c.size, sumsq + float(c @ c), max(peak, float(np.abs(c).max(initial=0.0)))
    return _Level(n, sumsq, peak, np.concatenate(touching))


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
    lattices = _dual_lattices(sys)
    stats = [_level_coefficients(u, sys, j, gamma, lattices) for j in levels]
    max_away = [s.away_max for s in stats]
    max_touch = [float(s.touching.max(initial=0.0)) for s in stats]
    return (
        DecayProbe(tuple(levels), tuple(max_away), _fit_slope(levels, max_away)),
        DecayProbe(tuple(levels), tuple(max_touch), _fit_slope(levels, max_touch)),
    )


def tail_energy(u, sys: WaveletSystem, gamma: float, J: int) -> tuple:
    """Energy of the coefficients outside the enriched index set at level J.

    Returns (tail_smooth, tail_interface): the away-family sum runs over
    levels J+1..(2m-2)J+6 (those wavelets are never enriched); the
    touching-family sum starts at (2m-2)J, the first level past the
    enrichment range.  Both should scale like 2^(-2(m-1)J).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"interface point {gamma} must lie in (0, 1)")
    if J < sys.J0:
        raise ValueError(f"level J={J} below coarsest admissible level J0={sys.J0}")
    top_enriched = sys.enrichment_depth(J)
    tail_smooth, tail_interface, lattices = 0.0, 0.0, _dual_lattices(sys)
    for j in range(J + 1, top_enriched + 8):
        level = _level_coefficients(u, sys, j, gamma, lattices)
        tail_smooth += level.away_sumsq
        if j > top_enriched:
            tail_interface += float(np.sum(level.touching**2))
    return tail_smooth, tail_interface
