"""Biorthogonal wavelet systems on [0, 1].

A system consists of interior scaling functions and wavelets (primal and
dual) together with boundary-adapted families on the left and right ends
of the unit interval, plus the index offsets that say which interior
translates fit inside [0, 1] at each dyadic level.  Everything is a
spline, carried by PiecewisePolynomial.  The system owns two decisions
that the basis, the verification battery and the decay diagnostics all
take from it: the translates of every family at a level
(`WaveletSystem.translates`), and which dual wavelets' closed supports
hold an interface point (`WaveletSystem.touching`, in exact arithmetic).

The module ships one built-in system of approximation order 2 whose dual
functions are constructed at first use by solving small exact linear
systems (minimum-norm splines satisfying the biorthogonality
constraints), and a text format for supplying external systems, which
are accepted purely on passing the same verification battery.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .piecewise import PiecewisePolynomial, _integrate, _poly_eval, inner_product

__all__ = [
    "WaveletSystem",
    "VerificationReport",
    "SystemFormatError",
    "SystemVerificationError",
    "builtin_order2_system",
    "load_system",
    "save_system",
    "full_verification",
]

VERIFICATION_TOL = 1e-10
# the deepest coarsest level a system may have: the battery's cross-Gram of
# level J0 is exact and quadratic in 2^J0 (2.4 s at J0 = 8, 18 s at J0 = 10)
MAX_J0 = 10

# the primal families, in the order of their rows in `WaveletSystem.float_tables`
FAMILIES = tuple((kind, side) for kind in ("scaling", "wavelet") for side in ("left", "interior", "right"))


class SystemFormatError(ValueError):
    """Raised when a system definition file cannot be parsed."""


class SystemVerificationError(ValueError):
    """Raised when a wavelet system fails the verification battery; names
    every failing check and keeps the whole report."""

    def __init__(self, report: "VerificationReport"):
        failed = ", ".join(f"{name} (residual {res:.3e})" for name, res in report.checks.items()
                           if not _passes(res))
        super().__init__(f"system verification failed: {failed}")
        self.report = report


def _passes(res: float) -> bool:
    """A check passes when its residual is at most VERIFICATION_TOL, so a NaN fails."""
    return res <= VERIFICATION_TOL


@dataclass(frozen=True)
class VerificationReport:
    """Named residuals from the system verification battery; a check
    passes when its residual is at most VERIFICATION_TOL."""

    checks: dict  # name -> residual

    @property
    def all_passed(self) -> bool:
        return all(map(_passes, self.checks.values()))

    def __str__(self) -> str:
        return "\n".join(f"{'PASS' if _passes(res) else 'FAIL'}  {name}: {res:.3e}"
                         for name, res in self.checks.items())


@dataclass(frozen=True)
class WaveletSystem:
    """A biorthogonal wavelet system adapted to [0, 1]."""

    m: int
    r: int
    J0: int
    n_l_phi: int
    n_h_phi: int
    n_l_psi: int
    n_h_psi: int
    phi: tuple
    psi: tuple
    phi_dual: tuple
    psi_dual: tuple
    phi_left: tuple
    psi_left: tuple
    phi_right: tuple
    psi_right: tuple
    phi_left_dual: tuple
    psi_left_dual: tuple
    phi_right_dual: tuple
    psi_right_dual: tuple

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("approximation order m must be >= 2")
        if self.r < 1:
            raise ValueError("multiplicity r must be >= 1")
        if not 0 <= self.J0 <= MAX_J0:
            raise ValueError(f"coarsest level J0={self.J0} must lie in 0..{MAX_J0}")
        for name in ("phi", "psi", "phi_dual", "psi_dual"):
            if len(getattr(self, name)) != self.r:
                raise ValueError(f"{name} must have {self.r} components")
        # duals with m vanishing moments need primals that reproduce degree m-1
        deg = max(f.degree for f in self.phi)
        if self.m - 1 > deg:
            raise ValueError(f"approximation order m={self.m} needs interior scaling functions "
                             f"of degree m-1={self.m - 1}, not {deg}")
        for side in ("left", "right"):
            for kind in ("phi", "psi"):
                p = getattr(self, f"{kind}_{side}")
                d = getattr(self, f"{kind}_{side}_dual")
                if len(p) != len(d):
                    raise ValueError(f"{kind}_{side} primal/dual counts differ")
        # V_{j+1} = V_j + W_j: the level-j scaling and wavelet layouts together
        # hold as many members as the level-(j+1) scaling layout
        for j in (self.J0, self.J0 + 1):
            coarse, fine = (sum(len(ks) for kind in kinds for *_, ks in self.translates(kind, level))
                            for kinds, level in ((("scaling", "wavelet"), j), (("scaling",), j + 1)))
            if coarse != fine:
                raise ValueError(f"level {j} has {coarse} scaling and wavelet functions but level {j + 1} has "
                                 f"{fine} scaling functions (V_{j + 1} = V_{j} + W_{j} needs as many)")

    # family access by (kind, side) keys used throughout the basis builder
    def family(self, kind: str, side: str, dual: bool = False) -> tuple:
        name = {"scaling": "phi", "wavelet": "psi"}[kind]
        if side != "interior":
            name = f"{name}_{side}"
        if dual:
            name = f"{name}_dual"
        return getattr(self, name)

    def interior_range(self, kind: str, j: int) -> range:
        """Translates k of interior functions living inside [0,1] at level j."""
        if kind == "scaling":
            return range(self.n_l_phi, 2**j - self.n_h_phi + 1)
        return range(self.n_l_psi, 2**j - self.n_h_psi + 1)

    def translates(self, kind: str, j: int) -> tuple:
        """The level-j layout of the scaling or wavelet families: (side,
        component, ks) per member, left, interior and right in turn.  Every
        left member sits at k = 0, every interior one at `interior_range`
        and every right one at k = 2^j - 1."""
        if j < self.J0:
            raise ValueError(f"level {j} below coarsest admissible level J0={self.J0}")
        ks = {"left": range(1), "interior": self.interior_range(kind, j), "right": range(2**j - 1, 2**j)}
        return tuple((side, comp, ks[side]) for side in ks for comp in range(len(self.family(kind, side))))

    def touching(self, j: int, gamma: float) -> tuple:
        """The level-j dual wavelets whose closed support holds gamma:
        `translates("wavelet", j)` with each member's ks cut to the
        contiguous range of k with lo + k <= 2^j gamma <= hi + k, [lo, hi]
        its unit dual support.  Decided in exact rational arithmetic: a
        float gamma is a dyadic rational, so a gamma on a shared endpoint
        lies in both neighbours' supports and one an ulp off in one."""
        if not 0.0 < gamma < 1.0:
            raise ValueError(f"interface point {gamma} must lie in (0, 1)")
        t, out = Fraction(gamma) * 2**j, []
        for side, comp, ks in self.translates("wavelet", j):
            sup = self.family("wavelet", side, dual=True)[comp].support
            k0 = min(max(math.ceil(t - sup.hi), ks.start), ks.stop)
            out.append((side, comp, range(k0, min(max(math.floor(t - sup.lo) + 1, k0), ks.stop))))
        return tuple(out)

    @cached_property
    def float_tables(self) -> tuple:
        """(first, breaks, coeffs): the primal functions' float tables, stacked
        once per system.  Member c of family FAMILIES[f] is row first[f] + c;
        breaks are padded with +inf, and the local monomial coefficients of
        `PiecewisePolynomial._float_cache` (rows x pieces x degree+1) with 0."""
        caches = [pp._float_cache() for f in FAMILIES for pp in self.family(*f)]
        nb, w = max(len(b) for b, _ in caches), max(c.shape[1] for _, c in caches)
        breaks = np.array([np.pad(b, (0, nb - len(b)), constant_values=np.inf) for b, _ in caches])
        coeffs = np.array([np.pad(c, ((0, nb - 1 - len(c)), (0, w - c.shape[1]))) for _, c in caches])
        return np.cumsum([0] + [len(self.family(*f)) for f in FAMILIES])[:-1], breaks, coeffs

    @cached_property
    def verification(self) -> "VerificationReport":
        """The verification battery's report, run once per system."""
        return full_verification(self)

    def enrichment_depth(self, J: int) -> int:
        """The deepest level, (2m-2)J-1, whose interface set a level-J
        enriched basis holds."""
        return (2 * self.m - 2) * J - 1


# ---------------------------------------------------------------------------
# exact minimum-norm construction of spline duals
# ---------------------------------------------------------------------------


def _gauss_solve(M, b):
    """A solution x of the square system M x = b by exact Gauss-Jordan
    elimination.  A column with no pivot left gets x = 0; a row left without
    a pivot is a dependent constraint, and must have a zero right-hand side."""
    n = len(M)
    A = [row[:] + [b[i]] for i, row in enumerate(M)]
    pivots = []  # the pivot column of each row in turn
    for col in range(n):
        r = len(pivots)
        piv = next((rr for rr in range(r, n) if A[rr][col] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][col]
        A[r] = [v / pv for v in A[r]]
        for rr in range(n):
            if rr != r and A[rr][col] != 0:
                f = A[rr][col]
                A[rr] = [v - f * w for v, w in zip(A[rr], A[r])]
        pivots.append(col)
    left = [abs(A[rr][n]) for rr in range(len(pivots), n)]
    if any(left):
        raise ValueError(f"inconsistent dependent constraints (residual {float(max(left)):.3e})")
    x = [0] * n
    for r, col in enumerate(pivots):
        x[col] = A[r][n]
    return x


def _cell_moments(t, grid, deg) -> list:
    """<t, (x - a)^d on [a, b]> over the cells [a, b] of `grid` and d <= deg,
    in closed form for a t that is one polynomial on each cell:
    sum_n c_n h^(n+d+1)/(n+d+1), c its local piece about a and h = b - a."""
    if any(grid[0] < b < grid[-1] and b not in grid for b in t.breakpoints):
        raise ValueError("a constraint target breaks inside a cell of the grid")
    return [_integrate(t._local_coeffs(a), b - a, d) for a, b in zip(grid, grid[1:]) for d in range(deg + 1)]


def _build_dual(grid, deg, constraints):
    """Minimum-norm spline on `grid` meeting exact inner-product constraints.

    `constraints` is a list of (target PiecewisePolynomial, value); the
    returned spline g satisfies <target, g> = value for every pair, with the
    smallest norm of its coefficients of (x - a)^d, d <= deg, on each cell
    [a, b] (normal equations on the rows `_cell_moments`, solved in exact
    rational arithmetic).
    """
    rows = [_cell_moments(t, grid, deg) for t, _ in constraints]
    gram = [[sum(map(operator.mul, r, s)) for s in rows] for r in rows]
    lam = _gauss_solve(gram, [v for _, v in constraints])
    x = [sum(map(operator.mul, lam, col)) for col in zip(*rows)]
    return PiecewisePolynomial(grid, [tuple(x[i:i + deg + 1]) for i in range(0, len(x), deg + 1)])


def _meeting(span, members) -> dict:
    """{(family, component, k): f(. - k)} over the members (family,
    components, least k, greatest k): the translates whose support
    interiors meet the open interval span."""
    lo, hi = span

    def ks(f, first, last):  # lo < hi_f + k and lo_f + k < hi
        return range(max(first, math.floor(lo - f.support.hi) + 1), min(last + 1, math.ceil(hi - f.support.lo)))

    return {(name, c, k): f.translate(k) for name, fs, first, last in members
            for c, f in enumerate(fs) for k in ks(f, first, last)}


def _spline_system(m, phi, psi, phi_left, psi_left, grids, deg) -> WaveletSystem:
    """The accepted system of the primal families phi and psi (interior) and
    phi_left and psi_left (left, at k = 0), each a tuple of components; the
    right families are the left ones mirrored about 1.

    Every dual is `_build_dual` of degree `deg` on the half-integer grid of
    grids["phi"], grids["psi"] or, for both left families, grids["left"].
    Its constraints are the primals of its level whose support interiors
    meet that grid (`_meeting`): every interior translate on the line for
    an interior dual, and for a left dual the left members at k = 0 plus
    the interior translates from their n_l on.  The target is 1 at the
    dual's own primal, by family, component and k = 0, and 0 at the others.
    n_l and n_h are the least offsets at which a translate and its dual
    both lie in [0, 2^j], and J0 the least level at which the left
    supports [0, hi] and their mirrors are disjoint: 2 max hi <= 2^J0.
    """
    def duals(name, fs, members):
        lo, hi = map(Fraction, grids["left" if name.endswith("_left") else name])
        grid = [lo + Fraction(i, 2) for i in range(int(2 * (hi - lo)) + 1)]
        cons = _meeting((lo, hi), members)
        return tuple(_build_dual(grid, deg, [(t, Fraction(key == (name, c, 0))) for key, t in cons.items()])
                     for c in range(len(fs)))

    def offsets(fs):
        return math.ceil(max(-f.support.lo for f in fs)), math.ceil(max(f.support.hi for f in fs))

    def mirror(fs):
        return tuple(f.reflect(1) for f in fs)

    line = [("phi", phi, -math.inf, math.inf), ("psi", psi, -math.inf, math.inf)]
    phi_dual, psi_dual = duals("phi", phi, line), duals("psi", psi, line)
    (n_l_phi, n_h_phi), (n_l_psi, n_h_psi) = offsets(phi + phi_dual), offsets(psi + psi_dual)
    level = [("phi_left", phi_left, 0, 0), ("psi_left", psi_left, 0, 0),
             ("phi", phi, n_l_phi, math.inf), ("psi", psi, n_l_psi, math.inf)]
    phi_left_dual, psi_left_dual = duals("phi_left", phi_left, level), duals("psi_left", psi_left, level)
    hi = max(f.support.hi for f in phi_left + psi_left + phi_left_dual + psi_left_dual)
    return _accept(WaveletSystem(
        m=m, r=len(phi), J0=(math.ceil(2 * hi) - 1).bit_length(),
        n_l_phi=n_l_phi, n_h_phi=n_h_phi, n_l_psi=n_l_psi, n_h_psi=n_h_psi,
        phi=phi, psi=psi, phi_dual=phi_dual, psi_dual=psi_dual,
        phi_left=phi_left, psi_left=psi_left, phi_right=mirror(phi_left), psi_right=mirror(psi_left),
        phi_left_dual=phi_left_dual, psi_left_dual=psi_left_dual,
        phi_right_dual=mirror(phi_left_dual), psi_right_dual=mirror(psi_left_dual),
    ))


@lru_cache(maxsize=1)
def builtin_order2_system() -> WaveletSystem:
    """The built-in order-2 spline system (hat primal, hierarchical wavelet).

    Primal scaling function: the hat on [-1, 1], at the left end the hat on
    [0, 2].  Primal wavelet: the half-scale hat on [0, 1] (so each wavelet
    level exactly fills the gap between consecutive scaling levels), at the
    left end too.  The duals are `_spline_system`'s piecewise-linear splines;
    vanishing moments follow from orthogonality to the hat translates, which
    reproduce linears.
    """
    one, zero = Fraction(1), Fraction(0)
    phi = PiecewisePolynomial([-1, 0, 1], [(zero, one), (one, -one)])
    psi = PiecewisePolynomial([0, Fraction(1, 2), 1], [(zero, 2 * one), (one, -2 * one)])
    grids = {"phi": (-2, 2), "psi": (-1, 2), "left": (0, 2)}
    return _spline_system(2, (phi,), (psi,), (phi.translate(1),), (psi,), grids, deg=1)


def _accept(sys: WaveletSystem) -> WaveletSystem:
    """The system itself if it passes the verification battery."""
    if not sys.verification.all_passed:
        raise SystemVerificationError(sys.verification)
    return sys


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def _worst(misfits) -> float:
    """The largest |misfit| as a float, or NaN at the first NaN misfit, which
    max() would pass over.  Every check's residual is read this way."""
    worst = 0.0
    for v in misfits:
        v = abs(float(v))
        if math.isnan(v):
            return v
        worst = v if v > worst else worst
    return worst


def _jumps(f: PiecewisePolynomial) -> list:
    """f(b+) - f(b-) at each breakpoint b of f extended by zero, exactly."""
    bps = f.breakpoints
    below = [0] + [_poly_eval(p, b - a) for a, b, p in zip(bps, bps[1:], f.pieces)]
    return [above - v for above, v in zip([p[0] for p in f.pieces] + [0], below)]


def _interior_misfits(sys: WaveletSystem):
    """Shift-biorthogonality on the line: <p, q(. - k)> - delta for each
    interior primal p, over the dual translates whose support interiors meet
    p's (`_meeting`) and p's own dual at k = 0."""
    line = [("phi", sys.phi_dual, -math.inf, math.inf), ("psi", sys.psi_dual, -math.inf, math.inf)]
    for name, prims in (("phi", sys.phi), ("psi", sys.psi)):
        for c, p in enumerate(prims):
            duals = _meeting((p.support.lo, p.support.hi), line)
            duals.setdefault((name, c, 0), getattr(sys, f"{name}_dual")[c])
            yield from (inner_product(p, q) - (key == (name, c, 0)) for key, q in duals.items())


def _moment_misfits(sys: WaveletSystem, sides: tuple):
    """Vanishing moments of the dual wavelets of `sides`: 0..m-1 about 0 for
    an interior dual, and 1..m-1 about its endpoint (0 on the left, 1 on the
    right) for a boundary dual, whose moment 0 need not vanish."""
    return (f.moment(d, int(side == "right")) for side in sides
            for f in sys.family("wavelet", side, dual=True) for d in range(side != "interior", sys.m))


def _disjointness_misfits(level_sets: list):
    """How far each level-J0 function, (side, f) in `level_sets`, reaches
    outside [0, 1], and how far the left boundary supports reach past the
    right ones."""
    for _, f in level_sets:
        yield from (min(f.support.lo, 0), max(f.support.hi - 1, 0))
    reach = max(f.support.hi for side, f in level_sets if side == "left")
    yield max(reach - min(f.support.lo for side, f in level_sets if side == "right"), 0)


def _ladder_misfits(sys: WaveletSystem):
    """The dual antiderivative ladders, m steps each: interior and right
    duals integrate from the left, left duals take minus the integral from
    the right.  Over every step: 1 for an interior step that is not
    compactly supported, and a boundary step's value at its endpoint (0 on
    the left, 1 on the right) from the second step on; the first boundary
    step may be nonzero there."""

    def ladder(f, to_right):
        """The m steps from f, each with the compactness its antiderivative reports."""
        steps = []
        for _ in range(sys.m):
            f, compact = f.antiderivative_to_right() if to_right else f.antiderivative_from_left()
            steps.append((f, compact))
        return steps

    for f in sys.psi_dual:
        yield from (not compact for _, compact in ladder(f, False))
    for f in sys.psi_left_dual:
        yield from (_jumps(step)[0] for step, _ in ladder(f, True)[1:])
    for f in sys.psi_right_dual:
        yield from (_jumps(step)[-1] for step, _ in ladder(f, False)[1:])


def full_verification(sys: WaveletSystem) -> VerificationReport:
    """Run the complete battery required for accepting a system.  Each check
    is a stream of exact misfits, and its residual their `_worst`."""
    # the level-J0 functions f(2^J0 . - k), times 2^J0 for a primal and 1 for a
    # dual: a primal/dual inner product is then that of the L2-normalized
    # translates, and exact at every J0, where `dyadic_transform`'s 2^(J0/2)
    # is a float at odd J0
    def level_set(dual):
        amp = 1 if dual else Fraction(2) ** sys.J0
        return [(side, sys.family(kind, side, dual)[comp].dilate(sys.J0, k).scale(amp))
                for kind in ("scaling", "wavelet") for side, comp, ks in sys.translates(kind, sys.J0) for k in ks]

    prim, dual = level_set(False), level_set(True)
    checks = {
        "biorthogonality-interior": _interior_misfits(sys),
        # the cross-Gram on [0, 1], the identity under the primal/dual bijection
        "biorthogonality-level-J0": (inner_product(p, q) - (i == jj) for i, (_, p) in enumerate(prim)
                                     for jj, (_, q) in enumerate(dual)),
        "moments-boundary": _moment_misfits(sys, ("left", "right")),
        "moments-interior": _moment_misfits(sys, ("interior",)),
        # primal functions must be continuous (H1) and vanish at their support ends
        "h1-membership": (v for fam in FAMILIES for f in sys.family(*fam) for v in _jumps(f)),
        "support-disjointness-J0": _disjointness_misfits(prim + dual),
        "dual-antiderivative-ladder": _ladder_misfits(sys),
    }
    return VerificationReport({name: _worst(misfits) for name, misfits in checks.items()})


# ---------------------------------------------------------------------------
# text format (system definition files)
# ---------------------------------------------------------------------------

# the function families in the order of `WaveletSystem`'s fields, which a file keeps
_FAMILY_NAMES = tuple(f.name for f in fields(WaveletSystem) if f.type == "tuple")
# the header lines, each with the WaveletSystem fields its integers set
_HEADER = {"m": ("m",), "r": ("r",), "J0": ("J0",), "offsets": ("n_l_phi", "n_h_phi", "n_l_psi", "n_h_psi")}
# what the tokens of a line hold, named when one cannot be read
_HOLDS = {"BREAKS": "breakpoints", "PIECE": "coefficient", **{key: key for key in _HEADER}}

_BREAK_RE = re.compile(r"^(-?\d+)(?:/2\^(\d+))?$")
_EXACT_RE = re.compile(r"^-?\d+(?:/\d+)?$")
_FUNC_RE = re.compile(r"^(\w+)\[(\d+)\]$")


def _format_break(b: Fraction) -> str:
    e = b.denominator.bit_length() - 1
    return f"{b.numerator}/2^{e}" if e else str(b.numerator)


def _parse_break(t: str) -> Fraction:
    """An `n` or `n/2^e` token as a Fraction."""
    mobj = _BREAK_RE.match(t)
    if not mobj:
        raise ValueError(f"{t!r} is not n or n/2^e")
    return Fraction(int(mobj.group(1)), 2 ** int(mobj.group(2) or 0))


def _format_coeff(c) -> str:
    """An exact coefficient as `p/q` or an integer, any other as a float."""
    return str(c) if isinstance(c, (Fraction, int)) else repr(float(c))


def _parse_coeff(t: str):
    """An integer or `p/q` token as a Fraction, any other finite one with float()."""
    if _EXACT_RE.match(t):
        return Fraction(t)
    if not math.isfinite(v := float(t)):
        raise ValueError(f"{t!r} is not finite")
    return v


def save_system(sys: WaveletSystem, path) -> None:
    """Write a system definition file (see the README for the grammar)."""
    lines = ["# wavelet system definition"]
    lines += [" ".join([key, *(str(getattr(sys, name)) for name in names)]) for key, names in _HEADER.items()]
    for name in _FAMILY_NAMES:
        for i, f in enumerate(getattr(sys, name)):
            lines.append(f"FUNC {name}[{i}]")
            lines.append("BREAKS " + " ".join(_format_break(b) for b in f.breakpoints))
            for p in f.pieces:
                lines.append("PIECE " + " ".join(_format_coeff(c) for c in p))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_system(path) -> WaveletSystem:
    """Parse a system definition file and accept it iff verification passes.

    A `#` starts a comment that runs to the end of its line.  A file that
    cannot be read as a system raises SystemFormatError, which names the
    line at fault when there is one."""
    header, families = {}, {name: [] for name in _FAMILY_NAMES}
    block, where = None, ""  # the FUNC block being read, and the place an error names
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        for n, line in enumerate(lines, start=1):
            key, *toks = line.partition("#")[0].split() or [None]
            where = f"line {n}: " + (f"bad {_HOLDS[key]}: " if key in _HOLDS else "")
            if key in _HEADER:
                if len(toks) != len(_HEADER[key]):
                    raise ValueError(f"needs {len(_HEADER[key])} integer(s), got {len(toks)}")
                header.update(zip(_HEADER[key], map(int, toks)))
            elif key == "FUNC":
                mobj = _FUNC_RE.match(" ".join(toks))
                if not mobj:
                    raise ValueError(f"malformed FUNC line: {line!r}")
                name, idx = mobj.group(1), int(mobj.group(2))
                if name not in families:
                    raise ValueError(f"unknown family {name!r}")
                if idx != len(families[name]):
                    raise ValueError(f"{name}[{idx}] out of order (expected index {len(families[name])})")
                block = [f"line {n}: {name}[{idx}]: ", (), []]  # where, breaks and pieces, built below
                families[name].append(block)
            elif key in ("BREAKS", "PIECE") and block is None:
                raise ValueError(f"{key} outside a FUNC block")
            elif key == "BREAKS":
                block[1] = [_parse_break(t) for t in toks]
                if any(a >= b for a, b in zip(block[1], block[1][1:])):
                    raise ValueError("not increasing")
            elif key == "PIECE":
                if not toks:
                    raise ValueError("PIECE needs at least one")
                block[2].append(tuple(_parse_coeff(t) for t in toks))
            elif key is not None:
                raise ValueError(f"unrecognized line: {line!r}")
        for blocks in families.values():
            for i, (where, breaks, pieces) in enumerate(blocks):
                blocks[i] = PiecewisePolynomial(breaks, pieces)
        where = ""
        missing = [key for key, names in _HEADER.items() if names[0] not in header]
        if missing:
            raise ValueError(f"missing header field(s): {', '.join(missing)}")
        missing = [name for name, blocks in families.items() if not blocks]
        if missing:
            raise ValueError(f"missing function families: {', '.join(missing)}")
        sys = WaveletSystem(**header, **{name: tuple(blocks) for name, blocks in families.items()})
    except (ValueError, ZeroDivisionError) as e:
        raise SystemFormatError(f"{where}{e}") from e
    return _accept(sys)
