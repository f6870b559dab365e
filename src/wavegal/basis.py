"""Basis construction: level sets, truncation, and interface enrichment.

The discrete space is spanned by the coarsest-level scaling functions
plus wavelet levels J0..J, all rescaled by 2^-j so the stiffness matrix
is well conditioned.  Near the interface the space is enriched with the
finer wavelets whose *dual* supports contain the interface point, for
levels J+1 up to (2m-2)J - 1.

Each function is one member of a primal family at level j and translate
k, so a basis is four int arrays (family, component, j, k) plus float
tables gathered in one step from the system's per-family tables, equal to
the floats of `dyadic_transform(j, k).scale(2^-j)`.  `basis[i]` builds
function i exactly on access, for verification, and does not cache it.

The spaces are nested: the level-J basis is a subset of the level-(J+1)
basis, in the same order, so a sweep builds its deepest level once and
takes each coarser level as a row selection of it (`EnrichedBasis.level`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .piecewise import Interval, PiecewisePolynomial
from .wavelets import FAMILIES, WaveletSystem

__all__ = [
    "BasisFunction",
    "EnrichedBasis",
    "truncated_basis",
    "interface_set",
    "enriched_basis",
]

@dataclass(frozen=True)
class BasisFunction:
    """One rescaled basis function 2^-j eta_{j;k} with its dual's support."""

    j: int
    k: int
    kind: str
    component: int
    primal: PiecewisePolynomial  # already carries the 2^-j rescaling
    dual_support: Interval

    @property
    def support(self) -> Interval:
        return self.primal.support

    def __repr__(self) -> str:
        return f"BasisFunction(j={self.j}, k={self.k}, {self.kind}[{self.component}])"


def _make(sys: WaveletSystem, kind: str, side: str, j: int, k: int, comp: int) -> BasisFunction:
    prim = sys.family(kind, side, dual=False)[comp]
    pp = prim.dyadic_transform(j, k).scale(Fraction(1, 2**j))
    # the dual's support, mapped: its transform is never needed whole
    sup = sys.family(kind, side, dual=True)[comp].support
    dual_support = Interval(Fraction(sup.lo + k, 2**j), Fraction(sup.hi + k, 2**j))
    return BasisFunction(j, k, f"{kind}-{side}", comp, pp, dual_support)


def _level(sys: WaveletSystem, kind: str, j: int) -> np.ndarray:
    """Rows (family, component, j, k) of the level-j scaling or wavelet set:
    left family, interior translates, right family."""
    if j < sys.J0:
        raise ValueError(f"level {j} below coarsest admissible level J0={sys.J0}")
    r, ks = sys.r, sys.interior_range(kind, j)
    nl, nr = len(sys.family(kind, "left")), len(sys.family(kind, "right"))
    left, interior, right = (FAMILIES.index((kind, side)) for side in ("left", "interior", "right"))
    return np.stack([
        np.repeat([left, interior, right], [nl, len(ks) * r, nr]),
        np.concatenate([np.arange(nl), np.tile(np.arange(r), len(ks)), np.arange(nr)]),
        np.full(nl + len(ks) * r + nr, j),
        np.concatenate([np.zeros(nl, int), np.repeat(np.arange(ks.start, ks.stop), r),
                        np.full(nr, 2**j - 1)]),
    ], axis=1)


@dataclass(frozen=True, eq=False)
class EnrichedBasis:
    """An ordered, reproducible collection of basis functions.

    Function i is member component[i] of family FAMILIES[family[i]] at
    level j[i] and translate k[i].  Its float tables are breaks[i], padded
    with +inf, and coeffs[i], the local monomial coefficients of each piece
    (pieces x degree+1), padded with 0.
    """

    sys: WaveletSystem
    family: np.ndarray
    component: np.ndarray
    j: np.ndarray
    k: np.ndarray
    J0: int
    J: int
    gamma: float | None

    def __post_init__(self):
        # breakpoints (b + k) 2^-j and coefficients fl(c_n amp_j) 2^(j(n-1)),
        # with amp_j = 2^(j/2) rounded as dyadic_transform rounds it
        first, breaks, coeffs = self.sys.float_tables
        row, j = first[self.family] + self.component, self.j[:, None]
        levels, at = np.unique(self.j, return_inverse=True)
        amp = np.array([math.sqrt(2.0) ** v if v % 2 else 2.0 ** (v // 2) for v in levels.tolist()])
        n = np.arange(coeffs.shape[2])
        object.__setattr__(self, "breaks", np.ldexp(breaks[row] + self.k[:, None], -j))
        object.__setattr__(self, "coeffs", np.ldexp(coeffs[row] * amp[at, None, None], (j * (n - 1))[:, None]))

    def __len__(self) -> int:
        return len(self.j)

    def __getitem__(self, i) -> BasisFunction:
        """Function i with its exact polynomial, built on access."""
        kind, side = FAMILIES[self.family[i]]
        return _make(self.sys, kind, side, int(self.j[i]), int(self.k[i]), int(self.component[i]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def N(self) -> int:
        return len(self)

    def level(self, J: int) -> tuple[np.ndarray, "EnrichedBasis"]:
        """The rows of this basis that form its level-J basis, in order, and
        that basis, which equals what `enriched_basis` (or, when gamma is
        None, `truncated_basis`) builds at J, float tables included.  This
        basis must be one of theirs, built at a level self.J >= J.

        The level-J basis holds the rows of levels up to J and, when
        enriched, the rows of levels J+1..(2m-2)J-1 whose dual support
        holds gamma: this basis keeps those levels whole up to self.J and
        only their interface sets past it.
        """
        if not self.J0 <= J <= self.J:
            raise ValueError(f"level {J} outside this basis's levels {self.J0}..{self.J}")
        keep = self.j <= J
        if self.gamma is not None:
            keep |= self._touching & (self.j <= self.sys.enrichment_depth(J))
        rows = np.flatnonzero(keep)
        return rows, EnrichedBasis(
            self.sys, *(a[rows] for a in (self.family, self.component, self.j, self.k)),
            J0=self.J0, J=J, gamma=self.gamma)

    @cached_property
    def level_counts(self) -> dict:
        """The number of functions of each level j."""
        levels, counts = np.unique(self.j, return_counts=True)
        return dict(zip(levels.tolist(), counts.tolist()))

    @cached_property
    def _touching(self) -> np.ndarray:
        """Mask of the wavelet rows past level J0 whose dual support holds gamma."""
        deep = np.flatnonzero(self.j > self.J0)
        mask = np.zeros(len(self), dtype=bool)
        rows = np.stack([a[deep] for a in (self.family, self.component, self.j, self.k)], axis=1)
        mask[deep[_touches(self.sys, rows, self.gamma)]] = True
        return mask


def _assemble(sys, J0, J, gamma, top) -> EnrichedBasis:
    """Scaling level J0, wavelet levels J0..J and the interface sets of
    levels J+1..top, in that order."""
    if J < J0:
        raise ValueError(f"J={J} must be >= J0={J0}")
    blocks = [_level(sys, "scaling", J0)]
    blocks += [_level(sys, "wavelet", j) for j in range(J0, J + 1)]
    blocks += [interface_set(sys, j, gamma) for j in range(J + 1, top + 1)]
    rows = np.concatenate(blocks)
    return EnrichedBasis(sys, *rows.T, J0=J0, J=J, gamma=gamma)


def truncated_basis(sys: WaveletSystem, J0: int, J: int) -> EnrichedBasis:
    """Scaling level J0 plus wavelet levels J0..J (no enrichment).

    Spans the same space as the scaling functions at level J+1, so this
    is the multilevel re-expression of a standard FEM space.
    """
    return _assemble(sys, J0, J, None, J)


def _touches(sys: WaveletSystem, rows: np.ndarray, gamma: float) -> np.ndarray:
    """Mask of the wavelet rows (family, component, j, k) whose closed dual
    support [(lo + k) 2^-j, (hi + k) 2^-j] holds gamma, inclusive at the
    endpoints.  The endpoints lo, hi are multiples of 1/p, p a power of
    two, so the test is lo p + k p <= 2^j gamma p <= hi p + k p, on floats
    that are all exact while 2^j p < 2^53."""
    sides = [f for f, (kind, _) in enumerate(FAMILIES) if kind == "wavelet"]
    sups = {f: [pp.support for pp in sys.family(*FAMILIES[f], dual=True)] for f in sides}
    p = max(e.denominator for fam in sups.values() for s in fam for e in (s.lo, s.hi))
    ends = np.zeros((len(FAMILIES), max(len(fam) for fam in sups.values()), 2))
    for f, fam in sups.items():
        ends[f, : len(fam)] = [[float(s.lo) * p, float(s.hi) * p] for s in fam]
    family, comp, j, k = rows.T
    ends = ends[family, comp] + (k * p)[:, None]
    g = np.ldexp(gamma, j) * p
    return (ends[:, 0] <= g) & (g <= ends[:, 1])


def interface_set(sys: WaveletSystem, j: int, gamma: float) -> np.ndarray:
    """Level-j wavelets whose dual support contains the interface point, as
    rows (family, component, j, k) in basis order.

    Membership is tested exactly against the closed dual support (see
    `_touches`): if gamma lands exactly on a shared dyadic endpoint, both
    neighbors qualify.  Only the boundary functions and the O(1) interior
    translates near gamma are tested, so this stays cheap at the deep
    enrichment levels.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"interface point {gamma} must lie in (0, 1)")
    # interior candidates: translates near 2^j gamma, a superset of the members
    sup = [pp.support for pp in sys.family("wavelet", "interior", dual=True)]
    t, ks = gamma * 2**j, sys.interior_range("wavelet", j)
    lo, hi = min(float(s.lo) for s in sup), max(float(s.hi) for s in sup)
    near = np.arange(max(ks.start, math.floor(t - hi) - 1), min(ks.stop, math.ceil(t - lo) + 2))
    cand = []
    for side, k in zip(("left", "interior", "right"), ([0], near, [2**j - 1])):
        n = len(sys.family("wavelet", side, dual=True))
        cand.append(np.stack([np.full(len(k) * n, FAMILIES.index(("wavelet", side))),
                              np.tile(np.arange(n), len(k)), np.full(len(k) * n, j), np.repeat(k, n)], axis=1))
    cand = np.concatenate(cand).astype(np.intp)
    return cand[_touches(sys, cand, gamma)]


def enriched_basis(sys: WaveletSystem, J0: int, J: int, gamma: float) -> EnrichedBasis:
    """The truncated basis plus interface sets for levels J+1..(2m-2)J-1."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"interface point {gamma} must lie in (0, 1)")
    return _assemble(sys, J0, J, gamma, sys.enrichment_depth(J))
