"""Basis construction: level sets, truncation, and interface enrichment.

The discrete space is spanned by the coarsest-level scaling functions
plus wavelet levels J0..J, all rescaled by 2^-j so the stiffness matrix
is well conditioned.  Near the interface the space is enriched with the
finer wavelets whose *dual* supports contain the interface point, for
levels J+1 up to (2m-2)J - 1.  The system decides both: a level's rows
are its layout `WaveletSystem.translates`, and an interface set is
`WaveletSystem.touching`, compared exactly with gamma.

Each function is one member of a primal family at level j and translate
k, so a basis is four int arrays (family, component, j, k) plus float
tables gathered in one step from the system's per-family tables, equal to
the floats of `dyadic_transform(j, k).scale(2^-j)`.  `basis[i]` builds
function i on access, for verification, and does not cache it: exactly
at an even level j, with the float 2^(j/2) at an odd one.

The spaces are nested: the level-J basis is a subset of the level-(J+1)
basis, in the same order, so a sweep builds its deepest level once and
takes each coarser level as a row selection of it (`EnrichedBasis.level`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .piecewise import Interval, PiecewisePolynomial, dyadic_amplitude
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


def _rows(sys: WaveletSystem, kind: str, j: int, members: tuple) -> np.ndarray:
    """Rows (family, component, j, k) of the level-j members (side,
    component, ks) of `sys.translates` or `sys.touching`, in basis order:
    by side, then translate, then component."""
    counts = [len(ks) for *_, ks in members]
    family = np.repeat([FAMILIES.index((kind, side)) for side, _, _ in members], counts)
    component = np.repeat([comp for _, comp, _ in members], counts)
    k = np.concatenate([np.arange(ks.start, ks.stop) for *_, ks in members])
    order = np.lexsort((component, k, family))
    return np.stack([family, component, np.full(len(k), j), k], axis=1)[order]


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
        amp = np.array([float(dyadic_amplitude(v)) for v in levels.tolist()])
        n = np.arange(coeffs.shape[2])
        object.__setattr__(self, "breaks", np.ldexp(breaks[row] + self.k[:, None], -j))
        object.__setattr__(self, "coeffs", np.ldexp(coeffs[row] * amp[at, None, None], (j * (n - 1))[:, None]))

    def __len__(self) -> int:
        return len(self.j)

    def __getitem__(self, i) -> BasisFunction:
        """Function i, built on access (exact only at an even level j)."""
        kind, side = FAMILIES[self.family[i]]
        return _make(self.sys, kind, side, int(self.j[i]), int(self.k[i]), int(self.component[i]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

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
    def _touching(self) -> np.ndarray:
        """Mask of the wavelet rows past level J0 whose dual support holds gamma."""
        # [k0, k1) per (level - J0, family, component): the touching translates,
        # none at level J0 and none of a scaling family
        top, width = int(self.j.max()), max(len(self.sys.family(*f)) for f in FAMILIES)
        bounds = np.zeros((top - self.J0 + 1, len(FAMILIES), width, 2), dtype=np.intp)
        for j in range(self.J0 + 1, top + 1):
            for side, comp, ks in self.sys.touching(j, self.gamma):
                bounds[j - self.J0, FAMILIES.index(("wavelet", side)), comp] = ks.start, ks.stop
        k0, k1 = bounds[self.j - self.J0, self.family, self.component].T
        return (k0 <= self.k) & (self.k < k1)


def _assemble(sys, J0, J, gamma, top) -> EnrichedBasis:
    """Scaling level J0, wavelet levels J0..J and the interface sets of
    levels J+1..top, in that order."""
    if J < J0:
        raise ValueError(f"J={J} must be >= J0={J0}")
    blocks = [_rows(sys, "scaling", J0, sys.translates("scaling", J0))]
    blocks += [_rows(sys, "wavelet", j, sys.translates("wavelet", j)) for j in range(J0, J + 1)]
    blocks += [interface_set(sys, j, gamma) for j in range(J + 1, top + 1)]
    rows = np.concatenate(blocks)
    return EnrichedBasis(sys, *rows.T, J0=J0, J=J, gamma=gamma)


def truncated_basis(sys: WaveletSystem, J0: int, J: int) -> EnrichedBasis:
    """Scaling level J0 plus wavelet levels J0..J (no enrichment).

    Spans the same space as the scaling functions at level J+1, so this
    is the multilevel re-expression of a standard FEM space.
    """
    return _assemble(sys, J0, J, None, J)


def interface_set(sys: WaveletSystem, j: int, gamma: float) -> np.ndarray:
    """Level-j wavelets whose dual support contains the interface point, as
    rows (family, component, j, k) in basis order, by `sys.touching`:
    if gamma lands exactly on a shared dyadic endpoint, both neighbors
    qualify."""
    return _rows(sys, "wavelet", j, sys.touching(j, gamma))


def enriched_basis(sys: WaveletSystem, J0: int, J: int, gamma: float) -> EnrichedBasis:
    """The truncated basis plus interface sets for levels J+1..(2m-2)J-1."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"interface point {gamma} must lie in (0, 1)")
    return _assemble(sys, J0, J, gamma, sys.enrichment_depth(J))
