"""Basis construction: level sets, truncation, and interface enrichment.

The discrete space is spanned by the coarsest-level scaling functions
plus wavelet levels J0..J, all rescaled by 2^-j so the stiffness matrix
is well conditioned.  Near the interface the space is enriched with the
finer wavelets whose *dual* supports contain the interface point, for
levels J+1 up to (2m-2)J - 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .piecewise import Interval, PiecewisePolynomial
from .wavelets import WaveletSystem

__all__ = [
    "BasisFunction",
    "EnrichedBasis",
    "build_phi_level",
    "build_psi_level",
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
    dual = sys.family(kind, side, dual=True)[comp]
    pp = prim.dyadic_transform(j, k).scale(Fraction(1, 2**j))
    dsup = dual.dyadic_transform(j, k).support
    return BasisFunction(
        j=j,
        k=k,
        kind=f"{kind}-{side}",
        component=comp,
        primal=pp,
        dual_support=dsup,
    )


def _build_level(sys: WaveletSystem, kind: str, j: int) -> list:
    if j < sys.J0:
        raise ValueError(f"level {j} below coarsest admissible level J0={sys.J0}")
    out = []
    for comp in range(len(sys.family(kind, "left"))):
        out.append(_make(sys, kind, "left", j, 0, comp))
    for k in sys.interior_range(kind, j):
        for comp in range(sys.r):
            out.append(_make(sys, kind, "interior", j, k, comp))
    for comp in range(len(sys.family(kind, "right"))):
        out.append(_make(sys, kind, "right", j, 2**j - 1, comp))
    return out


def build_phi_level(sys: WaveletSystem, j: int) -> list:
    """The level-j scaling set: left family, interior translates, right family."""
    return _build_level(sys, "scaling", j)


def build_psi_level(sys: WaveletSystem, j: int) -> list:
    """The level-j wavelet set, ordered left / interior / right."""
    return _build_level(sys, "wavelet", j)


@dataclass(frozen=True)
class EnrichedBasis:
    """An ordered, reproducible collection of basis functions."""

    functions: tuple
    J0: int
    J: int
    m: int
    gamma: float | None
    level_counts: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.functions)

    def __iter__(self):
        return iter(self.functions)

    def __getitem__(self, i):
        return self.functions[i]

    @property
    def N(self) -> int:
        return len(self.functions)


def _assemble(sys, J0, J, gamma, top) -> EnrichedBasis:
    """Scaling level J0, wavelet levels J0..J and the interface sets of
    levels J+1..top, in that order."""
    if J < J0:
        raise ValueError(f"J={J} must be >= J0={J0}")
    blocks = [(J0, build_phi_level(sys, J0))]
    blocks += [(j, build_psi_level(sys, j)) for j in range(J0, J + 1)]
    blocks += [(j, interface_set(sys, j, gamma)) for j in range(J + 1, top + 1)]
    funcs = []
    counts = {}
    for level, block in blocks:
        funcs.extend(block)
        counts[level] = counts.get(level, 0) + len(block)
    return EnrichedBasis(
        functions=tuple(funcs), J0=J0, J=J, m=sys.m, gamma=gamma, level_counts=counts
    )


def truncated_basis(sys: WaveletSystem, J0: int, J: int) -> EnrichedBasis:
    """Scaling level J0 plus wavelet levels J0..J (no enrichment).

    Spans the same space as the scaling functions at level J+1, so this
    is the multilevel re-expression of a standard FEM space.
    """
    return _assemble(sys, J0, J, None, J)


def interface_set(sys: WaveletSystem, j: int, gamma: float) -> list:
    """Level-j wavelets whose dual support contains the interface point.

    Membership is tested against the closed dual support, inclusive at
    endpoints: if gamma lands exactly on a shared dyadic endpoint, both
    neighbors qualify.  Only the O(1) candidate translates near gamma
    are materialized, so this stays cheap at the deep enrichment levels.
    """
    import math

    if not 0.0 < gamma < 1.0:
        raise ValueError(f"interface point {gamma} must lie in (0, 1)")
    out = []
    for comp in range(len(sys.family("wavelet", "left"))):
        bf = _make(sys, "wavelet", "left", j, 0, comp)
        if bf.dual_support.contains(gamma):
            out.append(bf)
    t = gamma * 2**j
    krange = sys.interior_range("wavelet", j)
    cands = []
    for comp, pp in enumerate(sys.family("wavelet", "interior", dual=True)):
        lo, hi = float(pp.support.lo), float(pp.support.hi)
        kmin = max(krange.start, math.floor(t - hi) - 1)
        kmax = min(krange.stop - 1, math.ceil(t - lo) + 1)
        cands.extend((k, comp) for k in range(kmin, kmax + 1))
    for k, comp in sorted(cands):
        bf = _make(sys, "wavelet", "interior", j, k, comp)
        if bf.dual_support.contains(gamma):
            out.append(bf)
    for comp in range(len(sys.family("wavelet", "right"))):
        bf = _make(sys, "wavelet", "right", j, 2**j - 1, comp)
        if bf.dual_support.contains(gamma):
            out.append(bf)
    return out


def enriched_basis(sys: WaveletSystem, J0: int, J: int, gamma: float) -> EnrichedBasis:
    """The truncated basis plus interface sets for levels J+1..(2m-2)J-1."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"interface point {gamma} must lie in (0, 1)")
    return _assemble(sys, J0, J, gamma, (2 * sys.m - 2) * J - 1)
