"""Unit tests for basis construction, truncation, and interface enrichment."""

import math

import numpy as np
import pytest

from wavegal.basis import (
    build_phi_level,
    build_psi_level,
    enriched_basis,
    interface_set,
    truncated_basis,
)
from wavegal.piecewise import inner_product
from wavegal.wavelets import builtin_order2_system


@pytest.fixture(scope="module")
def sys2():
    return builtin_order2_system()


GAMMA = math.pi / 6


def oracle_interface_ks(sys, j, gamma):
    """Independent enumeration of the level-j duals whose closed support
    contains gamma: interior translates by interval arithmetic on the
    mother support, boundary functions by their mapped supports."""
    out = []
    pd = sys.psi_dual[0]
    lo, hi = float(pd.support.lo), float(pd.support.hi)
    t = gamma * 2**j
    for k in sys.interior_range("wavelet", j):
        if lo + k <= t <= hi + k:
            out.append(("interior", k))
    ld = sys.psi_left_dual[0].dyadic_transform(j, 0).support
    if ld.contains(gamma):
        out.append(("left", 0))
    rd = sys.psi_right_dual[0].dyadic_transform(j, 2**j - 1).support
    if rd.contains(gamma):
        out.append(("right", 2**j - 1))
    return sorted(out)


class TestLevelSets:
    def test_scaling_level_counts(self, sys2):
        for j in (2, 3, 5, 8):
            assert len(build_phi_level(sys2, j)) == 2**j - 1

    def test_wavelet_level_counts(self, sys2):
        for j in (2, 3, 5, 8):
            assert len(build_psi_level(sys2, j)) == 2**j

    def test_below_coarsest_level_rejected(self, sys2):
        with pytest.raises(ValueError):
            build_phi_level(sys2, sys2.J0 - 1)

    def test_supports_inside_unit_interval(self, sys2):
        for bf in build_phi_level(sys2, 3) + build_psi_level(sys2, 3):
            assert float(bf.support.lo) >= 0.0
            assert float(bf.support.hi) <= 1.0

    def test_functions_vanish_at_domain_ends(self, sys2):
        for bf in build_phi_level(sys2, 2) + build_psi_level(sys2, 4):
            assert bf.primal(0.0) == pytest.approx(0.0, abs=1e-14)
            assert bf.primal(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_h1_rescaling(self, sys2):
        # the stored primal is 2^-j times the L2-normalized translate, so
        # its H1 energy is level-independent
        for j in (2, 4, 6):
            bf = build_psi_level(sys2, j)[2**j // 2]
            d = bf.primal.derivative()
            energy = float(inner_product(d, d))
            assert energy == pytest.approx(4.0, rel=1e-12)

    def test_dual_support_is_mapped_mother_support(self, sys2):
        bf = build_psi_level(sys2, 4)[5]
        assert bf.kind == "wavelet-interior"
        pd = sys2.psi_dual[0]
        want_lo = (float(pd.support.lo) + bf.k) / 16
        want_hi = (float(pd.support.hi) + bf.k) / 16
        assert float(bf.dual_support.lo) == pytest.approx(want_lo)
        assert float(bf.dual_support.hi) == pytest.approx(want_hi)


class TestTruncatedBasis:
    def test_dimension_formula(self, sys2):
        for J in range(2, 7):
            assert truncated_basis(sys2, 2, J).N == 2 ** (J + 1) - 1

    def test_level_counts_recorded(self, sys2):
        b = truncated_basis(sys2, 2, 4)
        assert b.level_counts[2] == (2**2 - 1) + 2**2  # scaling + wavelet level
        assert b.level_counts[4] == 2**4

    def test_bad_range_rejected(self, sys2):
        with pytest.raises(ValueError):
            truncated_basis(sys2, 2, 1)


class TestInterfaceSet:
    def test_matches_enumeration_oracle(self, sys2):
        rng = np.random.default_rng(7)
        gammas = np.concatenate([rng.uniform(0.001, 0.999, 94), [0.5, 0.25, 1 / 3, GAMMA, 0.0078, 0.9921]])
        for g in gammas:
            for j in (3, 5, 8, 12):
                got = sorted(
                    ("interior" if bf.kind == "wavelet-interior" else bf.kind.split("-")[1], bf.k)
                    for bf in interface_set(sys2, j, float(g))
                )
                assert got == oracle_interface_ks(sys2, j, float(g)), (g, j)

    def test_cardinality_formula_interior(self, sys2):
        # when every member is interior the count is the number of integer
        # translates k with 2^j gamma - hi <= k <= 2^j gamma - lo
        pd = sys2.psi_dual[0]
        lo, hi = float(pd.support.lo), float(pd.support.hi)
        for g in (GAMMA, 0.41, 0.77):
            for j in (5, 7, 10):
                t = g * 2**j
                want = math.floor(t - lo) - math.ceil(t - hi) + 1
                assert len(interface_set(sys2, j, g)) == want

    def test_known_level4_example(self, sys2):
        members = interface_set(sys2, 4, GAMMA)
        assert [bf.k for bf in members] == [7, 8, 9]

    def test_dyadic_gamma_includes_both_neighbors(self, sys2):
        # gamma on a shared dual-support endpoint belongs to both closed
        # supports, so membership is inclusive on both sides
        got = {bf.k for bf in interface_set(sys2, 4, 0.5)}
        oracle = {k for kind, k in oracle_interface_ks(sys2, 4, 0.5)}
        assert got == oracle

    def test_gamma_out_of_range(self, sys2):
        with pytest.raises(ValueError):
            interface_set(sys2, 4, 0.0)


class TestEnrichedBasis:
    def test_dimension_sequence(self, sys2):
        want = {2: 10, 3: 21, 4: 40, 5: 75, 6: 142}
        for J, n in want.items():
            assert enriched_basis(sys2, 2, J, GAMMA).N == n

    def test_contains_truncated_basis(self, sys2):
        trunc = truncated_basis(sys2, 2, 4)
        enr = enriched_basis(sys2, 2, 4, GAMMA)
        key = lambda bf: (bf.j, bf.kind, bf.k, bf.component)
        assert [key(bf) for bf in enr.functions[: trunc.N]] == [key(bf) for bf in trunc]

    def test_enrichment_levels(self, sys2):
        J = 4
        enr = enriched_basis(sys2, 2, J, GAMMA)
        extra = [bf.j for bf in enr.functions[2 ** (J + 1) - 1 :]]
        top = (2 * sys2.m - 2) * J - 1
        assert extra == sorted(extra)
        assert min(extra) == J + 1 and max(extra) == top

    def test_growth_ratio_tends_to_two(self, sys2):
        ns = [enriched_basis(sys2, 2, J, GAMMA).N for J in range(5, 10)]
        ratios = [b / a for a, b in zip(ns, ns[1:])]
        assert all(1.7 < r < 2.1 for r in ratios)
        assert ratios == sorted(ratios)  # approaching 2 from below

    def test_deterministic_ordering(self, sys2):
        key = lambda bf: (bf.j, bf.kind, bf.k, bf.component)
        a = enriched_basis(sys2, 2, 5, GAMMA)
        b = enriched_basis(sys2, 2, 5, GAMMA)
        assert [key(f) for f in a] == [key(f) for f in b]

    def test_linear_independence(self, sys2):
        # Gram matrix of the enriched set must be nonsingular
        b = enriched_basis(sys2, 2, 3, GAMMA)
        G = np.array(
            [[float(inner_product(f.primal, g.primal)) for g in b] for f in b]
        )
        w = np.linalg.eigvalsh(G)
        assert w[0] > 1e-12
