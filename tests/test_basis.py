"""Unit tests for basis construction, truncation, and interface enrichment."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavegal.basis import (
    EnrichedBasis,
    _make,
    _rows,
    enriched_basis,
    interface_set,
    truncated_basis,
)
from wavegal.cli import MAX_LEVEL
from wavegal.piecewise import inner_product
from wavegal.wavelets import FAMILIES, builtin_order2_system


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


def level_rows(sys, kind, j):
    """Rows (family, component, j, k) of the level-j scaling or wavelet set."""
    return _rows(sys, kind, j, sys.translates(kind, j))


def level(sys, kind, j):
    """The level-j scaling or wavelet set as BasisFunctions, in basis order."""
    return list(EnrichedBasis(sys, *level_rows(sys, kind, j).T, J0=j, J=j, gamma=None))


def former_order(sys, J0, J, gamma):
    """(kind, component, j, k) of every basis function in the order of the
    former per-function builder: per level the left family, the interior
    translates (k, then component) and the right family; interface sets
    keep the functions whose mapped dual support contains gamma."""
    top = J if gamma is None else (2 * sys.m - 2) * J - 1
    out = []
    for kind, j in [("scaling", J0)] + [("wavelet", j) for j in range(J0, top + 1)]:
        for side, ks in (("left", [0]), ("interior", sys.interior_range(kind, j)), ("right", [2**j - 1])):
            for k in ks:
                for comp, pd in enumerate(sys.family(kind, side, dual=True)):
                    lo, hi = float(pd.support.lo) + k, float(pd.support.hi) + k
                    if j <= J or lo <= gamma * 2**j <= hi:
                        out.append((f"{kind}-{side}", comp, j, k))
    return out


class TestLevelSets:
    def test_scaling_level_counts(self, sys2):
        for j in (2, 3, 5, 8):
            assert len(level_rows(sys2, "scaling", j)) == 2**j - 1

    def test_wavelet_level_counts(self, sys2):
        for j in (2, 3, 5, 8):
            assert len(level_rows(sys2, "wavelet", j)) == 2**j

    def test_below_coarsest_level_rejected(self, sys2):
        with pytest.raises(ValueError):
            level_rows(sys2, "scaling", sys2.J0 - 1)
        with pytest.raises(ValueError):
            truncated_basis(sys2, sys2.J0 - 1, sys2.J0)

    def test_supports_inside_unit_interval(self, sys2):
        for bf in level(sys2, "scaling", 3) + level(sys2, "wavelet", 3):
            assert float(bf.support.lo) >= 0.0
            assert float(bf.support.hi) <= 1.0

    def test_functions_vanish_at_domain_ends(self, sys2):
        for bf in level(sys2, "scaling", 2) + level(sys2, "wavelet", 4):
            assert bf.primal(0.0) == pytest.approx(0.0, abs=1e-14)
            assert bf.primal(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_h1_rescaling(self, sys2):
        # the stored primal is 2^-j times the L2-normalized translate, so
        # its H1 energy is level-independent
        for j in (2, 4, 6):
            bf = level(sys2, "wavelet", j)[2**j // 2]
            d = bf.primal.derivative()
            energy = float(inner_product(d, d))
            assert energy == pytest.approx(4.0, rel=1e-12)

    def test_dual_support_is_mapped_mother_support(self, sys2):
        bf = level(sys2, "wavelet", 4)[5]
        assert bf.kind == "wavelet-interior"
        pd = sys2.psi_dual[0]
        want_lo = (float(pd.support.lo) + bf.k) / 16
        want_hi = (float(pd.support.hi) + bf.k) / 16
        assert float(bf.dual_support.lo) == pytest.approx(want_lo)
        assert float(bf.dual_support.hi) == pytest.approx(want_hi)

    def test_dual_support_equals_transformed_duals(self, sys2):
        # every dual family, boundary ones included: the mapped support is the
        # transformed dual's, as equal Fractions
        for kind, side in FAMILIES:
            for comp, pd in enumerate(sys2.family(kind, side, dual=True)):
                for j in (2, 3, 6, 9):
                    ks = {"left": [0], "right": [2**j - 1]}.get(side, sys2.interior_range(kind, j)[:3])
                    for k in ks:
                        got = _make(sys2, kind, side, j, k, comp).dual_support
                        want = pd.dyadic_transform(j, k).support
                        assert isinstance(got.lo, Fraction) and isinstance(got.hi, Fraction)
                        assert (got.lo, got.hi) == (want.lo, want.hi)


def level_counts(basis) -> dict:
    """The number of functions of each level j."""
    levels, counts = np.unique(basis.j, return_counts=True)
    return dict(zip(levels.tolist(), counts.tolist()))


class TestTruncatedBasis:
    def test_dimension_formula(self, sys2):
        for J in range(2, 7):
            assert len(truncated_basis(sys2, 2, J)) == 2 ** (J + 1) - 1

    def test_level_counts_recorded(self, sys2):
        b = truncated_basis(sys2, 2, 4)
        assert level_counts(b)[2] == (2**2 - 1) + 2**2  # scaling + wavelet level
        assert level_counts(b)[4] == 2**4

    def test_functions_are_exact_exactly_at_even_levels(self, sys2):
        # an odd level's 2^(j/2) is the float dyadic_transform rounds
        b = truncated_basis(sys2, 2, 5)
        assert sorted(level_counts(b)) == [2, 3, 4, 5]
        for bf in b:
            assert bf.primal.is_exact() == (bf.j % 2 == 0), bf

    def test_bad_range_rejected(self, sys2):
        with pytest.raises(ValueError):
            truncated_basis(sys2, 2, 1)


class TestInterfaceSet:
    def test_matches_enumeration_oracle(self, sys2):
        rng = np.random.default_rng(7)
        gammas = np.concatenate([rng.uniform(0.001, 0.999, 94), [0.5, 0.25, 1 / 3, GAMMA, 0.0078, 0.9921]])
        for g in gammas:
            for j in (3, 5, 8, 12):
                got = sorted((FAMILIES[f][1], k) for f, _, _, k in interface_set(sys2, j, float(g)).tolist())
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
        assert members[:, 3].tolist() == [7, 8, 9]
        assert members[:, 2].tolist() == [4, 4, 4]

    def test_dyadic_gamma_includes_both_neighbors(self, sys2):
        # gamma on a shared dual-support endpoint belongs to both closed
        # supports, so membership is inclusive on both sides
        got = set(interface_set(sys2, 4, 0.5)[:, 3].tolist())
        oracle = {k for kind, k in oracle_interface_ks(sys2, 4, 0.5)}
        assert got == oracle

    def test_gamma_out_of_range(self, sys2):
        with pytest.raises(ValueError):
            interface_set(sys2, 4, 0.0)

    def test_level_below_coarsest_rejected(self, sys2):
        # level 1 has no interior wavelet, and at level 0 the left and right
        # boundary wavelets would both sit at k = 0
        for j in (sys2.J0 - 1, 0):
            with pytest.raises(ValueError, match=f"level {j} below coarsest admissible level J0={sys2.J0}"):
                interface_set(sys2, j, 0.3)


def exact_touching(sys, j, gamma):
    """(side, component, k) of every level-j dual wavelet whose closed
    support (lo + k) 2^-j .. (hi + k) 2^-j holds gamma, each candidate
    compared in Fractions: the boundary duals at k = 0 and 2^j - 1, and
    every interior translate k within max(|lo|, |hi|) + 1 of 2^j gamma,
    which lo + k <= 2^j gamma <= hi + k requires of a member."""
    g, two = Fraction(gamma), 2**j
    reach = math.ceil(max(abs(e) for pd in sys.psi_dual for e in (pd.support.lo, pd.support.hi))) + 1
    t = math.floor(g * two)
    ks = sys.interior_range("wavelet", j)
    cands = [("left", 0), ("right", two - 1)]
    cands += [("interior", k) for k in range(max(ks.start, t - reach), min(ks.stop, t + reach + 1))]
    return sorted((side, comp, k) for side, k in cands
                  for comp, pd in enumerate(sys.family("wavelet", side, dual=True))
                  if Fraction(pd.support.lo + k, two) <= g <= Fraction(pd.support.hi + k, two))


# the deepest enrichment level the CLI's level guard admits, 27
TOP_ENRICHED = builtin_order2_system().enrichment_depth(MAX_LEVEL)


@st.composite
def level_and_gamma(draw):
    """A level J0..TOP_ENRICHED and an interface point drawn one of four ways:
    uniformly, on a level-j dual-support endpoint, one ulp either side of
    one, or with long runs of equal bits in its binary expansion."""
    sys = builtin_order2_system()
    j = draw(st.integers(sys.J0, TOP_ENRICHED))
    way = draw(st.sampled_from(["uniform", "endpoint", "ulp", "runs"]))
    if way == "uniform":
        return j, draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    if way == "runs":
        runs, first = draw(st.lists(st.integers(1, 24), min_size=1, max_size=8)), draw(st.integers(0, 1))
        bits = "".join(str((first + i) % 2) * n for i, n in enumerate(runs))[:53]
        n = int(bits.ljust(53, "0"), 2)
        return j, float(Fraction(max(n, 1), 2**53))
    ends = sorted({e for side in ("left", "interior", "right") for pd in sys.family("wavelet", side, dual=True)
                   for e in (pd.support.lo, pd.support.hi)})
    x = Fraction(draw(st.sampled_from(ends)) + draw(st.integers(0, 2**j - 1)), 2**j)
    gamma = float(min(max(x, Fraction(1, 2**j)), 1 - Fraction(1, 2**j)))
    if way == "ulp":
        gamma = float(np.nextafter(gamma, draw(st.sampled_from([0.0, 1.0]))))
    return j, gamma


class TestOneTouchingRule:
    """The interface set and the diagnostics' touching family are one rule,
    `WaveletSystem.touching`, and agree with exact enumeration."""

    @settings(max_examples=300, deadline=None)
    @given(case=level_and_gamma())
    @example(case=(3, 0.5 - 2.0**-54))  # float 2^j gamma - lo once counted k = 5 here
    @example(case=(27, 0.625 + 2.0**-52))
    @example(case=(2, 2.0**-53))
    def test_interface_set_diagnostics_and_enumeration_agree(self, sys2, case):
        from wavegal.analysis import _dual_lattices, _level_families

        j, gamma = case
        rows = interface_set(sys2, j, gamma)
        assert (rows[:, 2] == j).all()
        got = sorted((FAMILIES[f][1], c, k) for f, c, _, k in rows.tolist())
        diag = sorted((lat.side, lat.component, k)
                      for lat, _, touch in _level_families(sys2, j, gamma, _dual_lattices(sys2)) for k in touch)
        assert got == diag == exact_touching(sys2, j, gamma)


class TestEnrichedBasis:
    def test_dimension_sequence(self, sys2):
        want = {2: 10, 3: 21, 4: 40, 5: 75, 6: 142}
        for J, n in want.items():
            assert len(enriched_basis(sys2, 2, J, GAMMA)) == n

    def test_contains_truncated_basis(self, sys2):
        trunc = truncated_basis(sys2, 2, 4)
        enr = enriched_basis(sys2, 2, 4, GAMMA)
        key = lambda bf: (bf.j, bf.kind, bf.k, bf.component)
        assert [key(enr[i]) for i in range(len(trunc))] == [key(bf) for bf in trunc]

    def test_enrichment_levels(self, sys2):
        J = 4
        enr = enriched_basis(sys2, 2, J, GAMMA)
        extra = [enr[i].j for i in range(2 ** (J + 1) - 1, len(enr))]
        top = (2 * sys2.m - 2) * J - 1
        assert extra == sorted(extra)
        assert min(extra) == J + 1 and max(extra) == top
        want = {j: len(interface_set(sys2, j, GAMMA)) for j in range(J + 1, top + 1)}
        assert {j: n for j, n in level_counts(enr).items() if j > J} == want

    def test_growth_ratio_tends_to_two(self, sys2):
        ns = [len(enriched_basis(sys2, 2, J, GAMMA)) for J in range(5, 10)]
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


@pytest.fixture(scope="module")
def made(sys2):
    """_make's BasisFunction for a (family, component, j, k) key, built once."""
    cache = {}

    def get(key):
        if key not in cache:
            f, comp, j, k = key
            cache[key] = _make(sys2, *FAMILIES[f], j, k, comp)
        return cache[key]

    return get


def keys(basis):
    return zip(*(a.tolist() for a in (basis.family, basis.component, basis.j, basis.k)))


class TestIndexArrays:
    """The basis is index arrays plus float tables gathered per family; both
    must be what the exact per-function construction gives."""

    def assert_tables_exact(self, basis, made):
        # bit for bit: the gather is the float path of dyadic_transform
        for i, key in enumerate(keys(basis)):
            br, co = made(key).primal._float_cache()
            row = basis.breaks[i]
            assert row[: len(br)].tobytes() == br.tobytes() and np.isposinf(row[len(br) :]).all()
            c = basis.coeffs[i]
            assert c[: len(co), : co.shape[1]].tobytes() == co.tobytes()
            assert not c[len(co) :].any() and not c[:, co.shape[1] :].any()

    @pytest.mark.parametrize(
        "gamma",
        [GAMMA, 0.5, 0.25, 0.5 + 2.0**-53, *np.random.default_rng(3).uniform(0.001, 0.999, 3)],
    )
    def test_enriched_tables_match_exact_functions(self, sys2, made, gamma):
        for J in range(2, 13):
            self.assert_tables_exact(enriched_basis(sys2, 2, J, float(gamma)), made)

    def test_truncated_tables_match_exact_functions(self, sys2, made):
        for J in range(2, 13):
            self.assert_tables_exact(truncated_basis(sys2, 2, J), made)
        self.assert_tables_exact(truncated_basis(sys2, 5, 7), made)

    def test_items_are_the_exact_functions(self, sys2):
        for basis in (enriched_basis(sys2, 2, 5, GAMMA), truncated_basis(sys2, 3, 5)):
            got, order = list(basis), former_order(sys2, basis.J0, basis.J, basis.gamma)
            assert len(got) == len(order) == len(basis)
            assert [basis[i - len(basis)].k for i in range(len(basis))] == [bf.k for bf in got]
            for bf, (kind, comp, j, k) in zip(got, order):
                ref = _make(sys2, *kind.split("-"), j, k, comp)
                assert (bf.kind, bf.component, bf.j, bf.k) == (kind, comp, j, k)
                assert bf.primal.breakpoints == ref.primal.breakpoints
                assert bf.primal.pieces == ref.primal.pieces
                assert bf.dual_support == ref.dual_support

    @pytest.mark.parametrize("gamma", [GAMMA, 0.5, 0.25, 0.5 + 2.0**-53, 0.0078, 0.9921])
    def test_ordering_unchanged(self, sys2, gamma):
        for J in (2, 3, 4, 7):
            basis = enriched_basis(sys2, 2, J, gamma)
            got = [("-".join(FAMILIES[f]), c, j, k) for f, c, j, k in keys(basis)]
            assert got == former_order(sys2, 2, J, gamma)
        basis = truncated_basis(sys2, 2, 6)
        got = [("-".join(FAMILIES[f]), c, j, k) for f, c, j, k in keys(basis)]
        assert got == former_order(sys2, 2, 6, None)


def assert_same_basis(got, want):
    """Bit for bit: index arrays, float tables, levels and order."""
    assert (got.J0, got.J, got.gamma) == (want.J0, want.J, want.gamma)
    for name in ("family", "component", "j", "k", "breaks", "coeffs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert level_counts(got) == level_counts(want)


class TestNestedLevels:
    """Every level of a sweep is a row selection of its deepest level."""

    def assert_nested(self, sys2, gamma, jmax):
        top = enriched_basis(sys2, 2, jmax, gamma)
        for J in range(2, jmax + 1):
            assert_same_basis(top.level(J)[1], enriched_basis(sys2, 2, J, gamma))

    @pytest.mark.parametrize("gamma", [GAMMA, math.sqrt(2) / 2, 0.5, 0.375, 0.5 + 2.0**-53])
    def test_enriched_levels(self, sys2, gamma):
        # pi/6 and sqrt(2)/2 are ex1-ex3's; dyadic gammas touch two neighbours
        self.assert_nested(sys2, gamma, 12)

    @settings(max_examples=15, deadline=None)
    @given(gamma=st.floats(1e-3, 1 - 1e-3))
    def test_enriched_levels_any_gamma(self, sys2, gamma):
        self.assert_nested(sys2, gamma, 8)

    def test_truncated_levels(self, sys2):
        top = truncated_basis(sys2, 2, 12)
        for J in range(2, 13):
            rows, basis = top.level(J)
            assert rows.tolist() == list(range(2 ** (J + 1) - 1))
            assert_same_basis(basis, truncated_basis(sys2, 2, J))

    def test_top_level_is_every_row(self, sys2):
        top = enriched_basis(sys2, 2, 7, GAMMA)
        rows, basis = top.level(7)
        assert rows.tolist() == list(range(len(top)))
        assert_same_basis(basis, top)

    @pytest.mark.parametrize("gamma", [GAMMA, math.sqrt(2) / 2, 0.5, 0.5 + 2.0**-53, 0.25 - 2.0**-55])
    def test_levels_ascend(self, sys2, gamma):
        # galerkin's SPD factor eliminates in reverse index order, and so
        # finest level first only while j never decreases
        for top in (enriched_basis(sys2, 2, 12, gamma), truncated_basis(sys2, 2, 12)):
            assert np.all(np.diff(top.j) >= 0)
            for J in range(2, 13):
                assert np.all(np.diff(top.level(J)[1].j) >= 0)

    def test_levels_outside_rejected(self, sys2):
        top = enriched_basis(sys2, 2, 5, GAMMA)
        for J in (1, 6):
            with pytest.raises(ValueError, match=f"level {J} outside"):
                top.level(J)
