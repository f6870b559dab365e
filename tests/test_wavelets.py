"""Unit tests for the wavelet system: construction, verification, file format."""

import dataclasses
import math
import pathlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavegal.piecewise import Interval, PiecewisePolynomial, inner_product
from wavegal.wavelets import (
    SystemFormatError,
    SystemVerificationError,
    builtin_order2_system,
    full_verification,
    load_system,
    save_system,
    _FAMILY_NAMES,
    _accept,
    _cell_moments,
    _gauss_solve,
    _meeting,
    _spline_system,
)

BUILTIN_FILE = pathlib.Path(__file__).parent / "data" / "builtin_order2.sys"


@pytest.fixture(scope="module")
def sys2():
    return builtin_order2_system()


class TestBuiltinSystem:
    def test_full_verification_passes(self, sys2):
        report = full_verification(sys2)
        assert report.all_passed, str(report)
        # the construction is exact, so every residual should be literally zero
        assert all(r == 0.0 for r in report.checks.values()), report.checks

    def test_primal_values(self, sys2):
        phi = sys2.phi[0]
        assert phi(0.0) == 1.0
        assert phi(-1.0) == 0.0 and phi(1.0) == 0.0
        psi = sys2.psi[0]
        assert psi(0.5) == 1.0
        assert (float(psi.support.lo), float(psi.support.hi)) == (0.0, 1.0)

    def test_interior_dual_moments_vanish_exactly(self, sys2):
        for d in range(sys2.m):
            assert sys2.psi_dual[0].moment(d, 0) == Fraction(0)

    def test_boundary_dual_first_moment_vanishes(self, sys2):
        assert sys2.psi_left_dual[0].moment(1, 0) == Fraction(0)
        assert sys2.psi_right_dual[0].moment(1, 1) == Fraction(0)

    def test_boundary_dual_zeroth_moment_may_be_nonzero(self, sys2):
        left = float(sys2.psi_left_dual[0].moment(0, 0))
        right = float(sys2.psi_right_dual[0].moment(0, 1))
        assert abs(left) > 0.1  # genuinely nonzero, and that is fine
        assert right == pytest.approx(left, abs=1e-12)  # mirror

    def test_right_families_are_mirrors(self, sys2):
        import numpy as np

        # the right mother is the left one mirrored about x = 1
        xs = np.linspace(0.0, 2.0, 41)
        assert sys2.phi_right[0].evaluate_array(1.0 - xs) == pytest.approx(
            sys2.phi_left[0].evaluate_array(xs), abs=1e-14
        )

    def test_level_set_bijection_counts(self, sys2):
        j = sys2.J0
        for kind, n in (("scaling", 2**j - 1), ("wavelet", 2**j)):
            members = sys2.translates(kind, j)
            assert sum(len(ks) for *_, ks in members) == n
            for side, comp, _ in members:  # each member's primal has its dual
                assert len(sys2.family(kind, side, dual=True)) > comp

    def test_short_layout_is_refused(self, sys2):
        # V_{j+1} = V_j + W_j: at J0 and J0 + 1 the scaling and wavelet members
        # count as many as the next level's scaling members, from J0 = 2 on
        assert dataclasses.replace(sys2, J0=4).J0 == 4
        with pytest.raises(ValueError, match=r"level 1 has 4 scaling and wavelet functions but level 2 has 3"):
            dataclasses.replace(sys2, J0=1)

    @pytest.mark.parametrize("J0", [2, 3])
    def test_exact_battery_at_odd_and_even_coarsest_level(self, sys2, J0):
        # at odd J0 each level-J0 function carries 2^(J0/2), a float; the
        # battery pairs the primal's and the dual's into the exact 2^J0
        report = full_verification(dataclasses.replace(sys2, J0=J0))
        assert all(r == 0.0 for r in report.checks.values()), report.checks


class TestDualRule:
    """Every dual is the minimum-norm spline biorthogonal to the primals of
    its level that meet its grid, with rows in closed form."""

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.lists(st.integers(-24, 24), min_size=2, max_size=6, unique=True).map(
            lambda ns: [Fraction(n, 4) for n in sorted(ns)]),
        deg=st.integers(0, 3),
        data=st.data(),
    )
    def test_closed_form_rows_equal_inner_products(self, grid, deg, data):
        # a random dyadic target breaking only at grid points or past the grid's
        # ends; the reference pairs it with each unit monomial (x - a)^d of a cell
        past = [grid[0] - 1, grid[0] - Fraction(1, 8), grid[-1] + Fraction(1, 2), grid[-1] + 3]
        breaks = sorted(set(data.draw(st.lists(st.sampled_from(grid + past), min_size=2, unique=True))))
        coeff = st.fractions(-4, 4, max_denominator=8)
        pieces = [data.draw(st.lists(coeff, min_size=1, max_size=4)) for _ in breaks[1:]]
        t = PiecewisePolynomial(breaks, pieces)
        want = [inner_product(t, PiecewisePolynomial([a, b], [[Fraction(n == d) for n in range(deg + 1)]]))
                for a, b in zip(grid, grid[1:]) for d in range(deg + 1)]
        assert _cell_moments(t, grid, deg) == want

    def test_target_breaking_inside_a_cell_is_refused(self):
        hat = PiecewisePolynomial([0, Fraction(1, 4), 1], [(0, 4), (1, Fraction(-4, 3))])
        with pytest.raises(ValueError, match="inside a cell"):
            _cell_moments(hat, [Fraction(0), Fraction(1, 2), Fraction(1)], 1)

    @pytest.mark.parametrize("name, kind, side", [("phi", "scaling", "interior"), ("psi", "wavelet", "interior"),
                                                  ("phi_left", "scaling", "left"), ("psi_left", "wavelet", "left")])
    def test_constraints_are_the_primals_each_dual_meets(self, sys2, name, kind, side):
        # the oracle enumerates a level's layout: every primal whose support
        # interior meets the dual's, the dual placed at k0 (mid-level for an
        # interior one), keyed by family, component and k - k0
        def oracle(j, dual, k0):
            span, out = Interval(dual.support.lo + k0, dual.support.hi + k0), {}
            for pkind in ("scaling", "wavelet"):
                for pside, comp, ks in sys2.translates(pkind, j):
                    f = sys2.family(pkind, pside)[comp]
                    key = {"scaling": "phi", "wavelet": "psi"}[pkind] + ("" if pside == "interior" else f"_{pside}")
                    out.update({(key, comp, k - k0): f.translate(k - k0) for k in ks
                                if Interval(f.support.lo + k, f.support.hi + k).intersects(span)})
            return out

        line = [("phi", sys2.phi, -math.inf, math.inf), ("psi", sys2.psi, -math.inf, math.inf)]
        level = [("phi_left", sys2.phi_left, 0, 0), ("psi_left", sys2.psi_left, 0, 0),
                 ("phi", sys2.phi, sys2.n_l_phi, math.inf), ("psi", sys2.psi, sys2.n_l_psi, math.inf)]
        layouts = [(j, 0) for j in (sys2.J0, sys2.J0 + 3)] if side == "left" else [(6, 32)]
        for comp, dual in enumerate(sys2.family(kind, side, dual=True)):
            derived = _meeting((dual.support.lo, dual.support.hi), level if side == "left" else line)
            for j, k0 in layouts:
                targets = oracle(j, dual, k0)
                assert derived.keys() == targets.keys(), (j, k0)
                for key, f in targets.items():
                    assert inner_product(f, dual) == (1 if key == (name, comp, 0) else 0), key

    def test_offsets_and_coarsest_level_read_off_the_supports(self, sys2):
        assert (sys2.n_l_phi, sys2.n_h_phi, sys2.n_l_psi, sys2.n_h_psi, sys2.J0) == (2, 2, 1, 2, 2)

    def test_consistent_dependent_constraints_are_solved(self):
        # the second row repeats the first: its column gets 0, and the row reads 0 = 0
        M = [[Fraction(v) for v in row] for row in ([1, 2, 0], [2, 4, 0], [0, 0, 3])]
        assert _gauss_solve(M, [Fraction(1), Fraction(2), Fraction(1)]) == [1, 0, Fraction(1, 3)]

    def test_inconsistent_dependent_constraints_raise(self):
        with pytest.raises(ValueError, match=r"inconsistent dependent constraints \(residual 1.000e\+00\)"):
            M = [[Fraction(v) for v in row] for row in ([1, 2, 0], [2, 4, 0], [0, 0, 3])]
            _gauss_solve(M, [Fraction(1), Fraction(3), Fraction(1)])

    def test_order3_recipe_builds(self):
        # quadratic B-spline phi on knots -1..2, psi = phi(2x+1) + 3 phi(2x) - 3 phi(2x-1) - phi(2x-2),
        # and at the left end the B-spline on knots 0, 0, 1, 2: on [-2, 3] the 14 interior translates
        # meeting a dual span 12 dimensions, so two of its constraints are dependent but consistent
        half = Fraction(1, 2)
        phi = PiecewisePolynomial([-1, 0, 1, 2], [(0, 0, half), (half, 1, -1), (half, -1, half)])
        psi = phi.dilate(1, -1) + phi.dilate(1, 0).scale(3) + phi.dilate(1, 1).scale(-3) + phi.dilate(1, 2).scale(-1)
        phi_l = PiecewisePolynomial([0, 1, 2], [(0, 2, Fraction(-3, 2)), (half, -1, half)])
        sys3 = _spline_system(3, (phi,), (psi,), (phi_l, phi.translate(1)), (phi_l.dilate(1, 0), psi.translate(1)),
                              {"phi": (-2, 3), "psi": (-2, 3), "left": (0, 4)}, deg=2)
        assert (sys3.J0, sys3.n_l_phi, sys3.n_h_phi, sys3.n_l_psi, sys3.n_h_psi) == (3, 2, 3, 2, 3)
        checks = sys3.verification.checks
        assert len(checks) == 7 and all(r == 0.0 for r in checks.values()), checks


class TestPerturbationSensitivity:
    @pytest.mark.parametrize("name, nan_checks, failed", [
        ("phi", ["biorthogonality-interior", "biorthogonality-level-J0", "h1-membership"], ""),
        ("psi_dual", ["biorthogonality-interior", "biorthogonality-level-J0", "moments-interior"],
         ", dual-antiderivative-ladder (residual 1.000e+00)"),
    ], ids=["phi", "psi_dual"])
    def test_nan_coefficient_fails(self, sys2, name, nan_checks, failed):
        # max(0.0, nan) is 0.0, so a NaN misfit must not pass as one more small residual
        f = getattr(sys2, name)[0]
        pieces = [list(p) for p in f.pieces]
        pieces[0][0] = math.nan
        bad_sys = dataclasses.replace(sys2, **{name: (PiecewisePolynomial(f.breakpoints, pieces),)})
        assert not bad_sys.verification.all_passed
        assert [n for n, r in bad_sys.verification.checks.items() if math.isnan(r)] == nan_checks
        with pytest.raises(SystemVerificationError) as err:
            _accept(bad_sys)
        named = ", ".join(f"{n} (residual nan)" for n in nan_checks)
        assert str(err.value) == f"system verification failed: {named}{failed}"

    def test_single_coefficient_perturbation_is_detected(self, sys2):
        # bump one coefficient of the interior dual wavelet by 1e-3
        pd = sys2.psi_dual[0]
        pieces = [list(p) for p in pd.pieces]
        pieces[0][0] = float(pieces[0][0]) + 1e-3
        bad = PiecewisePolynomial(pd.breakpoints, [tuple(p) for p in pieces])
        bad_sys = dataclasses.replace(sys2, psi_dual=(bad,))
        report = full_verification(bad_sys)
        assert not report.all_passed
        assert report.checks["biorthogonality-interior"] >= 1e-4
        assert report.checks["biorthogonality-level-J0"] >= 1e-4

    def test_moment_break_is_detected(self, sys2):
        # adding a constant offset on one cell breaks the vanishing moments
        pd = sys2.psi_dual[0]
        pieces = [list(p) for p in pd.pieces]
        pieces[1][0] = float(pieces[1][0]) + 1e-2
        bad = PiecewisePolynomial(pd.breakpoints, [tuple(p) for p in pieces])
        bad_sys = dataclasses.replace(sys2, psi_dual=(bad,))
        report = full_verification(bad_sys)
        assert not report.all_passed
        assert report.checks["moments-interior"] >= 1e-4


def ladder(f, m, to_right=False):
    """The m iterated antiderivatives of f that the battery's ladder check
    reads: from the left, or minus the integral from the right."""
    steps = []
    for _ in range(m):
        f, _ = f.antiderivative_to_right() if to_right else f.antiderivative_from_left()
        steps.append(f)
    return steps


class TestAntiderivativeLadder:
    def test_interior_ladder_stays_supported(self, sys2):
        sup = sys2.psi_dual[0].support
        for step in ladder(sys2.psi_dual[0], sys2.m):
            assert step.support.lo >= sup.lo and step.support.hi <= sup.hi

    def test_left_ladder_endpoint_values(self, sys2):
        step1, step2 = ladder(sys2.psi_left_dual[0], sys2.m, to_right=True)[:2]
        v1 = float(step1._local_coeffs(step1.breakpoints[0])[0])
        assert abs(v1) > 0.1  # first step may be (and is) nonzero at x=0
        v2 = float(step2._local_coeffs(step2.breakpoints[0])[0])
        assert v2 == pytest.approx(0.0, abs=1e-12)

    def test_right_ladder_mirrors_left(self, sys2):
        r2 = ladder(sys2.psi_right_dual[0], sys2.m)[1]
        assert r2(float(r2.breakpoints[-1])) == pytest.approx(0.0, abs=1e-12)

    def test_residual_is_the_largest_violation(self, sys2):
        # a constant bump on the boundary dual's cell next to its endpoint moves
        # the second ladder step's endpoint value by 1/8 of the bump: the left
        # ladder misses by about 1e-11 (under the tolerance), the right by 1e-3
        def bumped(f, piece, eps):
            pieces = [list(p) for p in f.pieces]
            pieces[piece][0] += eps
            return PiecewisePolynomial(f.breakpoints, pieces)

        bad_sys = dataclasses.replace(
            sys2,
            psi_left_dual=(bumped(sys2.psi_left_dual[0], 0, 8.336e-11),),
            psi_right_dual=(bumped(sys2.psi_right_dual[0], -1, 8.336e-3),),
        )
        ladder = full_verification(bad_sys).checks["dual-antiderivative-ladder"]
        assert ladder == pytest.approx(1.042e-3, rel=1e-9)


class TestVerificationReport:
    def test_names_order_and_str(self, sys2):
        report = full_verification(
            dataclasses.replace(sys2, psi_dual=(sys2.psi_dual[0].scale(Fraction(3, 2)),))
        )
        assert list(report.checks) == [
            "biorthogonality-interior",
            "biorthogonality-level-J0",
            "moments-boundary",
            "moments-interior",
            "h1-membership",
            "support-disjointness-J0",
            "dual-antiderivative-ladder",
        ]
        lines = str(report).splitlines()
        assert [line.split()[1].rstrip(":") for line in lines] == list(report.checks)
        assert lines[0] == "FAIL  biorthogonality-interior: 5.000e-01"
        assert lines[2] == "PASS  moments-boundary: 0.000e+00"


def _mutate(path_in, path_out, fn):
    with open(path_in) as fh:
        lines = fh.read().splitlines()
    with open(path_out, "w") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


class TestFileFormat:
    def test_round_trip(self, sys2, tmp_path):
        p = tmp_path / "sys.txt"
        save_system(sys2, p)
        loaded = load_system(p)
        assert loaded.m == sys2.m and loaded.J0 == sys2.J0
        # exact coefficients are written as p/q, so the copy is exact too
        for name in _FAMILY_NAMES:
            for f, g in zip(getattr(loaded, name), getattr(sys2, name), strict=True):
                assert (f.breakpoints, f.pieces) == (g.breakpoints, g.pieces), name
                assert f.is_exact(), name
        assert all(r == 0.0 for r in loaded.verification.checks.values()), loaded.verification.checks

    def test_builtin_saves_to_the_committed_file(self, sys2, tmp_path):
        save_system(sys2, tmp_path / "sys.txt")
        assert (tmp_path / "sys.txt").read_bytes() == BUILTIN_FILE.read_bytes()

    def test_committed_file_loads_exactly(self):
        checks = load_system(BUILTIN_FILE).verification.checks
        assert len(checks) == 7 and all(r == 0.0 for r in checks.values()), checks

    def test_bad_coefficient_token(self, sys2, tmp_path):
        src, dst = tmp_path / "a.txt", tmp_path / "b.txt"
        save_system(sys2, src)
        _mutate(src, dst, lambda ls: [l.replace("PIECE 0 1", "PIECE 0 1/0") for l in ls])
        with pytest.raises(SystemFormatError, match="bad coefficient"):
            load_system(dst)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient_is_refused(self, tmp_path, token):
        # the reader refuses a non-finite token at once, naming its line
        dst = tmp_path / "b.txt"
        _mutate(BUILTIN_FILE, dst, lambda ls: [l.replace("PIECE 0 1", f"PIECE {token} 1") for l in ls])
        with pytest.raises(SystemFormatError, match=f"line 8: bad coefficient: '{token}' is not finite"):
            load_system(dst)

    def test_empty_piece_line_is_refused(self, tmp_path):
        # a piece needs its constant coefficient: the battery reads each piece's value at its left end
        dst = tmp_path / "b.txt"
        _mutate(BUILTIN_FILE, dst, lambda ls: ["PIECE" if l == "PIECE 0 1" else l for l in ls])
        with pytest.raises(SystemFormatError, match="line 8: bad coefficient: PIECE needs at least one"):
            load_system(dst)

    def test_malformed_func_line(self, sys2, tmp_path):
        src, dst = tmp_path / "a.txt", tmp_path / "b.txt"
        save_system(sys2, src)
        _mutate(src, dst, lambda ls: [l.replace("FUNC psi[0]", "FUNC psi 0") for l in ls])
        with pytest.raises(SystemFormatError, match="malformed FUNC"):
            load_system(dst)

    def test_non_increasing_breaks(self, sys2, tmp_path):
        src, dst = tmp_path / "a.txt", tmp_path / "b.txt"
        save_system(sys2, src)

        def swap(ls):
            out = []
            done = False
            for l in ls:
                if not done and l.startswith("BREAKS"):
                    toks = l.split()
                    toks[1], toks[2] = toks[2], toks[1]
                    l = " ".join(toks)
                    done = True
                out.append(l)
            return out

        _mutate(src, dst, swap)
        with pytest.raises(SystemFormatError, match="not increasing"):
            load_system(dst)

    def test_missing_family(self, sys2, tmp_path):
        src, dst = tmp_path / "a.txt", tmp_path / "b.txt"
        save_system(sys2, src)

        def drop(ls):
            out, skipping = [], False
            for l in ls:
                if l.startswith("FUNC"):
                    skipping = l == "FUNC psi_right_dual[0]"
                if not skipping:
                    out.append(l)
            return out

        _mutate(src, dst, drop)
        with pytest.raises(SystemFormatError, match="missing function families"):
            load_system(dst)

    def test_corrupted_coefficient_fails_verification(self, sys2, tmp_path):
        src, dst = tmp_path / "a.txt", tmp_path / "b.txt"
        save_system(sys2, src)

        def corrupt(ls):
            out, in_target, done = [], False, False
            for l in ls:
                if l.startswith("FUNC"):
                    in_target = l == "FUNC psi_dual[0]"
                if in_target and not done and l.startswith("PIECE"):
                    toks = l.split()
                    toks[1] = repr(float(Fraction(toks[1])) + 1e-3)  # a float token beside exact ones
                    l = " ".join(toks)
                    done = True
                out.append(l)
            return out

        _mutate(src, dst, corrupt)
        with pytest.raises(SystemVerificationError) as err:
            load_system(dst)
        # every failing check is named with its residual, not only the worst
        assert str(err.value) == (
            "system verification failed: biorthogonality-interior (residual 3.750e-04), "
            "biorthogonality-level-J0 (residual 3.750e-04), moments-interior (residual 5.000e-04), "
            "dual-antiderivative-ladder (residual 1.000e+00)"
        )
        assert not err.value.report.all_passed

    @pytest.mark.parametrize("header, broken, names", [
        ("m 2", "m two", "line 2"),
        ("m 2", "m", "line 2"),
        ("offsets 2 2 1 2", "offsets 2 2 1 x", "line 5"),
        ("J0 2", "J0 -1", "J0=-1"),
        ("J0 2", "J0 40", "J0=40"),
        ("m 2", "m 200", "m=200"),
        pytest.param("offsets 2 2 1 2", "offsets 2 2 1 200",
                     "level 2 has 5 scaling and wavelet functions but level 3 has 7 scaling functions",
                     id="offsets-short-layout"),
    ])
    def test_broken_header_line_is_refused_at_once(self, tmp_path, header, broken, names):
        # a bad value is refused before the battery, which could never finish
        # on J0=40 or pass with m=200 and linear scaling functions; offsets that
        # leave level 2 without interior wavelets lay out too few functions
        dst = tmp_path / "b.txt"
        _mutate(BUILTIN_FILE, dst, lambda ls: [broken if l == header else l for l in ls])
        start = time.perf_counter()
        with pytest.raises(SystemFormatError, match=names):
            load_system(dst)
        assert time.perf_counter() - start < 2.0

    def test_trailing_comments_are_ignored(self, tmp_path):
        # README's example of the format puts a comment after a value
        notes = {"offsets 2 2 1 2": "# n_l_phi n_h_phi n_l_psi n_h_psi",
                 "FUNC phi[0]": "# families: phi, psi, ...", "PIECE 0 1": "# about the left endpoint"}
        dst = tmp_path / "b.txt"
        _mutate(BUILTIN_FILE, dst, lambda ls: [f"{l}   {notes[l]}" if l in notes else l for l in ls])
        assert dst.read_text().count("#") == 6  # the heading, and one per noted line ("PIECE 0 1" thrice)
        checks = load_system(dst).verification.checks
        assert all(r == 0.0 for r in checks.values()), checks

    def test_unrecognized_line_reports_position(self, sys2, tmp_path):
        src, dst = tmp_path / "a.txt", tmp_path / "b.txt"
        save_system(sys2, src)
        _mutate(src, dst, lambda ls: ls[:2] + ["wibble 3"] + ls[2:])
        with pytest.raises(SystemFormatError, match="line 3"):
            load_system(dst)
