"""Unit tests for the configuration-driven experiment runner."""

import math
import pathlib
import textwrap
import warnings
from fractions import Fraction

import numpy as np
import pytest

import wavegal.cli as cli
from wavegal.analysis import CSV_HEADER, error_norms
from wavegal.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_SYSTEM,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    run,
)
from wavegal.galerkin import SolverError
from wavegal.problems import ExactSolution

from test_problems import ex3_closed_form


def write_config(tmp_path, body):
    p = tmp_path / "exp.ini"
    p.write_text(textwrap.dedent(body))
    return str(p)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        ExperimentConfig().validate()

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            ExperimentConfig(mode="fancy").validate()

    def test_unknown_problem(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            ExperimentConfig(problem="ex9").validate()

    def test_empty_level_range(self):
        with pytest.raises(ConfigError, match="empty level range"):
            ExperimentConfig(jmin=5, jmax=3).validate()

    def test_level_guard(self):
        with pytest.raises(ConfigError, match="guard"):
            ExperimentConfig(jmax=99).validate()

    def test_inline_requires_problem_section(self):
        with pytest.raises(ConfigError, match="\\[problem\\]"):
            ExperimentConfig(problem="inline").validate()


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [experiment]
            problem = ex1
            mode = fem
            jmin = 3
            jmax = 5
            """,
        )
        cfg = load_config(path)
        assert cfg.problem == "ex1" and cfg.mode == "fem"
        assert cfg.jmin == 3 and cfg.jmax == 5

    def test_inline_problem_section(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [experiment]
            jmax = 3
            [problem]
            gamma = 0.5
            a_minus = 1
            a_plus = 10
            g_gamma = 0
            u_minus = x*(1-x)
            u_plus = x*(1-x)/10
            """,
        )
        cfg = load_config(path)
        assert cfg.problem == "inline"
        assert cfg.problem_spec["a_plus"] == "10"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/exp.ini")

    def test_unknown_key_refused(self, tmp_path):
        # a stale fine-grid line from older configs must not pass silently
        path = write_config(tmp_path, "[experiment]\njmax = 4\nF = 14\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)
        assert main(["--config", path]) == EXIT_CONFIG

    def test_bad_integer(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\njmax = six\n")
        with pytest.raises(ConfigError, match="bad integer"):
            load_config(path)


class TestExitCodes:
    def test_empty_range_is_config_error(self):
        assert main(["--problem", "ex2", "--jmin", "5", "--jmax", "3"]) == EXIT_CONFIG

    def test_unknown_problem_is_config_error(self):
        assert main(["--problem", "ex9"]) == EXIT_CONFIG

    def test_corrupt_system_file_is_system_error(self, tmp_path):
        bad = tmp_path / "sys.txt"
        bad.write_text("m 2\nr 1\nJ0 2\noffsets 2 2 1 2\nFUNC wat[0]\n")
        assert main(["--system", str(bad), "--verify-only"]) == EXIT_SYSTEM

    def test_short_layout_is_system_error(self, tmp_path, capsys):
        # offsets that leave level 2 without interior wavelets are refused before the battery
        bad = tmp_path / "sys.txt"
        text = pathlib.Path(__file__).with_name("data").joinpath("builtin_order2.sys").read_text()
        bad.write_text(text.replace("offsets 2 2 1 2\n", "offsets 2 2 1 200\n"))
        assert main(["--system", str(bad), "--verify-only"]) == EXIT_SYSTEM
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "level 2 has 5 scaling and wavelet functions but level 3 has 7 scaling functions" in captured.err

    def test_missing_system_file_is_config_error(self, tmp_path):
        assert main(["--system", str(tmp_path / "none.sys"), "--verify-only"]) == EXIT_CONFIG

    def test_out_naming_a_file_is_refused_before_the_sweep(self, monkeypatch, tmp_path, capsys):
        def no_assembly(*args):
            raise AssertionError("assembled")

        monkeypatch.setattr(cli, "assemble", no_assembly)
        path = tmp_path / "taken"
        path.write_text("")
        assert main(["--problem", "ex2", "--jmax", "5", "--out", str(path)]) == EXIT_CONFIG
        assert "cannot use output directory" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, monkeypatch):
        def boom(system):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "solve", boom)
        assert main(["--problem", "ex2", "--jmax", "2"]) == EXIT_SOLVER

    def test_enrichment_depth_guard_reads_the_order(self, monkeypatch):
        # an order-3 system enriches to level 4 jmax - 1, so jmax=8 (level 31)
        # is refused before any basis is built and jmax=7 (level 27) is not
        import dataclasses

        from wavegal.piecewise import PiecewisePolynomial
        from wavegal.wavelets import builtin_order2_system

        # order 3 needs quadratic interior scaling functions: the hat, padded
        sys2 = builtin_order2_system()
        phi = tuple(PiecewisePolynomial(f.breakpoints, [p + (0,) for p in f.pieces]) for f in sys2.phi)
        order3 = dataclasses.replace(sys2, m=3, phi=phi)

        def no_basis(*args):
            raise RuntimeError("basis built")

        monkeypatch.setattr(cli, "_get_system", lambda source: order3)
        monkeypatch.setattr(cli, "enriched_basis", no_basis)
        with pytest.raises(ConfigError, match="enrichment level 31"):
            run(ExperimentConfig(problem="ex2", jmax=8))
        assert main(["--problem", "ex2", "--jmax", "8"]) == EXIT_CONFIG
        with pytest.raises(RuntimeError, match="basis built"):
            run(ExperimentConfig(problem="ex2", jmax=7))

    def test_code_in_problem_section_is_config_error(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            [experiment]
            jmax = 3
            [problem]
            gamma = 0.5
            a_minus = 1
            a_plus = 2
            g_gamma = 0
            u_minus = __import__("os").getpid()
            u_plus = x*(1-x)
            """,
        )
        assert main(["--config", path]) == EXIT_CONFIG

    @pytest.mark.parametrize("a_minus", ["-1", "0"])
    def test_nonpositive_coefficient_is_config_error(self, tmp_path, capsys, a_minus):
        path = write_config(
            tmp_path,
            f"""
            [experiment]
            jmax = 3
            [problem]
            gamma = 0.5
            a_minus = {a_minus}
            a_plus = 1
            f_minus = 1
            f_plus = 1
            g_gamma = 0
            """,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", path]) == EXIT_CONFIG
        assert "diffusion coefficient not positive" in capsys.readouterr().err

    @staticmethod
    def refused(tmp_path, capsys, fields, jmax=4):
        """stderr of a refused inline problem, u = x(1-x) unless fields say
        otherwise; numpy warns of nothing, and no output is written."""
        spec = {"gamma": "0.5", "a_minus": "1", "a_plus": "1", "g_gamma": "0",
                "u_minus": "x*(1-x)", "u_plus": "x*(1-x)", **fields}
        path = write_config(tmp_path, f"[experiment]\njmax = {jmax}\n[problem]\n"
                            + "".join(f"{k} = {v}\n" for k, v in spec.items()))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not list(out.glob("*"))
        return capsys.readouterr().err

    @pytest.mark.parametrize("fields, what", [
        # a NaN sample of a+ fails the spot check, as one of a- does
        ({"a_plus": "sqrt(x - 0.9)"}, "diffusion coefficient not finite at x = 0.5009765625"),
        # NaN at quadrature nodes between the spot check's samples, which sit
        # at the zeros of the sine
        ({"a_plus": "1 + sqrt(sin(2048*pi*x) + 1e-9)"}, "diffusion coefficient not finite at x = 0.5"),
        # a source given beside the exact solution, or manufactured from it
        ({"f_minus": "2", "f_plus": "sqrt(x - 0.9)"}, "source term not finite at x = 0.5"),
        ({"u_plus": "sqrt(x - 0.9)"}, "source term not finite at x = 0.5"),
        ({"u_plus": "sqrt(x - 0.9)", "f_minus": "2", "f_plus": "2"}, "exact solution not finite at x = 0.5"),
        # infinite at the spot sample 0.75: was exit code 0, orders of -0.00
        ({"a_plus": "1/(x - 0.75)^2"}, "diffusion coefficient not finite at x = 0.75"),
        # finite but negative between the spot samples: was a LinAlgError
        # traceback and exit code 1
        ({"a_plus": "1 + 2*sin(2048*pi*x)"}, "diffusion coefficient not positive at x = 0.500"),
    ], ids=["a_plus", "a_plus-between-samples", "f_plus", "u_plus", "u_plus-f-given", "a_plus-pole",
            "a_plus-negative-between-samples"])
    def test_non_finite_data_is_config_error(self, tmp_path, capsys, fields, what):
        assert what in self.refused(tmp_path, capsys, fields)

    @pytest.mark.parametrize("body, why", [
        # files configparser cannot read, or a value it cannot interpolate: each
        # was a traceback and exit code 1
        (b"[experiment]\njmax = 4\njmax = 5\n", "[line 3]: option 'jmax' in section 'experiment' already exists"),
        (b"[experiment]\njmax = 4\n[experiment]\njmin = 2\n", "[line 3]: section 'experiment' already exists"),
        (b"jmax = 4\n", "File contains no section headers."),
        (b"[experiment]\njmax\n", "[line 2]: 'jmax"),
        (b"[experiment]\njmax = 4\n# \xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"[experiment]\nproblem = ex2\njmax = 4\n[problem]\na_plus = 5%\n", "'%' must be followed by '%' or '('"),
        # [problem] keys no spec has: ignored with exit code 0, or for pid a
        # TypeError traceback
        (b"[experiment]\nproblem = ex2\njmax = 4\n[problem]\nbogus = 1\n", "unknown problem key(s): bogus"),
        (b"[experiment]\nproblem = ex2\njmax = 4\n[problem]\na_plsu = 5\n", "unknown problem key(s): a_plsu"),
        (b"[experiment]\nproblem = ex2\njmax = 4\n[problem]\npid = ex1\n", "unknown problem key(s): pid"),
        (b"[experiment]\nproblem = ex2\njmax = 4\n[problem]\nconstants = A\n",
         "constants must be a mapping of names to values, got 'A'"),
        # ex1's u, built for gamma = pi/6, at gamma = 0.3: was exit code 0, orders of 0.00
        (b"[experiment]\nproblem = ex1\njmax = 4\n[problem]\ngamma = 0.3\n",
         "the exact solution misses [u](gamma) = 0: residual "),
    ], ids=["duplicate-option", "duplicate-section", "no-section-header", "no-equals", "undecodable",
            "interpolation", "bogus", "a_plsu", "pid", "constants", "ex1-gamma"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, body, why):
        path = tmp_path / "exp.ini"
        path.write_bytes(body)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: ")
        assert why in lines[0] and "Traceback" not in captured.err
        assert captured.out == "" and not list(out.glob("*"))

    def test_assembly_overflow_is_config_error(self, tmp_path, capsys):
        # a and f are finite at every node, the stiffness entries are not
        err = self.refused(tmp_path, capsys, {"a_plus": "1e305"}, jmax=10)
        assert "the stiffness matrix overflowed" in err

    @pytest.mark.parametrize("f_minus, why", [
        # a sqrt-like singularity off 0 needs far more halvings than the depth
        # cap allows
        ("1/sqrt(x + 1e-30)", "after 30 halvings"),
        # singular at 0 itself, which no Chebyshev point of the first kind samples
        ("1/sqrt(x)", "after 30 halvings"),
    ])
    def test_unresolvable_flux_table_is_config_error(self, tmp_path, capsys, f_minus, why):
        path = write_config(
            tmp_path,
            f"""
            [experiment]
            jmax = 3
            [problem]
            gamma = 0.5
            a_minus = 1
            a_plus = 1
            f_minus = {f_minus}
            f_plus = 1
            g_gamma = 0
            """,
        )
        assert main(["--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "left (0 < x < gamma) side" in err and why in err and "on [0, " in err

    def test_verify_only_builtin(self, capsys):
        assert main(["--verify-only"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_verify_only_runs_the_battery_once(self, monkeypatch, tmp_path, capsys):
        import wavegal.wavelets as wavelets

        path = tmp_path / "sys.txt"
        wavelets.save_system(wavelets.builtin_order2_system(), path)
        # every battery computes the boundary and the interior moments once each, whoever runs it
        calls = []
        real = wavelets._moment_misfits
        monkeypatch.setattr(wavelets, "_moment_misfits", lambda sysdef, sides: calls.append(sides) or real(sysdef, sides))
        wavelets.builtin_order2_system.cache_clear()  # a fresh process builds the system anew
        try:
            for argv in (["--verify-only"], ["--verify-only", "--system", str(path)]):
                calls.clear()
                assert main(argv) == EXIT_OK
                assert calls == [("left", "right"), ("interior",)], argv
                out = capsys.readouterr().out.splitlines()
                assert len(out) == 7 and all(line.startswith("PASS") for line in out)
        finally:
            wavelets.builtin_order2_system.cache_clear()

    def test_verify_only_prints_every_check_of_a_failing_file(self, tmp_path, capsys):
        from wavegal.wavelets import builtin_order2_system, save_system

        path = tmp_path / "sys.txt"
        save_system(builtin_order2_system(), path)
        # bump one coefficient of the interior dual wavelet by 1e-3
        text = path.read_text().splitlines()
        at = text.index("FUNC psi_dual[0]") + 2
        toks = text[at].split()
        toks[1] = repr(float(Fraction(toks[1])) + 1e-3)
        text[at] = " ".join(toks)
        path.write_text("\n".join(text) + "\n")
        assert main(["--verify-only", "--system", str(path)]) == EXIT_SYSTEM
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert len(out) == 7
        assert [line.split()[1].rstrip(":") for line in out if line.startswith("FAIL")] == [
            "biorthogonality-interior",
            "biorthogonality-level-J0",
            "moments-interior",
            "dual-antiderivative-ladder",
        ]
        assert "biorthogonality-interior (residual" in captured.err


class TestRun:
    def test_small_sweep_outputs(self, tmp_path):
        out = tmp_path / "res"
        code = main(["--problem", "ex2", "--jmin", "2", "--jmax", "3", "--out", str(out)])
        assert code == EXIT_OK
        csv_path = out / "ex2_enriched.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # header + J=2,3
        # second record carries orders, first does not
        assert lines[1].split(",")[4] == ""
        assert lines[2].split(",")[4] != ""
        for norm in ("L2", "H1"):
            dat = (out / f"ex2_enriched_{norm}.dat").read_text().splitlines()
            assert len(dat) == 2
            assert dat[0].split()[0] == "-2"

    def test_fem_mode_dimensions(self):
        records = run(ExperimentConfig(problem="ex2", mode="fem", jmin=2, jmax=4))
        assert [r.N_J for r in records] == [7, 15, 31]

    def test_enriched_mode_dimensions(self):
        records = run(ExperimentConfig(problem="ex1", jmin=2, jmax=4))
        assert [r.N_J for r in records] == [10, 21, 40]

    def test_sweep_builds_no_exact_functions(self, monkeypatch):
        # a sweep reads the gathered float tables only: once the system and
        # problem exist, no basis function is built in exact arithmetic
        from wavegal.piecewise import PiecewisePolynomial
        from wavegal.wavelets import builtin_order2_system

        builtin_order2_system()

        def refuse(*args):
            raise AssertionError("dilate called during a sweep")

        monkeypatch.setattr(PiecewisePolynomial, "dilate", refuse)
        for mode in ("enriched", "fem"):
            records = run(ExperimentConfig(problem="ex2", mode=mode, jmin=2, jmax=6))
            assert len(records) == 5

    def test_one_mesh_per_level(self, monkeypatch):
        # every level is a principal sub-system of the top level's, so a
        # sweep builds one graded mesh and one synthesis matrix in all, which
        # assembly and every level's error measurement share
        import wavegal.galerkin as galerkin

        calls = {"_graded_mesh": 0, "_synthesis": 0}
        for name in calls:
            def counted(*args, _real=getattr(galerkin, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(galerkin, name, counted)
        for mode in ("enriched", "fem"):
            for name in calls:
                calls[name] = 0
            records = run(ExperimentConfig(problem="ex3", mode=mode, jmin=2, jmax=5))
            assert len(records) == 4
            assert calls == {"_graded_mesh": 1, "_synthesis": 1}

    def test_one_assembly_per_sweep(self, monkeypatch):
        # the basis, the assembly and the exact u and u' once per sweep; the
        # solve, kappa and errors once per level, by their names in cli
        import wavegal.problems as problems

        calls = dict.fromkeys(("enriched_basis", "truncated_basis", "assemble", "solve",
                               "condition_number", "error_norms", "values"), 0)

        def counting(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return counted

        for name in calls:
            if name != "values":
                monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        for kind in (problems.ExactSolution, problems._FluxSolution):  # closed form, flux table
            monkeypatch.setattr(kind, "values", counting("values", kind.values))
        for problem in ("ex1", "ex3"):
            for mode in ("enriched", "fem"):
                calls.update(dict.fromkeys(calls, 0))
                records = run(ExperimentConfig(problem=problem, mode=mode, jmin=3, jmax=6))
                n = len(records)
                assert calls == {"enriched_basis": mode == "enriched", "truncated_basis": mode == "fem",
                                 "assemble": 1, "solve": n, "condition_number": n,
                                 "error_norms": n, "values": 1}

    def test_exact_values_when_first_factor_freed(self, monkeypatch):
        # the exact u and u' are evaluated once the first level's factor is
        # freed, so a single-level sweep holds no more than one assembled
        # level did
        import wavegal.problems as problems

        events, systems = [], []
        real_solve, real_errors = cli.solve, cli.error_norms

        def keeping_solve(system):
            systems.append(system)
            return real_solve(system)

        def errors(sol, *args, **kwargs):
            events.append("error_norms")
            return real_errors(sol, *args, **kwargs)

        def watched(real):
            def values(*args, **kwargs):
                assert systems and systems[0].factor is None
                events.append("values")
                return real(*args, **kwargs)
            return values

        monkeypatch.setattr(cli, "solve", keeping_solve)
        monkeypatch.setattr(cli, "error_norms", errors)
        for kind in (problems.ExactSolution, problems._FluxSolution):  # closed form, flux table
            monkeypatch.setattr(kind, "values", watched(kind.values))
        for problem in ("ex1", "ex3"):
            for mode in ("enriched", "fem"):
                for jmin in (3, 6):
                    events.clear()
                    systems.clear()
                    records = run(ExperimentConfig(problem=problem, mode=mode, jmin=jmin, jmax=6))
                    assert events == ["values"] + ["error_norms"] * len(records)

    def test_one_factorization_per_level(self, monkeypatch):
        # condition_number inverts with the factor solve made, and the
        # factor is dropped before the errors are measured; only the
        # coupled rows (more than one stored entry) are factored
        import wavegal.galerkin as galerkin

        sizes, systems = [], []
        real_factor, real_solve, real_errors = galerkin._spd_factor, cli.solve, cli.error_norms

        def counted(A):
            sizes.append(A.shape[0])
            return real_factor(A)

        def keeping_solve(system):
            systems.append(system)
            return real_solve(system)

        def errors(sol, *args, **kwargs):
            assert systems[-1].factor is None
            return real_errors(sol, *args, **kwargs)

        monkeypatch.setattr(galerkin, "_spd_factor", counted)
        monkeypatch.setattr(cli, "solve", keeping_solve)
        monkeypatch.setattr(cli, "error_norms", errors)
        for problem in ("ex2", "ex3"):
            for mode in ("enriched", "fem"):
                sizes.clear()
                systems.clear()
                run(ExperimentConfig(problem=problem, mode=mode, jmin=2, jmax=5))
                assert sizes == [np.count_nonzero(np.diff(s.A.indptr) > 1) for s in systems]

    def test_reference_solve_when_no_exact(self, monkeypatch):
        # ex3 gives no closed form: its errors are measured against the flux
        # quadrature, and the sweep solves one system per level, no reference
        solved = []
        real_solve = cli.solve

        def counting_solve(system):
            solved.append(real_solve(system))
            return solved[-1]

        monkeypatch.setattr(cli, "solve", counting_solve)
        records = run(ExperimentConfig(problem="ex3", jmin=2, jmax=3))
        assert [s.basis.J for s in solved] == [2, 3]
        u, du = ex3_closed_form()
        exact = ExactSolution(*u, *du)
        for rec, sol in zip(records, solved):
            pair = error_norms(sol, exact.values(math.pi / 6, sol.form.nodes()))
            assert rec.E_L2 == pytest.approx(pair.E_L2, rel=1e-10)
            assert rec.E_H1 == pytest.approx(pair.E_H1, rel=1e-10)

    def test_errors_decrease(self):
        records = run(ExperimentConfig(problem="ex2", jmin=2, jmax=5))
        errs = [r.E_L2 for r in records]
        assert errs[-1] < errs[0]
