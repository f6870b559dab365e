"""Unit tests for the configuration-driven experiment runner."""

import textwrap

import pytest

import wavegal.cli as cli
from wavegal.analysis import CSV_HEADER
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

    def test_solver_failure_exit_code(self, monkeypatch):
        def boom(system, method="auto"):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(cli, "solve", boom)
        assert main(["--problem", "ex2", "--jmax", "2"]) == EXIT_SOLVER

    def test_verify_only_builtin(self, capsys):
        assert main(["--verify-only"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out


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

    def test_reference_solve_when_no_exact(self):
        # ex3 has no closed form; errors come from a finer reference solve
        records = run(ExperimentConfig(problem="ex3", jmin=2, jmax=2))
        assert len(records) == 1
        assert records[0].E_L2 > 0.0

    def test_errors_decrease(self):
        records = run(ExperimentConfig(problem="ex2", jmin=2, jmax=5))
        errs = [r.E_L2 for r in records]
        assert errs[-1] < errs[0]
