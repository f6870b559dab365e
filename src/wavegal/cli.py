"""Configuration-driven experiment runner.

Runs a sweep over levels J for one interface problem and one wavelet
system, in either the interface-enriched mode or the plain truncated
(FEM-equivalent) mode, and writes a CSV convergence table plus
two-column plot data (log2 h versus log2 E) per error norm.  Each level
solves one system, measured against the problem's exact solution.

The spaces of a sweep are nested, so it builds the basis of its deepest
level jmax once and assembles it once.  Each level J then solves the
principal sub-system on the rows of its own basis (`galerkin.subsystem`),
and its errors are measured on that one graded mesh, at whose Gauss
nodes the exact u and u' are evaluated once, after the first level's
factor is freed.

Configs are UTF-8 INI files with an [experiment] section and an
optional [problem] section, whose keys replace those of the builtin
problem's spec (or make up an inline one) before `problem_from_spec`
checks and builds it; every experiment key can be overridden from the
command line.  Exit codes: 0 success, 2 bad configuration (with a file
configparser cannot parse, problem data that `problems` refuses, and an
assembly that overflowed), 3 system verification failure, 4 solver
failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    ConvergenceRecord,
    convergence_orders,
    error_norms,
    write_records_csv,
)
from .basis import enriched_basis, truncated_basis
from .galerkin import SolverError, assemble, condition_number, solve, subsystem
from .expressions import ExpressionError
from .problems import BUILTIN_PROBLEMS, problem_from_spec
from .wavelets import (
    SystemFormatError,
    SystemVerificationError,
    builtin_order2_system,
    load_system,
)

__all__ = ["ExperimentConfig", "ConfigError", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SYSTEM = 3
EXIT_SOLVER = 4

MAX_LEVEL = 14
MODES = ("enriched", "fem")
_EXPERIMENT_KEYS = ("problem", "system", "mode", "jmin", "jmax", "out")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    problem: str = "ex2"  # builtin id, or "inline" with problem_spec
    problem_spec: dict = field(default_factory=dict)
    system: str = "builtin"  # "builtin" or a definition-file path
    mode: str = "enriched"
    jmin: int | None = None
    jmax: int = 6
    out: str | None = None

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.problem != "inline" and self.problem not in BUILTIN_PROBLEMS:
            raise ConfigError(
                f"unknown problem {self.problem!r} (builtin: {sorted(BUILTIN_PROBLEMS)}, or 'inline')"
            )
        if self.problem == "inline" and not self.problem_spec:
            raise ConfigError("inline problem requires a [problem] section")
        if self.jmax > MAX_LEVEL:
            raise ConfigError(f"jmax={self.jmax} exceeds the desk-scale guard {MAX_LEVEL}")
        if self.jmin is not None and self.jmin > self.jmax:
            raise ConfigError(f"empty level range: jmin={self.jmin} > jmax={self.jmax}")


def load_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path!r}")
        sections = {name: dict(cp[name]) for name in cp.sections()}
    except (configparser.Error, UnicodeDecodeError) as e:  # one line: configparser's may span several
        raise ConfigError(f"cannot parse config file {path!r}: {' '.join(str(e).split())}") from e
    cfg = ExperimentConfig()
    if "experiment" in sections:
        sec = sections["experiment"]
        unknown = sorted(set(sec) - set(_EXPERIMENT_KEYS))
        if unknown:
            raise ConfigError(f"unknown key(s) in [experiment]: {', '.join(unknown)}")
        cfg.problem = sec.get("problem", cfg.problem)
        cfg.system = sec.get("system", cfg.system)
        cfg.mode = sec.get("mode", cfg.mode)
        try:
            if "jmin" in sec:
                cfg.jmin = int(sec["jmin"])
            if "jmax" in sec:
                cfg.jmax = int(sec["jmax"])
        except ValueError as e:
            raise ConfigError(f"bad integer in [experiment]: {e}") from e
        cfg.out = sec.get("out", cfg.out)
    if "problem" in sections:
        cfg.problem_spec = sections["problem"]
        # a [problem] section without an explicit builtin id means the
        # problem is defined inline; with one, the section holds overrides
        if "problem" not in sections.get("experiment", {}):
            cfg.problem = "inline"
    return cfg


def _get_system(source: str):
    if source == "builtin":
        return builtin_order2_system()
    try:
        return load_system(source)
    except OSError as e:
        raise ConfigError(f"cannot read system file {source!r}: {e}") from e


def _get_problem(cfg: ExperimentConfig):
    """The builtin problem's spec with the [problem] keys over it; an inline
    problem has only the latter."""
    try:
        return problem_from_spec({**BUILTIN_PROBLEMS.get(cfg.problem, {}), **cfg.problem_spec}, name=cfg.problem)
    except ValueError as e:  # ExpressionError among them
        raise ConfigError(f"bad problem definition: {e}") from e


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite: min and max propagate a NaN and
    reach an inf, and make no temporary array of a's size."""
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def run(cfg: ExperimentConfig, log=None) -> list:
    """Execute the sweep; returns convergence records and writes outputs."""
    cfg.validate()
    sysdef = _get_system(cfg.system)
    problem = _get_problem(cfg)
    jmin = cfg.jmin if cfg.jmin is not None else sysdef.J0
    if jmin < sysdef.J0:
        raise ConfigError(f"jmin={jmin} below the system's coarsest level J0={sysdef.J0}")
    levels = list(range(jmin, cfg.jmax + 1))
    if not levels:
        raise ConfigError("empty level range")
    top = sysdef.enrichment_depth(cfg.jmax)  # <= 2 MAX_LEVEL - 1 for m=2
    if cfg.mode == "enriched" and top > 2 * MAX_LEVEL - 1:
        raise ConfigError(f"jmax={cfg.jmax} needs enrichment level {top} for m={sysdef.m}, "
                          f"past the desk-scale guard {2 * MAX_LEVEL - 1}")

    if cfg.out:  # before the sweep, so an output path that cannot be a directory costs nothing
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot use output directory {cfg.out!r}: {e}") from e

    if cfg.mode == "enriched":
        basis = enriched_basis(sysdef, sysdef.J0, cfg.jmax, problem.gamma)
    else:
        basis = truncated_basis(sysdef, sysdef.J0, cfg.jmax)
    with np.errstate(all="ignore"):  # a and f are checked, so what is not finite below overflowed
        full = assemble(basis, problem)
    if not _finite(full.A.data):
        raise ConfigError("the stiffness matrix overflowed in its assembly")
    if not _finite(full.b):
        raise ConfigError("the load vector overflowed in its assembly")

    records, exact = [], None
    for J in levels:
        system = subsystem(full, J)
        sol = solve(system)
        kappa = condition_number(system.A, system.factor)
        system.factor = None  # the coupled block and its factor: free them before measuring errors
        if exact is None:  # once per sweep, when the first factor is freed
            exact = problem.exact.values(problem.gamma, full.form.nodes())
        pair = error_norms(sol, exact)
        N = len(system.basis)
        records.append(ConvergenceRecord(J, N, kappa, pair.E_L2, pair.E_H1))
        if log:
            log(
                f"J={J} N={N} kappa={kappa:.3e} "
                f"E_L2={pair.E_L2:.3e} E_H1={pair.E_H1:.3e}"
            )
    convergence_orders(records)

    if cfg.out:
        stem = f"{problem.name or 'problem'}_{cfg.mode}"
        write_records_csv(records, os.path.join(cfg.out, f"{stem}.csv"))
        for norm in ("L2", "H1"):
            with open(os.path.join(cfg.out, f"{stem}_{norm}.dat"), "w") as fh:
                for r in records:
                    e = getattr(r, f"E_{norm}")
                    if e > 0:
                        fh.write(f"{-r.J} {math.log2(e):.10f}\n")
    return records


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavegal",
        description="Wavelet-Galerkin convergence experiments for 1D interface problems.",
    )
    ap.add_argument("--config", help="INI config file")
    ap.add_argument("--problem", help="builtin problem id (ex1, ex2, ex3)")
    ap.add_argument("--mode", choices=MODES, help="basis mode")
    ap.add_argument("--system", help="'builtin' or a system definition file")
    ap.add_argument("--jmin", type=int, help="coarsest level of the sweep")
    ap.add_argument("--jmax", type=int, help="finest level of the sweep")
    ap.add_argument("--out", help="output directory for CSV/plot data")
    ap.add_argument(
        "--verify-only",
        action="store_true",
        help="verify the wavelet system and exit",
    )
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        for name in _EXPERIMENT_KEYS:
            val = getattr(args, name)
            if val is not None:
                setattr(cfg, name, val)

        if args.verify_only:
            print(_get_system(cfg.system).verification)
            return EXIT_OK

        records = run(cfg, log=print)
        for r in records:
            ordl2 = f"{r.Ord_L2_h:.2f}" if r.Ord_L2_h is not None else "-"
            ordh1 = f"{r.Ord_H1_h:.2f}" if r.Ord_H1_h is not None else "-"
            print(f"J={r.J} N={r.N_J} Ord_L2_h={ordl2} Ord_H1_h={ordh1}")
        return EXIT_OK
    except (ConfigError, ExpressionError) as e:  # the latter refuses problem data
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (SystemFormatError, SystemVerificationError) as e:
        if args.verify_only and isinstance(e, SystemVerificationError):
            print(e.report)
        print(f"system verification error: {e}", file=sys.stderr)
        return EXIT_SYSTEM
    except SolverError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
