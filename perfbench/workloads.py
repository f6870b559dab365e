"""The three workloads: what each runs, and how each operation is checked.

An operation is one level of a CLI sweep (ex3's reference solve
included), one ``tail_energy(J)`` call, or the decay probe.  It fails if
it raises or if its output fails its check.  Checks that need the whole
sweep (mean orders, monotone energy error, flat condition numbers, the
tail reduction factor) decide ``correct`` instead.

Every check runs with the clock stopped: ``run_s`` is the wall time of
the program's own work.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import oracle

ENERGY_ORDER_TOL = 0.15  # mean energy-error order is m - 1 within this
L2_ORDER_TOL = 0.25  # mean L2 order is m within this
KAPPA_RATIO_MAX = 3.0  # condition numbers stay flat across levels
TAIL_FACTOR_TOL = 1.0  # tails shrink by 2^(2(m-1)) per level within this
SLOPE_TOL = 0.25  # decay slopes: -(m - 1/2) away from gamma, -1/2 touching it


@dataclass
class Outcome:
    run_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    ops: list = field(default_factory=list)  # one dict per operation
    problems: list = field(default_factory=list)  # failed whole-run checks
    reference_s: float = 0.0
    cli_runs: int = 0

    def op(self, name: str, ok: bool, **detail):
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.ops.append({"op": name, "ok": ok, **detail})

    def check(self, ok: bool, what: str):
        if not ok:
            self.correct = False
            self.problems.append(what)


@dataclass(frozen=True)
class Sweep:
    """``wavegal.cli.run`` over levels jmin..jmax, checked level by level."""

    problem: str
    jmin: int
    jmax: int

    def run(self, sysdef, problem) -> Outcome:
        import wavegal.cli as cli

        exact = oracle.EXACT[self.problem]()
        energy_sq = exact.energy_sq()
        solved, ref = [], {}
        hook_s = 0.0
        real_basis, real_solve = cli.enriched_basis, cli.solve

        def basis_hook(sys_, J0, J, gamma):
            if J > self.jmax:
                ref["start"] = time.perf_counter()
            return real_basis(sys_, J0, J, gamma)

        def solve_hook(system, *args, **kwargs):
            nonlocal hook_s
            sol = real_solve(system, *args, **kwargs)
            t = time.perf_counter()
            if system.basis.J > self.jmax:
                ref["end"] = t
            solved.append(oracle.level_errors(
                exact, system.basis, sol.coefficients, system.b, energy_sq))
            hook_s += time.perf_counter() - t
            return sol

        out = Outcome()
        cfg = cli.ExperimentConfig(problem=self.problem, jmin=self.jmin, jmax=self.jmax)
        cli.enriched_basis, cli.solve = basis_hook, solve_hook
        records, error = [], None
        out.cli_runs += 1
        t0 = time.perf_counter()
        try:
            records = cli.run(cfg)
        except Exception as e:  # a raising sweep fails its remaining levels
            error = f"{type(e).__name__}: {e}"
        finally:
            out.run_s = time.perf_counter() - t0 - hook_s
            cli.enriched_basis, cli.solve = real_basis, real_solve
        if "end" in ref:
            out.reference_s = ref["end"] - ref["start"]
        # like cli.run, measure against a discrete reference when there is no exact u
        self._judge(out, sysdef.m, records, solved, error, reference=problem.exact is None)
        return out

    def _judge(self, out: Outcome, m: int, records, solved, error, reference: bool):
        own = {e["J"]: e for e in solved if e["J"] <= self.jmax}
        levels = range(self.jmin, self.jmax + 1)
        for J, rec in zip(levels, list(records) + [None] * len(levels)):
            errs = own.get(J)
            if rec is None or errs is None or rec.J != J:
                out.op(f"J={J}", False, error=error or "level missing")
                continue
            ok = (
                rec.N_J == errs["N"]
                and oracle.energy_ok(errs)
                and oracle.reported_ok(errs, rec.E_L2, rec.E_H1)
                and math.isfinite(rec.kappa) and rec.kappa > 1.0
            )
            out.op(f"J={J}", ok, reported={"E_L2": rec.E_L2, "E_H1": rec.E_H1,
                                           "kappa": rec.kappa}, own=errs)
        if reference:
            refs = [e for e in solved if e["J"] > self.jmax]
            top = own.get(self.jmax)
            ok = (len(refs) == 1 and oracle.energy_ok(refs[0])
                  and top is not None and refs[0]["E_a"] <= top["E_a"])
            out.op("reference", ok, own=refs[0] if refs else None)

        done = [own[J] for J in levels if J in own]
        if len(done) < len(levels):
            out.check(False, "sweep did not reach every level")
            return
        e_a = [e["E_a"] for e in done]
        order_a = oracle.mean_order(e_a)
        order_l2 = oracle.mean_order([e["E_L2"] for e in done])
        out.check(abs(order_a - (m - 1)) <= ENERGY_ORDER_TOL,
                  f"mean energy order {order_a:.3f}, expected {m - 1}")
        out.check(abs(order_l2 - m) <= L2_ORDER_TOL, f"mean L2 order {order_l2:.3f}, expected {m}")
        # the enriched spaces are nested, so the Galerkin energy error never grows
        out.check(all(q <= p * (1 + 1e-6) for p, q in zip(e_a, e_a[1:])),
                  f"energy error grew across levels: {e_a}")
        kappas = [r.kappa for r in records]
        out.check(max(kappas) <= KAPPA_RATIO_MAX * min(kappas),
                  f"condition numbers not flat: {kappas}")


@dataclass(frozen=True)
class Diagnostics:
    """``tail_energy`` at each J of a range, then the decay probe, on ex1's u."""

    problem: str
    tail_levels: tuple
    probe_levels: tuple

    def run(self, sysdef, problem) -> Outcome:
        import wavegal.analysis as analysis

        out = Outcome()
        m = sysdef.m
        tails = []
        for J in self.tail_levels:
            t = time.perf_counter()
            try:
                s, i = analysis.tail_energy(problem.u, sysdef, problem.gamma, J)
            except Exception as e:
                out.run_s += time.perf_counter() - t
                out.op(f"tail J={J}", False, error=f"{type(e).__name__}: {e}")
                continue
            out.run_s += time.perf_counter() - t
            ok = all(math.isfinite(v) and v > 0.0 for v in (s, i))
            out.op(f"tail J={J}", ok, smooth=s, interface=i)
            if ok:
                tails.append((J, s, i))

        t = time.perf_counter()
        try:
            away, touch = analysis.coefficient_decay_probe(
                problem.u, sysdef, problem.gamma, self.probe_levels)
        except Exception as e:
            out.run_s += time.perf_counter() - t
            out.op("decay probe", False, error=f"{type(e).__name__}: {e}")
        else:
            out.run_s += time.perf_counter() - t
            ok = (
                list(away.levels) == list(self.probe_levels)
                and all(v > 0.0 for v in away.maxima + touch.maxima)
                and abs(away.slope + (m - 0.5)) <= SLOPE_TOL
                and abs(touch.slope + 0.5) <= SLOPE_TOL
            )
            out.op("decay probe", ok, away_slope=away.slope, touching_slope=touch.slope)

        if len(tails) < len(self.tail_levels):
            out.check(False, "a tail-energy level failed")
            return out
        levels = [J for J, _, _ in tails]
        target = 2.0 ** (2 * (m - 1))
        for k, name in ((1, "smooth"), (2, "interface")):
            factor = oracle.fitted_factor(levels, [row[k] for row in tails])
            out.check(abs(factor - target) <= TAIL_FACTOR_TOL,
                      f"{name}-tail reduction factor {factor:.3f}, expected {target}")
        return out


WORKLOADS = {
    "ex2-enriched": Sweep("ex2", jmin=5, jmax=12),
    "ex3-reference": Sweep("ex3", jmin=5, jmax=10),
    "ex1-diagnostics": Diagnostics("ex1", tail_levels=(5, 6, 7, 8),
                                   probe_levels=tuple(range(4, 13))),
}
