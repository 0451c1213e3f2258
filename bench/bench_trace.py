"""Probes the benchmark installs around blocksplit's public functions.

A ``Probe`` patches module and class attributes for the duration of one
workload call and puts every original back on exit. Untraced, it only times
the solver entry points (``run`` / ``run_economical`` as bound in ``harness``
and ``problems``), which costs two clock reads per solve. Traced, it also
records a span around each layer's public functions and around every operator
body, through shadow operators with the same ``fn``, alpha, Lipschitz constant
and name. Spans are aggregated as they close, keyed by (name, parent name):
lasso_wide alone makes about 1.6 million ``BlockSchedule.block`` calls, too
many to keep one record each.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from blocksplit import cli, harness, problems, solver
from blocksplit.operators import AveragedOp
from blocksplit.schedules import BlockSchedule
from blocksplit.solver import SeededDecayErrors

SOLVE_SPANS = ("solver.run", "solver.run_economical")


class SetupDone(Exception):
    """Raised at the first solver entry by a probe that only times set-up."""


@dataclass
class SolveCall:
    """One call into ``run`` or ``run_economical``."""

    start: float
    end: float
    result: object
    fn: object          # the unpatched solver function
    args: tuple         # (t0, ts, cfg, x0, x_ref)

    @property
    def seconds(self):
        return self.end - self.start


class Probe:
    """Context manager that patches blocksplit for one workload call."""

    def __init__(self, traced=False, setup_only=False):
        self.traced = traced
        self.setup_only = setup_only
        self.solves = []
        self.first_solve_at = None
        self.stats = {}          # (name, parent) -> [count, total_s, self_s]
        self._stack = []         # open spans: [name, child_s]
        self._patched = []       # (owner, attr, original)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def _install(self):
        for owner in (harness, problems):
            self._patch(owner, "run",
                        lambda fn: self._solver_entry("solver.run", fn))
            self._patch(owner, "run_economical",
                        lambda fn: self._solver_entry("solver.run_economical", fn))
        if not self.traced:
            return
        spans = [
            (solver, "apply", "operators.apply"),
            (solver, "kahan_weighted_sum", "operators.kahan_weighted_sum"),
            (BlockSchedule, "block", "schedules.block"),
            (harness, "validate_covering", "schedules.validate_covering"),
            (harness, "mu_row", "schedules.mu_row"),
            (harness, "check_concentrating", "schedules.check_concentrating"),
            (harness, "fejer_audit", "solver.fejer_audit"),
            (SeededDecayErrors, "error", "solver.error_model"),
            (harness, "write_trace_csv", "harness.write_trace_csv"),
            (cli, "load_config", "harness.load_config"),
            (harness, "load_config", "harness.load_config"),
            (harness, "load_data_csv", "harness.load_data_csv"),
            (harness, "build_problem_from_config",
             "harness.build_problem_from_config"),
        ]
        for owner, attr, name in spans:
            self._patch(owner, attr, lambda fn, name=name: self._span(name, fn))
        for attr in ("lasso_problem", "least_squares_feasibility"):
            self._patch(problems, attr,
                        lambda fn, attr=attr: self._builder(f"problems.{attr}", fn))

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        """Put every patched attribute back and check that it is back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"failed to restore {owner.__name__}.{attr}")

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        stats = self.stats

        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                parent = None
                if stack:
                    parent = stack[-1][0]
                    stack[-1][1] += dur
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        return wrapper

    def _solver_entry(self, name, fn):
        inner = self._span(name, fn) if self.traced else fn

        def wrapper(t0, ts, cfg, x0, x_ref=None):
            start = perf_counter()
            if self.first_solve_at is None:
                self.first_solve_at = start
            if self.setup_only:
                raise SetupDone()
            result = inner(t0, ts, cfg, x0, x_ref=x_ref)
            end = perf_counter()
            self.solves.append(SolveCall(start, end, result, fn,
                                         (t0, ts, cfg, x0, x_ref)))
            return result

        return wrapper

    def _builder(self, name, fn):
        build = self._span(name, fn)

        def wrapper(*args, **kwargs):
            problem = build(*args, **kwargs)
            problem.t0 = self._shadow(problem.t0, "calculus.outer_body")
            problem.ts = [self._shadow(op, "calculus.inner_body")
                          for op in problem.ts]
            return problem

        return wrapper

    def _shadow(self, op, name):
        return AveragedOp(self._span(name, op.fn), dim=op.dim, alpha=op.alpha,
                          lipschitz=op.lipschitz, name=op.name)

    # -- aggregates ----------------------------------------------------------

    def count(self, name, parents=None):
        return sum(rec[0] for (n, p), rec in self.stats.items()
                   if n == name and (parents is None or p in parents))

    def total(self, name, parents=None):
        return sum(rec[1] for (n, p), rec in self.stats.items()
                   if n == name and (parents is None or p in parents))

    def self_time(self, name):
        return sum(rec[2] for (n, _), rec in self.stats.items() if n == name)
