"""The benchmark's workloads: inputs made from a seed, one call into
blocksplit's public API, and the correctness gate each call must pass.

Every workload starts from one fixed base instance and presents it in a
seeded, equivalent form, so that each seed hands the program different arrays
of identical difficulty. Drawing a fresh instance per seed instead moves
lasso_wide between 860 and 1,820 iterations and readme_cli between 5,680 and
7,610, which would swamp any code change in seed-to-seed spread.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blocksplit import cli, harness, problems
from blocksplit.harness import (oracle_least_squares,
                                oracle_prox_grad_reference,
                                synthetic_regression, synthetic_unit_rows)
from blocksplit.schedules import make_cyclic


def signed_permutation(rows, seed):
    """Permute and sign-flip the feature columns, seeded.

    Lasso, its l1 prox and the least-squares penalties are invariant under
    signed permutations of the coordinates: the iterates are permuted too,
    and the iteration count to a tolerance does not change.
    """
    rng = np.random.default_rng(seed)
    d = rows.shape[1]
    return rows[:, rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)


def row_signs(rows, targets, seed):
    """Flip the sign of whole rows (a_i, eta_i), seeded.

    Each squared loss (<a_i, x> - eta_i)^2, and so each operator, is unchanged
    bit for bit. A change of coordinates would not do for a run with injected
    errors: those are drawn in fixed coordinates, and rotating the problem
    under them moves the iteration count by several percent per seed.
    """
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=len(targets))
    return rows * signs[:, None], targets * signs


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def solve_counts(result, m):
    """Operator evaluations of one solver call, from its result trace."""
    checks = sum(rec.residual is not None for rec in result.trace)
    block_evals = sum(len(rec.block) for rec in result.trace
                      if rec.block is not None)
    return {
        "iterations": result.iterations,
        "checks": checks,
        "block_evals": block_evals,
        "check_evals": checks * m,
        # inner evaluations in blocks and checks, plus one T0 per iteration
        # and per check
        "op_evals": block_evals + checks * m + result.iterations + checks,
    }


@dataclass
class Outcome:
    """The gate's verdict on one workload call."""

    trace_sha256: str
    oracle_distance: float       # relative to the oracle solution's norm
    failures: list = field(default_factory=list)


class Workload:
    """Base class: ``call`` is the timed part, ``gate`` checks its output."""

    name = ""
    tol: float
    oracle_bound: float          # on ||x - x_oracle|| / ||x_oracle||

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._oracle = None

    def oracle(self):
        if self._oracle is None:
            self._oracle = self.compute_oracle()
        return self._oracle

    def gate(self, output, probe):
        """Check one call's output; returns an Outcome listing failures."""
        main = probe.solves[-1].result
        failures = []
        if not main.converged:
            failures.append("main solve did not converge")
        if main.residual is None or not main.residual <= self.tol:
            failures.append(f"final residual {main.residual} above {self.tol}")
        x_star = self.oracle()
        rel = float(np.linalg.norm(main.x - x_star) / np.linalg.norm(x_star))
        if not rel <= self.oracle_bound:
            failures.append(f"relative distance to oracle {rel:.3e} above "
                            f"{self.oracle_bound:.1e}")
        trace_path = self.trace_file(main)
        return Outcome(trace_sha256=sha256(trace_path), oracle_distance=rel,
                       failures=failures + self.extra_failures(output))

    def extra_failures(self, output):
        return []

    def trace_file(self, result):
        path = self.workdir / "trace.csv"
        harness.write_trace_csv(path, result.trace)
        return path


class LassoWide(Workload):
    """ROADMAP's W2 at d=20: the lagged stopping check dominates."""

    name = "lasso_wide"
    tol = 1e-2
    # the loose tolerance leaves the iterate about 14% from the minimizer
    oracle_bound = 0.25

    def __init__(self, seed, workdir, d=20, m=500, block_size=10, reg=1e-3,
                 check_every=10, base_seed=2):
        super().__init__(seed, workdir)
        rows, targets, _ = synthetic_regression(d, m, base_seed)
        self.rows = signed_permutation(rows, self.seed)
        self.targets = targets
        self.d, self.m, self.block_size = d, m, block_size
        self.reg, self.check_every = reg, check_every

    def call(self):
        problem = problems.lasso_problem(self.rows, self.targets, reg=self.reg)
        schedule = make_cyclic(self.m, self.block_size)
        return problem.solve(schedule, np.zeros(self.d), max_iters=100_000,
                             tol_residual=self.tol, check_every=self.check_every)

    def compute_oracle(self):
        problem = problems.lasso_problem(self.rows, self.targets, reg=self.reg)
        return oracle_prox_grad_reference(problem).solution


class LsqTall(Workload):
    """Least-squares feasibility with many rows: per-operator block
    evaluation through the economical running mean dominates."""

    name = "lsq_tall"
    tol = 1e-4
    oracle_bound = 1e-3          # observed 2.1e-4

    def __init__(self, seed, workdir, d=20, m=2000, block_size=100,
                 check_every=500, base_seed=2):
        super().__init__(seed, workdir)
        rows, targets = synthetic_unit_rows(d, m, base_seed)
        self.rows = signed_permutation(rows, self.seed)
        self.targets = targets
        self.d, self.m, self.block_size = d, m, block_size
        self.check_every = check_every

    def call(self):
        problem = problems.least_squares_feasibility(self.rows, self.targets)
        schedule = make_cyclic(self.m, self.block_size)
        return problem.solve(schedule, np.zeros(self.d), economical=True,
                             max_iters=100_000, tol_residual=self.tol,
                             check_every=self.check_every)

    def compute_oracle(self):
        return oracle_least_squares(self.rows, self.targets).solution


# The README's CLI example config, exactly as written there.
README_CONFIG = {
    "problem": {"variant": "lasso", "data_csv": "data.csv", "l1_weight": 0.01},
    "schedule": {"type": "quasicyclic", "m": 30, "K": 5, "seed": 1},
    "solver": {"max_iters": 50000, "tol_residual": 1e-10, "check_every": 10},
    "errors": {"c": 0.01, "p": 2.0, "seed": 4},
    "audits": {"fejer": True},
    "output": {"trace": "trace.csv", "summary": "summary.json"},
}


class ReadmeCli(Workload):
    """The README's CLI example: desk-scale lasso where per-iteration fixed
    costs and the harness dominate."""

    name = "readme_cli"
    oracle_bound = 1e-6          # observed 4.2e-10

    def __init__(self, seed, workdir, d=20, m=30, base_seed=1, config=None):
        super().__init__(seed, workdir)
        self.config = json.loads(json.dumps(config or README_CONFIG))
        self.tol = self.config["solver"]["tol_residual"]
        self.l1_weight = self.config["problem"]["l1_weight"]
        rows, targets, _ = synthetic_regression(d, m, base_seed)
        self.rows, self.targets = row_signs(rows, targets, self.seed)
        np.savetxt(self.workdir / "data.csv",
                   np.column_stack([self.rows, self.targets]),
                   delimiter=",", fmt="%.17g")
        (self.workdir / "config.json").write_text(json.dumps(self.config))

    def call(self):
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["solve", "--config", "config.json"])
        finally:
            os.chdir(cwd)
        return code, out.getvalue()

    def compute_oracle(self):
        # the rows exactly as the CLI parses them back from the CSV
        data = np.loadtxt(self.workdir / "data.csv", delimiter=",", ndmin=2)
        problem = problems.lasso_problem(data[:, :-1], data[:, -1],
                                         reg=self.l1_weight)
        return oracle_prox_grad_reference(problem).solution

    def extra_failures(self, output):
        code, stdout = output
        if code != 0:
            return [f"solve exited with code {code}"]
        summary = json.loads(stdout)
        failures = []
        for audit in ("concentrating", "covering", "fejer"):
            if summary["audits"].get(audit) is not True:
                failures.append(f"audit {audit} not passed")
        if summary["converged"] is not True:
            failures.append("summary reports no convergence")
        return failures

    def trace_file(self, result):
        return self.workdir / self.config["output"]["trace"]


WORKLOADS = {cls.name: cls for cls in (ReadmeCli, LassoWide, LsqTall)}

