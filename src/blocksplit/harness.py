"""Experiment orchestration: config ingestion, trace persistence, summary
reporting, and the independent oracles the acceptance tests compare against.

Oracles deliberately avoid the block solver's iteration loop so that
oracle-versus-solver agreement is a meaningful check.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import problems
from .calculus import set_from_spec
from .operators import NonFiniteError, as_point, norm
from .schedules import (CoveringError, check_concentrating, mu_row,
                        schedule_from_spec, make_full, validate_covering)
from .solver import (SeededDecayErrors, SolverConfig, fejer_audit,
                     fejer_audit_arrays, linear_rate_audit_arrays, run,
                     run_economical)


class ConfigError(ValueError):
    """The experiment configuration is malformed or references missing data."""


# ---------------------------------------------------------------------------
# oracles

@dataclass
class OracleResult:
    solution: np.ndarray
    method: str
    accuracy: float


def oracle_least_squares(rows, targets):
    """Solve the normal equations of an overdetermined linear system directly."""
    A = np.asarray(rows, dtype=float)
    eta = np.asarray(targets, dtype=float)
    gram = A.T @ A
    rhs = A.T @ eta
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        raise ValueError("normal matrix is rank deficient")
    x = np.linalg.solve(gram, rhs)
    accuracy = float(np.linalg.norm(gram @ x - rhs))
    return OracleResult(solution=x, method="normal-equations", accuracy=accuracy)


def l1_optimality_residual(x, smooth_grad_value, l1_weight):
    """Max coordinatewise defect of the l1 subgradient optimality condition."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(smooth_grad_value, dtype=float)
    active = x != 0.0
    res_active = np.abs(g + l1_weight * np.sign(x))
    res_inactive = np.maximum(np.abs(g) - l1_weight, 0.0)
    return float(np.max(np.where(active, res_active, res_inactive)))


def oracle_prox_grad_reference(problem, tol=1e-13, max_iters=500_000, x0=None,
                               optimality_tol=1e-8):
    """High-accuracy minimizer via a plain full-activation proximal gradient
    loop, written independently of the block solver.

    The aggregated gradient and the prox are taken from the problem metadata;
    optimality is verified through the l1 subgradient condition when the
    nonsmooth part is a weighted l1 norm, and through the prox-residual
    otherwise.
    """
    g = problem.meta.get("smooth_grad")
    prox = problem.meta.get("f0_prox")
    gamma = problem.gamma
    if g is None or prox is None or gamma is None:
        raise ValueError("problem does not expose prox-gradient pieces")
    x = np.zeros(problem.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    for _ in range(max_iters):
        x_new = np.asarray(prox(gamma, x - gamma * g(x)), dtype=float)
        if norm(x_new - x) <= tol:
            x = x_new
            break
        x = x_new
    else:
        raise RuntimeError(f"oracle did not reach step tolerance {tol} "
                           f"within {max_iters} iterations")
    if "l1_weight" in problem.meta:
        accuracy = l1_optimality_residual(x, g(x), problem.meta["l1_weight"])
    else:
        accuracy = norm(x - np.asarray(prox(gamma, x - gamma * g(x)))) / gamma
    if accuracy > optimality_tol:
        raise RuntimeError(f"oracle optimality residual {accuracy:.3e} exceeds "
                           f"{optimality_tol}")
    return OracleResult(solution=x, method="prox-grad-full", accuracy=accuracy)


def direct_mann_iteration(t0, ts, weights, x0, iters):
    """Plain full-activation composition loop x <- T0(sum_i w_i T_i x).

    Kept free of the block solver's buffers and compensated sums on purpose;
    used as the reduction oracle for full activation runs.
    """
    w = np.asarray(weights, dtype=float)
    x = np.asarray(x0, dtype=float).copy()
    out = [x.copy()]
    for _ in range(iters):
        vals = np.stack([np.asarray(T(x), dtype=float) for T in ts])
        x = np.asarray(t0((w[:, None] * vals).sum(axis=0)), dtype=float)
        out.append(x.copy())
    return out


# ---------------------------------------------------------------------------
# synthetic data

def synthetic_regression(n_features, m, seed, density=0.5, noise=0.1,
                         sing_range=(0.7, 1.3)):
    """Random sparse-ground-truth regression rows and targets.

    The design matrix is assembled from its singular value decomposition with
    singular values drawn in ``sing_range``, which keeps the instances well
    conditioned and the desk-scale runs short.
    """
    if m < n_features:
        raise ValueError("need at least as many rows as features")
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(n_features)
    mask = rng.random(n_features) < density
    if not mask.any():
        mask[0] = True
    x_true = np.where(mask, x_true, 0.0)
    U, _ = np.linalg.qr(rng.standard_normal((m, n_features)))
    V, _ = np.linalg.qr(rng.standard_normal((n_features, n_features)))
    s = rng.uniform(*sing_range, size=n_features)
    A = U @ (s[:, None] * V.T)
    eta = A @ x_true + noise * rng.standard_normal(m)
    return A, eta, x_true


def synthetic_unit_rows(n_features, m, seed, noise=0.3):
    """Unit-norm rows and inconsistent targets for least-squares relaxation."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n_features))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    x_true = rng.standard_normal(n_features)
    eta = A @ x_true + noise * rng.standard_normal(m)
    return A, eta


# ---------------------------------------------------------------------------
# trace persistence

TRACE_HEADER = "n,residual,step,err0,errsum,block,dist_ref"


def _fmt(v):
    return "" if v is None else repr(float(v))


def write_trace_csv(path, trace):
    """Persist a trace with shortest-round-trip float formatting."""
    lines = [TRACE_HEADER]
    for rec in trace:
        block = "" if rec.block is None else "|".join(str(i) for i in sorted(rec.block))
        lines.append(",".join([
            str(rec.n), _fmt(rec.residual), _fmt(rec.step), _fmt(rec.err0),
            _fmt(rec.errsum), block, _fmt(rec.dist_ref),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path):
    """Load a persisted trace into parallel lists keyed by column name."""
    try:
        text = Path(path).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read trace: {exc}") from exc
    if not text or text[0] != TRACE_HEADER:
        raise ConfigError(f"{path}: not a blocksplit trace (bad header)")
    out = {"n": [], "residual": [], "step": [], "err0": [], "errsum": [],
           "block": [], "dist_ref": []}
    for line in text[1:]:
        parts = line.split(",")
        if len(parts) != 7:
            raise ConfigError(f"{path}: malformed trace line {line!r}")
        n, residual, step, err0, errsum, block, dist = parts
        out["n"].append(int(n))
        for key, raw in (("residual", residual), ("step", step),
                         ("err0", err0), ("errsum", errsum),
                         ("dist_ref", dist)):
            out[key].append(float(raw) if raw else None)
        out["block"].append(frozenset(int(i) for i in block.split("|"))
                            if block else None)
    return out


def replay_fejer_from_csv(path, weights, K, slack=None):
    """Re-run the distance-inequality audit from a persisted trace.

    Requires the trace to carry the dist_ref column, i.e. the run was given a
    reference solution.
    """
    data = read_trace_csv(path)
    dists = data["dist_ref"]
    if any(d is None for d in dists):
        raise ConfigError("trace has no dist_ref column; rerun with a reference")
    err0s = [v or 0.0 for v in data["err0"]]
    errsums = [v or 0.0 for v in data["errsum"]]
    return fejer_audit_arrays(dists, err0s, errsums, data["block"], weights, K,
                              slack)


def replay_linear_rate_from_csv(path, rho0, rhos, weights, K, slack=None):
    data = read_trace_csv(path)
    dists = data["dist_ref"]
    if any(d is None for d in dists):
        raise ConfigError("trace has no dist_ref column; rerun with a reference")
    return linear_rate_audit_arrays(dists, rho0, rhos, weights, K, slack)


# ---------------------------------------------------------------------------
# experiment configs

def load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_data_csv(path):
    """Data matrix CSV: one row per operator, features first, target last."""
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read data CSV: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed data CSV {path}: {exc}") from exc
    if data.shape[1] < 2:
        raise ConfigError("data CSV needs at least one feature column and a target")
    return data[:, :-1], data[:, -1]


def _problem_data(pcfg, base_dir):
    if "data_csv" in pcfg:
        return load_data_csv(Path(base_dir) / pcfg["data_csv"])
    if "rows" in pcfg and "targets" in pcfg:
        return np.asarray(pcfg["rows"], dtype=float), np.asarray(
            pcfg["targets"], dtype=float)
    raise ConfigError("problem needs either data_csv or inline rows/targets")


def build_problem_from_config(pcfg, base_dir="."):
    """Instantiate a named problem builder from its config section."""
    try:
        variant = pcfg["variant"]
    except (TypeError, KeyError) as exc:
        raise ConfigError("problem section needs a variant") from exc
    gamma = pcfg.get("gamma")
    weights = pcfg.get("weights")
    try:
        if variant == "lasso":
            rows, targets = _problem_data(pcfg, base_dir)
            return problems.lasso_problem(rows, targets, pcfg["l1_weight"],
                                          gamma=gamma, weights=weights)
        if variant == "logistic":
            rows, targets = _problem_data(pcfg, base_dir)
            return problems.logistic_problem(rows, targets, pcfg["l1_weight"],
                                             gamma=gamma, weights=weights)
        if variant == "least_squares":
            rows, targets = _problem_data(pcfg, base_dir)
            return problems.least_squares_feasibility(rows, targets,
                                                      gamma=gamma,
                                                      weights=weights)
        if variant == "alternating_projections":
            return problems.alternating_projections(set_from_spec(pcfg["C"]),
                                                    set_from_spec(pcfg["D"]))
        if variant == "common_fixed_point":
            from .calculus import projector_op
            sets = [set_from_spec(s) for s in pcfg["sets"]]
            return problems.build_common_fixed_point(
                [projector_op(s) for s in sets], weights=weights)
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {variant} problem config: {exc}") from exc
    raise ConfigError(f"unknown problem variant {pcfg.get('variant')!r}")


# exit codes for run_experiment / the CLI
EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2
EXIT_COVERING = 3
EXIT_DIVERGED = 4


def run_experiment(cfg, base_dir=".", trace_out=None, max_iters=None, tol=None,
                   seed=None):
    """Build, run, persist, and summarize one experiment.

    Returns (exit_code, summary). The summary mirrors what lands in the
    summary JSON: final residual, iteration count, wall time, and the audit
    verdicts that can be recomputed offline from the persisted trace.
    """
    started = time.perf_counter()
    try:
        scfg = dict(cfg.get("solver", {}))
        sched_spec = dict(cfg["schedule"])
        if seed is not None and sched_spec.get("type") == "quasicyclic":
            sched_spec["seed"] = seed
        problem = build_problem_from_config(cfg["problem"], base_dir)
        schedule = schedule_from_spec(sched_spec)
        if schedule.m != problem.m:
            raise ConfigError(
                f"schedule has m={schedule.m} but problem has m={problem.m}")
        error_model = None
        if "errors" in cfg and cfg["errors"]:
            ecfg = cfg["errors"]
            try:
                error_model = SeededDecayErrors(
                    ecfg.get("c", 0.0),
                    seed=seed if seed is not None else ecfg.get("seed", 0),
                    p=ecfg.get("p", 2.0))
            except ValueError as exc:
                raise ConfigError(f"errors: {exc}") from exc
        solver_cfg = SolverConfig(
            weights=problem.weights,
            schedule=schedule,
            epsilon=scfg.get("epsilon", 1e-3),
            max_iters=int(max_iters if max_iters is not None
                          else scfg.get("max_iters", 10_000)),
            tol_residual=float(tol if tol is not None
                               else scfg.get("tol_residual", 1e-10)),
            check_every=int(scfg.get("check_every", 10)),
            error_model=error_model,
        )
        try:
            x0 = as_point(scfg.get("x0", np.zeros(problem.dim)),
                          dim=problem.dim)
        except ValueError as exc:
            raise ConfigError(f"solver.x0: {exc}") from exc
        audits_cfg = cfg.get("audits", {})
    except ConfigError as exc:
        return EXIT_CONFIG, {"error": str(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        return EXIT_CONFIG, {"error": f"bad config: {exc}"}

    try:
        x_ref = ref = None
        if audits_cfg.get("fejer"):
            # error-free full-activation reference at tight tolerance
            ref = run(problem.t0, problem.ts,
                      SolverConfig(weights=problem.weights,
                                   schedule=make_full(problem.m),
                                   max_iters=int(audits_cfg.get(
                                       "reference_iters", 200_000)),
                                   tol_residual=1e-13,
                                   check_every=10),
                      x0)
            x_ref = ref.x
        runner = run_economical if scfg.get("economical") else run
        result = runner(problem.t0, problem.ts, solver_cfg, x0, x_ref=x_ref)
    except CoveringError as exc:
        return EXIT_COVERING, {"error": str(exc)}
    except NonFiniteError as exc:
        return EXIT_DIVERGED, {"error": str(exc)}

    summary = {
        "problem": problem.name,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "wall_time_s": time.perf_counter() - started,
        "sum_err0": result.sum_err0,
        "sum_lagged_errors": result.sum_lagged_errors,
        "audits": {},
    }
    if problem.objective is not None:
        summary["objective"] = problem.objective(result.x)

    rows = [mu_row(schedule, problem.weights, n)
            for n in range(min(result.iterations + 1, 200))]
    summary["audits"]["concentrating"] = bool(
        check_concentrating(rows, schedule.K).passed)
    # the covering verdict describes the horizon the run actually visited
    summary["audits"]["covering"] = validate_covering(
        schedule, max(result.iterations, schedule.K)) is None
    if ref is not None:
        # distances to an unconverged reference say nothing about Fejer
        # monotonicity, so such a reference fails the audit
        summary["reference_converged"] = ref.converged
        summary["audits"]["fejer"] = ref.converged and bool(
            fejer_audit(result.trace, x_ref, problem.weights, schedule.K).passed)

    if trace_out is None:
        trace_out = cfg.get("output", {}).get("trace")
    summary_path = cfg.get("output", {}).get("summary")
    try:
        if trace_out:
            write_trace_csv(Path(base_dir) / trace_out, result.trace)
        if summary_path:
            with open(Path(base_dir) / summary_path, "w") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
    except OSError as exc:
        return EXIT_CONFIG, {"error": f"cannot write output: {exc}"}

    summary["solution"] = result.x.tolist()
    return (EXIT_OK if result.converged else EXIT_NOT_CONVERGED), summary
