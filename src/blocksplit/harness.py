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
from .operators import NonFiniteError, as_int, as_point, norm
# validate_covering is not called here; bench/bench_trace.py patches it by name
from .schedules import (Block, CoveringError, as_block, check_concentrating,
                        mu_row, schedule_from_spec, make_full,
                        validate_covering)
from .solver import (SeededDecayErrors, SolverConfig, TraceRecord,
                     fejer_audit, linear_rate_audit, run, run_economical)


class ConfigError(ValueError):
    """The experiment configuration is malformed or references missing data."""


# ---------------------------------------------------------------------------
# oracles

@dataclass
class OracleResult:
    solution: np.ndarray
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
    accuracy = norm(gram @ x - rhs)
    return OracleResult(solution=x, accuracy=accuracy)


def l1_optimality_residual(x, smooth_grad_value, l1_weight):
    """Max coordinatewise defect of the l1 subgradient optimality condition."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(smooth_grad_value, dtype=float)
    active = x != 0.0
    res_active = np.abs(g + l1_weight * np.sign(x))
    res_inactive = np.maximum(np.abs(g) - l1_weight, 0.0)
    return float(np.max(np.where(active, res_active, res_inactive)))


def oracle_prox_grad_reference(problem, tol=1e-13, max_iters=500_000,
                               optimality_tol=1e-8):
    """High-accuracy minimizer via a plain full-activation proximal gradient
    loop from 0, written independently of the block solver.

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
    x = np.zeros(problem.dim)
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
    return OracleResult(solution=x, accuracy=accuracy)


# ---------------------------------------------------------------------------
# synthetic data

def synthetic_regression(n_features, m, seed):
    """Random sparse-ground-truth regression rows and targets.

    The design matrix is assembled from its singular value decomposition with
    singular values drawn in [0.7, 1.3), which keeps the instances well
    conditioned and the desk-scale runs short.
    """
    if m < n_features:
        raise ValueError("need at least as many rows as features")
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(n_features)
    mask = rng.random(n_features) < 0.5
    if not mask.any():
        mask[0] = True
    x_true = np.where(mask, x_true, 0.0)
    U, _ = np.linalg.qr(rng.standard_normal((m, n_features)))
    V, _ = np.linalg.qr(rng.standard_normal((n_features, n_features)))
    s = rng.uniform(0.7, 1.3, size=n_features)
    A = U @ (s[:, None] * V.T)
    eta = A @ x_true + 0.1 * rng.standard_normal(m)
    return A, eta, x_true


def synthetic_unit_rows(n_features, m, seed):
    """Unit-norm rows and inconsistent targets for least-squares relaxation."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n_features))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    x_true = rng.standard_normal(n_features)
    eta = A @ x_true + 0.3 * rng.standard_normal(m)
    return A, eta


# ---------------------------------------------------------------------------
# trace persistence

TRACE_HEADER = "n,residual,step,err0,errsum,block,dist_ref"


def _fmt(v):
    return "" if v is None else repr(float(v))


def write_trace_csv(path, trace):
    """Persist a trace with shortest-round-trip float formatting, one line
    to the file per record, so the text is never held whole."""
    with Path(path).open("w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in trace:
            block = ("" if rec.block is None else "|".join(
                map(str, (as_block(rec.block).idx + 1).tolist())))
            fh.write(",".join([
                str(rec.n), _fmt(rec.residual), _fmt(rec.step),
                _fmt(rec.err0), _fmt(rec.errsum), block, _fmt(rec.dist_ref),
            ]) + "\n")


def read_trace_csv(path):
    """Load a persisted trace as the ``TraceRecord``s a run returns, with
    no iterate (``x`` is None).

    Each block is read into a ``Block``, as the audits take it, as its line
    is parsed. A member that is not an integer, or that ``Block`` refuses
    (beyond +-2**62), makes its line malformed, and so does an ``n`` other
    than the line's position among the records (0, 1, 2, ...)."""
    try:
        text = Path(path).read_text().strip().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read trace: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} is not UTF-8 text "
                          f"({exc.reason})") from None
    if not text or text[0] != TRACE_HEADER:
        raise ConfigError(f"{path}: not a blocksplit trace (bad header)")
    trace = []
    for k, line in enumerate(text[1:], 2):
        try:
            n, residual, step, err0, errsum, block, dist = line.split(",")
            if int(n) != k - 2:
                raise ValueError(f"n must count the records from 0: "
                                 f"expected {k - 2}, got {n}")
            values = [float(raw) if raw else None
                      for raw in (residual, step, err0, errsum, dist)]
            members = (Block(int(v) for v in block.split("|")) if block
                       else None)
            trace.append(TraceRecord(k - 2, None, members, *values))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {k}: malformed trace line "
                              f"{line!r} ({exc})") from None
    return trace


def replay_audits_from_csv(path, weights, K, rho0=None, rhos=None):
    """The reports of the distance-inequality audit and, when ``rho0`` and
    ``rhos`` are given, the linear-rate audit, from one read of a trace.

    Requires the trace to carry the dist_ref column, i.e. the run was given a
    reference solution; the linear-rate audit also needs an error-free run.
    """
    if (rho0 is None) != (rhos is None):
        raise ConfigError("rho0 and rhos go together: give both or neither")
    trace = read_trace_csv(path)
    reports = [fejer_audit(trace, None, weights, K)]
    if rho0 is not None:
        reports.append(linear_rate_audit(trace, None, rho0, rhos, weights, K))
    return reports


# ---------------------------------------------------------------------------
# experiment configs

def load_config(path):
    """The JSON object in the config file ``path``."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got "
                          f"{type(cfg).__name__}")
    return cfg


def config_section(cfg, name, required=False):
    """The ``name`` section of a config, ``{}`` when it is absent and not
    ``required``; a section that is not a JSON object is a ConfigError."""
    if name not in cfg:
        if required:
            raise ConfigError(f"config has no {name} section")
        return {}
    section = cfg[name]
    if not isinstance(section, dict):
        raise ConfigError(f"{name} section must be a JSON object, got "
                          f"{type(section).__name__}")
    return section


def config_flag(section, name, key):
    """``section[key]`` as a JSON boolean, False when absent; anything else
    (a string such as "no", a number) is a ConfigError."""
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{name}.{key} must be true or false, got {value!r}")
    return value


def config_number(section, name, key, default):
    """``section[key]`` as a float, ``default`` when absent (None for an
    optional key such as problem.gamma); a value that is not a JSON number (a
    string such as "1e-3", a boolean, null) is a ConfigError."""
    if key not in section:
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}.{key} must be a number, got {value!r}")
    return float(value)


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


# set-up arithmetic that overflows on the config's numbers (a far ball
# center squared in the averagedness certificate, say) refuses the config in
# one line instead of leaking a RuntimeWarning
@np.errstate(over="raise", invalid="raise")
def build_problem_from_config(pcfg, base_dir="."):
    """Instantiate a named problem builder from its config section."""
    try:
        variant = pcfg["variant"]
    except (TypeError, KeyError) as exc:
        raise ConfigError("problem section needs a variant") from exc
    gamma = config_number(pcfg, "problem", "gamma", None)
    weights = pcfg.get("weights")
    try:
        if variant in ("lasso", "logistic"):
            builder = (problems.lasso_problem if variant == "lasso"
                       else problems.logistic_problem)
            rows, targets = _problem_data(pcfg, base_dir)
            if "l1_weight" not in pcfg:
                raise ConfigError(f"{variant} problem needs an l1_weight")
            return builder(rows, targets,
                           config_number(pcfg, "problem", "l1_weight", None),
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
    except (KeyError, ValueError, TypeError, FloatingPointError) as exc:
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
    summary JSON: final residual, iteration count, wall time, the run's
    ``stats`` counts, and the audit verdicts that can be recomputed offline
    from the persisted trace. With the Fejer audit on, the reference run's
    ``reference_converged``, ``reference_iterations`` and
    ``reference_stats`` join them.
    """
    started = time.perf_counter()
    try:
        scfg = dict(config_section(cfg, "solver"))
        sched_spec = dict(config_section(cfg, "schedule", required=True))
        if seed is not None and sched_spec.get("type") == "quasicyclic":
            sched_spec["seed"] = seed
        problem = build_problem_from_config(cfg["problem"], base_dir)
        # compared before the schedule is built, which may size by m
        spec_m = as_int(sched_spec.get("m"), "schedule.m")
        if spec_m != problem.m:
            raise ConfigError(
                f"schedule has m={spec_m} but problem has m={problem.m}")
        schedule = schedule_from_spec(sched_spec)
        error_model = None
        ecfg = config_section(cfg, "errors")
        if ecfg:
            c = config_number(ecfg, "errors", "c", 0.0)
            p = config_number(ecfg, "errors", "p", 2.0)
            try:
                error_model = SeededDecayErrors(
                    c, seed=seed if seed is not None else ecfg.get("seed", 0),
                    p=p)
            except ValueError as exc:
                raise ConfigError(f"errors: {exc}") from exc
        economical = config_flag(scfg, "solver", "economical")
        solver_cfg = SolverConfig(
            weights=problem.weights,
            schedule=schedule,
            epsilon=config_number(scfg, "solver", "epsilon", 1e-3),
            max_iters=(max_iters if max_iters is not None else as_int(
                scfg.get("max_iters", 10_000), "solver.max_iters")),
            tol_residual=(tol if tol is not None else config_number(
                scfg, "solver", "tol_residual", 1e-10)),
            check_every=as_int(scfg.get("check_every", 10),
                               "solver.check_every"),
            error_model=error_model,
        )
        try:
            x0 = as_point(scfg.get("x0", np.zeros(problem.dim)),
                          dim=problem.dim)
        except ValueError as exc:
            raise ConfigError(f"solver.x0: {exc}") from exc
        audits_cfg = config_section(cfg, "audits")
        fejer = config_flag(audits_cfg, "audits", "fejer")
        raw_iters = audits_cfg.get("reference_iters", 200_000)
        try:
            reference_iters = as_int(raw_iters, "audits.reference_iters")
            if reference_iters < 0:
                raise ValueError
        except ValueError:
            raise ConfigError(f"audits.reference_iters must be an integer "
                              f">= 0, got {raw_iters!r}") from None
        output_cfg = config_section(cfg, "output")
        for key in ("trace", "summary"):
            path = output_cfg.get(key)
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"output.{key} must be a path string, got "
                                  f"{path!r}")
    except ConfigError as exc:
        return EXIT_CONFIG, {"error": str(exc)}
    except (KeyError, TypeError, ValueError) as exc:
        return EXIT_CONFIG, {"error": f"bad config: {exc}"}

    try:
        # an overflow or an invalid operation is a divergence, reported
        # once as such, not a RuntimeWarning and an Infinity in the summary
        with np.errstate(over="raise", invalid="raise"):
            x_ref = ref = None
            if fejer:
                # error-free full-activation reference at tight tolerance
                ref = run(problem.t0, problem.ts,
                          SolverConfig(weights=problem.weights,
                                       schedule=make_full(problem.m),
                                       max_iters=reference_iters,
                                       tol_residual=1e-13,
                                       check_every=10),
                          x0)
                x_ref = ref.x
            runner = run_economical if economical else run
            result = runner(problem.t0, problem.ts, solver_cfg, x0,
                            x_ref=x_ref)
            summary = {
                "problem": problem.name,
                "converged": result.converged,
                "iterations": result.iterations,
                "residual": result.residual,
                "wall_time_s": time.perf_counter() - started,
                "sum_err0": result.sum_err0,
                "sum_lagged_errors": result.sum_lagged_errors,
                "stats": result.stats,
                "audits": {},
            }
            if problem.objective is not None:
                summary["objective"] = problem.objective(result.x)

            rows = [mu_row(schedule, problem.weights, n)
                    for n in range(min(result.iterations + 1, 200))]
            summary["audits"]["concentrating"] = bool(
                check_concentrating(rows, schedule.K).passed)
            # the run raised CoveringError on any uncovered window it
            # passed through; a run shorter than K passed through none
            summary["audits"]["covering"] = (
                True if result.iterations >= schedule.K else None)
            if ref is not None:
                # distances to an unconverged reference say nothing about
                # Fejer monotonicity, so such a reference fails the audit;
                # a run shorter than K has no inequality to check
                summary["reference_converged"] = ref.converged
                summary["reference_iterations"] = ref.iterations
                summary["reference_stats"] = ref.stats
                summary["audits"]["fejer"] = (
                    None if result.iterations < schedule.K
                    else ref.converged and fejer_audit(
                        result.trace, None, problem.weights,
                        schedule.K).passed)
    except CoveringError as exc:
        return EXIT_COVERING, {"error": str(exc)}
    except NonFiniteError as exc:
        return EXIT_DIVERGED, {"error": str(exc)}
    except FloatingPointError as exc:
        return EXIT_DIVERGED, {"error": f"floating-point {exc}"}

    if trace_out is None:
        trace_out = output_cfg.get("trace")
    summary_path = output_cfg.get("summary")
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
