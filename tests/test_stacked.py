"""The stacked path: the row-structured builders return a RowStack, whose
``eval_block`` evaluates a whole block in one call, bit for bit as its rows
evaluated one at a time through ``apply``."""

import numpy as np
import pytest

from blocksplit.harness import (direct_mann_iteration, synthetic_regression,
                                synthetic_unit_rows, write_trace_csv)
from blocksplit.operators import NonFiniteError, RowStack, apply
from blocksplit.problems import (lasso_problem, least_squares_feasibility,
                                 logistic_problem)
from blocksplit.schedules import make_cyclic, make_full, make_quasicyclic_random
from blocksplit.solver import (SeededDecayErrors, SolverConfig,
                               fixed_point_residual, run, run_economical)


def _lasso(d=6, m=40, seed=3):
    A, eta, _ = synthetic_regression(d, m, seed)
    return lasso_problem(A, eta, reg=0.05)


def _logistic(d=6, m=40, seed=3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, d)) / np.sqrt(d)
    return logistic_problem(A, (rng.random(m) < 0.5).astype(float), reg=0.02)


def _least_squares(d=6, m=40, seed=3):
    return least_squares_feasibility(*synthetic_unit_rows(d, m, seed))


BUILDERS = {"lasso": _lasso, "logistic": _logistic,
            "least_squares": _least_squares}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_block_equals_its_rows_through_apply(name):
    prob = BUILDERS[name]()
    ts = prob.ts
    assert isinstance(ts, RowStack) and len(ts) == prob.m
    rng = np.random.default_rng(1)
    blocks = [np.array([17]),
              np.sort(rng.choice(prob.m, size=11, replace=False)),
              rng.permutation(prob.m)[:9],
              np.arange(prob.m)]
    for _ in range(5):
        x = 3.0 * rng.standard_normal(prob.dim)
        for idx in blocks:
            rows = np.stack([apply(ts[i], x) for i in idx])
            assert np.array_equal(ts.eval_block(idx, x), rows)
        full = np.stack([apply(op, x) for op in ts])
        assert np.array_equal(ts.eval_block(slice(None), x), full)
        assert (fixed_point_residual(x, prob.t0, ts, prob.weights)
                == fixed_point_residual(x, prob.t0, list(ts), prob.weights))


@pytest.mark.parametrize("errors", [None, SeededDecayErrors(0.01, seed=2)],
                         ids=["clean", "errors"])
@pytest.mark.parametrize("runner", [run, run_economical],
                         ids=["plain", "economical"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stacked_and_list_runs_write_identical_traces(name, runner, errors,
                                                      tmp_path):
    prob = BUILDERS[name]()
    cfg = SolverConfig(weights=prob.weights, schedule=make_cyclic(prob.m, 7),
                       max_iters=150, tol_residual=-1.0, check_every=4,
                       error_model=errors)
    x_ref = np.zeros(prob.dim)
    paths = []
    for ts in (prob.ts, list(prob.ts)):
        res = runner(prob.t0, ts, cfg, np.ones(prob.dim), x_ref=x_ref)
        paths.append(tmp_path / f"{type(ts).__name__}.csv")
        write_trace_csv(paths[-1], res.trace)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("name", ["lasso", "least_squares"])
def test_non_finite_row_is_named_as_apply_names_it(name):
    A, eta = synthetic_unit_rows(4, 10, seed=5)
    A[6] *= 1e150                      # <a_7, x> overflows at x ~ 1e160
    build = lasso_problem if name == "lasso" else least_squares_feasibility
    prob = build(A, eta, reg=0.1) if name == "lasso" else build(A, eta)
    x = np.full(4, 1e160)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as from_apply:
            apply(prob.ts[6], x)
        for idx in (np.array([2, 6, 9]), slice(None)):
            with pytest.raises(NonFiniteError) as from_block:
                prob.ts.eval_block(idx, x)
            assert str(from_block.value) == str(from_apply.value)
    assert "[7]" in str(from_apply.value)


def _stack(kernel, m=8, dim=3):
    return RowStack(kernel, dim, [0.5] * m, [f"row{k}" for k in range(m)])


def test_first_non_finite_row_of_the_block_is_named():
    def kernel(idx, x):
        out = np.tile(x, (len(np.arange(8)[idx]), 1))
        out[np.isin(np.arange(8)[idx], (3, 5))] = np.nan
        return out

    ts = _stack(kernel)
    with pytest.raises(NonFiniteError, match="operator 'row5' "):
        ts.eval_block(np.array([1, 5, 3]), np.zeros(3))
    with pytest.raises(NonFiniteError, match="operator 'row3' "):
        ts.eval_block(slice(None), np.zeros(3))


def test_kernel_of_the_wrong_shape_is_rejected():
    ts = _stack(lambda idx, x: np.zeros((2, 3)))
    with pytest.raises(ValueError, match="not dimension-preserving"):
        ts.eval_block(np.array([0, 1, 2]), np.zeros(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        ts.eval_block(np.array([0, 1]), np.zeros(4))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_acceptance_bounds_hold_on_the_stacked_path(name):
    """Criteria 02 (plain and economical within 1e-10) and 03 (full
    activation within 1e-12 of the direct loop) on a RowStack."""
    prob = BUILDERS[name](m=12)
    assert isinstance(prob.ts, RowStack)
    cfg = SolverConfig(weights=prob.weights,
                       schedule=make_quasicyclic_random(prob.m, 4, seed=1),
                       max_iters=500, tol_residual=-1.0)
    x0 = np.zeros(prob.dim)
    plain = run(prob.t0, prob.ts, cfg, x0)
    econ = run_economical(prob.t0, prob.ts, cfg, x0)
    assert max(float(np.max(np.abs(a.x - b.x)))
               for a, b in zip(plain.trace, econ.trace)) <= 1e-10

    cfg = SolverConfig(weights=prob.weights, schedule=make_full(prob.m),
                       max_iters=1000, tol_residual=-1.0, check_every=10_000)
    x0 = np.random.default_rng(0).standard_normal(prob.dim)
    res = run(prob.t0, prob.ts, cfg, x0)
    oracle = direct_mann_iteration(prob.t0, prob.ts, prob.weights, x0, 1000)
    assert max(float(np.max(np.abs(rec.x - ox)))
               for rec, ox in zip(res.trace, oracle)) <= 1e-12
