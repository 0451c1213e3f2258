"""A run that meets a non-finite operator output fails with the error that
names the operator, on every path: plain and economical means, a RowStack
and the same operators as a plain list, with and without injected errors.

The stacked path does not scan a block's rows; the weighted mean they enter
is checked instead, and the block is re-run through ``eval_block`` only to
name the operator. These properties pin that the error and its message are
the ones ``apply`` gives for the first bad row, and that no RuntimeWarning
comes with them (pytest turns one into an error; the runs below also do so
themselves).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from blocksplit.harness import synthetic_regression, synthetic_unit_rows
from blocksplit.operators import (NonFiniteError, RowStack, identity_op,
                                  scaling_op)
from blocksplit.problems import (lasso_problem, least_squares_feasibility,
                                 logistic_problem)
from blocksplit.schedules import make_cyclic, make_full
from blocksplit.solver import (SeededDecayErrors, SolverConfig, run,
                               run_economical)

RUNNERS = {"plain": run, "economical": run_economical}


def _build(kind, d, m, seed):
    if kind == "lasso":
        A, eta, _ = synthetic_regression(d, m, seed)
        return lasso_problem(A, eta, reg=0.05)
    if kind == "logistic":
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, d)) / np.sqrt(d)
        return logistic_problem(A, (rng.random(m) < 0.5).astype(float),
                                reg=0.02)
    return least_squares_feasibility(*synthetic_unit_rows(d, m, seed))


def _injecting(stack, at, inject):
    """``stack`` with a kernel that hands its output to ``inject(out, rows)``
    whenever it is evaluated at the point ``at``; ``rows`` are the 0-based
    rows evaluated, in order."""
    every_row = np.arange(len(stack))

    def kernel(idx, x):
        out = np.array(stack.kernel(idx, x), dtype=float)
        if np.array_equal(x, at):
            out = inject(out, every_row[idx])
        return out

    return RowStack(kernel, stack.dim, stack.alphas, stack.name)


@st.composite
def cases(draw):
    """A problem, a run configuration, the iteration whose iterate the
    kernel goes wrong at, and the clean run's iterate there."""
    kind = draw(st.sampled_from(["lasso", "logistic", "least_squares"]))
    d = draw(st.integers(1, 5))
    m = max(2, d + draw(st.integers(0, 20)))
    seed = draw(st.integers(0, 2**16))
    prob = _build(kind, d, m, seed)
    errors = (SeededDecayErrors(0.01, seed=seed) if draw(st.booleans())
              else None)
    cfg = SolverConfig(weights=prob.weights,
                       schedule=make_cyclic(m, draw(st.integers(2, m))),
                       max_iters=30, tol_residual=-1.0,
                       check_every=draw(st.integers(1, 7)),
                       error_model=errors)
    runner = RUNNERS[draw(st.sampled_from(sorted(RUNNERS)))]
    x0 = 3.0 * np.random.default_rng(seed).standard_normal(d)
    n = draw(st.integers(0, cfg.max_iters - 1))
    trace = runner(prob.t0, prob.ts, cfg, x0).trace
    at = trace[n].x
    # the kernel must first go wrong at iteration n
    assume(not any(np.array_equal(rec.x, at) for rec in trace[:n]))
    return prob, cfg, runner, x0, n, at


def _raised(runner, prob, ts, cfg, x0):
    """The exception the run raises, with any RuntimeWarning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(Exception) as info:
            runner(prob.t0, ts, cfg, x0)
    return info.value


@settings(deadline=None, max_examples=60)
@given(cases(), st.sampled_from(["nan", "inf", "pair"]),
       st.sampled_from(["stacked", "list"]), st.data())
def test_non_finite_row_names_the_first_bad_operator_of_the_block(
        case, value, path, data):
    """NaN, +inf, or +inf and -inf in one column of two rows, put into the
    block's rows at one iteration: the error names the first bad row of the
    sorted block, as ``apply`` names an operator. A check at that iteration
    sweeps every row and meets the same row first."""
    prob, cfg, runner, x0, n, at = case
    block = cfg.schedule.block(n).idx
    count = 2 if value == "pair" else 1
    bad = sorted(data.draw(st.lists(st.sampled_from(block.tolist()),
                                    min_size=count, max_size=count,
                                    unique=True)))
    col = data.draw(st.integers(0, prob.dim - 1))
    values = {"nan": [np.nan], "inf": [np.inf],
              "pair": data.draw(st.permutations([np.inf, -np.inf]))}[value]

    def inject(out, rows):
        for r, v in zip(bad, values):
            out[rows == r, col] = v
        return out

    stack = _injecting(prob.ts, at, inject)
    ts = stack if path == "stacked" else list(stack)
    err = _raised(runner, prob, ts, cfg, x0)
    assert type(err) is NonFiniteError
    assert str(err) == (f"operator 'forward[{bad[0] + 1}]' produced "
                        f"non-finite output")


@settings(deadline=None, max_examples=40)
@given(cases(), st.sampled_from(["stacked", "list"]))
def test_kernel_of_the_wrong_shape_fails_the_run_as_apply_would(case, path):
    """One extra column at one iteration: the stacked path raises
    ``eval_block``'s shape error for the rows it evaluated, the list path
    ``apply``'s for the first operator it evaluated."""
    prob, cfg, runner, x0, n, at = case
    d = prob.dim
    stack = _injecting(prob.ts, at,
                       lambda out, rows: np.hstack([out, out[:, :1]]))
    rows = (np.arange(prob.m) if n % cfg.check_every == 0
            else cfg.schedule.block(n).idx)
    if path == "stacked":
        err = _raised(runner, prob, stack, cfg, x0)
        expected = (f"row kernel is not dimension-preserving: {rows.size} "
                    f"rows at ({d},) -> ({rows.size}, {d + 1})")
    else:
        err = _raised(runner, prob, list(stack), cfg, x0)
        expected = (f"operator 'forward[{rows[0] + 1}]' is not "
                    f"dimension-preserving: ({d},) -> ({d + 1},)")
    assert type(err) is ValueError
    assert str(err) == expected


MAX = np.finfo(float).max


@pytest.mark.parametrize("errors", [False, True], ids=["clean", "errors"])
@pytest.mark.parametrize("check_every", [1, 7], ids=["check", "no-check"])
@pytest.mark.parametrize("path", ["stacked", "list"])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_finite_rows_whose_mean_overflows_fail_at_the_outer_operator(
        runner, path, check_every, errors):
    """Rows at the largest float with weights summing to 1 + 3e-13 (within
    the weights' tolerance): every row is finite, so no operator is named;
    the mean overflows and T0's input check fails. The overflow warns: no
    scan of the finite rows can see it coming. Nothing else warns: the NaN
    that the check's TwoSum errors become is expected, not an invalid-value
    warning."""
    runner = RUNNERS[runner]

    def inject(out, rows):
        out[:, 0] = MAX
        return out

    stack = RowStack(lambda idx, x: np.tile(x, (np.arange(2)[idx].size, 1)),
                     2, [0.5, 0.5], ["r1", "r2"])
    cfg = SolverConfig(weights=[0.5 + 4e-13, 0.5 - 1e-13],
                       schedule=make_full(2), max_iters=10,
                       tol_residual=-1.0, check_every=check_every,
                       error_model=SeededDecayErrors(0.01, seed=1)
                       if errors else None)
    x0 = np.array([1.0, 2.0])
    at = runner(identity_op(2), stack, cfg, x0).trace[3].x
    bad = _injecting(stack, at, inject)
    ts = bad if path == "stacked" else list(bad)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError,
                           match="^point has non-finite coordinates$"):
            runner(identity_op(2), ts, cfg, x0)
    assert caught and all(issubclass(c.category, RuntimeWarning)
                          and str(c.message).startswith("overflow encountered")
                          for c in caught)


@pytest.mark.parametrize("runner", RUNNERS.values(), ids=RUNNERS)
def test_a_huge_finite_start_records_finite_steps_without_warning(runner):
    # ||x0||^2 overflows a float though x0 and every iterate are finite:
    # each step and residual is the finite norm, with no RuntimeWarning
    cfg = SolverConfig(weights=[0.5, 0.5], schedule=make_cyclic(2, 1),
                       max_iters=5, tol_residual=-1.0, check_every=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = runner(scaling_op(2, 0.5), [identity_op(2)] * 2, cfg,
                     [1e200, 1e200])
    # x_1 = x_0 / 2, so the first step and residual are ||x_0|| / 2
    first = res.trace[0]
    assert first.step == first.residual == math.hypot(5e199, 5e199)
    assert all(math.isfinite(rec.step) and math.isfinite(rec.residual)
               for rec in res.trace[:-1])
