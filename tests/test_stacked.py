"""The stacked path: the row-structured builders return a RowStack, whose
``eval_block`` evaluates a whole block in one call, bit for bit as its rows
evaluated one at a time through ``apply``."""

import gc
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksplit.harness import (synthetic_regression, synthetic_unit_rows,
                                write_trace_csv)
from blocksplit.operators import AveragedOp, NonFiniteError, RowStack, apply
from blocksplit.problems import (lasso_problem, least_squares_feasibility,
                                 logistic_problem)
from blocksplit.schedules import make_cyclic, make_full, make_quasicyclic_random
from blocksplit.solver import (SeededDecayErrors, SolverConfig,
                               fixed_point_residual, run, run_economical)
from support import literal_run


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


def _scaled_rows(idx, x):
    """Row k of the kernel is x / (k + 2): each row its own operator."""
    return x / (np.arange(5)[idx] + 2.0)[:, None]


ALPHAS = [0.5, 0.25, 1.0, 0.75, 0.125]


@pytest.mark.parametrize("dim, alphas", [
    (0, ALPHAS), (3, [0.5, 0.0]), (3, [0.5, -0.25]), (3, [1.5, 0.5]),
    (3, [0.5, float("nan")]), (3, [float("inf")])])
def test_stack_refuses_what_an_averaged_op_refuses(dim, alphas):
    with pytest.raises(ValueError) as from_op:
        for alpha in alphas:
            AveragedOp(lambda x: x, dim=dim, alpha=alpha)
    with pytest.raises(ValueError) as from_stack:
        RowStack(_scaled_rows, dim, alphas, "row")
    assert str(from_stack.value) == str(from_op.value)


def test_stack_is_a_read_only_sequence_like_its_list():
    stack = RowStack(_scaled_rows, 3, ALPHAS, "row")
    x = np.array([1.0, -2.0, 6.0])
    assert len(stack) == 5 and bool(stack)
    for k, op in zip(range(-5, 5), [*stack, *stack]):
        member = stack[k]
        assert isinstance(member, AveragedOp)
        assert (member.name, member.alpha, member.dim, member.lipschitz) == (
            op.name, op.alpha, 3, None)
        assert op.name == f"row[{k % 5 + 1}]" and op.alpha == ALPHAS[k]
        assert np.array_equal(apply(member, x), x / (k % 5 + 2.0))
    assert [op.name for op in stack] == [f"row[{k}]" for k in range(1, 6)]
    assert stack[np.int64(2)].name == "row[3]"
    for k in (5, -6, 2**63):
        with pytest.raises(IndexError):
            stack[k]
    with pytest.raises(TypeError):
        stack[1.0]
    with pytest.raises(ValueError):
        stack.alphas[0] = 0.5


@pytest.mark.parametrize("runner", [run, run_economical],
                         ids=["plain", "economical"])
def test_inadmissible_alpha_is_refused_as_for_its_list(runner):
    stack = RowStack(_scaled_rows, 3, [0.5, 0.25, 0.9995, 1.0, 0.5], "row")
    cfg = SolverConfig(weights=[0.2] * 5, schedule=make_cyclic(5, 1),
                       epsilon=1e-3, max_iters=5)
    messages = []
    for ts in (stack, list(stack)):
        with pytest.raises(ValueError) as caught:
            runner(AveragedOp(lambda x: x, dim=3, alpha=0.5), ts, cfg,
                   np.ones(3))
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("operator 'row[3]' declares alpha=0.9995")


@pytest.mark.parametrize("build", [
    least_squares_feasibility,
    lambda A, eta: lasso_problem(A, eta, reg=0.05)],
    ids=["least_squares", "lasso"])
def test_row_builders_keep_no_per_row_objects(build):
    """Over 20,000 rows a builder keeps a few floats a row (alphas, weights),
    not an operator, a partial and a name per row (~530 bytes)."""
    m = 20_000
    A, eta = synthetic_unit_rows(4, m, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prob = build(A, eta)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(prob.ts) == m
    assert retained < 64 * m


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


@pytest.mark.parametrize("block_size", [1, 7, 15, 40])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_kernel_on_a_slice_equals_the_kernel_on_its_index_array(name,
                                                                block_size):
    """The solver hands a cyclic block's kernel a slice when its rows are
    consecutive; wrapped blocks keep their index array. Either way the rows
    are the bits the index array gives."""
    prob = BUILDERS[name]()
    schedule = make_cyclic(prob.m, block_size)
    rng = np.random.default_rng(block_size)
    kinds = set()
    for n in range(2 * prob.m):
        blk = schedule.block(n)
        kinds.add(type(blk.rows))
        x = 3.0 * rng.standard_normal(prob.dim)
        assert np.array_equal(prob.ts.kernel(blk.rows, x),
                              prob.ts.kernel(blk.idx, x))
    # 40 rows in blocks of 7 and 15 wrap; blocks of 1 and 40 never do
    assert slice in kinds
    assert (np.ndarray in kinds) == (prob.m % block_size != 0)


def _sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


# Each row builder's pieces, written out as each builder had them before the
# three shared one: the row gradient on rows idx, the cocoercivity constants,
# the aggregated gradient and the objective (the l1 term added by the test).
# Least squares shares lasso's; its aggregated gradient used to go through
# the row kernel and is now lasso's independent formula.
ROW_FORMULAS = {
    "lasso": (
        lambda A, eta, idx, x: (2.0 * ((A[idx] * x).sum(axis=1) - eta[idx]))
        [:, None] * A[idx],
        lambda sq: 1.0 / (2.0 * sq),
        lambda A, eta, w, x: A.T @ (2.0 * w * (A @ x - eta)),
        lambda A, eta, w, x: float(np.dot(w, (A @ x - eta) * (A @ x - eta)))),
    "logistic": (
        lambda A, eta, idx, x: (_sigmoid((A[idx] * x).sum(axis=1)) - eta[idx])
        [:, None] * A[idx],
        lambda sq: 4.0 / sq,
        lambda A, eta, w, x: A.T @ (w * (_sigmoid(A @ x) - eta)),
        lambda A, eta, w, x: float(np.dot(
            w, np.logaddexp(0.0, A @ x) - eta * (A @ x)))),
}
ROW_FORMULAS["least_squares"] = ROW_FORMULAS["lasso"]


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_row_builders_keep_their_formulas_bit_for_bit(name, weighted):
    grad_rows, betas_of, smooth_grad, loss = ROW_FORMULAS[name]
    base = BUILDERS[name]()
    A, eta = base.meta["rows"], base.meta["targets"]
    rng = np.random.default_rng(11)
    w = rng.random(base.m) + 0.5 if weighted else np.full(base.m, 1.0 / base.m)
    w /= w.sum()
    reg = base.meta.get("l1_weight")
    build = {"lasso": lasso_problem, "logistic": logistic_problem,
             "least_squares": least_squares_feasibility}[name]
    prob = build(A, eta, weights=w, **({} if reg is None else {"reg": reg}))
    betas = betas_of((A * A).sum(axis=1))
    gamma = 0.9 * 2.0 * float(betas.min())
    assert prob.gamma == gamma
    assert np.array_equal(prob.ts.alphas, gamma / (2.0 * betas))
    assert np.array_equal(prob.weights, w)
    for _ in range(4):
        x = 3.0 * rng.standard_normal(prob.dim)
        for idx in (np.array([3, 17, 18, 39]), slice(5, 12), slice(None)):
            assert np.array_equal(prob.ts.kernel(idx, x),
                                  x - gamma * grad_rows(A, eta, idx, x))
        assert np.array_equal(prob.meta["smooth_grad"](x),
                              smooth_grad(A, eta, w, x))
        value = loss(A, eta, w, x)
        if reg is not None:
            value = reg * float(np.abs(x).sum()) + value
        assert prob.objective(x) == value
        assert np.array_equal(prob.t0(x), x if reg is None else
                              np.sign(x) * np.maximum(np.abs(x) - gamma * reg,
                                                      0.0))


@pytest.mark.parametrize("runner", [run, run_economical],
                         ids=["plain", "economical"])
def test_clean_stacked_run_never_re_runs_a_block_through_eval_block(
        runner, monkeypatch):
    """Each iteration and each check calls the kernel once; the validating
    eval_block runs only to name an operator once a mean is non-finite."""
    prob = _least_squares()
    calls = {"kernel": 0, "eval_block": 0}
    kernel, eval_block = prob.ts.kernel, prob.ts.eval_block

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(prob.ts, "kernel", counted("kernel", kernel))
    monkeypatch.setattr(prob.ts, "eval_block",
                        counted("eval_block", eval_block))
    cfg = SolverConfig(weights=prob.weights, schedule=make_cyclic(prob.m, 7),
                       max_iters=60, tol_residual=-1.0, check_every=4)
    res = runner(prob.t0, prob.ts, cfg, np.ones(prob.dim))
    checks = sum(rec.residual is not None for rec in res.trace)
    assert calls == {"kernel": res.iterations + checks, "eval_block": 0}


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


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(sorted(BUILDERS)), st.integers(1, 5),
       st.integers(0, 25), st.integers(0, 2**16), st.integers(1, 12),
       st.integers(1, 5), st.booleans())
def test_stacked_and_list_runs_agree_on_generated_problems(
        name, d, extra_rows, seed, block_size, check_every, errors):
    """Generated sizes, data, schedules and check periods: plain and
    economical runs on the RowStack, on list(ts), on tuple(ts) and on the
    constant family (i, n) -> ts[i - 1] write the same bytes."""
    prob = BUILDERS[name](d=d, m=d + extra_rows, seed=seed)
    ops = list(prob.ts)
    forms = (prob.ts, ops, tuple(ops), lambda i, n: ops[i - 1])
    cfg = SolverConfig(
        weights=prob.weights,
        schedule=make_cyclic(prob.m, min(block_size, prob.m)),
        max_iters=40, tol_residual=-1.0, check_every=check_every,
        error_model=SeededDecayErrors(0.01, seed=seed) if errors else None)
    x0 = np.random.default_rng(seed).standard_normal(prob.dim)
    with tempfile.TemporaryDirectory() as tmp:
        for runner in (run, run_economical):
            traces = []
            for k, ts in enumerate(forms):
                path = Path(tmp) / f"{k}.csv"
                write_trace_csv(path, runner(prob.t0, ts, cfg, x0,
                                             x_ref=np.zeros(prob.dim)).trace)
                traces.append(path.read_bytes())
            assert traces[1:] == traces[:1] * 3


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
    return RowStack(kernel, dim, [0.5] * m, "row")


def test_first_non_finite_row_of_the_block_is_named():
    def kernel(idx, x):
        out = np.tile(x, (len(np.arange(8)[idx]), 1))
        out[np.isin(np.arange(8)[idx], (3, 5))] = np.nan
        return out

    ts = _stack(kernel)
    with pytest.raises(NonFiniteError, match=r"operator 'row\[6\]' "):
        ts.eval_block(np.array([1, 5, 3]), np.zeros(3))
    with pytest.raises(NonFiniteError, match=r"operator 'row\[4\]' "):
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
    activation within 1e-12 of the literal iteration) on a RowStack."""
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
    oracle, _, _ = literal_run(prob.t0, prob.ts, prob.weights,
                               make_full(prob.m), x0, 1000)
    assert max(float(np.max(np.abs(rec.x - ox)))
               for rec, ox in zip(res.trace, oracle)) <= 1e-12
