"""Injected errors: e_{i,n} is a pure function of (seed, i, n), drawn many at
a time and bit for bit the draw of numpy's ``default_rng([seed, i, n])``."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blocksplit import solver
from blocksplit.harness import synthetic_regression
from blocksplit.operators import norm
from blocksplit.problems import lasso_problem
from blocksplit.schedules import make_cyclic, make_quasicyclic_random
from blocksplit.solver import (SeededDecayErrors, SolverConfig, _seed_words,
                               run, run_economical)

from support import reference_error

WORD = st.integers(0, 2**32 - 1)
# steps that repeat within a draw, as a window of iterations makes them
STEP = st.integers(0, 300) | WORD


@settings(deadline=None, max_examples=60)
@given(seed=WORD, n=WORD, indices=st.lists(WORD, min_size=1, max_size=40),
       dim=st.integers(1, 64), c=st.floats(1e-6, 10.0),
       p=st.floats(1.01, 3.0))
@example(seed=0, n=0, indices=[0], dim=1, c=1.0, p=2.0)
# numpy's array power gives 256**p one ulp below the C library's pow here
@example(seed=0, n=255, indices=[0], dim=1, c=1.0, p=1.7373580571692306)
@example(seed=2**32 - 1, n=2**32 - 1, indices=[0, 2**32 - 1, 1, 2**32 - 1],
         dim=64, c=0.01, p=2.0)
def test_block_rows_equal_the_per_index_reference(seed, n, indices, dim, c, p):
    model = SeededDecayErrors(c, seed=seed, p=p)
    block = model.error(np.array(indices), n, dim)
    assert block.shape == (len(indices), dim)
    for row, i in zip(block, indices):
        ref = reference_error(c, seed, p, i, n, dim)
        assert np.array_equal(row, ref)
    assert np.array_equal(model.error(indices[0], n, dim), block[0])

    words = _seed_words(seed, np.array(indices, dtype=np.uint32), n)
    assert words.dtype == np.uint64 and words.shape == (len(indices), 4)
    for row, i in zip(words, indices):
        expected = np.random.SeedSequence([seed, i, n]).generate_state(
            4, np.uint64)
        assert np.array_equal(row, expected)


@settings(deadline=None, max_examples=60)
@given(seed=WORD, pairs=st.lists(st.tuples(WORD, STEP), min_size=1,
                                 max_size=40),
       dim=st.integers(1, 64), c=st.floats(1e-6, 10.0),
       p=st.floats(1.01, 3.0))
@example(seed=0, pairs=[(0, 255), (3, 0), (1, 255)], dim=1, c=1.0,
         p=1.7373580571692306)
@example(seed=2**32 - 1, pairs=[(2**32 - 1, 2**32 - 1), (0, 0),
                                (2**32 - 1, 0), (0, 2**32 - 1)],
         dim=64, c=0.01, p=2.0)
def test_rows_with_their_own_steps_equal_the_reference(seed, pairs, dim, c, p):
    indices, steps = (np.array(col) for col in zip(*pairs))
    block = SeededDecayErrors(c, seed=seed, p=p).error(indices, steps, dim)
    assert block.shape == (len(pairs), dim)
    for row, (i, n) in zip(block, pairs):
        assert np.array_equal(row, reference_error(c, seed, p, i, n, dim))


# SHA-256 of little-endian float64 error matrices, recorded with numpy 2.4.6
# from one `default_rng([seed, i, n])` per row. A numpy release that changes
# SeedSequence, PCG64 or the normal sampler changes these.
PINNED = [
    ((0.01, 4, 2.0, 0, list(range(31)), 20),
     "d75403abef1abfd61bcaf141141958cbec018700cb535c8b34f28de5bf3a4280"),
    ((0.01, 4, 2.0, 6249, [0, 3, 7, 11, 30], 20),
     "835d84568c3b02bf56de706dc28664852e3ee4f839046f6390b5d1088558faee"),
    ((1.0, 2**32 - 1, 1.5, 2**32 - 1, [0, 1, 2**31, 2**32 - 1], 7),
     "431caea1c8cd8747e46dde5a1995aed4d7a271707f7b4904f8c47cf9608ee8db"),
    ((0.5, 0, 3.0, 12345, list(range(39, -1, -1)), 64),
     "14e6a361df76105c0412edfa1baa0982004533f377bb7e244d96e41e7ca2d2c6"),
]


@pytest.mark.parametrize("case, digest", PINNED,
                         ids=["readme-n0", "readme-late", "max-words", "dim64"])
def test_pinned_error_matrices(case, digest):
    c, seed, p, n, indices, dim = case
    block = SeededDecayErrors(c, seed=seed, p=p).error(np.array(indices), n, dim)
    assert hashlib.sha256(block.astype("<f8").tobytes()).hexdigest() == digest


def test_zero_magnitude_block():
    block = SeededDecayErrors(0.0, seed=3).error(np.arange(4), 7, 5)
    assert block.shape == (4, 5) and not block.any()


@pytest.mark.parametrize("c, p", [(0.5, 2000), (0.5, 1e308), (0.5, 2**63),
                                  (0.5, 2**70), (1e300, 1100)])
def test_steep_decay_scales_through_logs(c, p):
    # (n+1)**p overflows a float from n = 1 on; the scale is then
    # exp(log c - p log(n+1)), which may underflow to 0 but never raises
    seed, dim, steps = 3, 4, [0, 1, 2, 2**32 - 1]
    rows = SeededDecayErrors(c, seed=seed, p=p).error(
        np.arange(len(steps)), np.array(steps), dim)
    assert np.isfinite(rows).all()
    for i, (row, n) in enumerate(zip(rows, steps)):
        scale = c if n == 0 else math.exp(math.log(c) - p * math.log(n + 1.0))
        direction = np.random.default_rng([seed, i, n]).standard_normal(dim)
        assert np.array_equal(row, scale * (direction / norm(direction)))
    # c = 1e300 keeps a scale 2**-1100 * c above the underflow at n = 1
    assert rows[1].any() == (c == 1e300)


@pytest.mark.parametrize("kwargs, message", [
    ({"c": float("nan")}, "finite"),
    ({"c": float("inf")}, "finite"),
    ({"c": 1.0, "p": float("nan")}, "finite"),
    ({"c": 1.0, "p": float("inf")}, "finite"),
    ({"c": 1.0, "seed": 1.7}, "seed must be an integer"),
    ({"c": 1.0, "seed": -1}, "seed must lie in"),
    ({"c": 1.0, "seed": 2**32}, "seed must lie in"),
    ({"c": 1.0, "seed": True}, "seed must be an integer"),
])
def test_bad_parameters_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SeededDecayErrors(**kwargs)


def test_integral_float_seed_accepted():
    assert SeededDecayErrors(1.0, seed=4.0).seed == 4


@pytest.mark.parametrize("i, n, message", [
    (-1, 0, "indices must lie in"),
    (2**32, 0, "indices must lie in"),
    (np.array([0, 2**32]), 0, "indices must lie in"),
    (np.array([[0, 1]]), 0, "1-D integer array"),
    (np.array([0.5]), 0, "1-D integer array"),
    (0, -1, "n must lie in"),
    (0, 2**32, "n must lie in"),
    (np.array([0, 1]), np.array([0.0, 1.0]), "one step per index"),
    (np.array([0, 1]), np.array([0, 1, 2]), "one step per index"),
    (np.array([0, 1]), np.array([[0, 1]]), "one step per index"),
    (0, np.array([0]), "one step per index"),
    (np.array([0, 1]), np.array([0, -1]), "steps must lie in"),
    (np.array([0, 1]), np.array([2**32, 0]), "steps must lie in"),
])
def test_indices_and_step_outside_one_word_rejected(i, n, message):
    with pytest.raises(ValueError, match=message):
        SeededDecayErrors(1.0).error(i, n, 3)


class CountingErrors(SeededDecayErrors):
    """The error model, recording the steps of every ``error`` call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.windows = []

    def error(self, i, n, dim):
        self.windows.append(np.unique(n).tolist())
        return super().error(i, n, dim)


def reference_sums(trace, c, seed, p, m, dim):
    """(err0, errsum) of every update record, recomputed from the recorded
    blocks: errsum adds ||e_{i,c(i,n)}|| over the indices activated at or
    before n, c(i, n) being the latest such step."""
    norms = np.zeros(m)
    sums = []
    for rec in trace[:-1]:
        for i in rec.block:
            norms[i - 1] = norm(reference_error(c, seed, p, i, rec.n, dim))
        sums.append((norm(reference_error(c, seed, p, 0, rec.n, dim)),
                     float(norms.sum())))
    return sums


@pytest.mark.parametrize("runner", [run, run_economical])
@pytest.mark.parametrize("schedule, window_rows, max_iters, lengths", [
    (make_cyclic(6, 2), 9, 23, [3] * 7 + [2]),
    (make_quasicyclic_random(6, 3, seed=2), 11, 31, None),
    (make_cyclic(6, 2), None, 40, [40]),
], ids=["cyclic-partial-last-window", "quasicyclic-partial-last-window",
        "below-one-window"])
def test_windowed_errors_match_the_reference_sums(monkeypatch, runner, schedule,
                                                  window_rows, max_iters,
                                                  lengths):
    c, seed, p = 0.05, 7, 1.5
    A, eta, _ = synthetic_regression(4, 6, seed=3)
    prob = lasso_problem(A, eta, reg=0.05)
    if window_rows is not None:
        monkeypatch.setattr(solver, "_ERROR_WINDOW_BYTES",
                            8 * prob.dim * window_rows)
    else:
        # 3 error rows per iteration, all of them within one window
        assert 8 * prob.dim * 3 * max_iters < solver._ERROR_WINDOW_BYTES
    errors = CountingErrors(c, seed=seed, p=p)
    cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                       max_iters=max_iters, tol_residual=-1.0,
                       error_model=errors)
    res = runner(prob.t0, prob.ts, cfg, np.zeros(prob.dim))

    # the windows are consecutive runs of steps that end at the cap
    assert [n for w in errors.windows for n in w] == list(range(max_iters))
    for w in errors.windows:
        assert w == list(range(w[0], w[-1] + 1))
    if lengths is None:
        assert len(errors.windows) > 2
    else:
        assert [len(w) for w in errors.windows] == lengths

    sums = reference_sums(res.trace, c, seed, p, prob.m, prob.dim)
    assert [(rec.err0, rec.errsum) for rec in res.trace[:-1]] == sums
    tail = sums[schedule.K - 1:]
    assert res.sum_err0 == sum(e0 for e0, _ in tail)
    assert res.sum_lagged_errors == sum(s for _, s in tail)


class ColumnErrors:
    """One error column per index instead of a row of ``dim`` entries."""

    def error(self, indices, steps, dim):
        return np.full((len(indices), 1), 1e-3)


class ShortErrors:
    """One row fewer than there are indices."""

    def error(self, indices, steps, dim):
        return np.zeros((len(indices) - 1, dim))


class ListErrors:
    """The right rows, as nested lists instead of an array."""

    def error(self, indices, steps, dim):
        return np.zeros((len(indices), dim)).tolist()


@pytest.mark.parametrize("runner", [run, run_economical])
@pytest.mark.parametrize("model, got", [
    (ColumnErrors(), "a float64 array of shape (150, 1)"),
    (ShortErrors(), "a float64 array of shape (149, 4)"),
    (ListErrors(), "list"),
], ids=["column", "short", "list"])
def test_an_error_draw_of_the_wrong_shape_is_refused(runner, model, got):
    # a column was broadcast over the 4 coordinates, recording err0 as half
    # the norm of the error added, and a short draw failed inside numpy
    A, eta, _ = synthetic_regression(4, 6, seed=3)
    prob = lasso_problem(A, eta, reg=0.05)
    # 50 iterations of 1 + 2 rows fit one window
    cfg = SolverConfig(weights=prob.weights, schedule=make_cyclic(6, 2),
                       max_iters=50, tol_residual=-1.0, error_model=model)
    with pytest.raises(ValueError, match=re.escape(
            f"error model returned {got}, expected a float array of shape "
            f"(150, 4)")):
        runner(prob.t0, prob.ts, cfg, np.zeros(prob.dim))
