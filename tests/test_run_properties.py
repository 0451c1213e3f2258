"""Properties of whole runs over generated problems, schedules and injected
errors: the plain and economical means agree within a stated rounding bound,
and a trace survives the CSV round trip column for column."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from blocksplit.harness import (read_trace_csv, synthetic_regression,
                                synthetic_unit_rows, write_trace_csv)
from blocksplit.problems import (lasso_problem, least_squares_feasibility,
                                 logistic_problem)
from blocksplit.schedules import make_cyclic, make_quasicyclic_random
from blocksplit.solver import (SeededDecayErrors, SolverConfig, run,
                               run_economical)

UNIT_ROUNDOFF = 2.0 ** -53


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


@st.composite
def runs(draw):
    """A generated problem, schedule, start point and error model."""
    kind = draw(st.sampled_from(["lasso", "logistic", "least_squares"]))
    d = draw(st.integers(1, 6))
    m = d + draw(st.integers(0, 20))
    seed = draw(st.integers(0, 2**16))
    prob = _build(kind, d, m, seed)
    if draw(st.booleans()):
        schedule = make_cyclic(m, draw(st.integers(1, m)))
    else:
        schedule = make_quasicyclic_random(m, draw(st.integers(1, 6)), seed)
    errors = SeededDecayErrors(draw(st.floats(1e-4, 0.5)),
                               seed=draw(st.integers(0, 2**32 - 1)),
                               p=draw(st.floats(1.1, 3.0)))
    cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                       max_iters=draw(st.integers(1, 60)), tol_residual=-1.0,
                       check_every=draw(st.integers(1, 7)),
                       error_model=errors, record_buffers=True)
    x0 = 3.0 * np.random.default_rng(seed).standard_normal(prob.dim)
    return prob, cfg, x0


@settings(deadline=None, max_examples=40)
@given(runs())
def test_plain_and_economical_runs_agree_within_the_rounding_bound(case):
    """Both runs draw the same errors (a pure function of (i, n)) and see
    the same blocks; they differ only in how the weighted mean is rounded.
    Per iteration each mean is off by at most (2m + 8) u S per coordinate,
    S bounding the magnitudes summed (buffer entries and the running mean),
    u the unit roundoff. The economical mean carries its error forward, so
    after n iterations it is off by at most n times that, and nonexpansive
    T0 and T_i pass an iterate gap on without growing it. Summing,

        ||x_n - x'_n|| <= sqrt(d) (2m + 8) u S (n + 1)**2.
    """
    prob, cfg, x0 = case
    plain = run(prob.t0, prob.ts, cfg, x0)
    econ = run_economical(prob.t0, prob.ts, cfg, x0)
    assert len(plain.trace) == len(econ.trace)
    scale = 1.0 + max(max(float(np.max(np.abs(rec.x))) for rec in plain.trace),
                      max(float(np.max(np.abs(rec.t_buffer)))
                          for rec in plain.trace[:-1]))
    per_step = np.sqrt(prob.dim) * (2 * prob.m + 8) * UNIT_ROUNDOFF * scale
    for a, b in zip(plain.trace, econ.trace):
        assert a.block == b.block and a.err0 == b.err0
        assert np.linalg.norm(a.x - b.x) <= per_step * (a.n + 1) ** 2


@settings(deadline=None, max_examples=40)
@given(runs(), st.booleans(), st.booleans())
def test_trace_csv_round_trips_every_column(case, economical, with_ref):
    prob, cfg, x0 = case
    runner = run_economical if economical else run
    x_ref = np.zeros(prob.dim) if with_ref else None
    trace = runner(prob.t0, prob.ts, cfg, x0, x_ref=x_ref).trace
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(path, trace)
        data = read_trace_csv(path)
    assert set(data) == {"n", "residual", "step", "err0", "errsum", "block",
                         "dist_ref"}
    for column, values in data.items():
        assert values == [getattr(rec, column) for rec in trace], column
