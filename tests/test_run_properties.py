"""Properties of whole runs over generated problems, schedules and injected
errors: the plain run is the paper's iteration as written, bit for bit, and
the economical one within a stated rounding bound, every run satisfies the
lagged distance inequality, the lagged residual is bounded by the distances
to the stale iterates, a contractive run stays inside the linear
envelope, a trace survives the CSV round trip column for column, its file
byte for byte, skipping stopping checks changes nothing but the skipped
residuals, and the checks run are the ones an independent replay of the
gate picks, none of them skipped where the stale-iterate bound certifies
the tolerance."""

import dataclasses
import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blocksplit.calculus import Ball, Halfspace, Hyperplane, projector_op
from blocksplit.harness import (TRACE_HEADER, read_trace_csv,
                                synthetic_regression, synthetic_unit_rows,
                                write_trace_csv)
from blocksplit.problems import (lasso_problem, least_squares_feasibility,
                                 logistic_problem)
from blocksplit.operators import (AveragedOp, identity_op, norm, relax,
                                  scaling_op)
from blocksplit.schedules import (last_activation, make_cyclic, make_full,
                                  make_quasicyclic_random)
from blocksplit.solver import (SeededDecayErrors, SolverConfig, fejer_audit,
                               linear_rate_audit, run, run_economical)

from support import (calibrated_margin, literal_run, margin_two,
                     replay_gate)

UNIT_ROUNDOFF = 2.0 ** -53
# the relaxations lambda_{n mod 4} of the non-autonomous families
LAMBDAS = (1.0, 0.6, 0.8, 0.9)


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
def problems(draw):
    """A generated problem, schedule and seed."""
    kind = draw(st.sampled_from(["lasso", "logistic", "least_squares"]))
    d = draw(st.integers(1, 6))
    m = d + draw(st.integers(0, 20))
    seed = draw(st.integers(0, 2**16))
    prob = _build(kind, d, m, seed)
    if draw(st.booleans()):
        schedule = make_cyclic(m, draw(st.integers(1, m)))
    else:
        schedule = make_quasicyclic_random(m, draw(st.integers(1, 6)), seed)
    return prob, schedule, seed


@st.composite
def runs(draw):
    """A generated problem, schedule, start point and error model."""
    prob, schedule, seed = draw(problems())
    errors = SeededDecayErrors(draw(st.floats(1e-4, 0.5)),
                               seed=draw(st.integers(0, 2**32 - 1)),
                               p=draw(st.floats(1.1, 3.0)))
    cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                       max_iters=draw(st.integers(1, 60)), tol_residual=-1.0,
                       check_every=draw(st.integers(1, 7)),
                       error_model=errors, record_buffers=True)
    x0 = 3.0 * np.random.default_rng(seed).standard_normal(prob.dim)
    return prob, cfg, x0


def rounding_bound(prob, trace):
    """Per-iteration bound on the gap between a plain and an economical
    run, from the plain run's ``trace``.

    Both runs draw the same errors (a pure function of (i, n)) and see the
    same blocks; they differ only in how the weighted mean is rounded. Per
    iteration each mean is off by at most (2m + 8) u S per coordinate, S
    bounding the magnitudes summed (buffer entries and the running mean), u
    the unit roundoff. The economical mean carries its error forward, so
    after n iterations it is off by at most n times that, and nonexpansive
    T0 and T_i pass an iterate gap on without growing it. Summing,

        ||x_n - x'_n|| <= sqrt(d) (2m + 8) u S (n + 1)**2,

    and this returns sqrt(d) (2m + 8) u S.
    """
    scale = 1.0 + max(max(float(np.max(np.abs(rec.x))) for rec in trace),
                      max(float(np.max(np.abs(rec.t_buffer)))
                          for rec in trace[:-1]))
    return np.sqrt(prob.dim) * (2 * prob.m + 8) * UNIT_ROUNDOFF * scale


@settings(deadline=None, max_examples=40)
@given(runs())
def test_plain_and_economical_runs_agree_within_the_rounding_bound(case):
    prob, cfg, x0 = case
    plain = run(prob.t0, prob.ts, cfg, x0)
    econ = run_economical(prob.t0, prob.ts, cfg, x0)
    assert len(plain.trace) == len(econ.trace)
    per_step = rounding_bound(prob, plain.trace)
    for a, b in zip(plain.trace, econ.trace):
        assert a.block == b.block and a.err0 == b.err0
        assert np.linalg.norm(a.x - b.x) <= per_step * (a.n + 1) ** 2


def relaxed_families(prob):
    """T_{0,n} and T_{i,n}: the problem's operators relaxed by
    lambda_{n mod 4}."""
    return (lambda n: relax(prob.t0, LAMBDAS[n % 4]),
            lambda i, n: relax(prob.ts[i - 1], LAMBDAS[n % 4]))


@settings(deadline=None, max_examples=40)
@given(runs(), st.sampled_from(["errors", "error-free", "gated"]),
       st.booleans(), st.integers(100, 300), st.floats(-12.0, -2.0))
def test_runs_are_the_literal_iteration(case, mode, families, gated_iters,
                                        log_tol):
    """``run`` computes the paper's iteration as ``literal_run`` writes it:
    the same iterates, buffers and lagged residuals, bit for bit, with or
    without injected errors, for fixed operators and (i, n) families, and
    with the stopping checks an error-free run with a tolerance skips.
    ``run_economical`` stays within the rounding bound of the plain mean."""
    prob, cfg, x0 = case
    if mode != "errors":
        cfg = dataclasses.replace(cfg, error_model=None)
    if mode == "gated":
        cfg = dataclasses.replace(cfg, max_iters=gated_iters,
                                  tol_residual=10.0 ** log_tol)
    t0, ts = relaxed_families(prob) if families else (prob.t0, prob.ts)
    plain = run(t0, ts, cfg, x0)
    xs, buffers, residuals = literal_run(t0, ts, prob.weights, cfg.schedule,
                                         x0, plain.iterations,
                                         cfg.error_model)
    assert len(plain.trace) == len(xs)
    for rec in plain.trace:
        assert rec.x.tobytes() == xs[rec.n].tobytes()
        assert rec.residual is None or rec.residual == residuals[rec.n]
    for rec, t in zip(plain.trace, buffers):
        assert rec.t_buffer.tobytes() == t.tobytes()
    # a gated economical run may stop at another check than the plain one
    per_step = rounding_bound(prob, plain.trace)
    for rec, x in zip(run_economical(t0, ts, cfg, x0).trace, xs):
        assert norm(rec.x - x) <= per_step * (rec.n + 1) ** 2


@settings(deadline=None, max_examples=25)
@given(runs(), st.booleans(), st.booleans(), st.integers(0, 2**16))
def test_runs_satisfy_the_lagged_distance_inequality(case, economical,
                                                      errors, at):
    """Every run, with or without injected errors, passes ``fejer_audit``
    with its default slack against an error-free full-activation reference
    at 1e-13, as ``run_experiment`` takes it; a run shorter than K is
    refused, having nothing to check. Moving one iterate farther from the
    reference than any bound allows fails the audit at that iterate."""
    prob, cfg, x0 = case
    if not errors:
        cfg = dataclasses.replace(cfg, error_model=None)
    K = cfg.schedule.K
    ref = run(prob.t0, prob.ts,
              SolverConfig(weights=prob.weights, schedule=make_full(prob.m),
                           max_iters=200_000, tol_residual=1e-13,
                           check_every=10), x0)
    assert ref.converged
    runner = run_economical if economical else run
    trace = runner(prob.t0, prob.ts, cfg, x0).trace
    if len(trace) <= K:
        with pytest.raises(ValueError, match="recorded iterates"):
            fejer_audit(trace, ref.x, prob.weights, K)
        return
    report = fejer_audit(trace, ref.x, prob.weights, K)
    assert report.passed, report

    # the bound at n is a mean of distances plus the two error terms at n
    far = (1.0 + report.slack + max(norm(rec.x - ref.x) for rec in trace)
           + max(rec.err0 + rec.errsum for rec in trace[:-1]))
    j = K + at % (len(trace) - K)
    moved = list(trace)
    moved[j] = dataclasses.replace(trace[j],
                                   x=ref.x + far * np.eye(prob.dim)[0])
    report = fejer_audit(moved, ref.x, prob.weights, K)
    assert not report.passed and report.first_violation_n == j - 1


def stale_bound(trace, weights, schedule, n):
    """U_n = sum_i w_i ||x_{c(i,n-1)} - x_n|| from a trace's iterates, with
    c(i, n-1) from ``last_activation``."""
    return sum(w * norm(trace[last_activation(schedule, i, n - 1)].x
                        - trace[n].x)
               for i, w in enumerate(weights, 1))


def stale_bound_excess(trace, weights, schedule):
    """The largest excess of the lagged residual r_n over its bound from
    the stale iterates, for n >= K, in units of 1 + max_k ||x_k||_inf:

        r_n <= sum_i w_i ||x_{c(i,n-1)} - x_n|| + err0_{n-1} + errsum_{n-1}

    with c(i, n-1) from ``last_activation``. Buffer entry i holds
    T_i x_{c(i,n-1)} + e_{i,c(i,n-1)} after iteration n-1, so for
    nonexpansive autonomous T_0 and T_i the bound holds up to rounding."""
    K = schedule.K
    scale = 1.0 + max(float(np.max(np.abs(rec.x))) for rec in trace)
    excess = []
    for rec in trace[K:]:
        prev = trace[rec.n - 1]
        excess.append((rec.residual - stale_bound(trace, weights, schedule,
                                                  rec.n)
                       - prev.err0 - prev.errsum) / scale)
    return max(excess)


@settings(deadline=None, max_examples=40)
@given(runs(), st.booleans(), st.booleans())
def test_lagged_residual_is_bounded_by_the_stale_iterates(case, economical,
                                                          errors):
    """Every run that checks at every n, with or without injected errors,
    keeps its lagged residual within 1e-12 of the stale-iterate bound."""
    prob, cfg, x0 = case
    cfg = dataclasses.replace(cfg, check_every=1,
                              error_model=cfg.error_model if errors else None)
    runner = run_economical if economical else run
    trace = runner(prob.t0, prob.ts, cfg, x0).trace
    if len(trace) > cfg.schedule.K:
        assert stale_bound_excess(trace, prob.weights, cfg.schedule) <= 1e-12


@pytest.mark.parametrize("runner", [run, run_economical],
                         ids=["plain", "economical"])
def test_expanding_rows_break_the_stale_iterate_bound(runner):
    """Rows 1.5 Id declared 1/2-averaged are not nonexpansive, and the
    bound fails by far more than rounding: the property above can fail."""
    grow = AveragedOp(lambda x: 1.5 * x, 2, 0.5, name="1.5*id")
    schedule = make_cyclic(2, 1)
    cfg = SolverConfig(weights=[0.5, 0.5], schedule=schedule, max_iters=10,
                       tol_residual=-1.0, check_every=1)
    trace = runner(identity_op(2), [grow, grow], cfg, [1.0, 2.0]).trace
    assert stale_bound_excess(trace, [0.5, 0.5], schedule) > 0.1


@st.composite
def contractions(draw):
    """T0 = c Id with c in [0.05, 0.99], m projectors onto sets that contain
    0 (hyperplanes through 0, halfspaces {<a, x> <= b} with b >= 0, balls
    that contain 0), random weights and schedule, and a start point."""
    d = draw(st.integers(1, 5))
    c = draw(st.floats(0.05, 0.99))
    kinds = draw(st.lists(st.sampled_from(["hyperplane", "halfspace", "ball"]),
                          min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    sets = []
    for kind in kinds:
        a = rng.standard_normal(d)
        if kind == "hyperplane":
            sets.append(Hyperplane(a, 0.0))
        elif kind == "halfspace":
            sets.append(Halfspace(a, rng.uniform(0.0, 2.0)))
        else:
            sets.append(Ball(a, norm(a) + rng.uniform(0.01, 1.0)))
    m = len(sets)
    raw = rng.uniform(0.1, 1.0, m)
    if draw(st.booleans()):
        schedule = make_cyclic(m, draw(st.integers(1, m)))
    else:
        schedule = make_quasicyclic_random(m, draw(st.integers(1, 6)), seed)
    x0 = 3.0 * rng.standard_normal(d)
    return (scaling_op(d, c), [projector_op(s) for s in sets], raw / raw.sum(),
            schedule, x0, c)


@settings(deadline=None, max_examples=150)
@given(contractions(), st.booleans(), st.integers(20, 120),
       st.integers(0, 2**16))
def test_contractive_runs_stay_inside_the_linear_envelope(case, economical,
                                                          max_iters, at):
    """With T0 = c Id and projectors onto sets that contain x_ref = 0,
    rho = c and every run passes ``linear_rate_audit`` at its default slack.
    Moving one recorded distance past its envelope fails the audit there."""
    t0, ts, w, schedule, x0, c = case
    m, K = len(ts), schedule.K
    cfg = SolverConfig(weights=w, schedule=schedule, max_iters=max_iters,
                       tol_residual=-1.0, check_every=max_iters)
    runner = run_economical if economical else run
    trace = runner(t0, ts, cfg, x0, x_ref=np.zeros(x0.size)).trace
    report = linear_rate_audit(trace, None, c, [1.0] * m, w, K)
    assert report.passed, report

    # the envelope at j >= K, as the audit draws it from d_0, ..., d_{K-1}
    rho = c * float(np.dot(w, np.ones(m)))
    head = rho ** ((1.0 - K) / K) * max(rec.dist_ref for rec in trace[:K])
    j = K + at % (len(trace) - K)
    moved = list(trace)
    moved[j] = dataclasses.replace(trace[j],
                                   dist_ref=head * rho ** (j / K) + 1.0)
    report = linear_rate_audit(moved, None, c, [1.0] * m, w, K)
    assert not report.passed and report.first_violation_n == j


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
        read = read_trace_csv(path)
        # writing what was read gives the file back byte for byte
        again = Path(tmp) / "again.csv"
        write_trace_csv(again, read)
        assert again.read_bytes() == path.read_bytes()
    assert len(read) == len(trace)
    for column in TRACE_HEADER.split(","):
        assert ([getattr(rec, column) for rec in read]
                == [getattr(rec, column) for rec in trace]), column
    assert all(rec.x is None for rec in read)


@settings(deadline=None, max_examples=40)
@given(problems(), st.integers(100, 600),
       st.integers(1, 20) | st.integers(21, 300), st.floats(-12.0, -1.0),
       st.booleans())
def test_skipped_checks_change_nothing_but_their_residuals(
        case, max_iters, check_every, log_tol, economical):
    """An error-free run with a tolerance may skip scheduled checks; the same
    run at tol_residual -1 runs every one. Skipping leaves the iterates,
    blocks, steps and distances bit for bit, each residual it records is the
    one the full run records, it stops no earlier than the full run's first
    passing check, it skips at most 19 scheduled checks in a row, and no
    skipped check lies 4K or more iterations after the last one run."""
    prob, schedule, seed = case
    runner = run_economical if economical else run
    x0 = 3.0 * np.random.default_rng(seed).standard_normal(prob.dim)
    tol = 10.0 ** log_tol

    def solve(tol_residual):
        cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                           max_iters=max_iters, tol_residual=tol_residual,
                           check_every=check_every)
        return runner(prob.t0, prob.ts, cfg, x0, x_ref=np.zeros(prob.dim))

    gated, full = solve(tol), solve(-1.0)
    # the stop, and the cap, are decided on a measured residual
    assert gated.trace[-1].residual is not None
    for a, b in zip(gated.trace, full.trace):
        assert np.array_equal(a.x, b.x) and a.dist_ref == b.dist_ref
        assert a.block == b.block and a.step == b.step or a is gated.trace[-1]
        assert a.residual is None or a.residual == b.residual
    first_pass = next((rec.n for rec in full.trace if rec.residual is not None
                       and rec.residual <= tol), max_iters)
    assert gated.iterations >= first_pass
    in_a_row = longest = 0
    for rec in gated.trace:
        if rec.residual is not None:
            last_run = rec.n
        if rec.n % check_every == 0:
            in_a_row = in_a_row + 1 if rec.residual is None else 0
            longest = max(longest, in_a_row)
            assert rec.residual is not None or (rec.n - last_run
                                                < 4 * schedule.K)
    assert longest <= 19
    assert gated.stats["checks_skipped"] == sum(
        rec.residual is None for rec in gated.trace
        if rec.n % check_every == 0)


def lag_order_bounds(trace, weights, K):
    """U_n = sum_i w_i ||x_{c(i,n-1)} - x_n|| at every n >= K of an
    error-free trace, None before, summed as the solver sums it: the
    weights of the indices activated last at step k added in index order,
    then their mass times ||x_k - x_n|| added from k = n-K up, so the two
    agree bit for bit. c(i, n-1) comes from the recorded blocks."""
    last = [-1] * len(weights)
    bounds = []
    for rec in trace:
        n = rec.n
        if n < K:
            bounds.append(None)
        else:
            mass = [0.0] * K
            for i, w in enumerate(weights):
                mass[last[i] - (n - K)] += w
            u = 0.0
            for k in range(n - K, n):
                u += mass[k - (n - K)] * norm(trace[k].x - rec.x)
            bounds.append(u)
        if rec.block is not None:
            for i in rec.block:
                last[i - 1] = n
    return bounds


def dense_series(prob, schedule, x0, max_iters, runner=run):
    """The residual at every n up to ``max_iters``, and at every n >= K
    (None before) the stale-iterate bound U_n the gate predicts with and
    the step sum S_n, of ||x_{k+1} - x_k|| over the K steps before n, it
    predicted with before, of an error-free run that checks every
    iteration and never stops early: its iterates are those of any
    error-free run from ``x0``."""
    cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                       max_iters=max_iters, tol_residual=-1.0, check_every=1)
    trace = runner(prob.t0, prob.ts, cfg, x0).trace
    K = schedule.K
    steps = [rec.step for rec in trace[:-1]]
    return ([rec.residual for rec in trace],
            lag_order_bounds(trace, prob.weights, K),
            [sum(steps[n - K:n]) if n >= K else None
             for n in range(len(trace))])


@settings(deadline=None, max_examples=40)
@given(problems(), st.integers(100, 400),
       st.integers(1, 20) | st.integers(21, 300), st.floats(0.05, 0.95),
       st.booleans())
def test_gated_checks_are_the_ones_the_replay_picks(case, max_iters,
                                                    check_every, at,
                                                    economical):
    """A gated run checks at exactly the n that ``replay_gate`` picks from
    the dense series, and records there the dense run's residual, bit for
    bit. The tolerance is the dense residual at a fraction ``at`` of the
    run, so most runs stop before the cap."""
    prob, schedule, seed = case
    runner = run_economical if economical else run
    x0 = 3.0 * np.random.default_rng(seed).standard_normal(prob.dim)
    residuals, bounds, _ = dense_series(prob, schedule, x0, max_iters,
                                        runner)
    tol = residuals[int(at * max_iters)]
    cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                       max_iters=max_iters, tol_residual=tol,
                       check_every=check_every)
    gated = runner(prob.t0, prob.ts, cfg, x0)
    checked = [(rec.n, rec.residual) for rec in gated.trace
               if rec.residual is not None]
    picked = replay_gate(residuals, bounds, schedule.K, check_every, tol,
                         calibrated_margin)
    assert checked == [(n, residuals[n]) for n in picked]


@settings(deadline=None, max_examples=40)
@given(problems(), st.sampled_from(["list", "stack", "family"]),
       st.booleans(), st.integers(100, 400),
       st.integers(1, 20) | st.integers(21, 300), st.floats(0.05, 0.95))
# a family, which U_n does not bound, whose prediction would skip a
# candidate the guard runs
@example((_build("logistic", 5, 16, 510), make_cyclic(16, 5), 510),
         "family", False, 100, 3, 0.703125)
def test_no_candidate_the_stale_bound_certifies_is_skipped(
        case, operators, economical, max_iters, check_every, at):
    """An error-free run skips no candidate whose stale-iterate bound U_n,
    plus 1e-12 (1 + max_k ||x_k||_inf), is within the tolerance, for
    operator lists, stacks and (i, n) families. For autonomous operators
    that bound exceeds the residual, so the run stops no later than the
    first candidate n >= K it certifies. The tolerance is the residual of
    a run that checks every n at a fraction ``at`` of the way."""
    prob, schedule, seed = case
    runner = run_economical if economical else run
    t0, ts = {"list": (prob.t0, list(prob.ts)),
              "stack": (prob.t0, prob.ts),
              "family": relaxed_families(prob)}[operators]
    x0 = 3.0 * np.random.default_rng(seed).standard_normal(prob.dim)

    def solve(tol_residual, check_every):
        cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                           max_iters=max_iters, tol_residual=tol_residual,
                           check_every=check_every)
        return runner(t0, ts, cfg, x0).trace

    dense = solve(-1.0, 1)
    tol = dense[int(at * max_iters)].residual
    gated = solve(tol, check_every)
    K = schedule.K
    slack = 1e-12 * (1.0 + max(float(np.max(np.abs(rec.x)))
                               for rec in dense))
    for rec in gated:
        if rec.residual is None and rec.n % check_every == 0:
            assert (stale_bound(gated, prob.weights, schedule, rec.n)
                    + slack > tol)
    if operators != "family":
        assert not any(
            stale_bound(dense, prob.weights, schedule, n) + slack <= tol
            for n in range(0, gated[-1].n, check_every) if n >= K)


@functools.cache
def survey_series():
    """Lasso at m=30 under cyclic blocks of 5 (K=6), quasicyclic blocks
    (K=5) and full activation: K and the dense series of 3,000 iterations
    from 0, for each schedule."""
    A, eta, _ = synthetic_regression(20, 30, 2)
    prob = lasso_problem(A, eta, reg=1e-3)
    return [(schedule.K, *dense_series(prob, schedule, np.zeros(20), 3000))
            for schedule in (make_cyclic(30, 5),
                             make_quasicyclic_random(30, 5, 1),
                             make_full(30))]


def survey_totals(predictor, margin_rule):
    """Late stops (after the first candidate whose residual passes), the
    iterations they add and the checks run, replaying the gate over the
    survey's three schedules, tolerances 1e-1 to 1e-13 where the run
    reaches them and check spacings 1 to 500. ``predictor`` is "bound",
    the stale-iterate bound U_n with its guard, or "steps", the step sum
    S_n the gate predicted with before."""
    late = late_iters = checks = 0
    for K, residuals, bounds, step_sums in survey_series():
        series = bounds if predictor == "bound" else step_sums
        for tol in (10.0 ** -e for e in range(1, 14)):
            for every in (1, 2, 5, 10, 20, 50, 100, 200, 500):
                candidates = [*range(0, 3000, every), 3000]
                first = next((n for n in candidates if residuals[n] <= tol),
                             None)
                if first is None:
                    continue
                picked = replay_gate(residuals, series, K, every, tol,
                                     margin_rule,
                                     certified=predictor == "bound")
                late += picked[-1] > first
                late_iters += picked[-1] - first
                checks += len(picked)
    return late, late_iters, checks


def test_calibrated_margin_is_no_worse_than_a_margin_of_two():
    """Over the survey, the calibrated margin stops late no more often and
    by no more iterations than the fixed margin of 2, and runs fewer
    checks."""
    late, late_iters, checks = survey_totals("bound", calibrated_margin)
    base_late, base_late_iters, base_checks = survey_totals("bound",
                                                            margin_two)
    assert late <= base_late and late_iters <= base_late_iters
    assert checks < base_checks


def test_stale_bound_predictor_runs_fewer_checks_than_the_step_sum():
    """The survey's totals at the calibrated margin, pinned: the
    stale-iterate bound runs 11,985 checks with no late stop, where the
    step sum ran 12,690, also with none."""
    assert survey_totals("bound", calibrated_margin) == (0, 0, 11_985)
    assert survey_totals("steps", calibrated_margin) == (0, 0, 12_690)
