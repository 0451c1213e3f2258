"""Acceptance gate: one test per criterion, each checked at its stated
tolerance and reporting one PASS/FAIL line (run pytest with -s to see the
lines for passing criteria)."""

import time

import numpy as np
import pytest

from blocksplit.calculus import (AffineSubspace, Ball, Box, Halfspace,
                                 Hyperplane, LinearMap, Singleton,
                                 distance_penalty_value, grad_distance_penalty,
                                 gradient_step_op, half_square, huber,
                                 linear_resolvent_op, projector_op,
                                 prox_l1_op, row_map, square)
from blocksplit.harness import (l1_optimality_residual, oracle_least_squares,
                                oracle_prox_grad_reference,
                                synthetic_regression, synthetic_unit_rows)
from blocksplit.operators import certify_averaged, scaling_op
from blocksplit.problems import (alternating_projections, build_cohypomonotone,
                                 lasso_problem, least_squares_feasibility,
                                 quadratic_resolvent)
from blocksplit.schedules import (check_concentrating, lag_identity_check,
                                  make_cyclic, make_full,
                                  make_quasicyclic_random, mu_row)
from blocksplit.solver import (SeededDecayErrors, SolverConfig, fejer_audit,
                               linear_rate_audit, run, run_economical)
from support import identity_map, literal_run


def verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared instances

@pytest.fixture(scope="module")
def axis_instance():
    """R^2, T0 = Id/2, T1/T2 = axis projections, cyclic singletons, K = 2."""
    t0 = scaling_op(2, 0.5)
    ts = [projector_op(Hyperplane([0.0, 1.0], 0.0)),
          projector_op(Hyperplane([1.0, 0.0], 0.0))]
    cfg = SolverConfig(weights=[0.5, 0.5], schedule=make_cyclic(2, 1),
                       max_iters=200, tol_residual=-1.0, check_every=1)
    started = time.perf_counter()
    res = run(t0, ts, cfg, [1.0, 1.0])
    elapsed = time.perf_counter() - started
    return res, elapsed


@pytest.fixture(scope="module")
def lasso_instance():
    A, eta, _ = synthetic_regression(20, 30, seed=1)
    prob = lasso_problem(A, eta, reg=0.01)
    sched = make_quasicyclic_random(30, 5, seed=1)
    return prob, sched


@pytest.fixture(scope="module")
def lasso_solved(lasso_instance):
    prob, sched = lasso_instance
    started = time.perf_counter()
    res = prob.solve(sched, np.zeros(20), max_iters=50_000, tol_residual=1e-10)
    elapsed = time.perf_counter() - started
    return res, elapsed


@pytest.fixture(scope="module")
def lasso_reference(lasso_instance):
    prob, _ = lasso_instance
    res = prob.solve(make_full(prob.m), np.zeros(20), max_iters=200_000,
                     tol_residual=1e-13)
    return res.x


@pytest.fixture(scope="module")
def least_squares_solved():
    A, eta = synthetic_unit_rows(5, 10, seed=3)
    prob = least_squares_feasibility(A, eta)
    sched = make_cyclic(10, 2)  # K = 5
    started = time.perf_counter()
    res = prob.solve(sched, np.zeros(5), max_iters=100_000, tol_residual=1e-12)
    elapsed = time.perf_counter() - started
    return prob, res, elapsed, oracle_least_squares(A, eta)


@pytest.fixture(scope="module")
def tangent_projections_solved():
    prob = alternating_projections(Hyperplane([0.0, 1.0], 1.0),
                                   Ball([0.0, 0.0], 1.0))
    res = prob.solve(make_full(1), [0.0, 3.0], max_iters=500,
                     tol_residual=1e-12, check_every=1)
    return prob, res


@pytest.fixture(scope="module")
def barycentric_solved():
    star = np.array([0.75, -0.4])
    Q1 = np.array([[3.0, 0.4], [0.4, 1.0]])
    Q2 = np.array([[1.0, 0.0], [0.0, 2.0]])
    prob = build_cohypomonotone(
        [quadratic_resolvent(Q1, star), quadratic_resolvent(Q2, star)],
        rhos=[0.0, 0.0], gammas=[1.0, 1.0], dim=2)
    res = prob.solve(make_full(2), [5.0, 5.0], max_iters=5000,
                     tol_residual=1e-12, check_every=5)
    return prob, res, star


def test_criterion_01_linear_rate_bound(axis_instance):
    res, elapsed = axis_instance
    K, rho = 2, 0.5
    dists = np.array([np.linalg.norm(rec.x) for rec in res.trace])
    xi_hat = dists[:K].max()
    envelope = rho ** ((1 - K) / K) * xi_hat * rho ** (np.arange(dists.size) / K)
    worst = float((dists - envelope).max())
    audit = linear_rate_audit(res.trace, [0.0, 0.0], rho0=0.5, rhos=[1.0, 1.0],
                              weights=[0.5, 0.5], K=2)
    ok = worst <= 1e-12 and audit.passed and elapsed < 0.1
    verdict("criterion-01 linear-rate-bound", ok,
            f"max envelope excess {worst:.2e}, runtime {elapsed:.3f}s")


def test_criterion_02_economical_equivalence(lasso_instance):
    prob, sched = lasso_instance
    cfg = SolverConfig(weights=prob.weights, schedule=sched, max_iters=500,
                       tol_residual=-1.0)
    plain = run(prob.t0, prob.ts, cfg, np.zeros(20))
    econ = run_economical(prob.t0, prob.ts, cfg, np.zeros(20))
    gap = max(float(np.max(np.abs(a.x - b.x)))
              for a, b in zip(plain.trace, econ.trace))
    verdict("criterion-02 economical-equivalence", gap <= 1e-10,
            f"max per-coordinate discrepancy {gap:.2e} over 500 iterations")


def test_criterion_03_full_activation_reduction():
    worst = 0.0
    for seed in (0, 1, 2):
        A, eta, _ = synthetic_regression(6, 8, seed=seed)
        prob = lasso_problem(A, eta, reg=0.02)
        cfg = SolverConfig(weights=prob.weights, schedule=make_full(8),
                           max_iters=1000, tol_residual=-1.0,
                           check_every=10_000)
        x0 = np.random.default_rng(seed).standard_normal(6)
        res = run(prob.t0, prob.ts, cfg, x0)
        oracle, _, _ = literal_run(prob.t0, prob.ts, prob.weights,
                                   make_full(8), x0, 1000)
        gap = max(float(np.max(np.abs(rec.x - ox)))
                  for rec, ox in zip(res.trace, oracle))
        worst = max(worst, gap)
    verdict("criterion-03 full-activation-reduction", worst <= 1e-12,
            f"max deviation from the literal iteration {worst:.2e} "
            f"(3 seeds, 1e3 iters)")


def test_criterion_04_lasso_block_convergence(lasso_instance, lasso_solved):
    prob, _ = lasso_instance
    res, elapsed = lasso_solved
    ref = oracle_prox_grad_reference(prob, tol=1e-13)
    obj, obj_ref = prob.objective(res.x), prob.objective(ref.solution)
    rel = abs(obj - obj_ref) / abs(obj_ref)
    sub = l1_optimality_residual(res.x, prob.meta["smooth_grad"](res.x),
                                 prob.meta["l1_weight"])
    ok = res.converged and rel <= 1e-6 and sub <= 1e-6 and elapsed < 5.0
    verdict("criterion-04 lasso-block-convergence", ok,
            f"objective gap {rel:.2e}, subgradient residual {sub:.2e}, "
            f"runtime {elapsed:.2f}s")


def test_criterion_05_least_squares_feasibility(least_squares_solved):
    _, res, elapsed, oracle = least_squares_solved
    gap = float(np.linalg.norm(res.x - oracle.solution))
    ok = res.converged and gap <= 1e-8 and elapsed < 2.0
    verdict("criterion-05 least-squares-feasibility", ok,
            f"distance to normal-equations solution {gap:.2e}, "
            f"runtime {elapsed:.2f}s")


def test_criterion_06_alternating_projections(tangent_projections_solved):
    prob, res = tangent_projections_solved
    gap = float(np.linalg.norm(res.x - np.array([0.0, 1.0])))
    resid = float(np.linalg.norm(
        res.x - prob.op(0)(prob.op(1)(res.x))))
    ok = gap <= 1e-10 and resid <= 1e-10
    verdict("criterion-06 alternating-projections", ok,
            f"distance to (0,1) {gap:.2e}, fixed-point residual {resid:.2e}")


def test_criterion_07_concentrating_array_suite():
    rng = np.random.default_rng(123)
    horizon = 200
    checked = 0
    for seed in range(100):
        m = int(rng.integers(2, 7))
        K = int(rng.integers(1, 5))
        sched = make_quasicyclic_random(m, K, seed=seed)
        w = rng.random(m) + 0.1
        w /= w.sum()
        rows = [mu_row(sched, w, n) for n in range(horizon)]
        report = check_concentrating(rows, K)
        assert report.passed, (seed, report.failures[:3])
        xs = rng.random(horizon) * 5.0
        for n in range(K - 1, horizon):
            assert lag_identity_check(sched, w, n, xs[:n + 1], tol=1e-12), \
                (seed, n)
        checked += 1
    verdict("criterion-07 concentrating-array-suite",
            checked == 100,
            f"{checked} schedules: array conditions and lag identity hold")


def test_criterion_08_summable_error_robustness(lasso_instance):
    prob, sched = lasso_instance
    base = dict(weights=prob.weights, schedule=sched, max_iters=3000,
                tol_residual=-1.0, check_every=1000)
    clean = run(prob.t0, prob.ts, SolverConfig(**base), np.zeros(20))
    noisy = run(prob.t0, prob.ts,
                SolverConfig(error_model=SeededDecayErrors(1e-2, seed=4),
                             **base),
                np.zeros(20))
    gap = abs(prob.objective(noisy.x) - prob.objective(clean.x))
    assert np.isfinite(noisy.sum_lagged_errors)
    verdict("criterion-08 summable-error-robustness", gap <= 1e-4,
            f"objective shift {gap:.2e} under 1e-2/(n+1)^2 errors")


def test_criterion_09_averagedness_certificates():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    psd = np.array([[1.5, 0.2], [0.2, 0.7]])
    catalog = [
        projector_op(Box([-1.0, 0.0], [1.0, 2.0])),
        projector_op(Halfspace([1.0, -1.0], 0.3)),
        projector_op(Hyperplane([2.0, 1.0], 1.0)),
        projector_op(Ball([0.5, -0.5], 1.2)),
        projector_op(AffineSubspace(np.array([[1.0, 2.0]]), np.array([0.5]))),
        projector_op(Singleton([0.2, 0.9])),
        prox_l1_op(2, 0.7),
        linear_resolvent_op(rot, 1.0),
        linear_resolvent_op(psd, 0.8),
        gradient_step_op(lambda x: x - np.array([1.0, 2.0]), beta=1.0,
                         gamma=1.5, dim=2, name="quadratic-step"),
        gradient_step_op(lambda x: grad_distance_penalty(
            half_square(), identity_map(2), Ball([0.0, 0.0], 1.0), x),
            beta=1.0, gamma=1.3, dim=2, name="penalty-step"),
    ]
    worst = -np.inf
    for op in catalog:
        cert = certify_averaged(op, sample_count=10_000, seed=99)
        assert cert.passed, (op.name, cert.max_violation)
        worst = max(worst, cert.max_violation)
    verdict("criterion-09 averagedness-certificates", True,
            f"{len(catalog)} operators x 1e4 pairs, max violation {worst:.2e}")


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(31)
    combos = [
        (identity_map(3), Ball([0.2, -0.1, 0.0], 1.0)),
        (LinearMap(rng.standard_normal((2, 4))), Halfspace([1.0, 1.0], -0.5)),
        (row_map([0.6, -0.8, 0.3]), Singleton([0.25])),
    ]
    worst = 0.0
    h = 1e-6
    for phi in (square(), half_square(), huber(0.8)):
        for L, D in combos:
            d = L.domain_dim
            tested = 0
            while tested < 1000:
                x = 3.0 * rng.standard_normal(d)
                if D.distance(L(x)) < 0.05:
                    continue
                g = grad_distance_penalty(phi, L, D, x)
                fd = np.empty(d)
                for k in range(d):
                    e = np.zeros(d)
                    e[k] = h
                    fd[k] = (distance_penalty_value(phi, L, D, x + e)
                             - distance_penalty_value(phi, L, D, x - e)) / (2 * h)
                err = np.linalg.norm(fd - g) / (1.0 + np.linalg.norm(g))
                assert err <= 1e-5, (phi.name, err)
                worst = max(worst, float(err))
                tested += 1
    verdict("criterion-10 gradient-correctness", True,
            f"9 (phi, L, D) combos x 1e3 points, max relative error {worst:.2e}")


def test_criterion_11_fejer_audit(axis_instance, lasso_instance, lasso_solved,
                                  lasso_reference, least_squares_solved,
                                  tangent_projections_solved,
                                  barycentric_solved):
    prob, sched = lasso_instance
    lasso_res, _ = lasso_solved
    _, ls_res, _, ls_oracle = least_squares_solved
    ap_prob, ap_res = tangent_projections_solved
    bc_prob, bc_res, bc_star = barycentric_solved
    audits = [
        ("axis", fejer_audit(axis_instance[0].trace, [0.0, 0.0], [0.5, 0.5],
                             K=2)),
        ("lasso", fejer_audit(lasso_res.trace, lasso_reference, prob.weights,
                              K=5)),
        ("least-squares", fejer_audit(ls_res.trace, ls_oracle.solution,
                                      [0.1] * 10, K=5)),
        ("alternating", fejer_audit(ap_res.trace, [0.0, 1.0], [1.0], K=1)),
        ("barycentric", fejer_audit(bc_res.trace, bc_star, bc_prob.weights,
                                    K=1)),
    ]
    all_pass = all(rep.passed for _, rep in audits)
    corrupted = run(scaling_op(2, 0.5),
                    [projector_op(Hyperplane([0.0, 1.0], 0.0)),
                     projector_op(Hyperplane([1.0, 0.0], 0.0))],
                    SolverConfig(weights=[0.5, 0.5], schedule=make_cyclic(2, 1),
                                 max_iters=50, tol_residual=-1.0),
                    [1.0, 1.0])
    corrupted.trace[17].x = 10.0 * corrupted.trace[17].x
    bad = fejer_audit(corrupted.trace, [0.0, 0.0], [0.5, 0.5], K=2)
    ok = all_pass and not bad.passed
    detail = ", ".join(f"{name} {'ok' if rep.passed else 'VIOLATED'}"
                       for name, rep in audits)
    verdict("criterion-11 fejer-audit", ok,
            detail + f"; corrupted trace rejected: {not bad.passed}")


def test_criterion_12_barycentric_reduction(barycentric_solved):
    _, res, star = barycentric_solved
    gap = float(np.linalg.norm(res.x - star))
    verdict("criterion-12 barycentric-reduction", gap <= 1e-8,
            f"distance to common zero {gap:.2e}")
