import numpy as np
import pytest

from blocksplit.calculus import (Ball, Box, Halfspace, Hyperplane, LinearMap,
                                 half_square, projector_op)
from blocksplit.harness import (oracle_least_squares,
                                oracle_prox_grad_reference,
                                synthetic_regression, synthetic_unit_rows)
from blocksplit.operators import (AveragedOp, RowStack, certify_averaged,
                                  identity_op)
from blocksplit.problems import (alternating_projections,
                                 build_cohypomonotone,
                                 build_common_fixed_point,
                                 build_feasibility_relaxation,
                                 build_forward_backward, build_prox_grad,
                                 build_residual_system, lasso_problem,
                                 least_squares_feasibility, logistic_problem,
                                 normal_cone_resolvent, quadratic_resolvent)
from blocksplit.schedules import last_activation, make_cyclic, make_full
from blocksplit.solver import (fixed_point_residual, kahan_weighted_sum,
                               linear_rate_audit)
from support import identity_map


def solve_full(prob, x0, iters=2000, tol=1e-12, **kw):
    return prob.solve(make_full(prob.m), x0, max_iters=iters,
                      tol_residual=tol, check_every=5, **kw)


class TestCommonFixedPoint:
    def test_two_halfspaces(self):
        prob = build_common_fixed_point(
            [projector_op(Halfspace([1.0, 0.0], 0.0)),
             projector_op(Halfspace([0.0, 1.0], 0.0))])
        res = solve_full(prob, [2.0, 3.0], tol=1e-11)
        assert res.converged
        assert np.all(res.x <= 1e-10)
        assert fixed_point_residual(res.x, prob.t0, prob.ts,
                                    prob.weights) <= 1e-10

    def test_single_operator_krasnoselskii(self):
        T = projector_op(Ball([3.0, 0.0], 1.0))
        prob = build_common_fixed_point([T])
        res = solve_full(prob, [0.0, 0.0])
        assert np.allclose(res.x, [2.0, 0.0], atol=1e-9)

    def test_identities_fix_start(self):
        prob = build_common_fixed_point([identity_op(2), identity_op(2)])
        res = solve_full(prob, [4.0, -1.0])
        assert res.iterations == 0 and np.array_equal(res.x, [4.0, -1.0])

    def test_rejects_non_firm(self):
        with pytest.raises(ValueError, match="firm"):
            build_common_fixed_point([identity_op(2, alpha=0.9)])

    def test_certification_gate(self):
        liar = AveragedOp(lambda x: 1.5 * x, dim=2, alpha=0.5)
        with pytest.raises(ValueError, match="certificate"):
            build_common_fixed_point([liar])

    @pytest.mark.parametrize("declared, check", [
        ({"alpha": 0.5, "lipschitz": 0.5}, "Lipschitz"),
        ({"alpha": 0.1}, "averagedness"),
    ], ids=["lipschitz", "averagedness"])
    def test_certificate_names_the_failed_check(self, declared, check):
        # a ball projector is firmly nonexpansive with constant 1: the
        # Lipschitz failure was reported as the passed averagedness check,
        # with its negative violation
        op = AveragedOp(Ball([0.0, 0.0], 1.0).project, dim=2,
                        name="proj-claims", **declared)
        with pytest.raises(ValueError, match=(
                rf"common fixed point: operator 'proj-claims' failed its "
                rf"{check} certificate \(max violation \d\.\d{{3}}e[-+]\d+\)")):
            build_common_fixed_point([op, op])

    def test_rejects_mixed_dimensions(self):
        ops = [projector_op(Ball([0.0, 0.0, 0.0], 1.0)),
               projector_op(Ball([0.0, 0.0], 1.0))]
        with pytest.raises(ValueError,
                           match="acts on dimension 2, not 3: one space"):
            build_common_fixed_point(ops)
        with pytest.raises(ValueError,
                           match="acts on dimension 2, not 3: one space"):
            build_residual_system(ops, [[0.0, 0.0, 0.0], [0.0, 0.0]])


class TestResidualSystem:
    def test_empty_system_rejected(self):
        with pytest.raises(ValueError, match="need at least one operator"):
            build_residual_system([], [])

    def test_rejects_non_firm(self):
        with pytest.raises(ValueError, match="firm"):
            build_residual_system([identity_op(2, alpha=0.9)], [[0.0, 0.0]])

    def test_vacuous_system_fixes_start(self):
        # R constant zero with target zero: every x solves, so x0 is returned
        from blocksplit.operators import scaling_op
        prob = build_residual_system([scaling_op(2, 0.0)], [[0.0, 0.0]])
        res = solve_full(prob, [1.0, 2.0])
        assert res.iterations == 0 and np.array_equal(res.x, [1.0, 2.0])

    def test_identity_residuals_pin_the_target(self):
        # R = Id with target r reads "x = r"; the iteration must find r
        prob = build_residual_system([identity_op(2)], [[0.25, -1.0]])
        res = solve_full(prob, [5.0, 5.0])
        assert np.allclose(res.x, [0.25, -1.0], atol=1e-12)

    def test_line_projection_target(self):
        R = projector_op(Hyperplane([0.0, 1.0], 0.0))  # proj onto y = 0
        prob = build_residual_system([R], [[1.0, 0.0]])
        res = solve_full(prob, [5.0, 2.0], tol=1e-12)
        # solutions form the vertical line x = 1
        assert abs(res.x[0] - 1.0) <= 1e-10
        assert np.allclose(R(res.x), [1.0, 0.0], atol=1e-10)

    def test_inconsistent_system_relaxed_fixed_point(self):
        # R1 = proj onto y=0 with impossible target (1, 5); R2 = proj onto
        # x=0 with target (0, -2). The relaxed equation
        # sum_i w_i (R_i x - r_i) = 0 solves to x = (1, 3).
        R1 = projector_op(Hyperplane([0.0, 1.0], 0.0))
        R2 = projector_op(Hyperplane([1.0, 0.0], 0.0))
        prob = build_residual_system([R1, R2], [[1.0, 5.0], [0.0, -2.0]])
        res = solve_full(prob, [0.0, 0.0], iters=5000, tol=1e-12)
        assert np.allclose(res.x, [1.0, 3.0], atol=1e-10)
        assert prob.meta["system_gap"](res.x) > 1.0  # genuinely inconsistent


class TestCohypomonotone:
    def quadratics(self):
        star = np.array([1.0, -2.0])
        Q1 = np.array([[2.0, 0.0], [0.0, 1.0]])
        Q2 = np.array([[1.0, 0.3], [0.3, 2.0]])
        return star, [quadratic_resolvent(Q1, star), quadratic_resolvent(Q2, star)]

    def test_shared_minimizer_found(self):
        star, res_providers = self.quadratics()
        prob = build_cohypomonotone(res_providers, rhos=[0.0, 0.0],
                                    gammas=[1.0, 1.5], dim=2)
        res = solve_full(prob, [0.0, 0.0], tol=1e-12)
        assert np.allclose(res.x, star, atol=1e-9)

    def test_gamma_admissibility(self):
        _, res_providers = self.quadratics()
        with pytest.raises(ValueError, match="admissible"):
            build_cohypomonotone(res_providers[:1], rhos=[0.5], gammas=[0.4],
                                 dim=2)

    def test_single_operator_is_proximal_point(self):
        star, res_providers = self.quadratics()
        J = res_providers[0]
        prob = build_cohypomonotone([J], rhos=[0.0], gammas=[2.0], dim=2)
        res = solve_full(prob, [3.0, 3.0], iters=30, tol=-1.0)
        x = np.array([3.0, 3.0])
        for rec in res.trace:
            assert np.max(np.abs(rec.x - x)) <= 1e-12
            x = np.asarray(J(2.0, x))

    def test_snapshot_inclusion_with_varying_gamma(self):
        # condition: a converged solution stays fixed under every lagged
        # operator snapshot (T_{0,n}, T_{i,c(i,n)})
        star, res_providers = self.quadratics()
        gamma_at = lambda i, n: 1.0 + 0.5 * ((n + i) % 3)
        prob = build_cohypomonotone(res_providers, rhos=[0.1, 0.0],
                                    gammas=gamma_at, dim=2)
        sched = make_cyclic(2, 1)
        for n in range(sched.K - 1, 12):
            ops = [prob.ts(i, last_activation(sched, i, n)) for i in (1, 2)]
            mean = kahan_weighted_sum([op(star) for op in ops], prob.weights)
            t0n = prob.t0 if not callable(prob.t0) else prob.t0
            assert np.linalg.norm(star - t0n(mean)) <= 1e-10


class TestForwardBackward:
    def test_all_zero_operators(self):
        prob = build_forward_backward(lambda g, x: x, [lambda x: np.zeros(2)],
                                      betas=[1.0], dim=2)
        res = solve_full(prob, [1.0, -1.0])
        assert res.iterations == 0 and np.array_equal(res.x, [1.0, -1.0])

    def test_projected_gradient(self):
        b = np.array([1.0, 2.0])
        C = Halfspace([1.0, 0.0], 0.0)
        prob = build_forward_backward(normal_cone_resolvent(C),
                                      [lambda x: x - b], betas=[1.0], dim=2)
        res = solve_full(prob, [5.0, 5.0], iters=4000, tol=1e-13)
        assert np.allclose(res.x, [0.0, 2.0], atol=1e-9)  # proj_C(b)

    def test_strongly_monotone_linear_rate(self):
        gamma = 1.2
        prob = build_forward_backward(lambda g, x: x, [lambda x: x],
                                      betas=[1.0], dim=2, gamma=gamma,
                                      lipschitz0=1.0,
                                      lipschitzs=[abs(1.0 - gamma)])
        res = prob.solve(make_full(1), [2.0, -3.0], max_iters=60,
                         tol_residual=-1.0, check_every=1000)
        rep = linear_rate_audit(res.trace, np.zeros(2), rho0=1.0,
                                rhos=[abs(1.0 - gamma)], weights=[1.0], K=1)
        assert rep.passed
        assert np.linalg.norm(res.x) <= 1e-6

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            build_forward_backward(lambda g, x: x, [lambda x: x], betas=[0.5],
                                   dim=1, gamma=1.0)

    def test_row_kernel_matches_operator_list(self):
        A = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]])
        b = np.array([1.0, 0.0, -2.0])

        def kernel(idx, x):
            return (((A[idx] * x).sum(axis=1) - b[idx]))[:, None] * A[idx]

        As = [lambda x, k=k: kernel(slice(k, k + 1), x)[0] for k in range(3)]
        betas = 1.0 / (A * A).sum(axis=1)
        C = Ball([0.0, 0.0], 0.5)
        stacked = build_forward_backward(normal_cone_resolvent(C), kernel,
                                         betas, dim=2)
        listed = build_forward_backward(normal_cone_resolvent(C), As, betas,
                                        dim=2)
        assert isinstance(stacked.ts, RowStack) and stacked.m == 3
        assert [op.alpha for op in stacked.ts] == list(
            stacked.gamma / (2.0 * betas))
        assert [op.alpha for op in stacked.ts] == [op.alpha for op in listed.ts]
        x = np.array([0.3, -0.7])
        assert np.array_equal(stacked.ts.eval_block(slice(None), x),
                              np.stack([T(x) for T in listed.ts]))
        runs = [prob.solve(make_cyclic(3, 2), [2.0, 1.0], max_iters=500,
                           tol_residual=1e-12) for prob in (stacked, listed)]
        assert np.array_equal(runs[0].x, runs[1].x)


class TestProxGrad:
    def test_gradient_descent_reduction(self):
        z = np.array([0.5, -1.0])
        grads = [lambda x: x - z, lambda x: 2.0 * (x - z)]
        prob = build_prox_grad(lambda g, x: x, grads, betas=[1.0, 0.5], dim=2)
        res = solve_full(prob, [4.0, 4.0], tol=1e-13)
        assert np.allclose(res.x, z, atol=1e-9)

    def test_objective_monotone_after_warmup(self):
        A, eta, _ = synthetic_regression(6, 9, seed=2)
        prob = lasso_problem(A, eta, reg=0.1)
        res = solve_full(prob, np.zeros(6), iters=300, tol=-1.0)
        vals = [prob.objective(rec.x) for rec in res.trace]
        for a, b in zip(vals[1:], vals[2:]):
            assert b <= a + 1e-12

    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            build_prox_grad(lambda g, x: x, [lambda x: x], betas=[1.0], dim=1,
                            gamma=2.0)


class TestLasso:
    def test_block_run_reaches_optimality(self):
        A, eta, _ = synthetic_regression(8, 12, seed=5)
        prob = lasso_problem(A, eta, reg=0.08)
        res = prob.solve(make_cyclic(prob.m, 3), np.zeros(8), max_iters=20_000,
                         tol_residual=1e-11)
        assert res.converged
        from blocksplit.harness import l1_optimality_residual
        g = prob.meta["smooth_grad"](res.x)
        assert l1_optimality_residual(res.x, g, 0.08) <= 1e-6

    def test_solution_is_sparse_but_not_trivial(self):
        A, eta, _ = synthetic_regression(8, 12, seed=5)
        prob = lasso_problem(A, eta, reg=0.08)
        res = solve_full(prob, np.zeros(8), iters=20_000, tol=1e-11)
        assert np.any(res.x != 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lasso_problem(np.ones((3, 2)), np.ones(2), reg=0.1)
        with pytest.raises(ValueError):
            lasso_problem(np.ones((3, 2)), np.ones(3), reg=0.0)

    @pytest.mark.parametrize("builder", [lasso_problem, logistic_problem])
    @pytest.mark.parametrize("reg", [np.nan, np.inf, -np.inf, -0.1, 0.0])
    def test_l1_weight_must_be_positive_and_finite(self, builder, reg):
        with pytest.raises(ValueError, match="l1 weight must be positive and "
                                             "finite"):
            builder(np.ones((2, 2)), [0.0, 1.0], reg=reg)


class TestLogistic:
    def test_matches_reference_objective(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 5)) / np.sqrt(5)
        labels = (rng.random(12) < 0.5).astype(float)
        prob = logistic_problem(A, labels, reg=0.02)
        from blocksplit.harness import oracle_prox_grad_reference
        ref = oracle_prox_grad_reference(prob, tol=1e-13)
        res = prob.solve(make_cyclic(prob.m, 4), np.zeros(5),
                         max_iters=50_000, tol_residual=1e-11)
        assert res.converged
        gap = prob.objective(res.x) - prob.objective(ref.solution)
        assert abs(gap) <= 1e-8 * (1.0 + abs(prob.objective(ref.solution)))

    def test_gradient_is_overflow_safe(self):
        prob = logistic_problem(np.array([[1.0]]), [1.0], reg=0.1)
        g = prob.meta["smooth_grad"](np.array([800.0]))
        assert np.all(np.isfinite(g))
        g = prob.meta["smooth_grad"](np.array([-800.0]))
        assert np.all(np.isfinite(g))

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            logistic_problem(np.ones((2, 2)), [0.5, 1.0], reg=0.1)

    @pytest.mark.parametrize("row, col", [(2, 1), (1, 3)],
                             ids=["feature", "label"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, row, col, bad):
        data = np.column_stack([np.ones((4, 3)), [0.0, 1.0, 0.0, 1.0]])
        data[row, col] = bad
        with pytest.raises(ValueError, match=f"row {row} has a non-finite"):
            logistic_problem(data[:, :3], data[:, 3], reg=0.1)


class TestFeasibilityRelaxation:
    def test_consistent_start_is_fixed(self):
        C0 = Ball([0.0, 0.0], 2.0)
        terms = [(identity_map(2), Ball([0.0, 0.0], 3.0), half_square())]
        prob = build_feasibility_relaxation(C0, terms)
        assert fixed_point_residual([0.0, 0.0], prob.t0, prob.ts,
                                    prob.weights) == 0.0

    def test_least_squares_limit(self):
        A, eta = synthetic_unit_rows(3, 6, seed=11)
        prob = least_squares_feasibility(A, eta)
        res = prob.solve(make_cyclic(prob.m, 2), np.zeros(3),
                         max_iters=40_000, tol_residual=1e-12)
        oracle = oracle_least_squares(A, eta)
        assert np.linalg.norm(res.x - oracle.solution) <= 1e-8

    def test_consistent_data_reaches_feasibility(self):
        from blocksplit.calculus import FullSpace
        terms = [(identity_map(2), Halfspace([1.0, 0.0], 0.0), half_square()),
                 (identity_map(2), Ball([-1.0, 1.0], 1.2), half_square())]
        prob = build_feasibility_relaxation(FullSpace(2), terms)
        res = prob.solve(make_cyclic(2, 1), [4.0, -3.0], max_iters=20_000,
                         tol_residual=1e-11, check_every=5)
        assert res.converged
        assert prob.meta["feasibility_gap"](res.x) <= 1e-8

    def test_m1_identity_term_reduces_to_alternating(self):
        C = Hyperplane([0.0, 1.0], 1.0)
        D = Ball([0.0, 0.0], 1.0)
        terms = [(identity_map(2), D, half_square())]
        fr = build_feasibility_relaxation(C, terms, gamma=1.0)
        ap = alternating_projections(C, D)
        x_fr = np.array([0.4, 2.0])
        x_ap = x_fr.copy()
        for _ in range(25):
            x_fr = fr.op(0)(fr.op(1)(x_fr))
            x_ap = ap.op(0)(ap.op(1)(x_ap))
            assert np.max(np.abs(x_fr - x_ap)) <= 1e-12

    def test_forward_backward_instance(self):
        M = np.array([[2.0, 0.0], [1.0, 1.0]])
        terms = [(identity_map(2), Halfspace([1.0, 0.0], 0.0), half_square()),
                 (LinearMap(M), Ball([0.0, 1.0], 0.5), half_square())]
        C0 = Ball([0.0, 0.0], 2.0)
        prob = build_feasibility_relaxation(C0, terms)
        mus = [1.0, np.linalg.norm(M, 2) ** 2]
        assert prob.meta["beta"] == 1.0 / max(mus)
        assert prob.gamma == 0.9 * 2.0 * (1.0 / max(mus))
        assert [op.alpha for op in prob.ts] == [prob.gamma * mu / 2.0
                                               for mu in mus]
        x = np.array([3.0, -4.0])
        assert np.array_equal(prob.t0(x), C0.project(x))
        # f_0 is the indicator of C0, so the prox-gradient oracle applies
        ref = oracle_prox_grad_reference(prob, optimality_tol=1e-7)
        res = prob.solve(make_cyclic(2, 1), x, max_iters=20_000,
                         tol_residual=1e-12)
        assert np.linalg.norm(res.x - ref.solution) <= 1e-8

    def test_parameter_validation(self):
        C0 = Ball([0.0, 0.0], 1.0)
        good = (identity_map(2), Ball([0.0, 0.0], 1.0), half_square())
        with pytest.raises(ValueError, match="gamma"):
            build_feasibility_relaxation(C0, [good], gamma=5.0)
        from blocksplit.calculus import SmoothScalar
        unflagged = SmoothScalar(lambda t: t * t, lambda t: 2 * t, 2.0,
                                 even_vanishing_at_zero=False)
        with pytest.raises(ValueError, match="flagged"):
            build_feasibility_relaxation(
                C0, [(identity_map(2), Ball([0.0, 0.0], 1.0), unflagged)])


class TestAlternatingProjections:
    def test_intersection_point_fixed(self):
        prob = alternating_projections(Ball([0.0, 0.0], 2.0),
                                       Box([-1.0, -1.0], [1.0, 1.0]))
        res = solve_full(prob, [0.5, 0.5])
        assert res.iterations == 0 and np.array_equal(res.x, [0.5, 0.5])

    def test_tangent_line_and_disk(self):
        prob = alternating_projections(Hyperplane([0.0, 1.0], 1.0),
                                       Ball([0.0, 0.0], 1.0))
        res = solve_full(prob, [0.0, 3.0], tol=1e-12)
        assert np.allclose(res.x, [0.0, 1.0], atol=1e-10)

    def test_one_dimensional_gap(self):
        C = Box([2.0], [np.inf])
        D = Box([-np.inf], [0.0])
        prob = alternating_projections(C, D)
        res = solve_full(prob, [5.0], tol=1e-12)
        assert np.allclose(res.x, [2.0])
        assert np.allclose(D.project(res.x), [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            alternating_projections(Ball([0.0], 1.0), Ball([0.0, 0.0], 1.0))


def test_every_builder_output_is_certified():
    """All emitted operators pass the averagedness certificate they declare."""
    A, eta, _ = synthetic_regression(4, 6, seed=3)
    star = np.zeros(2)
    built = [
        build_common_fixed_point([projector_op(Ball([1.0, 1.0], 1.0))]),
        build_residual_system([projector_op(Hyperplane([1.0, 0.0], 0.0))],
                              [[0.0, 0.5]]),
        build_cohypomonotone([quadratic_resolvent(np.eye(2), star)],
                             rhos=[0.0], gammas=[1.0], dim=2),
        build_forward_backward(normal_cone_resolvent(Ball([0.0, 0.0], 1.0)),
                               [lambda x: x], betas=[1.0], dim=2),
        lasso_problem(A, eta, reg=0.05),
        least_squares_feasibility(*synthetic_unit_rows(3, 5, seed=2)),
        alternating_projections(Hyperplane([0.0, 1.0], 1.0),
                                Ball([0.0, 0.0], 1.0)),
    ]
    for prob in built:
        for i in range(prob.m + 1):
            op = prob.op(i, n=0)
            cert = certify_averaged(op, sample_count=200, seed=17)
            assert cert.passed, (prob.name, i, cert.max_violation)
