import itertools
import re

import numpy as np
import pytest

from blocksplit import solver
from blocksplit.calculus import Ball, Halfspace, Hyperplane, projector_op
from blocksplit.harness import synthetic_regression
from blocksplit.operators import (AveragedOp, NonFiniteError, RowStack,
                                  apply, identity_op, kahan_weighted_sum,
                                  scaling_op)
from blocksplit.problems import (build_cohypomonotone, lasso_problem,
                                 quadratic_resolvent)
from blocksplit.schedules import (BlockSchedule, CoveringError,
                                  last_activation, make_cyclic, make_explicit,
                                  make_full, make_quasicyclic_random)
from blocksplit.solver import (SeededDecayErrors, SolverConfig, fejer_audit,
                               fixed_point_residual, linear_rate_audit, run,
                               run_economical)
from support import literal_run, trace_of

AXIS_X = projector_op(Hyperplane([0.0, 1.0], 0.0))
AXIS_Y = projector_op(Hyperplane([1.0, 0.0], 0.0))


def axis_contraction_cfg(max_iters=200, **kw):
    return SolverConfig(weights=[0.5, 0.5], schedule=make_cyclic(2, 1),
                        max_iters=max_iters, tol_residual=-1.0, check_every=1,
                        **kw)


def lasso_instance(seed=1, n=6, m=8):
    A, eta, _ = synthetic_regression(n, m, seed)
    return lasso_problem(A, eta, reg=0.05)


class TestRunBasics:
    def test_identity_problem_stops_immediately(self):
        cfg = SolverConfig(weights=[0.5, 0.5], schedule=make_full(2),
                           max_iters=50, tol_residual=1e-12, check_every=1)
        res = run(identity_op(2), [identity_op(2), identity_op(2)], cfg,
                  [3.0, -1.0])
        assert res.converged and res.iterations == 0
        assert res.residual == 0.0
        assert np.array_equal(res.x, [3.0, -1.0])

    def test_axis_contraction_converges_to_origin(self):
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y], axis_contraction_cfg(),
                  [1.0, 1.0])
        assert np.linalg.norm(res.x) <= 1e-30

    def test_trace_shape(self):
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y],
                  axis_contraction_cfg(max_iters=10), [1.0, 1.0])
        assert [rec.n for rec in res.trace] == list(range(11))
        assert res.trace[-1].block is None and res.trace[-1].step is None
        for rec in res.trace[:-1]:
            assert rec.block is not None and np.isfinite(rec.step)

    def test_covering_violation_raises(self):
        bad = make_explicit(3, 2, [[1], [2], [3]])  # needs K = 3
        cfg = SolverConfig(weights=[1 / 3] * 3, schedule=bad, max_iters=20,
                           tol_residual=-1.0)
        msg = "indices [3] absent from window starting at n=0 (K=2)"
        with pytest.raises(CoveringError, match=re.escape(msg)):
            run(identity_op(1), [identity_op(1)] * 3, cfg, [0.0])

    def test_alpha_epsilon_compatibility(self):
        loose = identity_op(2, alpha=1.0)  # merely nonexpansive
        cfg = SolverConfig(weights=[1.0], schedule=make_full(1), max_iters=5)
        with pytest.raises(ValueError, match="alpha"):
            run(identity_op(2), [loose], cfg, [0.0, 0.0])

    @pytest.mark.parametrize("which", ["t0", "ts"])
    def test_family_alpha_checked_at_every_iteration(self, which):
        # admissible until n = 3; lists are checked once, families each time
        asked = []

        def family(*args):
            asked.append(args[-1])
            return identity_op(1, alpha=0.5 if args[-1] < 3 else 1.0)

        cfg = SolverConfig(weights=[1.0], schedule=make_full(1), max_iters=10,
                           tol_residual=-1.0, check_every=100)
        t0, ts = (family, [identity_op(1)]) if which == "t0" else (
            identity_op(1), family)
        with pytest.raises(ValueError, match="declares alpha=1.0"):
            run(t0, ts, cfg, [0.0])
        assert max(asked) == 3

    def test_t0_family_checked_at_the_final_check(self):
        # max_iters=0: T_{0,0} is only evaluated by the stopping check
        cfg = SolverConfig(weights=[1.0], schedule=make_full(1), max_iters=0)
        with pytest.raises(ValueError, match="declares alpha=1.0"):
            run(lambda n: identity_op(1, alpha=1.0), [identity_op(1)], cfg,
                [0.0])

    def test_ts_family_checked_in_the_stopping_check(self):
        # T_{2,0} is inadmissible; the update at n=0 activates only 1 and the
        # check at n=1 asks for T_{2,1}, so only the check at n=0 sees it
        asked = []

        def family(i, n):
            asked.append((i, n))
            op = AXIS_X if i == 1 else AXIS_Y
            if (i, n) == (2, 0):
                return AveragedOp(op.fn, dim=2, alpha=1.0, name="T_2,0")
            return op

        cfg = axis_contraction_cfg(max_iters=1)
        with pytest.raises(ValueError, match="'T_2,0' declares alpha=1.0"):
            run(scaling_op(2, 0.5), family, cfg, [1.0, 1.0])
        assert asked[-1] == (2, 0)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol_residual .*NaN"):
            SolverConfig(weights=[1.0], schedule=make_full(1),
                         tol_residual=float("nan"))

    @pytest.mark.parametrize("field, value, count", [
        ("max_iters", 40.0, 40), ("check_every", 3.0, 3),
        ("max_iters", np.int64(40), 40), ("max_iters", 40.5, None),
        ("check_every", 2.5, None), ("max_iters", True, None),
        ("check_every", False, None), ("max_iters", "40", None)])
    def test_counts_must_be_integers(self, field, value, count):
        # an integral float counts as its int; 40.5 used to reach range()
        # in the error window and 2.5 to check every 5th iteration
        def config():
            return SolverConfig(**{
                "weights": [0.5, 0.5], "schedule": make_cyclic(2, 1),
                "tol_residual": -1.0, field: value,
                "error_model": SeededDecayErrors(1e-3, seed=1)})

        if count is None:
            with pytest.raises(ValueError, match=re.escape(
                    f"{field} must be an integer, got {value!r}")):
                config()
            return
        cfg = config()
        got = getattr(cfg, field)
        assert type(got) is int and got == count
        run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y], cfg, [1.0, 1.0])

    def test_nonfinite_error_row_detected(self):
        class InfiniteOuterError:
            def error(self, indices, steps, dim):
                out = np.zeros((len(indices), dim))
                out[0] = np.inf
                return out

        cfg = SolverConfig(weights=[0.5, 0.5], schedule=make_cyclic(2, 1),
                           max_iters=10, tol_residual=-1.0,
                           error_model=InfiniteOuterError())
        with pytest.raises(NonFiniteError,
                           match=re.escape("iterate became non-finite at n=0")):
            run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y], cfg, [1.0, 1.0])

    def test_nonfinite_iterate_detected(self):
        bomb = AveragedOp(lambda x: np.full_like(x, np.inf), dim=1, alpha=0.4)
        cfg = SolverConfig(weights=[1.0], schedule=make_full(1), max_iters=50,
                           tol_residual=-1.0, check_every=100)
        with pytest.raises(NonFiniteError):
            run(identity_op(1), [bomb], cfg, [1.0])

    def test_weights_validated(self):
        cfg = SolverConfig(weights=[0.7, 0.7], schedule=make_full(2), max_iters=3)
        with pytest.raises(ValueError, match="weights must sum to 1"):
            run(identity_op(1), [identity_op(1)] * 2, cfg, [0.0])


class TestFixedPointResidual:
    def test_zero_at_solution(self):
        assert fixed_point_residual([0.0, 0.0], scaling_op(2, 0.5),
                                    [AXIS_X, AXIS_Y], [0.5, 0.5]) <= 1e-12

    def test_half_identity_value(self):
        r = fixed_point_residual([1.0, 1.0], scaling_op(2, 0.5),
                                 [identity_op(2), identity_op(2)], [0.5, 0.5])
        assert r == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_alternating_projection_fixed_point(self):
        # C = {x >= 2}, D = {x <= 0} in R^1: x = 2 satisfies x = proj_C(proj_D x)
        from blocksplit.operators import compose
        proj_c = projector_op(Ball([3.0], 1.0))  # [2, 4] around 3, proj(0) = 2
        proj_d = projector_op(Halfspace([1.0], 0.0))
        comp = compose(proj_c, proj_d)
        assert np.allclose(comp([2.0]), [2.0])
        assert fixed_point_residual([2.0], proj_c, [proj_d], [1.0]) <= 1e-12

    def test_operator_count_must_match_the_weights(self):
        # the run's own count check, not kahan_weighted_sum's shape error
        with pytest.raises(ValueError, match="expected 2 operators, got 3"):
            fixed_point_residual([1.0, 1.0], scaling_op(2, 0.5),
                                 [identity_op(2)] * 3, [0.5, 0.5])


class TestLaggedStoppingCheck:
    def test_family_residual_uses_last_activations(self):
        # with gammas varying in n, T_{i,c(i,n)} differs from T_{i,n}, so the
        # check must evaluate each operator at its last activation
        rng = np.random.default_rng(0)
        providers = [quadratic_resolvent(np.diag(rng.uniform(0.5, 2.0, 2)),
                                         rng.standard_normal(2))
                     for _ in range(3)]
        prob = build_cohypomonotone(
            providers, rhos=[0.0] * 3, dim=2,
            gammas=lambda i, n: 1.0 + 0.5 * ((n + i) % 3))
        sched = make_quasicyclic_random(3, 3, seed=4)
        cfg = SolverConfig(weights=prob.weights, schedule=sched, max_iters=40,
                           tol_residual=-1.0, check_every=1)
        res = run(prob.t0, prob.ts, cfg, [3.0, -1.0])
        matches = lagged = 0
        for rec in res.trace[sched.K - 1:]:
            lags = [last_activation(sched, i, rec.n) for i in (1, 2, 3)]
            lagged += sum(c < rec.n for c in lags)
            terms = [apply(prob.ts(i, c), rec.x) for i, c in zip((1, 2, 3), lags)]
            mean = kahan_weighted_sum(terms, prob.weights)
            assert rec.residual == np.linalg.norm(rec.x - apply(prob.t0, mean))
            matches += 1
        assert matches == 39
        assert lagged > 0

    def test_family_receives_int_lags(self):
        calls = []

        def family(i, n):
            calls.append((type(i), type(n)))
            return AXIS_X if i == 1 else AXIS_Y

        sched = make_quasicyclic_random(2, 3, seed=1)
        cfg = SolverConfig(weights=[0.5, 0.5], schedule=sched, max_iters=30,
                           tol_residual=-1.0, check_every=1)
        run(scaling_op(2, 0.5), family, cfg, [1.0, 1.0])
        assert len(calls) > 60
        assert set(calls) == {(int, int)}


    @pytest.mark.parametrize("K, seed", [(3, 1), (5, 7)])
    def test_family_is_asked_for_the_last_activations(self, K, seed):
        # every check at n asks for (i, c(i, n)) for i = 1..m in order:
        # last_activation's c from n = K-1 on; before that the latest step
        # <= n whose block held i, or n for an index not yet activated
        sched = make_quasicyclic_random(6, K, seed=seed)
        asked = []

        def family(i, n):
            asked.append((i, n))
            return AXIS_X if i % 2 else AXIS_Y

        def outer(n):
            asked.append(("T0", n))
            return scaling_op(2, 0.5)

        cfg = SolverConfig(weights=[1 / 6] * 6, schedule=sched, max_iters=40,
                           tol_residual=-1.0, check_every=1)
        run(outer, family, cfg, [1.0, 1.0])
        for n in range(41):
            if n >= K - 1:
                lags = [last_activation(sched, i, n) for i in range(1, 7)]
            else:
                lags = [max((k for k in range(n + 1) if i in sched.block(k)),
                            default=n) for i in range(1, 7)]
            assert asked[:7] == [*zip(range(1, 7), lags), ("T0", n)]
            # then, below the cap, the block's evaluations at n and T0 at n
            update = ([(i, n) for i in sched.block(n)] + [("T0", n)]
                      if n < 40 else [])
            assert asked[7:7 + len(update)] == update
            del asked[:7 + len(update)]
        assert asked == []


class TestFullActivationReduction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_literal_iteration(self, seed):
        prob = lasso_instance(seed=seed)
        cfg = SolverConfig(weights=prob.weights, schedule=make_full(prob.m),
                           max_iters=1000, tol_residual=-1.0, check_every=10_000)
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal(prob.dim)
        res = run(prob.t0, prob.ts, cfg, x0)
        oracle, _, _ = literal_run(prob.t0, prob.ts, prob.weights,
                                   make_full(prob.m), x0, 1000)
        for rec, ox in zip(res.trace, oracle):
            assert np.max(np.abs(rec.x - ox)) <= 1e-12


class TestEconomicalVariant:
    def test_full_activation_identical(self):
        prob = lasso_instance()
        cfg = SolverConfig(weights=prob.weights, schedule=make_full(prob.m),
                           max_iters=300, tol_residual=-1.0)
        x0 = np.zeros(prob.dim)
        a = run(prob.t0, prob.ts, cfg, x0)
        b = run_economical(prob.t0, prob.ts, cfg, x0)
        for ra, rb in zip(a.trace, b.trace):
            assert np.max(np.abs(ra.x - rb.x)) <= 1e-12

    def test_block_schedule_agreement(self):
        prob = lasso_instance()
        sched = make_quasicyclic_random(prob.m, 3, seed=4)
        cfg = SolverConfig(weights=prob.weights, schedule=sched,
                           max_iters=1000, tol_residual=-1.0)
        x0 = np.zeros(prob.dim)
        a = run(prob.t0, prob.ts, cfg, x0)
        b = run_economical(prob.t0, prob.ts, cfg, x0)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.block == rb.block
            assert np.max(np.abs(ra.x - rb.x)) <= 1e-10

    def test_single_operator_reduction(self):
        T = projector_op(Ball([2.0, 0.0], 1.0))
        t0 = scaling_op(2, 0.5)
        cfg = SolverConfig(weights=[1.0], schedule=make_full(1), max_iters=40,
                           tol_residual=-1.0)
        a = run(t0, [T], cfg, [5.0, 5.0])
        b = run_economical(t0, [T], cfg, [5.0, 5.0])
        xs, _, _ = literal_run(t0, [T], [1.0], make_full(1), [5.0, 5.0], 40)
        for rec in a.trace:
            assert np.allclose(rec.x, xs[rec.n], atol=1e-14)
        assert np.max(np.abs(a.x - b.x)) <= 1e-14


class TestStaleBufferLaw:
    def test_buffer_reproducible_from_trace(self):
        prob = lasso_instance()
        sched = make_quasicyclic_random(prob.m, 4, seed=9)
        errs = SeededDecayErrors(1e-3, seed=5)
        cfg = SolverConfig(weights=prob.weights, schedule=sched, max_iters=60,
                           tol_residual=-1.0, error_model=errs,
                           record_buffers=True)
        res = run(prob.t0, prob.ts, cfg, np.zeros(prob.dim))
        iterates = {rec.n: rec.x for rec in res.trace}
        for rec in res.trace[:-1]:
            n = rec.n
            if n < sched.K - 1:
                continue
            for i in range(1, prob.m + 1):
                c = last_activation(sched, i, n)
                expected = prob.ts[i - 1](iterates[c]) + errs.error(i, c, prob.dim)
                assert np.max(np.abs(rec.t_buffer[i - 1] - expected)) <= 1e-12


class TestErrorInjection:
    def test_summability_bookkeeping(self):
        prob = lasso_instance()
        sched = make_quasicyclic_random(prob.m, 3, seed=2)
        c = 1e-2
        cfg = SolverConfig(weights=prob.weights, schedule=sched, max_iters=400,
                           tol_residual=-1.0, error_model=SeededDecayErrors(c))
        res = run(prob.t0, prob.ts, cfg, np.zeros(prob.dim))
        tail = sum(c / (n + 1.0) ** 2 for n in range(sched.K - 1, 400))
        assert 0 < res.sum_err0 <= tail + 1e-12
        # m lagged terms per iteration, each bounded by the error magnitude
        # at its activation step
        assert 0 < res.sum_lagged_errors <= prob.m * c * np.pi ** 2 / 6

    def test_decay_model_validation(self):
        with pytest.raises(ValueError):
            SeededDecayErrors(-1.0)
        with pytest.raises(ValueError):
            SeededDecayErrors(1.0, p=1.0)

    def test_convergence_survives_summable_errors(self):
        prob = lasso_instance()
        sched = make_quasicyclic_random(prob.m, 3, seed=3)
        cfg = SolverConfig(weights=prob.weights, schedule=sched, max_iters=3000,
                           tol_residual=-1.0,
                           error_model=SeededDecayErrors(1e-2))
        clean_cfg = SolverConfig(weights=prob.weights, schedule=sched,
                                 max_iters=3000, tol_residual=-1.0)
        noisy = run(prob.t0, prob.ts, cfg, np.zeros(prob.dim))
        clean = run(prob.t0, prob.ts, clean_cfg, np.zeros(prob.dim))
        assert abs(prob.objective(noisy.x) - prob.objective(clean.x)) <= 1e-4


class TestErrorWindowLookAhead:
    """The errors of upcoming iterations are drawn ahead of the loop; a
    corrupt block must still fail at its own n."""

    N = 60

    def solve(self, tol, max_iters):
        schedule = BlockSchedule(2, 1, lambda n: set() if n == self.N
                                 else {1, 2}, name="empty-at-N")
        cfg = SolverConfig(weights=[0.5, 0.5], schedule=schedule,
                           max_iters=max_iters, tol_residual=tol,
                           check_every=1,
                           error_model=SeededDecayErrors(1e-9, seed=3))
        return run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y], cfg, [1.0, 1.0])

    @pytest.mark.parametrize("tol, max_iters", [(1e-6, 1000), (-1.0, N - 1)],
                             ids=["converges", "capped"])
    def test_run_ending_before_the_empty_block_returns(self, tol, max_iters):
        res = self.solve(tol, max_iters)
        assert res.iterations < self.N
        assert res.converged == (tol > 0)

    def test_run_reaching_the_empty_block_raises_there(self):
        with pytest.raises(CoveringError, match=f"empty block at n={self.N}$"):
            self.solve(-1.0, 1000)

    @pytest.mark.parametrize("runner", [run, run_economical])
    @pytest.mark.parametrize("tol, max_iters", [(-1.0, 40), (1e-3, 400)],
                             ids=["capped", "converges"])
    def test_each_block_fetched_once(self, monkeypatch, runner, tol,
                                     max_iters):
        # windows of 15 error rows, a few iterations each, so the run
        # spans many windows and ends some of them at the row bound
        fetched = []
        inner = make_quasicyclic_random(6, 3, seed=5)

        def block_fn(n):
            fetched.append(n)
            return inner.block(n)

        monkeypatch.setattr(solver, "_ERROR_WINDOW_BYTES", 8 * 2 * 3 * 5)
        schedule = BlockSchedule(6, 3, block_fn, name="counted")
        A, eta, _ = synthetic_regression(2, 6, seed=3)
        prob = lasso_problem(A, eta, reg=0.05)
        cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                           max_iters=max_iters, tol_residual=tol,
                           check_every=1,
                           error_model=SeededDecayErrors(1e-3, seed=2))
        res = runner(prob.t0, prob.ts, cfg, np.zeros(2))
        assert res.converged == (tol > 0) and res.iterations > 10
        # each n once, in order; a converged run may have fetched the rest
        # of its last window, a capped one stops at the cap
        assert fetched == list(range(len(fetched)))
        assert res.iterations < len(fetched) < res.iterations + 6
        if not res.converged:
            assert len(fetched) == max_iters + 1


class TestFejerAudit:
    def make_trace(self):
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y],
                  axis_contraction_cfg(max_iters=60), [1.0, 1.0])
        return res

    def test_clean_run_passes(self):
        res = self.make_trace()
        rep = fejer_audit(res.trace, [0.0, 0.0], [0.5, 0.5], K=2)
        assert rep.passed
        assert rep.max_violation <= 0  # strict decrease for a contraction

    def test_corrupted_trace_fails(self):
        res = self.make_trace()
        res.trace[20].x = 10.0 * res.trace[20].x
        rep = fejer_audit(res.trace, [0.0, 0.0], [0.5, 0.5], K=2)
        assert not rep.passed
        assert rep.first_violation_n is not None

    def test_uncovered_block_history_raises(self):
        blocks = [frozenset({1}), frozenset({1}), frozenset({2}), None]
        with pytest.raises(CoveringError, match=re.escape(
                "indices [2] absent from window starting at n=0 (K=2)")):
            fejer_audit(trace_of([4.0, 2.0, 1.0, 0.5], blocks), None,
                        [0.5, 0.5], K=2, slack=1e-9)

    def test_block_index_beyond_weights_rejected(self):
        blocks = [frozenset({1, 2, 3}), None]
        with pytest.raises(ValueError, match="outside 1..2"):
            fejer_audit(trace_of([1.0, 0.5], blocks), None, [0.5, 0.5], K=1,
                        slack=1e-9)

    def test_block_index_zero_rejected(self):
        # a 0 would become index -1 and wrap onto the last operator; the
        # terminal record's block, never replayed, is checked the same way
        for n in (0, 1):
            blocks = [frozenset({1, 2}), None]
            blocks[n] = frozenset({0, 1, 2})
            with pytest.raises(ValueError, match=re.escape(
                    f"block [0, 1, 2] at n={n} names an index outside 1..2")):
                fejer_audit(trace_of([1.0, 0.5], blocks), None, [0.5, 0.5],
                            K=1, slack=1e-9)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_missing_block_before_the_last_rejected(self, n):
        # only a run's terminal record has no block; one earlier used to
        # end the replay there and drop every later iteration unchecked
        blocks = [frozenset({1, 2})] * 4 + [None]
        blocks[n] = None
        with pytest.raises(ValueError, match=re.escape(
                f"no block at n={n}: only the last record may have none")):
            fejer_audit(trace_of([1.0, 0.5, 0.25, 0.125, 0.0625], blocks),
                        None, [0.5, 0.5], K=2)

    @pytest.mark.parametrize("K", [0, -3])
    def test_nonpositive_K_rejected(self, K):
        trace = trace_of([1.0, 0.5], [frozenset({1, 2}), None])
        with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
            fejer_audit(trace, None, [0.5, 0.5], K=K)
        with pytest.raises(ValueError, match=f"K must be >= 1, got {K}"):
            linear_rate_audit(trace, None, 0.5, [1.0, 1.0], [0.5, 0.5], K=K)

    @pytest.mark.parametrize("column, n, value", [
        ("dists", 2, np.nan), ("dists", 0, np.inf), ("err0s", 1, np.nan),
        ("errsums", 2, -np.inf)])
    def test_non_finite_entry_rejected(self, column, n, value):
        # an inf d_0 makes the default slack inf, a NaN never exceeds it
        series = {"dists": [1.0, 0.5, 0.25, 0.125], "err0s": [0.0] * 4,
                  "errsums": [0.0] * 4}
        series[column][n] = value
        name = {"dists": "distance", "err0s": "err0", "errsums": "errsum"}
        message = re.escape(f"{name[column]} at n={n} is not finite: {value}")
        trace = trace_of(series["dists"], [frozenset({1, 2})] * 3 + [None],
                        series["err0s"], series["errsums"])
        with pytest.raises(ValueError, match=message):
            fejer_audit(trace, None, [0.5, 0.5], K=1)
        if column == "dists":
            with pytest.raises(ValueError, match=message):
                linear_rate_audit(trace, None, 0.5, [1.0, 1.0], [0.5, 0.5],
                                  K=1)

    @pytest.mark.parametrize("d3, passed, first_bad", [
        (0.25, True, (None, None)), (2.0, False, (2, 3))])
    def test_verdicts_are_python_bools(self, d3, passed, first_bad):
        trace = trace_of([3.0, 1.0, 0.5, d3], [frozenset({1, 2})] * 3 + [None])
        reports = (fejer_audit(trace, None, [0.5, 0.5], K=1),
                   linear_rate_audit(trace, None, 0.5, [1.0, 1.0], [0.5, 0.5],
                                     K=2))
        assert [rep.passed for rep in reports] == [passed, passed]
        assert all(type(rep.passed) is bool for rep in reports)
        assert tuple(rep.first_violation_n for rep in reports) == first_bad

    def test_default_slacks(self):
        trace = trace_of([3.0, 1.0, 0.5, 0.25],
                        [frozenset({1, 2})] * 3 + [None])
        rep = fejer_audit(trace, None, [0.5, 0.5], K=1)
        assert rep.slack == 1e-9 * (1.0 + 3.0)
        rep = linear_rate_audit(trace, None, 0.5, [1.0, 1.0], [0.5, 0.5], K=2)
        assert rep.slack == 1e-12 * (1.0 + 3.0)

    def test_errors_included_in_bound(self):
        cfg = axis_contraction_cfg(max_iters=80,
                                   error_model=SeededDecayErrors(1e-3, seed=1))
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y], cfg, [1.0, 1.0])
        rep = fejer_audit(res.trace, [0.0, 0.0], [0.5, 0.5], K=2)
        assert rep.passed

    @pytest.mark.parametrize("audit", ["fejer", "linear-rate"])
    def test_recorded_distances_give_the_measured_report(self, audit):
        # x_ref=None reads the dist_ref the run recorded against the same
        # reference, which is the distance the audit would measure
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y],
                  axis_contraction_cfg(max_iters=40), [1.0, -2.0],
                  x_ref=[0.0, 0.0])
        if audit == "fejer":
            measured, recorded = (fejer_audit(res.trace, x_ref, [0.5, 0.5],
                                              K=2)
                                  for x_ref in ([0.0, 0.0], None))
        else:
            measured, recorded = (linear_rate_audit(
                res.trace, x_ref, 0.5, [1.0, 1.0], [0.5, 0.5], K=2)
                for x_ref in ([0.0, 0.0], None))
        assert measured.passed and recorded.passed
        assert recorded.max_violation == measured.max_violation
        assert recorded.n_checked == measured.n_checked

    @pytest.mark.parametrize("audit", ["fejer", "linear-rate"])
    @pytest.mark.parametrize("n", [0, 2])
    def test_record_without_dist_ref_refused(self, audit, n):
        dists = [1.0, 0.5, 0.25]
        dists[n] = None
        trace = trace_of(dists, [frozenset({1, 2})] * 2 + [None])
        with pytest.raises(ValueError, match=re.escape(
                "trace has no dist_ref column; rerun with a reference")):
            if audit == "fejer":
                fejer_audit(trace, None, [0.5, 0.5], K=1)
            else:
                linear_rate_audit(trace, None, 0.5, [1.0, 1.0], [0.5, 0.5],
                                  K=1)

    @pytest.mark.parametrize("records, K", [(0, 1), (1, 1), (2, 2),
                                            (3, 3), (5, 500)])
    def test_trace_of_at_most_K_records_rejected(self, records, K):
        # the inequality starts at n = K-1 and needs iterate n+1: a shorter
        # trace checks nothing, and an empty audit is no verdict
        trace = trace_of([2.0 ** -n for n in range(records)],
                         [frozenset({1, 2})] * (records - 1) + [None])
        with pytest.raises(ValueError, match=re.escape(
                f"need at least K+1 = {K + 1} recorded iterates, got "
                f"{records}")):
            fejer_audit(trace, None, [0.5, 0.5], K=K)
        # K+1 records are checked at n = K-1
        trace = trace_of([2.0 ** -n for n in range(K + 1)],
                         [frozenset({1, 2})] * K + [None])
        assert fejer_audit(trace, None, [0.5, 0.5], K=K).n_checked == 1


class TestLinearRateAudit:
    def test_exact_geometric_sequence(self):
        # K = 1, T0 = Id/2, T1 = Id: ||x_n|| = (1/2)^n ||x_0|| exactly
        cfg = SolverConfig(weights=[1.0], schedule=make_full(1), max_iters=40,
                           tol_residual=-1.0, check_every=1000)
        res = run(scaling_op(3, 0.5), [identity_op(3)], cfg, [1.0, 2.0, -2.0])
        rep = linear_rate_audit(res.trace, np.zeros(3), rho0=0.5, rhos=[1.0],
                                weights=[1.0], K=1)
        assert rep.passed
        for rec in res.trace:
            assert np.linalg.norm(rec.x) == pytest.approx(
                0.5 ** rec.n *3.0, abs=1e-12)

    def test_block_instance_bound(self):
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y],
                  axis_contraction_cfg(), [1.0, 1.0])
        rep = linear_rate_audit(res.trace, [0.0, 0.0], rho0=0.5,
                                rhos=[1.0, 1.0], weights=[0.5, 0.5], K=2)
        assert rep.passed

    def test_refuses_without_contraction(self):
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y],
                  axis_contraction_cfg(max_iters=10), [1.0, 1.0])
        with pytest.raises(ValueError, match="linear guarantee"):
            linear_rate_audit(res.trace, [0.0, 0.0], rho0=1.0,
                              rhos=[1.0, 1.0], weights=[0.5, 0.5], K=2)

    def test_refuses_undeclared(self):
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y],
                  axis_contraction_cfg(max_iters=10), [1.0, 1.0])
        with pytest.raises(ValueError, match="declared"):
            linear_rate_audit(res.trace, [0.0, 0.0], rho0=0.5,
                              rhos=[None, 1.0], weights=[0.5, 0.5], K=2)

    def test_rhos_of_another_length_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "rhos has 1 entries but weights has 2")):
            linear_rate_audit(trace_of([1.0, 0.5], [frozenset({1, 2}), None]),
                              None, 0.5, [1.0], [0.5, 0.5], K=1)

    def test_refuses_noisy_run(self):
        cfg = axis_contraction_cfg(max_iters=10,
                                   error_model=SeededDecayErrors(1e-3))
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y], cfg, [1.0, 1.0])
        with pytest.raises(ValueError, match="error-free"):
            linear_rate_audit(res.trace, [0.0, 0.0], rho0=0.5, rhos=[1.0, 1.0],
                              weights=[0.5, 0.5], K=2)

    @pytest.mark.parametrize("column", ["err0s", "errsums"])
    def test_refuses_an_error_in_either_column(self, column):
        # one nonzero entry in one record is enough
        errors = {"err0s": [0.0] * 3, "errsums": [0.0] * 3}
        errors[column][1] = 1e-3
        trace = trace_of([1.0, 0.5, 0.25], [frozenset({1, 2})] * 2 + [None],
                         **errors)
        with pytest.raises(ValueError, match=re.escape(
                "linear rate audit requires an error-free run")):
            linear_rate_audit(trace, None, 0.5, [1.0, 1.0], [0.5, 0.5], K=1)

    def test_fewer_than_K_records_rejected(self):
        trace = trace_of([1.0, 0.5], [frozenset({1}), None])
        with pytest.raises(ValueError, match="need at least K recorded"):
            linear_rate_audit(trace, None, 0.5, [1.0, 1.0], [0.5, 0.5], K=3)


class TestResidualEnvelope:
    def test_residuals_eventually_under_rate_envelope(self):
        # on an error-free contraction the stopping residual tracks the
        # geometric distance envelope (up to the nonexpansive factor 2)
        res = run(scaling_op(2, 0.5), [AXIS_X, AXIS_Y],
                  axis_contraction_cfg(max_iters=100), [1.0, 1.0])
        K, rho = 2, 0.5
        dists = [np.linalg.norm(rec.x) for rec in res.trace]
        xi_hat = max(dists[:K])
        residuals = []
        for rec in res.trace:
            if rec.residual is None:
                continue
            envelope = rho ** ((1 - K) / K) * xi_hat * rho ** (rec.n / K)
            assert rec.residual <= 2.0 * envelope + 1e-12
            residuals.append(rec.residual)
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-15


class TestEconomicalRunningMean:
    def test_running_mean_matches_buffer(self):
        # with an identity outer operator the next iterate IS the maintained
        # running mean, which must match the buffer recomputation
        prob = lasso_instance()
        from blocksplit.operators import identity_op
        sched = make_quasicyclic_random(prob.m, 4, seed=13)
        cfg = SolverConfig(weights=prob.weights, schedule=sched, max_iters=200,
                           tol_residual=-1.0, record_buffers=True)
        res = run_economical(identity_op(prob.dim), prob.ts, cfg,
                             np.zeros(prob.dim))
        for rec, nxt in zip(res.trace, res.trace[1:]):
            recomputed = prob.weights @ rec.t_buffer
            assert np.max(np.abs(nxt.x - recomputed)) <= 1e-10


def _lasso_wide(seed=2, d=20, m=500):
    """The shape where the gate pays: m=500 rows, cyclic blocks of 10 (K=50)
    and checks every 10 iterations at a loose tolerance."""
    A, eta, _ = synthetic_regression(d, m, seed)
    return lasso_problem(A, eta, reg=1e-3), make_cyclic(m, 10)


def _candidates(res, check_every):
    """The iterations of a run whose stopping check was scheduled."""
    return [rec.n for rec in res.trace
            if rec.n % check_every == 0 or rec is res.trace[-1]]


class TestStoppingCheckGate:
    def test_lasso_wide_run_skips_checks_and_counts_them(self):
        prob, schedule = _lasso_wide()
        res = prob.solve(schedule, np.zeros(prob.dim), max_iters=100_000,
                         tol_residual=1e-2, check_every=10)
        stats = res.stats
        assert res.converged and stats["checks_skipped"] > 0
        checked = [rec.n for rec in res.trace if rec.residual is not None]
        assert stats == {
            "block_evals": sum(len(rec.block) for rec in res.trace[:-1]),
            "checks": len(checked),
            "checks_skipped": len(_candidates(res, 10)) - len(checked),
        }
        # the first check at n >= K and the one that stops the run are run
        assert checked[-1] == res.iterations
        assert next(n for n in checked if n >= schedule.K) == schedule.K
        # the bench's lasso_wide counts: 130 checks at 1,290 iterations when
        # every candidate ran, 54 at a fixed margin of 2
        assert (res.iterations, stats["checks"]) == (1290, 27)

    @pytest.mark.parametrize("K, longest", [(3, 11), (10, 19)])
    def test_skipped_stretch_is_bounded_by_candidates_and_windows(self, K,
                                                                  longest):
        # at check_every 1 a skipped stretch ends at 19 candidates or 4K - 1
        # iterations after the last check run, whichever comes first; this
        # run reaches the bound many times over
        A, eta, _ = synthetic_regression(20, 30, 2)
        prob = lasso_problem(A, eta, reg=1e-3)
        res = prob.solve(make_quasicyclic_random(30, K, 1), np.zeros(20),
                         max_iters=3000, tol_residual=1e-12, check_every=1)
        assert res.converged
        in_a_row = seen = 0
        for rec in res.trace:
            in_a_row = in_a_row + 1 if rec.residual is None else 0
            seen = max(seen, in_a_row)
        assert seen == longest

    @pytest.mark.parametrize("gate_off", [
        {"error_model": SeededDecayErrors(1e-3, seed=1)},
        {"tol_residual": -1.0, "max_iters": 600}],
        ids=["error-model", "negative-tolerance"])
    def test_no_check_skipped_without_the_gate(self, gate_off):
        prob, schedule = _lasso_wide()
        kw = {"max_iters": 100_000, "tol_residual": 1e-2, "check_every": 10,
              **gate_off}
        res = prob.solve(schedule, np.zeros(prob.dim), **kw)
        assert res.stats["checks_skipped"] == 0
        assert res.stats["checks"] == len(_candidates(res, 10)) > 1


# a numpy error state unlike the default: a loop that left its own
# invalid="ignore" behind, or reset the state, would show in np.geterr()
OUTER_ERRSTATE = {"divide": "ignore", "over": "ignore", "invalid": "warn",
                  "under": "ignore"}


def _nan_at_call(count):
    """Three rows x -> x/2 on R^2 whose kernel's ``count``-th call puts a
    NaN into its first row."""
    calls = itertools.count()

    def kernel(idx, x):
        out = 0.5 * np.tile(x, (np.arange(3)[idx].size, 1))
        if next(calls) == count:
            out[0, 0] = np.nan
        return out

    return RowStack(kernel, 2, [0.5] * 3, "half")


@pytest.mark.parametrize("ending", ["returns", "non-finite", "covering"])
@pytest.mark.parametrize("runner", [run, run_economical])
def test_run_restores_numpy_error_state(runner, ending):
    """The loop ignores invalid-value warnings inside one errstate; the
    caller's state is back when the run returns and when it raises from the
    middle of the loop."""
    schedule = (make_explicit(3, 2, [[1], [2], [3]]) if ending == "covering"
                else make_cyclic(3, 1))
    cfg = SolverConfig(weights=[1 / 3] * 3, schedule=schedule, max_iters=20,
                       tol_residual=-1.0, check_every=100)
    ts = _nan_at_call(5 if ending == "non-finite" else -1)
    with np.errstate(**OUTER_ERRSTATE):
        before = np.geterr()
        if ending == "returns":
            assert runner(identity_op(2), ts, cfg, [1.0, 2.0]).iterations == 20
        else:
            error = NonFiniteError if ending == "non-finite" else CoveringError
            with pytest.raises(error):
                runner(identity_op(2), ts, cfg, [1.0, 2.0])
        assert np.geterr() == before == OUTER_ERRSTATE
