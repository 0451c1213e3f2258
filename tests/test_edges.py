"""Argument checks and small paths of every module that the other test files
leave out: each refusal raises its type with its message, the boolean
reports are their ``passed`` flag, the meta functions of the feasibility
builders compute what they document, an affine set from a config is solved
end to end, and a run whose row turns non-finite exits 4."""

import re

import numpy as np
import pytest

from blocksplit import harness
from blocksplit.calculus import (AffineSubspace, Ball, Box, Halfspace,
                                 LinearMap, Singleton, gradient_step_op,
                                 half_square, huber, linear_resolvent_op,
                                 projector_op)
from blocksplit.harness import (ConfigError, EXIT_DIVERGED, EXIT_OK,
                                load_config, load_data_csv,
                                oracle_prox_grad_reference, run_experiment,
                                synthetic_regression)
from blocksplit.operators import (AveragedOp, RowStack, as_point,
                                  certify_averaged, check_weights,
                                  identity_op, kahan_weighted_sum, scaling_op)
from blocksplit.problems import (BuiltProblem, alternating_projections,
                                 build_cohypomonotone,
                                 build_common_fixed_point,
                                 build_feasibility_relaxation,
                                 build_forward_backward,
                                 build_residual_system, lasso_problem,
                                 least_squares_feasibility,
                                 quadratic_resolvent)
from blocksplit.schedules import (BlockSchedule, CoveringError,
                                  check_concentrating, lag_identity_check,
                                  make_cyclic, make_full, mu_row)
from blocksplit.solver import SolverConfig, run
from support import identity_map

ID2 = identity_op(2)
PROJ_BALL = projector_op(Ball([0.0, 0.0], 1.0))
BALL = Ball([0.0, 0.0], 1.0)
HALF_SQUARE = half_square()


def cfg2(**kw):
    return SolverConfig(weights=[0.5, 0.5], schedule=make_full(2), **kw)


REFUSALS = {
    # calculus
    "box-shapes": (lambda: Box([0.0, 0.0], [1.0]), ValueError,
                   "box bounds must be 1-D and equally shaped"),
    "affine-shapes": (lambda: AffineSubspace(np.eye(2), [1.0]), ValueError,
                      "need a k x d matrix and a length-k right-hand side"),
    "resolvent-not-square": (lambda: linear_resolvent_op(np.ones((2, 3)), 1.0),
                             ValueError, "need a square matrix"),
    "huber-delta": (lambda: huber(0.0), ValueError, "delta must be positive"),
    "linear-map-1d": (lambda: LinearMap([1.0, 2.0]), ValueError,
                      "need a 2-D matrix"),
    "step-beta": (lambda: gradient_step_op(lambda x: x, 0.0, 1.0, 2),
                  ValueError, "cocoercivity constant must be positive"),
    # harness
    "oracle-no-pieces": (
        lambda: oracle_prox_grad_reference(build_common_fixed_point([PROJ_BALL])),
        ValueError, "problem does not expose prox-gradient pieces"),
    "regression-short": (lambda: synthetic_regression(5, 3, 0), ValueError,
                         "need at least as many rows as features"),
    # operators
    "point-2d": (lambda: as_point(np.zeros((2, 2))), ValueError,
                 "point must be one-dimensional, got shape (2, 2)"),
    "sum-empty": (lambda: kahan_weighted_sum([], []), ValueError,
                  "need a nonempty sequence of nonempty equal-length 1-D "
                  "vectors"),
    "weights-empty": (lambda: check_weights([]), ValueError,
                      "weights must be a nonempty 1-D sequence"),
    "weights-negative": (lambda: check_weights([1.5, -0.5]), ValueError,
                         "weights must be strictly positive"),
    "lipschitz": (lambda: AveragedOp(lambda x: x, 2, 0.5, lipschitz=2.0),
                  ValueError, "lipschitz must lie in (0, 1], got 2.0"),
    "stack-alphas-2d": (lambda: RowStack(lambda idx, x: x, 2, [[0.5]]),
                        ValueError,
                        "alphas must be a 1-D sequence, one per row"),
    "scaling-factor": (lambda: scaling_op(2, 1.5), ValueError,
                       "scaling factor must lie in [0, 1]"),
    # problems
    "weights-count": (
        lambda: build_common_fixed_point([PROJ_BALL] * 2, weights=[1.0]),
        ValueError, "expected 2 weights"),
    "residual-targets": (
        lambda: build_residual_system([PROJ_BALL], [[0.0, 0.0]] * 2),
        ValueError, "one target per operator required"),
    "cohypo-rho": (
        lambda: build_cohypomonotone([None], [-1.0], [1.0], 2), ValueError,
        "need one rho >= 0 per operator"),
    "cohypo-gammas": (
        lambda: build_cohypomonotone([None], [0.0], [1.0, 2.0], 2),
        ValueError, "need one gamma per operator"),
    "quadratic-shape": (lambda: quadratic_resolvent(np.eye(3), [0.0, 0.0]),
                        ValueError,
                        "Q must be square and match the minimizer dimension"),
    "quadratic-psd": (lambda: quadratic_resolvent(-np.eye(2), [0.0, 0.0]),
                      ValueError, "Q must be positive semidefinite"),
    "forward-beta": (
        lambda: build_forward_backward(lambda g, x: x, [lambda x: x], [0.0],
                                       2),
        ValueError, "need one positive cocoercivity constant per operator"),
    "zero-row": (lambda: lasso_problem([[1.0, 0.0], [0.0, 0.0]], [1.0, 0.0],
                                       reg=0.1),
                 ValueError, "zero rows are not allowed"),
    "relaxation-C0": (
        lambda: build_feasibility_relaxation(
            "ball", [(identity_map(2), BALL, HALF_SQUARE)]),
        ValueError, "C0 must be a ConvexSet"),
    "relaxation-no-terms": (lambda: build_feasibility_relaxation(BALL, []),
                            ValueError,
                            "need at least one (L, D, phi) term"),
    "relaxation-term-kinds": (
        lambda: build_feasibility_relaxation(
            BALL, [(np.eye(2), BALL, HALF_SQUARE)]),
        ValueError, "each term must be (LinearMap, ConvexSet, SmoothScalar)"),
    "relaxation-dims": (
        lambda: build_feasibility_relaxation(
            BALL, [(identity_map(2), Ball([0.0, 0.0, 0.0], 1.0),
                    HALF_SQUARE)]),
        ValueError, "dimension mismatch in (L, D) term"),
    "relaxation-zero-map": (
        lambda: build_feasibility_relaxation(
            BALL, [(LinearMap(np.zeros((2, 2))), BALL, HALF_SQUARE)]),
        ValueError, "linear maps must be nonzero"),
    # schedules
    "mixed-kinds": (
        lambda: BlockSchedule(2, 1, lambda n: {1, "a"}, name="mixed").block(0),
        CoveringError,
        "schedule 'mixed': block ['a', 1] at n=0 not within 1..2"),
    "block-index": (lambda: make_full(2).block(-1), ValueError,
                    "block index must be >= 0"),
    "mu-weights": (lambda: mu_row(make_full(2), [1.0], 0), ValueError,
                   "one weight per operator index required"),
    "mu-row-index": (lambda: mu_row(make_full(2), [0.5, 0.5], -1), ValueError,
                     "row index must be >= 0"),
    "lag-xs": (lambda: lag_identity_check(make_full(2), [0.5, 0.5], 1,
                                          [1.0, -1.0]),
               ValueError, "xs entries must be nonnegative"),
    # solver
    "epsilon": (lambda: cfg2(epsilon=0.0), ValueError,
                "epsilon must lie in (0, 1)"),
    "t0-kind": (lambda: run("T0", [ID2, ID2], cfg2(), [0.0, 0.0]), TypeError,
                "t0 must be an AveragedOp or a callable n -> AveragedOp"),
    "ts-kind": (lambda: run(ID2, 5, cfg2(), [0.0, 0.0]), TypeError,
                "ts must be a sequence of AveragedOp or a callable (i, n) -> "
                "AveragedOp"),
    "run-weights": (
        lambda: run(ID2, [ID2, ID2],
                    SolverConfig(weights=[1.0], schedule=make_full(2)),
                    [0.0, 0.0]),
        ValueError, "one weight per operator required"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_raises_its_type_and_message(name):
    call, kind, message = REFUSALS[name]
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is kind


def test_oracle_short_of_optimality_raises():
    # a step tolerance of 1e-2 stops the oracle far from the minimizer
    A, eta, _ = synthetic_regression(3, 6, seed=1)
    with pytest.raises(RuntimeError, match=r"^oracle optimality residual "
                       r"\S+ exceeds 1e-08$"):
        oracle_prox_grad_reference(lasso_problem(A, eta, reg=0.1), tol=1e-2)


class TestConfigFiles:
    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="^cannot read config: "):
            load_config(tmp_path / "absent.json")

    def test_malformed_data_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ConfigError,
                           match=f"^malformed data CSV {re.escape(str(path))}: "):
            load_data_csv(path)

    def test_data_csv_of_one_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1\n2\n")
        with pytest.raises(ConfigError, match="^data CSV needs at least one "
                           "feature column and a target$"):
            load_data_csv(path)


def test_reports_are_true_exactly_when_passed():
    doubling = AveragedOp(lambda x: 2.0 * x, 2, 0.5)
    rows = [mu_row(make_cyclic(2, 1), [0.5, 0.5], 3)]
    reports = [certify_averaged(ID2, sample_count=8),
               certify_averaged(doubling, sample_count=8),
               check_concentrating(rows, 2), check_concentrating(rows, 1)]
    assert [r.passed for r in reports] == [True, False, True, False]
    assert [bool(r) for r in reports] == [True, False, True, False]


class TestFeasibilityMeta:
    def test_relaxation_objective_is_the_weighted_penalty(self):
        box = Box([-5.0, -5.0], [5.0, 5.0])
        prob = build_feasibility_relaxation(
            box, [(identity_map(2), Ball([3.0, 0.0], 1.0), HALF_SQUARE),
                  (identity_map(2), Singleton([0.0, 4.0]), HALF_SQUARE)],
            weights=[0.25, 0.75])
        # distances 2 and 4 from the origin: 0.25 * 2 + 0.75 * 8
        assert prob.objective(np.zeros(2)) == 6.5

    def test_least_squares_gap_is_the_largest_row_residual(self):
        prob = least_squares_feasibility([[1.0, 0.0], [0.0, 2.0]],
                                         [1.0, -1.0])
        assert prob.meta["feasibility_gap"](np.array([0.5, 0.5])) == 2.0

    def test_alternating_projections_gap_is_the_distance_to_D(self):
        prob = alternating_projections(BALL, Halfspace([1.0, 0.0], 2.0))
        assert prob.meta["feasibility_gap"](np.array([5.0, 1.0])) == 3.0


def test_affine_set_from_a_config_is_solved(tmp_path):
    cfg = {"problem": {"variant": "common_fixed_point",
                       "sets": [{"set": "affine", "A": [[1.0, 1.0]],
                                 "b": [1.0]},
                                {"set": "ball", "center": [0.0, 0.0],
                                 "radius": 1.0}]},
           "schedule": {"type": "cyclic", "m": 2, "block_size": 1},
           "solver": {"x0": [3.0, -1.0], "tol_residual": 1e-12}}
    code, summary = run_experiment(cfg, base_dir=tmp_path)
    assert code == EXIT_OK and summary["converged"]
    x = np.array(summary["solution"])
    assert abs(x.sum() - 1.0) < 1e-9 and np.linalg.norm(x) <= 1.0 + 1e-9


def test_a_row_that_turns_infinite_exits_4(monkeypatch):
    bad = AveragedOp(lambda x: np.full(2, np.inf), 2, 0.5, name="bad")

    def build(pcfg, base_dir="."):
        return BuiltProblem(t0=ID2, ts=[bad], weights=np.array([1.0]), dim=2,
                            m=1, name="bad_row")

    monkeypatch.setattr(harness, "build_problem_from_config", build)
    code, summary = run_experiment(
        {"problem": {}, "schedule": {"type": "cyclic", "m": 1,
                                     "block_size": 1}})
    assert code == EXIT_DIVERGED
    assert summary == {"error": "operator 'bad' produced non-finite output"}
