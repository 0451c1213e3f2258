import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blocksplit
from blocksplit import cli
from blocksplit.calculus import Hyperplane, projector_op
from blocksplit.harness import (ConfigError, EXIT_COVERING, EXIT_CONFIG,
                                EXIT_DIVERGED, EXIT_NOT_CONVERGED, EXIT_OK,
                                build_problem_from_config,
                                l1_optimality_residual,
                                load_data_csv, oracle_least_squares,
                                oracle_prox_grad_reference, read_trace_csv,
                                replay_audits_from_csv, run_experiment,
                                synthetic_regression, write_trace_csv)
from blocksplit.operators import scaling_op
from blocksplit.problems import build_prox_grad, lasso_problem, logistic_problem
from blocksplit.schedules import MAX_M, make_cyclic, make_full
from blocksplit.solver import SolverConfig, run


class TestLeastSquaresOracle:
    def test_square_invertible_interpolates(self):
        A = np.array([[2.0, 0.0], [1.0, 1.0]])
        eta = np.array([4.0, 3.0])
        res = oracle_least_squares(A, eta)
        assert np.allclose(A @ res.solution, eta, atol=1e-12)

    def test_overdetermined_consistent_exact(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((8, 3))
        x_true = rng.standard_normal(3)
        res = oracle_least_squares(A, A @ x_true)
        assert np.allclose(res.solution, x_true, atol=1e-10)

    def test_random_system_normal_residual(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((10, 5))
        eta = rng.standard_normal(10)
        res = oracle_least_squares(A, eta)
        assert res.accuracy < 1e-12

    def test_rank_deficiency_rejected(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValueError, match="rank"):
            oracle_least_squares(A, np.ones(3))


class TestProxGradOracle:
    def test_single_quadratic_closed_form(self):
        z = np.array([2.0, -1.0, 0.5])
        prob = build_prox_grad(lambda g, x: x, [lambda x: x - z], betas=[1.0],
                               dim=3)
        res = oracle_prox_grad_reference(prob)
        assert np.allclose(res.solution, z, atol=1e-12)

    def test_lasso_reference(self):
        A, eta, _ = synthetic_regression(20, 30, seed=1)
        prob = lasso_problem(A, eta, reg=0.01)
        res = oracle_prox_grad_reference(prob, tol=1e-13)
        assert res.accuracy <= 1e-8
        g = prob.meta["smooth_grad"](res.solution)
        assert l1_optimality_residual(res.solution, g, 0.01) <= 1e-8

    def test_logistic_reference(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((10, 40)) / np.sqrt(40)
        labels = (rng.random(10) < 0.5).astype(float)
        prob = logistic_problem(A, labels, reg=0.02)
        res = oracle_prox_grad_reference(prob, tol=1e-13)
        assert res.accuracy <= 1e-8

    def test_iteration_cap_detected(self):
        A, eta, _ = synthetic_regression(6, 9, seed=4)
        prob = lasso_problem(A, eta, reg=0.01)
        with pytest.raises(RuntimeError, match="tolerance"):
            oracle_prox_grad_reference(prob, tol=1e-13, max_iters=3)


class TestTraceIO:
    def run_small(self, with_errors=False, x_ref=None):
        from blocksplit.solver import SeededDecayErrors
        A, eta, _ = synthetic_regression(4, 6, seed=3)
        prob = lasso_problem(A, eta, reg=0.02)
        cfg = SolverConfig(weights=prob.weights, schedule=make_full(6),
                           max_iters=40, tol_residual=-1.0,
                           error_model=SeededDecayErrors(1e-3) if with_errors
                           else None)
        return prob, run(prob.t0, prob.ts, cfg, np.zeros(4), x_ref=x_ref)

    def test_roundtrip(self, tmp_path):
        _, res = self.run_small(with_errors=True, x_ref=np.zeros(4))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res.trace)
        read = read_trace_csv(path)
        assert [rec.n for rec in read] == [rec.n for rec in res.trace]
        for rec, back in zip(res.trace, read):
            assert back.x is None
            assert back.block == rec.block
            assert back.err0 == rec.err0
            assert back.dist_ref == rec.dist_ref

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_trace_csv(path)

    def test_non_utf8_trace_refused_naming_file_and_byte(self, tmp_path):
        path = tmp_path / "trace.csv"
        _, res = self.run_small(x_ref=np.zeros(4))
        write_trace_csv(path, res.trace)
        raw = path.read_bytes()
        path.write_bytes(raw[:100] + b"\xff" + raw[100:])
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: byte 100 is not UTF-8 text (invalid start byte)")):
            read_trace_csv(path)

    def test_offline_fejer_replay_matches_inline(self, tmp_path):
        from blocksplit.solver import fejer_audit
        _, res = self.run_small(x_ref=np.zeros(4))
        # use the final iterate of a longer clean run as the reference
        prob, long_res = self.run_small()
        x_ref = long_res.x
        _, res = self.run_small(x_ref=x_ref)
        inline = fejer_audit(res.trace, x_ref, prob.weights, K=1)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res.trace)
        offline, = replay_audits_from_csv(path, prob.weights, K=1)
        assert inline.passed == offline.passed
        assert inline.max_violation == pytest.approx(offline.max_violation)


def lasso_config(tmp_path, m=6, n=4, schedule=None, **extra):
    A, eta, _ = synthetic_regression(n, m, seed=3)
    np.savetxt(tmp_path / "data.csv", np.column_stack([A, eta]), delimiter=",")
    cfg = {
        "problem": {"variant": "lasso", "data_csv": "data.csv",
                    "l1_weight": 0.02},
        "schedule": schedule or {"type": "cyclic", "m": m, "block_size": m},
        "solver": {"max_iters": 20000, "tol_residual": 1e-10},
        "output": {"trace": "trace.csv", "summary": "summary.json"},
    }
    cfg.update(extra)
    return cfg


class TestRunExperiment:
    def test_lasso_end_to_end(self, tmp_path):
        cfg = lasso_config(tmp_path)
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_OK
        assert summary["converged"] and summary["residual"] <= 1e-10
        assert summary["audits"]["covering"]
        assert summary["audits"]["concentrating"]
        assert (tmp_path / "trace.csv").exists()
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved["iterations"] == summary["iterations"]

    def test_summary_reports_the_run_stats(self, tmp_path):
        cfg = lasso_config(tmp_path, m=6, schedule={
            "type": "cyclic", "m": 6, "block_size": 2})
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_OK
        stats = summary["stats"]
        trace = read_trace_csv(tmp_path / "trace.csv")
        checks = sum(rec.residual is not None for rec in trace)
        assert stats == {
            "block_evals": 2 * summary["iterations"], "checks": checks,
            "checks_skipped": stats["checks_skipped"]}
        assert stats["checks_skipped"] > 0
        saved = json.loads((tmp_path / "summary.json").read_text())
        assert saved["stats"] == stats

    def test_covering_violation_exit(self, tmp_path):
        bad = {"type": "explicit", "m": 6, "K": 2,
               "blocks": [[1], [2], [3], [4], [5], [6]]}
        cfg = lasso_config(tmp_path, schedule=bad)
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_COVERING
        assert "covering" in summary["error"]

    def test_covering_is_null_for_a_run_shorter_than_K(self, tmp_path):
        # no K-window fits in 200 iterations, so the run has no covering
        # verdict to give, whatever blocks 200..499 would be
        cfg = lasso_config(tmp_path, schedule={
            "type": "quasicyclic", "m": 6, "K": 500, "seed": 1})
        code, summary = run_experiment(cfg, base_dir=tmp_path, max_iters=200)
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert summary["iterations"] < 500
        assert summary["audits"]["covering"] is None

    @pytest.mark.parametrize("iters, verdict", [(4, None), (5, True)])
    def test_fejer_is_null_for_a_run_shorter_than_K(self, tmp_path, iters,
                                                    verdict):
        # the inequality is checked from n = K-1 on, for an iterate with a
        # successor: a run of K-1 iterations has nothing to check, and an
        # empty audit is no verdict, not a failed one
        cfg = lasso_config(tmp_path, schedule={
            "type": "quasicyclic", "m": 6, "K": 5, "seed": 1},
            audits={"fejer": True, "reference_iters": 50_000})
        code, summary = run_experiment(cfg, base_dir=tmp_path,
                                       max_iters=iters)
        assert code == EXIT_NOT_CONVERGED
        assert summary["iterations"] == iters
        assert summary["reference_converged"] is True
        assert summary["audits"]["fejer"] is verdict
        assert summary["audits"]["covering"] is verdict

    def test_missing_csv_exit(self, tmp_path):
        cfg = lasso_config(tmp_path)
        cfg["problem"]["data_csv"] = "nope.csv"
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_CONFIG

    def test_unknown_variant_exit(self, tmp_path):
        cfg = lasso_config(tmp_path)
        cfg["problem"]["variant"] = "unknown"
        code, _ = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_CONFIG

    def test_reruns_byte_identical(self, tmp_path):
        sched = {"type": "quasicyclic", "m": 6, "K": 3, "seed": 11}
        cfg = lasso_config(tmp_path, schedule=sched)
        run_experiment(cfg, base_dir=tmp_path)
        first = (tmp_path / "trace.csv").read_bytes()
        run_experiment(cfg, base_dir=tmp_path)
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_summary_fejer_matches_offline_replay(self, tmp_path):
        sched = {"type": "quasicyclic", "m": 6, "K": 3, "seed": 2}
        cfg = lasso_config(tmp_path, schedule=sched,
                           audits={"fejer": True, "reference_iters": 50_000})
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_OK
        offline, = replay_audits_from_csv(tmp_path / "trace.csv",
                                          [1 / 6] * 6, K=3)
        assert summary["audits"]["fejer"] == offline.passed
        assert summary["reference_converged"] is True

    def test_summary_reports_the_reference_run_counts(self, tmp_path):
        # the Fejer audit's reference is a full-activation run at 1e-13:
        # its counts sit next to reference_converged, and only when it ran
        sched = {"type": "quasicyclic", "m": 6, "K": 3, "seed": 2}
        _, summary = run_experiment(lasso_config(tmp_path, schedule=sched),
                                    base_dir=tmp_path)
        assert not {"reference_iterations",
                    "reference_stats"} & summary.keys()
        cfg = lasso_config(tmp_path, schedule=sched,
                           audits={"fejer": True, "reference_iters": 50_000})
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_OK
        prob = build_problem_from_config(cfg["problem"], tmp_path)
        ref = run(prob.t0, prob.ts,
                  SolverConfig(weights=prob.weights, schedule=make_full(6),
                               max_iters=50_000, tol_residual=1e-13,
                               check_every=10),
                  np.zeros(prob.dim))
        assert summary["reference_iterations"] == ref.iterations
        assert summary["reference_stats"] == ref.stats
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written["reference_stats"] == ref.stats

        # operator evaluations: the block rows and T0 once an iteration,
        # m rows and T0 once a check
        def counted(iterations, stats):
            return (stats["block_evals"] + 6 * stats["checks"] + iterations
                    + stats["checks"])

        def traced(trace):
            return (sum(len(rec.block) + 1 for rec in trace[:-1])
                    + 7 * sum(rec.residual is not None for rec in trace))
        main = read_trace_csv(tmp_path / "trace.csv")
        assert (counted(summary["iterations"], summary["stats"])
                + counted(summary["reference_iterations"],
                          summary["reference_stats"])
                == traced(main) + traced(ref.trace))

    def test_unconverged_fejer_reference_fails_the_audit(self, tmp_path):
        sched = {"type": "quasicyclic", "m": 6, "K": 3, "seed": 2}
        cfg = lasso_config(tmp_path, schedule=sched,
                           audits={"fejer": True, "reference_iters": 5})
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_OK
        assert summary["reference_converged"] is False
        assert summary["audits"]["fejer"] is False
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written["reference_converged"] is False

    def test_cli_style_overrides(self, tmp_path):
        cfg = lasso_config(tmp_path)
        code, summary = run_experiment(cfg, base_dir=tmp_path, max_iters=3,
                                       tol=1e-30)
        assert code == 1 and not summary["converged"]
        assert summary["iterations"] == 3

    def test_error_injection_from_config(self, tmp_path):
        cfg = lasso_config(tmp_path, errors={"c": 1e-3, "p": 2.0, "seed": 5})
        cfg["solver"]["max_iters"] = 400
        cfg["solver"]["tol_residual"] = -1.0
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == 1  # stopping disabled, so the cap is reached
        assert summary["sum_lagged_errors"] > 0
        assert np.isfinite(summary["sum_lagged_errors"])

    def test_seed_override_changes_quasicyclic_trace(self, tmp_path):
        sched = {"type": "quasicyclic", "m": 6, "K": 3, "seed": 11}
        cfg = lasso_config(tmp_path, schedule=sched)
        run_experiment(cfg, base_dir=tmp_path, seed=11)
        first = (tmp_path / "trace.csv").read_bytes()
        run_experiment(cfg, base_dir=tmp_path, seed=12)
        second = (tmp_path / "trace.csv").read_bytes()
        assert first != second
        run_experiment(cfg, base_dir=tmp_path, seed=11)
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_alternating_projections_config(self, tmp_path):
        cfg = {
            "problem": {"variant": "alternating_projections",
                        "C": {"set": "hyperplane", "a": [0, 1], "b": 1},
                        "D": {"set": "ball", "center": [0, 0], "radius": 1}},
            "schedule": {"type": "cyclic", "m": 1, "block_size": 1},
            "solver": {"max_iters": 100, "tol_residual": 1e-11,
                       "x0": [0.0, 3.0]},
        }
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_OK
        assert np.allclose(summary["solution"], [0.0, 1.0], atol=1e-10)


class TestConfigBuilders:
    def test_inline_rows(self):
        prob = build_problem_from_config(
            {"variant": "least_squares",
             "rows": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
             "targets": [1.0, 2.0, 0.0]})
        assert prob.m == 3 and prob.dim == 2

    def test_common_fixed_point_sets(self):
        prob = build_problem_from_config(
            {"variant": "common_fixed_point",
             "sets": [{"set": "halfspace", "a": [1, 0], "b": 0},
                      {"set": "halfspace", "a": [0, 1], "b": 0}]})
        assert prob.m == 2

    def test_data_csv_loader_shape(self, tmp_path):
        np.savetxt(tmp_path / "d.csv", np.ones((3, 4)), delimiter=",")
        rows, targets = load_data_csv(tmp_path / "d.csv")
        assert rows.shape == (3, 3) and targets.shape == (3,)

    def test_missing_pieces(self):
        with pytest.raises(ConfigError):
            build_problem_from_config({"variant": "lasso", "l1_weight": 0.1})
        with pytest.raises(ConfigError):
            build_problem_from_config({})


class TestCLI:
    def test_solve_roundtrip(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path)
        cfg["problem"]["data_csv"] = str(tmp_path / "data.csv")
        cfg.pop("output")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["solve", "--config", str(cfg_path),
                         "--trace-out", str(tmp_path / "t.csv")])
        assert code == 0
        assert (tmp_path / "t.csv").exists()
        out = json.loads(capsys.readouterr().out)
        assert out["converged"]

    def test_solve_bad_config(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli.main(["solve", "--config", str(p)]) == EXIT_CONFIG

    def solve_error(self, tmp_path, capsys, cfg):
        cfg["problem"]["data_csv"] = str(tmp_path / "data.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        return self.cli_error(capsys, ["solve", "--config", str(cfg_path)])

    def cli_error(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        return code, captured.err

    def solve_set_error(self, tmp_path, capsys, variant, bad, message):
        """``solve`` on a problem with the set spec ``bad`` beside a ball
        exits 2 with ``message``."""
        ball = {"set": "ball", "center": [0, 0], "radius": 1}
        if variant == "alternating_projections":
            problem, m = {"variant": variant, "C": ball, "D": bad}, 1
        else:
            problem, m = {"variant": variant, "sets": [ball, bad]}, 2
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "problem": problem,
            "schedule": {"type": "cyclic", "m": m, "block_size": 1},
            "solver": {"x0": [3, 2]}}))
        code, err = self.cli_error(capsys, ["solve", "--config",
                                            str(cfg_path)])
        assert code == EXIT_CONFIG
        assert err == f"error: invalid {variant} problem config: {message}\n"

    @pytest.mark.parametrize("variant", ["alternating_projections",
                                         "common_fixed_point"])
    @pytest.mark.parametrize("bad, message", [
        ({"set": "halfspace", "a": [1, 1], "b": -np.inf},
         "halfspace offset b must not be NaN or -inf, got -inf"),
        ({"set": "halfspace", "a": [1, 1], "b": np.nan},
         "halfspace offset b must not be NaN or -inf, got nan"),
        ({"set": "ball", "center": [0, 0], "radius": np.nan},
         "ball radius must be positive, got nan"),
        ({"set": "box", "lower": [0, np.nan], "upper": [1, 1]},
         "box lower bound nan is NaN or leaves the box empty"),
    ], ids=["halfspace-b-neg-inf", "halfspace-b-nan", "ball-radius-nan",
            "box-lower-nan"])
    def test_solve_set_that_leaves_no_set(self, tmp_path, capsys, variant,
                                          bad, message):
        # alternating projections ran and diverged (exit 4), and a common
        # fixed point failed on a certificate sample that named no field
        self.solve_set_error(tmp_path, capsys, variant, bad, message)

    @pytest.mark.parametrize("variant", ["alternating_projections",
                                         "common_fixed_point"])
    @pytest.mark.parametrize("bad, message", [
        ({"set": "ball", "center": [np.nan, 0], "radius": 1},
         "ball center has non-finite coordinates"),
        ({"set": "halfspace", "a": [np.nan, 1], "b": 0.5},
         "halfspace normal a has non-finite coordinates"),
        ({"set": "hyperplane", "a": [1, np.inf], "b": 0.5},
         "hyperplane normal a has non-finite coordinates"),
        ({"set": "singleton", "point": [0, -np.inf]},
         "singleton point has non-finite coordinates"),
    ], ids=["ball-center-nan", "halfspace-a-nan", "hyperplane-a-inf",
            "singleton-point-neg-inf"])
    def test_solve_set_vector_that_is_not_finite(self, tmp_path, capsys,
                                                 variant, bad, message):
        # each was refused as "point has non-finite coordinates", naming
        # neither the set nor the parameter
        self.solve_set_error(tmp_path, capsys, variant, bad, message)

    def test_solve_x0_of_wrong_length(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path, n=4)
        cfg["solver"]["x0"] = [0.0, 0.0, 0.0]
        code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_CONFIG
        assert "x0" in err and "expected 4, got 3" in err

    @pytest.mark.parametrize("variant", ["lasso", "least_squares"])
    @pytest.mark.parametrize("row, col, bad", [(2, -1, "nan"), (4, 1, "inf")],
                             ids=["nan-target", "inf-feature"])
    def test_solve_non_finite_data(self, tmp_path, capsys, variant, row, col,
                                   bad):
        cfg = lasso_config(tmp_path)
        cfg["problem"]["variant"] = variant
        data = np.loadtxt(tmp_path / "data.csv", delimiter=",")
        data[row, col] = float(bad)
        np.savetxt(tmp_path / "data.csv", data, delimiter=",")
        code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_CONFIG
        assert f"row {row} has a non-finite" in err

    @pytest.mark.parametrize("errors, message", [
        ({"c": float("nan")}, "need finite c and p"),
        ({"c": float("inf")}, "need finite c and p"),
        ({"c": 0.01, "p": float("nan")}, "need finite c and p"),
        ({"c": 0.01, "p": float("inf")}, "need finite c and p"),
        ({"c": 0.01, "seed": 1.7}, "seed must be an integer"),
        ({"c": 0.01, "seed": 2**32}, "seed must lie in [0, 2**32)"),
        ({"c": 0.01, "seed": True}, "seed must be an integer, got True"),
    ], ids=["c-nan", "c-inf", "p-nan", "p-inf", "seed-fraction",
            "seed-too-large", "seed-bool"])
    def test_solve_bad_error_model(self, tmp_path, capsys, errors, message):
        cfg = lasso_config(tmp_path, errors=errors)
        code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_CONFIG
        assert err.startswith("error: errors: ") and message in err

    @pytest.mark.parametrize("c", [1e155, 1e200])
    def test_solve_overflowing_errors_diverge(self, tmp_path, capsys, c):
        # errors this large overflow the squared norms: one error line and
        # exit 4, not numpy warnings and Infinity in the summary
        cfg = lasso_config(tmp_path, errors={"c": c, "p": 1.5})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_DIVERGED
        assert err == "error: floating-point overflow encountered in matmul\n"
        assert not [w for w in caught if w.category is RuntimeWarning]

    @pytest.mark.parametrize("p", [2000, 1e308, 2**63, 2**70])
    def test_solve_steep_error_decay(self, tmp_path, capsys, p):
        # (n+1)**p overflows a float from n = 1 on: the error scale is taken
        # through logs instead, and the run ends as any other
        cfg = lasso_config(tmp_path, errors={"c": 0.01, "p": p})
        cfg["problem"]["data_csv"] = str(tmp_path / "data.csv")
        cfg.pop("output")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["solve", "--config", str(cfg_path),
                             "--max-iters", "200"])
        captured = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_NOT_CONVERGED)
        assert "error:" not in captured.err
        assert json.loads(captured.out)["audits"]["covering"]
        assert not [w for w in caught if w.category is RuntimeWarning]

    @pytest.mark.parametrize("kind", ["halfspace", "hyperplane"])
    @pytest.mark.parametrize("variant", ["common_fixed_point",
                                         "alternating_projections"])
    @pytest.mark.parametrize("a, aa", [
        ([1e200, 1e200], "inf"), ([1e308, 1e308], "inf"),
        ([1e-160, 0], "1e-320"), ([1e-200, 0], "0.0")])
    def test_solve_degenerate_normal_is_refused(self, tmp_path, capsys, kind,
                                                variant, a, aa):
        # an infinite <a, a> dropped the set from the run (exit 0), a
        # subnormal or overflowing one warned before it exited
        bad = {"set": kind, "a": a, "b": 0.5}
        ball = {"set": "ball", "center": [0, 0], "radius": 1}
        if variant == "common_fixed_point":
            problem, m = {"variant": variant, "sets": [ball, bad]}, 2
        else:
            problem, m = {"variant": variant, "C": ball, "D": bad}, 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "problem": problem,
            "schedule": {"type": "cyclic", "m": m, "block_size": 1},
            "solver": {"x0": [3, 2]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.cli_error(capsys, ["solve", "--config",
                                                str(cfg_path)])
        assert code == EXIT_CONFIG
        assert err == (f"error: invalid {variant} problem config: {kind} "
                       f"normal a must have <a, a> in "
                       f"[2.2250738585072014e-308, inf), got {aa}\n")

    @pytest.mark.parametrize("m", [2**63, 1e308])
    def test_solve_huge_cyclic_m_is_refused(self, tmp_path, capsys, m):
        # the spec's m is compared with the problem's before the schedule
        # is built: one error line, not an OverflowError from its period
        cfg = lasso_config(tmp_path, schedule={
            "type": "cyclic", "m": m, "block_size": 2})
        code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_CONFIG
        assert err == f"error: schedule has m={int(m)} but problem has m=6\n"

    @pytest.mark.parametrize("K", [2**63, 1e308])
    def test_solve_huge_K_reports_no_covering(self, tmp_path, K):
        # a run of 200 iterations passes through no K-window: it finishes at
        # once with a null verdict instead of walking K blocks after the solve
        cfg = lasso_config(tmp_path, schedule={
            "type": "quasicyclic", "m": 6, "K": K, "seed": 1})
        cfg["problem"]["data_csv"] = str(tmp_path / "data.csv")
        cfg["solver"]["tol_residual"] = -1
        cfg.pop("output")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        path = [str(Path(blocksplit.__file__).resolve().parents[1]),
                *filter(None, [os.environ.get("PYTHONPATH")])]
        proc = subprocess.run(
            [sys.executable, "-m", "blocksplit.cli", "solve", "--config",
             str(cfg_path), "--max-iters", "200"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
        assert proc.returncode == EXIT_NOT_CONVERGED, proc.stderr
        assert proc.stderr == ""
        summary = json.loads(proc.stdout)
        assert summary["iterations"] == 200
        assert summary["audits"]["covering"] is None

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: [cfg], "config must be a JSON object, got list"),
        (lambda cfg: "lasso", "config must be a JSON object, got str"),
        (lambda cfg: {**cfg, "audits": [True]},
         "audits section must be a JSON object, got list"),
        (lambda cfg: {**cfg, "errors": 0.01},
         "errors section must be a JSON object, got float"),
        (lambda cfg: {**cfg, "output": "trace.csv"},
         "output section must be a JSON object, got str"),
        (lambda cfg: {**cfg, "output": {"trace": 5}},
         "output.trace must be a path string, got 5"),
        (lambda cfg: {**cfg, "problem": {
            "variant": "alternating_projections", "C": 5,
            "D": {"set": "ball", "center": [0, 0], "radius": 1}}},
         "set spec must be a mapping, got int"),
        (lambda cfg: {**cfg, "audits": {"fejer": True,
                                        "reference_iters": "x"}},
         "audits.reference_iters must be an integer >= 0, got 'x'"),
        (lambda cfg: {**cfg, "audits": {"fejer": True,
                                        "reference_iters": -1}},
         "audits.reference_iters must be an integer >= 0, got -1"),
        (lambda cfg: {**cfg, "audits": {"fejer": True,
                                        "reference_iters": 20.5}},
         "audits.reference_iters must be an integer >= 0, got 20.5"),
        (lambda cfg: {**cfg, "problem": {
            "variant": "common_fixed_point",
            "sets": [{"set": "ball", "center": [0, 0, 0], "radius": 1},
                     {"set": "ball", "center": [0, 0], "radius": 1}]},
            "schedule": {"type": "cyclic", "m": 2, "block_size": 1}},
         "acts on dimension 2, not 3: one space required"),
        (lambda cfg: {**cfg, "problem": {
            "variant": "alternating_projections",
            "C": {"set": "full", "dim": 2.7},
            "D": {"set": "ball", "center": [0, 0], "radius": 1}},
            "schedule": {"type": "cyclic", "m": 1, "block_size": 1}},
         "full set dim must be an integer, got 2.7"),
        (lambda cfg: {**cfg, "problem": {
            "variant": "alternating_projections",
            "C": {"set": "full", "dim": True},
            "D": {"set": "ball", "center": [0], "radius": 1}},
            "schedule": {"type": "cyclic", "m": 1, "block_size": 1}},
         "full set dim must be an integer, got True"),
        (lambda cfg: {**cfg, "problem": {
            "variant": "alternating_projections",
            "C": {"set": "full", "dim": "2"},
            "D": {"set": "ball", "center": [0, 0], "radius": 1}},
            "schedule": {"type": "cyclic", "m": 1, "block_size": 1}},
         "full set dim must be an integer, got '2'"),
    ], ids=["top-level-array", "top-level-string", "audits-array",
            "errors-number", "output-string", "output-trace-number",
            "set-spec-number",
            "reference-iters-string", "reference-iters-negative",
            "reference-iters-fraction", "common-fixed-point-dimensions",
            "full-dim-fraction", "full-dim-bool", "full-dim-string"])
    def test_solve_malformed_config(self, tmp_path, capsys, edit, message):
        cfg = lasso_config(tmp_path)
        cfg["problem"]["data_csv"] = str(tmp_path / "data.csv")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(edit(cfg)))
        code, err = self.cli_error(capsys, ["solve", "--config", str(path)])
        assert code == EXIT_CONFIG
        assert message in err

    @pytest.mark.parametrize("section, patch, message", [
        ("solver", {"economical": "no"},
         "solver.economical must be true or false, got 'no'"),
        ("audits", {"fejer": "no"},
         "audits.fejer must be true or false, got 'no'"),
        ("schedule", {"m": 6.7}, "schedule.m must be an integer, got 6.7"),
        ("schedule", {"type": "quasicyclic", "K": 2.9, "seed": 1},
         "schedule.K must be an integer, got 2.9"),
        ("schedule", {"block_size": 3.5},
         "schedule.block_size must be an integer, got 3.5"),
        ("schedule", {"type": "quasicyclic", "K": 3, "seed": True},
         "schedule.seed must be an integer, got True"),
        ("solver", {"max_iters": 20.9},
         "solver.max_iters must be an integer, got 20.9"),
        ("solver", {"check_every": True},
         "solver.check_every must be an integer, got True"),
        ("solver", {"tol_residual": "1e-3"},
         "solver.tol_residual must be a number, got '1e-3'"),
        ("solver", {"epsilon": "1e-3"},
         "solver.epsilon must be a number, got '1e-3'"),
        ("schedule", {"type": "explicit", "K": 2,
                      "blocks": [[1, 2, 3.7], [4, 5, 6]]},
         "schedule.blocks entry must be an integer, got 3.7"),
        ("schedule", {"type": "explicit", "K": 2,
                      "blocks": [[1, 2, True], [4, 5, 6]]},
         "schedule.blocks entry must be an integer, got True"),
        ("errors", {"c": True}, "errors.c must be a number, got True"),
        ("errors", {"c": "0.1"}, "errors.c must be a number, got '0.1'"),
        ("errors", {"c": 0.01, "p": True},
         "errors.p must be a number, got True"),
        ("errors", {"c": 0.01, "p": None},
         "errors.p must be a number, got None"),
        ("problem", {"l1_weight": True},
         "problem.l1_weight must be a number, got True"),
        ("problem", {"l1_weight": "0.02"},
         "problem.l1_weight must be a number, got '0.02'"),
        ("problem", {"gamma": True}, "problem.gamma must be a number, got True"),
        ("problem", {"gamma": "0.5"},
         "problem.gamma must be a number, got '0.5'"),
        ("problem", {"l1_weight": float("nan")},
         "l1 weight must be positive and finite, got nan"),
        ("problem", {"l1_weight": float("inf")},
         "l1 weight must be positive and finite, got inf"),
        ("problem", {"weights": [float("nan")] + [0.2] * 5},
         "weights must be finite, got nan"),
        ("solver", {"tol_residual": float("nan")},
         "tol_residual must be a number, not NaN"),
    ], ids=["economical-string", "fejer-string", "m-fraction", "K-fraction",
            "block-size-fraction", "seed-bool", "max-iters-fraction",
            "check-every-bool", "tol-residual-string", "epsilon-string",
            "blocks-fraction", "blocks-bool", "errors-c-bool",
            "errors-c-string", "errors-p-bool", "errors-p-null",
            "l1-weight-bool", "l1-weight-string", "gamma-bool",
            "gamma-string", "l1-weight-nan", "l1-weight-inf", "weights-nan",
            "tol-residual-nan"])
    def test_solve_mistyped_scalar(self, tmp_path, capsys, section, patch,
                                   message):
        cfg = lasso_config(tmp_path)
        cfg[section] = {**cfg.get(section, {}), **patch}
        code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_CONFIG
        assert message in err

    def test_solve_integral_float_scalars(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path, schedule={
            "type": "quasicyclic", "m": 6.0, "K": 3.0, "seed": 2.0})
        cfg["problem"]["data_csv"] = str(tmp_path / "data.csv")
        cfg["solver"].update(max_iters=20000.0, check_every=5.0,
                             tol_residual=1e-10, epsilon=0.001,
                             economical=True)
        cfg.pop("output")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["solve", "--config", str(cfg_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["converged"]

    def test_solve_integral_float_reference_iters(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path, audits={"fejer": True,
                                             "reference_iters": 100000.0})
        cfg["problem"]["data_csv"] = str(tmp_path / "data.csv")
        cfg.pop("output")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["solve", "--config", str(cfg_path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["reference_converged"] and out["audits"]["fejer"]

    def test_solve_missing_l1_weight(self, tmp_path, capsys):
        cfg = lasso_config(tmp_path)
        del cfg["problem"]["l1_weight"]
        code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_CONFIG
        assert "lasso problem needs an l1_weight" in err

    @pytest.mark.parametrize("key", ["trace", "summary"])
    def test_solve_output_in_missing_directory(self, tmp_path, capsys, key):
        cfg = lasso_config(tmp_path)
        cfg["output"] = {key: str(tmp_path / "missing" / f"{key}.out")}
        code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_CONFIG
        assert "cannot write output" in err

    def test_schedule_check_ok(self, capsys):
        code = cli.main(["schedule-check", "--type", "quasicyclic", "--m", "5",
                         "--K", "3", "--seed", "7", "--horizon", "500"])
        assert code == 0
        assert "covering: ok" in capsys.readouterr().out

    def test_schedule_check_violation(self, tmp_path, capsys):
        cfg = {"schedule": {"type": "explicit", "m": 3, "K": 2,
                            "blocks": [[1], [2], [3]]}}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(cfg))
        code = cli.main(["schedule-check", "--config", str(p)])
        assert code == EXIT_COVERING
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("cfg, message", [
        ([{"type": "cyclic", "m": 4}], "config must be a JSON object, got list"),
        ({"schedule": ["cyclic", 4]},
         "schedule section must be a JSON object, got list"),
        ({"schedule": "cyclic"},
         "schedule section must be a JSON object, got str"),
        ({"schedule": {"type": "cyclic", "m": 30.7, "block_size": 5}},
         "schedule.m must be an integer, got 30.7"),
        ({"schedule": {"type": "explicit", "m": 3, "K": 2,
                       "blocks": [[1, 1.7], [2, 3]]}},
         "schedule.blocks entry must be an integer, got 1.7"),
        ({"schedule": {"type": "explicit", "m": 3, "K": 2,
                       "blocks": [[1, True], [2, 3]]}},
         "schedule.blocks entry must be an integer, got True"),
        ({"schedule": {"type": "explicit", "m": 3, "K": 2,
                       "blocks": [1, [2, 3]]}},
         "schedule.blocks must be a list of index lists, got [1, [2, 3]]"),
        ({"schedule": {"type": "explicit", "m": 3, "K": 2}},
         "error: schedule.blocks is missing\n"),
        ({"schedule": {"type": "quasicyclic", "m": 5, "K": 3, "seed": -1}},
         "error: schedule.seed must be >= 0, got -1\n"),
        ({"schedule": {"type": "cyclic", "block_size": 2}},
         "error: schedule.m is missing\n"),
    ], ids=["top-level-array", "schedule-array", "schedule-string",
            "m-fraction", "blocks-fraction", "blocks-bool", "blocks-number",
            "blocks-missing", "seed-negative", "m-missing"])
    def test_schedule_check_malformed_config(self, tmp_path, capsys, cfg,
                                             message):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        code, err = self.cli_error(capsys, ["schedule-check", "--config",
                                            str(path)])
        assert code == EXIT_CONFIG
        assert message in err

    CYCLIC_4_2 = ["--type", "cyclic", "--m", "4", "--block-size", "2"]

    @pytest.mark.parametrize("argv, message", [
        (CYCLIC_4_2 + ["--horizon", "1"], "horizon 1 must be at least K=2"),
        (CYCLIC_4_2 + ["--rows", "-1"], "--rows must be at least 1, got -1"),
        (["--type", "explicit", "--m", "3", "--K", "2"],
         "error: schedule.blocks is missing\n"),
        (["--type", "quasicyclic", "--m", "5", "--K", "3", "--seed", "-1"],
         "error: schedule.seed must be >= 0, got -1\n"),
        (["--type", "quasicyclic", "--m", "5"],
         "error: schedule.K is missing\n"),
        (["--m", "5"], "error: need --config or --type/--m\n"),
    ], ids=["horizon-below-K", "negative-rows", "explicit-without-blocks",
            "quasicyclic-negative-seed", "quasicyclic-without-K",
            "without-type"])
    def test_schedule_check_bad_inputs(self, capsys, argv, message):
        code, err = self.cli_error(capsys, ["schedule-check"] + argv)
        assert code == EXIT_CONFIG
        assert message in err

    @pytest.mark.parametrize("m", [10**11, MAX_M + 1])
    @pytest.mark.parametrize("kind", ["quasicyclic", "cyclic", "explicit"])
    def test_schedule_check_refuses_huge_m_before_allocating(
            self, tmp_path, capsys, monkeypatch, m, kind):
        # m = 10**11 asked numpy for 745 GiB of last activations; any array
        # of more than MAX_M entries now fails the test instead of being made
        full = np.full

        def small_full(shape, *args, **kwargs):
            assert np.prod(shape) <= MAX_M, f"np.full of {shape} entries"
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", small_full)
        # every form at K = 2, so the horizon of 10 is long enough
        spec = {"type": kind, "m": m, "K": 2, "seed": 1,
                "block_size": -(-m // 2), "blocks": [[1], [m]]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"schedule": spec}))
        argv = ["--config", str(path)]
        code, err = self.cli_error(
            capsys, ["schedule-check", *argv, "--horizon", "10"])
        assert code == EXIT_CONFIG
        assert err == (f"error: schedule.m must be at most {MAX_M}, got {m}: "
                       f"a schedule keeps 8-byte arrays of m entries\n")

    def test_schedule_check_out_of_memory_is_a_config_error(self, capsys,
                                                           monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "schedule_from_spec", exhausted)
        code, err = self.cli_error(capsys, ["schedule-check", "--type",
                                            "quasicyclic", "--m", "5000000",
                                            "--K", "2"])
        assert code == EXIT_CONFIG
        assert err == ("error: out of memory building or walking the "
                       "schedule\n")

    LINEAR_RATE = ["--rho0", "0.5", "--rhos", "1,1"]

    def write_halving_trace(self, path, edits=()):
        """A two-operator trace whose distances halve, which passes both
        audits at K=1 with rho = 0.5; each edit sets one (n, column, value)."""
        rows = [["0", "1.0", "1.0", "", "", "1|2", "1.0"],
                ["1", "0.5", "0.5", "", "", "1|2", "0.5"],
                ["2", "0.25", "", "", "", "", "0.25"]]
        for n, column, value in edits:
            rows[n][column] = value
        path.write_text("\n".join(["n,residual,step,err0,errsum,block,dist_ref"]
                                  + [",".join(row) for row in rows]) + "\n")

    @pytest.mark.parametrize("trace, weights, edits, argv, message", [
        ("trace.csv", "a,b", [], [], "could not convert string to float: 'a'"),
        ("missing.csv", "0.5,0.5", [], [], "cannot read trace"),
        ("empty.csv", "0.5,0.5", [], [],
         "need at least K+1 = 2 recorded iterates, got 0"),
        ("halving.csv", "0.5,0.5", [(1, 1, "abc")], [],
         "halving.csv: line 3: malformed trace line '1,abc,0.5,,,1|2,0.5' "
         "(could not convert string to float: 'abc')"),
        ("halving.csv", "0.5,0.5", [(0, 5, "1||2")], [],
         "halving.csv: line 2: malformed trace line '0,1.0,1.0,,,1||2,1.0' "
         "(invalid literal for int() with base 10: '')"),
        ("halving.csv", "0.5,0.5", [(1, 0, "17")], [],
         "halving.csv: line 3: malformed trace line '17,0.5,0.5,,,1|2,0.5' "
         "(n must count the records from 0: expected 1, got 17)"),
        ("halving.csv", "0.5,0.5", [(0, 5, "")], [],
         "no block at n=0: only the last record may have none"),
        ("halving.csv", "0.5,0.5", [(1, 6, "nan")], [],
         "distance at n=1 is not finite: nan"),
        ("halving.csv", "0.5,0.5", [(0, 6, "inf")], [],
         "distance at n=0 is not finite: inf"),
        ("halving.csv", "0.5,0.5", [(0, 3, "0.001"), (1, 3, "0.001")],
         LINEAR_RATE, "linear rate audit requires an error-free run"),
        ("halving.csv", "0.5,0.5", [], ["--rho0", "0.5"],
         "rho0 and rhos go together"),
        ("halving.csv", "0.5,0.5", [], ["--rhos", "1,1"],
         "rho0 and rhos go together"),
        ("halving.csv", "0.5,0.5", [], ["--rho0", "0.5", "--rhos", "1"],
         "rhos has 1 entries but weights has 2"),
        ("halving.csv", "0.5,0.5", [(2, 5, "0")], [],
         "block [0] at n=2 names an index outside 1..2"),
        ("halving.csv", "0.5,0.5", [(0, 5, "1|3")], [],
         "block [1, 3] at n=0 names an index outside 1..2"),
        ("halving.csv", "0.5,0.5", [(1, 6, "")], [],
         "trace has no dist_ref column; rerun with a reference"),
        ("halving.csv", "0.5,0.5", [], ["--K", "3"],
         "need at least K+1 = 4 recorded iterates, got 3"),
    ], ids=["bad-weights", "missing-trace", "empty-trace", "bad-float",
            "empty-block-entry", "n-not-its-position",
            "empty-block-before-the-last", "nan-distance", "inf-distance-at-0",
            "noisy-linear-rate", "rho0-alone", "rhos-alone", "rhos-count",
            "terminal-block-zero", "block-beyond-weights", "empty-dist-ref",
            "at-most-K-records"])
    def test_audit_bad_inputs(self, tmp_path, capsys, trace, weights, edits,
                              argv, message):
        (tmp_path / "trace.csv").write_text("n\n")
        (tmp_path / "empty.csv").write_text(
            "n,residual,step,err0,errsum,block,dist_ref\n")
        self.write_halving_trace(tmp_path / "halving.csv", edits)
        code, err = self.cli_error(capsys, [
            "audit", "--trace", str(tmp_path / trace), "--weights", weights,
            "--K", "1"] + argv)
        assert code == EXIT_CONFIG
        assert message in err

    def test_audit_halving_trace_passes_both_audits(self, tmp_path, capsys):
        path = tmp_path / "halving.csv"
        self.write_halving_trace(path)
        assert cli.main(["audit", "--trace", str(path), "--weights", "0.5,0.5",
                         "--K", "1"] + self.LINEAR_RATE) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in out] == [
            "fejer: pass", "linear-rate: pass"]
        assert len(replay_audits_from_csv(path, [0.5, 0.5], 1)) == 1

    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_audit_nonpositive_K(self, tmp_path, capsys, K):
        path = tmp_path / "trace.csv"
        path.write_text("n,residual,step,err0,errsum,block,dist_ref\n"
                        "0,1.0,1.0,,,1|2,1.0\n"
                        "1,0.5,,,,,0.5\n")
        code, err = self.cli_error(capsys, [
            "audit", "--trace", str(path), "--weights", "0.5,0.5", "--K", K])
        assert code == EXIT_CONFIG
        assert f"K must be >= 1, got {K}" in err

    def test_audit_pass_and_fail(self, tmp_path, capsys):
        from blocksplit.solver import SolverConfig, run
        A, eta, _ = synthetic_regression(4, 6, seed=3)
        prob = lasso_problem(A, eta, reg=0.02)
        long_cfg = SolverConfig(weights=prob.weights, schedule=make_full(6),
                                max_iters=50_000, tol_residual=1e-13)
        x_ref = run(prob.t0, prob.ts, long_cfg, np.zeros(4)).x
        cfg = SolverConfig(weights=prob.weights, schedule=make_full(6),
                           max_iters=60, tol_residual=-1.0)
        res = run(prob.t0, prob.ts, cfg, np.zeros(4), x_ref=x_ref)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, res.trace)
        weights = ",".join(["0.16666666666666666"] * 6)
        assert cli.main(["audit", "--trace", str(path), "--weights", weights,
                         "--K", "1"]) == 0
        # corrupt one distance entry and expect a failure
        lines = path.read_text().splitlines()
        parts = lines[20].split(",")
        parts[-1] = repr(float(parts[-1]) * 10.0)
        lines[20] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        assert cli.main(["audit", "--trace", str(path), "--weights", weights,
                         "--K", "1"]) == 1

    def axis_contraction_trace(self, path, x_ref=(0.0, 0.0)):
        # T0 = x/2 after two axis projections (Lipschitz 1 each), weights
        # 1/2: rho = 0.5 * (0.5 * 1 + 0.5 * 1) = 0.5
        ts = [projector_op(Hyperplane([0.0, 1.0], 0.0)),
              projector_op(Hyperplane([1.0, 0.0], 0.0))]
        cfg = SolverConfig(weights=[0.5, 0.5], schedule=make_cyclic(2, 1),
                           max_iters=30, tol_residual=-1.0, check_every=1)
        res = run(scaling_op(2, 0.5), ts, cfg, [1.0, 1.0], x_ref=x_ref)
        write_trace_csv(path, res.trace)

    def audit_linear_rate(self, path, capsys):
        code = cli.main(["audit", "--trace", str(path), "--weights",
                         "0.5,0.5", "--K", "2", "--rho0", "0.5", "--rhos",
                         "1,1"])
        return code, capsys.readouterr().out

    def test_audit_linear_rate_pass_and_fail(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        self.axis_contraction_trace(path)
        code, out = self.audit_linear_rate(path, capsys)
        assert code == 0
        assert "linear-rate: pass" in out
        assert replay_audits_from_csv(path, [0.5, 0.5], 2, rho0=0.5,
                                      rhos=[1.0, 1.0])[1].first_violation_n is None
        # d_3 is an eighth of its envelope, d_0 and d_1 set the envelope
        lines = path.read_text().splitlines()
        parts = lines[4].split(",")
        parts[-1] = repr(float(parts[-1]) * 10.0)
        lines[4] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        code, out = self.audit_linear_rate(path, capsys)
        assert code == 1
        assert "linear-rate: FAIL" in out
        _, report = replay_audits_from_csv(path, [0.5, 0.5], 2, rho0=0.5,
                                           rhos=[1.0, 1.0])
        assert not report.passed and report.first_violation_n == 3

    def test_linear_rate_replay_needs_dist_ref(self, tmp_path):
        path = tmp_path / "trace.csv"
        self.axis_contraction_trace(path, x_ref=None)
        # the audit refuses it, as it refuses the in-memory trace of such a run
        with pytest.raises(ValueError, match="no dist_ref column"):
            replay_audits_from_csv(path, [0.5, 0.5], 2, rho0=0.5,
                                   rhos=[1.0, 1.0])
