import json

import numpy as np
import pytest

from blocksplit import cli
from blocksplit.harness import (ConfigError, EXIT_COVERING, EXIT_CONFIG,
                                EXIT_OK, build_problem_from_config,
                                direct_mann_iteration, l1_optimality_residual,
                                load_data_csv, oracle_least_squares,
                                oracle_prox_grad_reference, read_trace_csv,
                                replay_fejer_from_csv, run_experiment,
                                synthetic_regression, write_trace_csv)
from blocksplit.problems import build_prox_grad, lasso_problem, logistic_problem
from blocksplit.schedules import make_full
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


def test_direct_mann_loop_is_plain():
    from blocksplit.operators import identity_op, scaling_op
    out = direct_mann_iteration(scaling_op(1, 0.5), [identity_op(1)], [1.0],
                                [8.0], 3)
    assert [v[0] for v in out] == [8.0, 4.0, 2.0, 1.0]


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
        data = read_trace_csv(path)
        assert data["n"] == [rec.n for rec in res.trace]
        for rec, blk in zip(res.trace, data["block"]):
            assert blk == rec.block
        for rec, err in zip(res.trace, data["err0"]):
            assert err == rec.err0
        for rec, d in zip(res.trace, data["dist_ref"]):
            assert d == rec.dist_ref

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
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
        offline = replay_fejer_from_csv(path, prob.weights, K=1)
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

    def test_covering_violation_exit(self, tmp_path):
        bad = {"type": "explicit", "m": 6, "K": 2,
               "blocks": [[1], [2], [3], [4], [5], [6]]}
        cfg = lasso_config(tmp_path, schedule=bad)
        code, summary = run_experiment(cfg, base_dir=tmp_path)
        assert code == EXIT_COVERING
        assert "covering" in summary["error"]

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
        offline = replay_fejer_from_csv(tmp_path / "trace.csv",
                                        [1 / 6] * 6, K=3)
        assert summary["audits"]["fejer"] == offline.passed
        assert summary["reference_converged"] is True

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
    ], ids=["c-nan", "c-inf", "p-nan", "p-inf", "seed-fraction",
            "seed-too-large"])
    def test_solve_bad_error_model(self, tmp_path, capsys, errors, message):
        cfg = lasso_config(tmp_path, errors=errors)
        code, err = self.solve_error(tmp_path, capsys, cfg)
        assert code == EXIT_CONFIG
        assert err.startswith("error: errors: ") and message in err

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

    @pytest.mark.parametrize("argv, message", [
        (["--horizon", "1"], "horizon 1 must be at least K=2"),
        (["--rows", "-1"], "--rows must be at least 1, got -1"),
    ], ids=["horizon-below-K", "negative-rows"])
    def test_schedule_check_bad_inputs(self, capsys, argv, message):
        code, err = self.cli_error(capsys, [
            "schedule-check", "--type", "cyclic", "--m", "4",
            "--block-size", "2"] + argv)
        assert code == EXIT_CONFIG
        assert message in err

    @pytest.mark.parametrize("trace, weights, message", [
        ("trace.csv", "a,b", "could not convert string to float: 'a'"),
        ("missing.csv", "0.5,0.5", "cannot read trace"),
        ("empty.csv", "0.5,0.5", "need at least one recorded iterate"),
    ], ids=["bad-weights", "missing-trace", "empty-trace"])
    def test_audit_bad_inputs(self, tmp_path, capsys, trace, weights, message):
        (tmp_path / "trace.csv").write_text("n\n")
        (tmp_path / "empty.csv").write_text(
            "n,residual,step,err0,errsum,block,dist_ref\n")
        code, err = self.cli_error(capsys, [
            "audit", "--trace", str(tmp_path / trace), "--weights", weights,
            "--K", "1"])
        assert code == EXIT_CONFIG
        assert message in err

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
