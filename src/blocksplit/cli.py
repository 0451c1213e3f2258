"""Command line front end: solve experiments from JSON configs, check
schedules, and replay audits against persisted traces."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (ConfigError, EXIT_CONFIG, EXIT_COVERING, config_section,
                      load_config, replay_audits_from_csv, run_experiment)
from .schedules import check_concentrating, mu_row, schedule_from_spec, validate_covering


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="blocksplit",
        description="Block-update solver for composite fixed point problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an experiment from a JSON config")
    solve.add_argument("--config", required=True)
    solve.add_argument("--trace-out", default=None)
    solve.add_argument("--max-iters", type=int, default=None)
    solve.add_argument("--tol", type=float, default=None)
    solve.add_argument("--seed", type=int, default=None)

    check = sub.add_parser("schedule-check",
                           help="validate covering and the induced array rows")
    check.add_argument("--config", default=None,
                       help="JSON config whose schedule section is checked")
    check.add_argument("--type", dest="stype", default=None,
                       choices=["cyclic", "quasicyclic", "explicit"])
    check.add_argument("--m", type=int, default=None)
    check.add_argument("--K", type=int, default=None)
    check.add_argument("--block-size", type=int, default=None)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--horizon", type=int, default=1000)
    check.add_argument("--rows", type=int, default=100,
                       help="number of array rows to verify")

    audit = sub.add_parser("audit", help="replay audits from a trace CSV")
    audit.add_argument("--trace", required=True)
    audit.add_argument("--weights", required=True,
                       help="comma separated operator weights")
    audit.add_argument("--K", type=int, required=True)
    audit.add_argument("--rho0", type=float, default=None)
    audit.add_argument("--rhos", default=None,
                       help="comma separated Lipschitz constants")
    return parser


def _cmd_solve(args):
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    code, summary = run_experiment(cfg, trace_out=args.trace_out,
                                   max_iters=args.max_iters, tol=args.tol,
                                   seed=args.seed)
    if "error" in summary:
        print(f"error: {summary['error']}", file=sys.stderr)
    else:
        summary.pop("solution", None)
        print(json.dumps(summary, indent=2, sort_keys=True))
    return code


def _cmd_schedule_check(args):
    try:
        if args.config:
            spec = config_section(load_config(args.config), "schedule",
                                  required=True)
        else:
            if args.stype is None or args.m is None:
                raise ConfigError("need --config or --type/--m")
            spec = {"type": args.stype, "m": args.m}
            if args.K is not None:
                spec["K"] = args.K
            if args.block_size is not None:
                spec["block_size"] = args.block_size
            spec["seed"] = args.seed
        schedule = schedule_from_spec(spec)
        if args.rows < 1:
            raise ConfigError(f"--rows must be at least 1, got {args.rows}")
        violation = validate_covering(schedule, args.horizon)
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        # schedules.MAX_M refuses the largest m up front; this is the
        # machine running out below it
        print("error: out of memory building or walking the schedule",
              file=sys.stderr)
        return EXIT_CONFIG

    if violation is not None:
        n, missing = violation
        print(f"covering: FAIL at window n={n}, missing indices {missing}")
        return EXIT_COVERING
    print(f"covering: ok over horizon {args.horizon} (m={schedule.m}, "
          f"K={schedule.K})")

    weights = [1.0 / schedule.m] * schedule.m
    rows = [mu_row(schedule, weights, n) for n in range(args.rows)]
    report = check_concentrating(rows, schedule.K)
    status = "ok" if report.passed else "FAIL"
    print(f"array rows ({args.rows}): {status}, row sums "
          f"{'ok' if report.sum_ok else 'FAIL'}, band "
          f"{'ok' if report.band_ok else 'FAIL'}, diagonal infimum "
          f"{report.diagonal_infimum:.6g}")
    return 0 if report.passed else 1


def _cmd_audit(args):
    try:
        weights, rhos = (None if v is None else [float(x) for x in v.split(",")]
                         for v in (args.weights, args.rhos))
        reports = replay_audits_from_csv(args.trace, weights, args.K,
                                         rho0=args.rho0, rhos=rhos)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for rep in reports:
        print(f"{rep.label}: {'pass' if rep else 'FAIL'} (max violation "
              f"{rep.max_violation:.3e}, slack {rep.slack:.3e}, "
              f"{rep.n_checked} iterations)")
    return 0 if all(reports) else 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    return {"solve": _cmd_solve, "schedule-check": _cmd_schedule_check,
            "audit": _cmd_audit}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
