"""Time-to-tolerance benchmark for blocksplit.

    python3 bench/run.py --workload lasso_wide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; blocksplit is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer breakdown. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the environment, the trace CSV hash and raw samples. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None):
    args = _parse(argv)
    threads = os.environ.get("BLOCKSPLIT_THREADS")
    if threads is not None and threads != "1":
        print(f"error: BLOCKSPLIT_THREADS={threads!r} would change what is "
              "measured; unset it or set it to 1", file=sys.stderr)
        return 2
    # must precede the first numpy import
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # blocksplit comes from this checkout's sources, never from elsewhere
    src = BENCH_DIR.parent / "src"
    if not (src / "blocksplit" / "__init__.py").is_file():
        print(f"error: no blocksplit sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import blocksplit
    if Path(blocksplit.__file__).resolve().parent != src / "blocksplit":
        print(f"error: blocksplit imported from {blocksplit.__file__}",
              file=sys.stderr)
        return 2
    import bench_measure
    import bench_workloads
    if args.workload not in bench_workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = BENCH_DIR / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = bench_workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, ledger, details = bench_measure.traced_run(workload)
            units = bench_measure.PER_LAYER_UNITS
        else:
            metrics, ledger, details = bench_measure.timing_run(
                workload, args.seconds)
            units = bench_measure.END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": bench_measure.environment(),
        "trace_csv_sha256": sorted(ledger.shas),
        "oracle_distance": ledger.oracle_distance,
        "failures": ledger.failures,
        "details": details,
    }
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
