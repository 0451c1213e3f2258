"""The two kinds of benchmark run.

``timing_run`` gives the end-to-end metrics with tracing off; ``traced_run``
gives the per-layer breakdown. Both gate every workload call they make.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from bench_trace import SOLVE_SPANS, Probe, SetupDone
from bench_workloads import solve_counts

MIN_REPS = 3
MIN_SETUP_SAMPLES = 10
SETUP_SECONDS = 1.0
CHECK_PAIRS = 2

END_TO_END_UNITS = {
    "total_s": "s", "setup_s": "s", "solve_s": "s", "iterations": "count",
    "op_evals": "count", "peak_mem_mb": "MB", "ops_ok": "share",
}

PER_LAYER_UNITS = {
    "operators.apply_calls": "count",
    "operators.apply_self_s": "s",
    "operators.kahan_s": "s",
    "calculus.inner_body_s": "s",
    "calculus.inner_body_calls": "count",
    "calculus.outer_body_s": "s",
    "calculus.outer_body_calls": "count",
    "schedules.block_calls": "count",
    "schedules.block_s": "s",
    "schedules.block_calls_per_iter": "ratio",
    "schedules.covering_walk_s": "s",
    "solver.solve_s": "s",
    "solver.block_evals": "count",
    "solver.check_evals": "count",
    "solver.checks": "count",
    "solver.check_s": "s",
    "solver.check_share": "ratio",
    "solver.error_model_s": "s",
    "solver.error_model_calls": "count",
    "solver.self_s": "s",
    "solver.fejer_audit_s": "s",
    "solver.trace_records": "count",
    "solver.trace_mb": "MB-computed",
    "problems.build_s": "s",
    "harness.config_s": "s",
    "harness.reference_s": "s",
    "harness.trace_write_s": "s",
    "harness.trace_bytes": "bytes",
    "trace_overhead": "ratio",
}


class Ledger:
    """Gate verdicts of every workload call a run makes."""

    def __init__(self):
        self.attempted = 0
        self.failures = []          # (call label, message)
        self.shas = set()
        self.oracle_distance = 0.0  # the largest seen

    def record(self, label, failures, trace_sha256=None):
        self.attempted += 1
        self.failures.extend((label, msg) for msg in failures)
        if trace_sha256 is not None:
            self.shas.add(trace_sha256)

    def gate(self, label, workload, output, probe, extra_failures=()):
        outcome = workload.gate(output, probe)
        self.oracle_distance = max(self.oracle_distance,
                                   outcome.oracle_distance)
        self.record(label, outcome.failures + list(extra_failures),
                    outcome.trace_sha256)

    @property
    def failed(self):
        return len({label for label, _ in self.failures})

    @property
    def correct(self):
        return not self.failures and len(self.shas) == 1


def memory_mb():
    """(current RSS, peak RSS) of this process in MB."""
    fields = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(value.split()[0]) / 1024.0
    return fields["VmRSS"], fields["VmHWM"]


def execute(workload, probe):
    """One workload call under ``probe``; returns (output, start, seconds)."""
    gc.collect()
    start = perf_counter()
    with probe:
        output = workload.call()
    return output, start, perf_counter() - start


def call_counts(probe):
    """Evaluation counts summed over every solver call of one workload call."""
    total = {}
    for call in probe.solves:
        counts = solve_counts(call.result, call.args[2].schedule.m)
        for key, value in counts.items():
            total[key] = total.get(key, 0) + value
    total["main_iterations"] = probe.solves[-1].result.iterations
    return total


def setup_seconds(workload):
    """Seconds from the workload call to its first solver entry."""
    probe = Probe(setup_only=True)
    start = perf_counter()
    try:
        with probe:
            workload.call()
    except SetupDone:
        return probe.first_solve_at - start
    raise RuntimeError(f"{workload.name} finished without calling the solver")


def timing_run(workload, seconds):
    """End-to-end metrics, tracing off.

    Whole calls are repeated for ``seconds``, at least MIN_REPS times; times
    are medians over the calls. The first call's peak RSS growth over the RSS
    before it gives ``peak_mem_mb``. After that call, set-up alone is timed
    repeatedly, and ``setup_s`` is the median over those samples and the
    calls' own set-up.
    """
    ledger = Ledger()
    totals, solves, setups = [], [], []
    counts = peak_mem = None
    rss_before, hwm_before = memory_mb()
    start = perf_counter()
    while len(totals) < MIN_REPS or perf_counter() - start < seconds:
        probe = Probe()
        output, call_start, total = execute(workload, probe)
        if peak_mem is None:
            peak_mem = memory_mb()[1] - rss_before
            counts = call_counts(probe)
        ledger.gate(f"call {len(totals)}", workload, output, probe,
                    [] if call_counts(probe) == counts else
                    ["evaluation counts differ from the first call"])
        totals.append(total)
        setups.append(probe.first_solve_at - call_start)
        solves.append(sum(call.seconds for call in probe.solves))
        del output, probe
        if len(totals) == 1:
            setup_start = perf_counter()
            while (len(setups) < MIN_SETUP_SAMPLES
                   or perf_counter() - setup_start < SETUP_SECONDS):
                setups.append(setup_seconds(workload))
            start += perf_counter() - setup_start

    metrics = {
        "total_s": statistics.median(totals),
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(solves),
        "iterations": counts["main_iterations"],
        "op_evals": counts["op_evals"],
        "peak_mem_mb": peak_mem,
        "ops_ok": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    details = {
        "calls": len(totals), "totals_s": totals, "solves_s": solves,
        "setup_samples": len(setups), "counts": counts,
        "rss_before_mb": rss_before, "hwm_before_mb": hwm_before,
    }
    return metrics, ledger, details


def check_differential(call, pairs=CHECK_PAIRS):
    """Time the recorded main solve with its checks on and with
    ``check_every`` pushed past the same iteration cap, alternating.

    The off arm still checks at n=0 and at the cap. Returns (on seconds,
    off seconds, problems); both arms must end on a bit-identical iterate.
    """
    t0, ts, cfg, x0, x_ref = call.args
    iters = call.result.iterations
    arms = {"on": replace(cfg, max_iters=iters),
            "off": replace(cfg, max_iters=iters, check_every=iters + 1)}
    times = {"on": [], "off": []}
    problems = []
    for _ in range(pairs):
        for arm, cfg_arm in arms.items():
            gc.collect()
            start = perf_counter()
            result = call.fn(t0, ts, cfg_arm, x0, x_ref=x_ref)
            times[arm].append(perf_counter() - start)
            if result.iterations != iters:
                problems.append(f"check-{arm} arm ran {result.iterations} "
                                f"iterations, not {iters}")
            if not np.array_equal(result.x, call.result.x):
                problems.append(f"check-{arm} arm ended on a different iterate")
    return (statistics.median(times["on"]), statistics.median(times["off"]),
            problems)


def traced_run(workload):
    """Per-layer metrics from one traced call, next to one untraced call."""
    ledger = Ledger()
    output, _, plain_total = execute(workload, plain := Probe())
    ledger.gate("untraced", workload, output, plain)
    output, _, traced_total = execute(workload, traced := Probe(traced=True))
    ledger.gate("traced", workload, output, traced)
    del output

    on_s, off_s, problems = check_differential(plain.solves[-1])
    ledger.record("check arms", problems)

    counts = call_counts(traced)
    iterations = sum(call.result.iterations for call in traced.solves)
    solve_s = sum(call.seconds for call in traced.solves)
    block_calls = traced.count("schedules.block", SOLVE_SPANS)
    check_s = on_s - off_s
    trace_records = sum(len(call.result.trace) for call in traced.solves)
    trace_bytes_computed = sum(
        rec.x.nbytes + (rec.t_buffer.nbytes if rec.t_buffer is not None else 0)
        for call in traced.solves for rec in call.result.trace)
    trace_path = workload.workdir / "trace.csv"
    wrote_trace = traced.count("harness.write_trace_csv") > 0
    metrics = {
        "operators.apply_calls": traced.count("operators.apply"),
        "operators.apply_self_s": traced.self_time("operators.apply"),
        "operators.kahan_s": traced.total("operators.kahan_weighted_sum"),
        "calculus.inner_body_s": traced.total("calculus.inner_body"),
        "calculus.inner_body_calls": traced.count("calculus.inner_body"),
        "calculus.outer_body_s": traced.total("calculus.outer_body"),
        "calculus.outer_body_calls": traced.count("calculus.outer_body"),
        "schedules.block_calls": block_calls,
        "schedules.block_s": traced.total("schedules.block", SOLVE_SPANS),
        "schedules.block_calls_per_iter": block_calls / iterations,
        "schedules.covering_walk_s": sum(
            traced.total(name) for name in (
                "schedules.validate_covering", "schedules.mu_row",
                "schedules.check_concentrating")),
        "solver.solve_s": solve_s,
        "solver.block_evals": counts["block_evals"],
        "solver.check_evals": counts["check_evals"],
        "solver.checks": counts["checks"],
        "solver.check_s": check_s,
        "solver.check_share": check_s / on_s,
        "solver.error_model_s": traced.total("solver.error_model"),
        "solver.error_model_calls": traced.count("solver.error_model"),
        "solver.self_s": sum(traced.self_time(name) for name in SOLVE_SPANS),
        "solver.fejer_audit_s": traced.total("solver.fejer_audit"),
        "solver.trace_records": trace_records,
        "solver.trace_mb": trace_bytes_computed / 1e6,
        "problems.build_s": (traced.total("problems.lasso_problem")
                             + traced.total("problems.least_squares_feasibility")),
        "harness.config_s": (traced.total("harness.load_config")
                             + traced.total("harness.build_problem_from_config")),
        "harness.reference_s": sum(call.seconds for call in traced.solves[:-1]),
        "harness.trace_write_s": traced.total("harness.write_trace_csv"),
        "harness.trace_bytes": trace_path.stat().st_size if wrote_trace else 0,
        "trace_overhead": traced_total / plain_total,
    }
    details = {
        "counts": counts,
        "untraced_total_s": plain_total, "traced_total_s": traced_total,
        "check_on_s": on_s, "check_off_s": off_s,
        "spans": {f"{name} <- {parent}": rec
                  for (name, parent), rec in sorted(
                      traced.stats.items(), key=lambda kv: str(kv[0]))},
    }
    return metrics, ledger, details


def environment():
    """What the numbers depend on besides the code."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blocksplit_threads": os.environ.get("BLOCKSPLIT_THREADS"),
    }
