"""Tests of the benchmark itself: patches are undone, traced counts agree
with the counts derived from solver traces, the correctness gate holds on a
seed the benchmark runs do not use, and the entry point refuses to measure
what it cannot measure faithfully."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from blocksplit import cli, harness, problems, solver
from blocksplit.schedules import BlockSchedule
from blocksplit.solver import SeededDecayErrors

from bench_measure import PER_LAYER_UNITS, traced_run
from bench_trace import Probe
from bench_workloads import (README_CONFIG, WORKLOADS, LassoWide, LsqTall,
                             ReadmeCli)

BENCH_DIR = Path(__file__).resolve().parent
OWNERS = (cli, harness, problems, solver, BlockSchedule, SeededDecayErrors)


def _attributes():
    return {(owner.__name__, key): value
            for owner in OWNERS for key, value in vars(owner).items()}


def _small(name, seed, workdir):
    """Scaled-down instances of each workload, for fast structural tests."""
    if name == "lasso_wide":
        return LassoWide(seed, workdir, m=60, block_size=6)
    if name == "lsq_tall":
        return LsqTall(seed, workdir, m=200, block_size=50, check_every=20)
    config = json.loads(json.dumps(README_CONFIG))
    config["solver"]["tol_residual"] = 1e-6
    workload = ReadmeCli(seed, workdir, config=config)
    workload.oracle_bound = 1e-3      # scaled with the looser tolerance
    return workload


def test_probe_restores_every_patched_attribute(tmp_path):
    before = _attributes()
    workload = _small("readme_cli", 5, tmp_path)
    with Probe(traced=True) as probe:
        patched = [(owner, attr) for owner, attr, _ in probe._patched]
        assert len(patched) > 10
        for owner, attr in patched:
            assert vars(owner)[attr] is not before[(owner.__name__, attr)]
        workload.call()
    assert _attributes() == before


def test_probe_restores_attributes_when_the_call_raises():
    before = _attributes()
    with pytest.raises(ZeroDivisionError):
        with Probe(traced=True):
            1 / 0
    assert _attributes() == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_match_trace_derived_counts(name, tmp_path):
    before = _attributes()
    metrics, ledger, details = traced_run(_small(name, 5, tmp_path))
    assert _attributes() == before
    assert set(metrics) == set(PER_LAYER_UNITS)
    counts = details["counts"]
    assert metrics["operators.apply_calls"] == counts["op_evals"]
    assert (metrics["calculus.inner_body_calls"]
            == metrics["solver.block_evals"] + metrics["solver.check_evals"])
    assert (metrics["calculus.outer_body_calls"]
            == counts["iterations"] + counts["checks"])
    # shadow operators must not change a single byte of the trace
    assert ledger.correct, ledger.failures
    assert len(ledger.shas) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unused_seed_passes_the_gate(name, tmp_path):
    workload = WORKLOADS[name](987_654, tmp_path)
    with Probe() as probe:
        output = workload.call()
    assert workload.gate(output, probe).failures == []


def _run_bench(cwd, env=None, workload="lsq_tall"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_refuses_blocksplit_threads_other_than_one():
    env = dict(os.environ, BLOCKSPLIT_THREADS="2")
    proc = _run_bench(BENCH_DIR.parent, env=env)
    assert proc.returncode != 0
    assert "BLOCKSPLIT_THREADS" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
