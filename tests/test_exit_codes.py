"""The `solve` exit-code contract as a property over generated configs.

Each example edits one or two leaves or sections of the README's lasso
config, replacing or deleting them, and runs `blocksplit solve` in-process
with every warning turned into an error and under a 10 s alarm, so a
hang fails its example instead of stalling the suite. Whatever the edit,
`cli.main` returns a documented exit code and raises nothing, and exits 2,
3 and 4 print exactly one `error:` line on stderr.
"""

import contextlib
import copy
import io
import json
import os
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksplit import cli
from blocksplit.harness import synthetic_regression

README_CONFIG = {
    "problem": {"variant": "lasso", "data_csv": "data.csv", "l1_weight": 0.01},
    "schedule": {"type": "quasicyclic", "m": 30, "K": 5, "seed": 1},
    "solver": {"max_iters": 50000, "tol_residual": 1e-10, "check_every": 10},
    "errors": {"c": 0.01, "p": 2.0, "seed": 4},
    "audits": {"fejer": True},
    "output": {"trace": "trace.csv", "summary": "summary.json"},
}
PATHS = [(section,) for section in README_CONFIG] + [
    (section, key) for section, leaves in README_CONFIG.items()
    for key in leaves]
DELETE = object()
VALUES = [DELETE, None, True, False, "", "x", -1, 0, 1, 1.5, 1e308, -1e308,
          2**63, 2**70, [], {}, 1e-300]
EXIT_CODES = range(5)
TIME_BOUND_S = 10       # a 200-iteration solve needs a fraction of that


class Hang(Exception):
    """An example outlived its time bound."""


@contextlib.contextmanager
def time_bound(seconds):
    def expire(signum, frame):
        raise Hang(f"solve still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readme")
    rows, targets, _ = synthetic_regression(20, 30, seed=1)
    np.savetxt(path / "data.csv", np.column_stack([rows, targets]),
               delimiter=",")
    return path


def edited(edits):
    cfg = copy.deepcopy(README_CONFIG)
    for path, value in edits:
        owner = cfg
        for key in path[:-1]:
            owner = owner.get(key)
        if not isinstance(owner, dict):
            continue        # an earlier edit replaced the section
        if value is DELETE:
            owner.pop(path[-1], None)
        else:
            owner[path[-1]] = copy.deepcopy(value)   # [] and {} are shared
    return cfg


def solve(workdir, cfg):
    """Exit code, stdout and stderr of `solve --max-iters 200` in ``workdir``,
    where relative data and output paths resolve."""
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with time_bound(TIME_BOUND_S), warnings.catch_warnings(), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = cli.main(["solve", "--config", "cfg.json",
                             "--max-iters", "200"])
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(VALUES)),
                min_size=1, max_size=2, unique_by=lambda edit: edit[0]))
def test_solve_exit_code_contract(workdir, edits):
    code, out, err = solve(workdir, edited(edits))
    assert code in EXIT_CODES
    if code >= 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        json.loads(out)
