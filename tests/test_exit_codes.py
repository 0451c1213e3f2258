"""The `solve` and `audit` exit-code contracts as properties over
generated configs and corrupted traces.

Each example edits one or two sections, leaves, or sets (and keys of a
set) of a base config, replacing or deleting them, and runs `blocksplit
solve` in-process with every warning turned into an error and under a 10 s
alarm, so a hang fails its example instead of stalling the suite. The bases
are the README's lasso config and small inline configs for least squares
(cyclic, economical), logistic regression (quasicyclic, with injected
errors), alternating projections onto a ball and a halfspace, and a common
fixed point of a ball and a halfspace (explicit blocks). Whatever the edit,
`cli.main` returns a documented exit code and raises nothing, and exits 2,
3 and 4 print exactly one `error:` line on stderr.

The `audit` property corrupts the trace of a small solve (two balls, cyclic
blocks, 71 records) once: one cell edited, one line truncated, duplicated or
deleted, or one non-UTF-8 byte inserted. It runs `blocksplit audit` the
same way and holds it to exit 0, 1 or 2, with exactly one `error:` line on
exit 2. It must exit 2 when the records no longer count n up from 0 (an
edited n, a duplicated line, a deleted line other than the last), when a
block is edited (the terminal record's too) or one before the last record
is emptied, and on a non-UTF-8 byte. Two edits always run: the terminal
record naming block 0, and byte 0xff inserted at offset 300.
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
from hypothesis import example, given, settings, strategies as st

from blocksplit import cli
from blocksplit.harness import synthetic_regression, synthetic_unit_rows

OUTPUT = {"trace": "trace.csv", "summary": "summary.json"}
LSQ_ROWS, LSQ_TARGETS = synthetic_unit_rows(3, 6, seed=2)
LOGISTIC_ROWS = np.random.default_rng(5).standard_normal((8, 3))
BASES = {
    "readme_lasso": {
        "problem": {"variant": "lasso", "data_csv": "data.csv",
                    "l1_weight": 0.01},
        "schedule": {"type": "quasicyclic", "m": 30, "K": 5, "seed": 1},
        "solver": {"max_iters": 50000, "tol_residual": 1e-10,
                   "check_every": 10},
        "errors": {"c": 0.01, "p": 2.0, "seed": 4},
        "audits": {"fejer": True},
        "output": OUTPUT,
    },
    "least_squares": {
        "problem": {"variant": "least_squares",
                    "rows": LSQ_ROWS.round(6).tolist(),
                    "targets": LSQ_TARGETS.round(6).tolist()},
        "schedule": {"type": "cyclic", "m": 6, "block_size": 2},
        "solver": {"max_iters": 50000, "tol_residual": 1e-10,
                   "check_every": 10, "economical": True},
        "audits": {"fejer": True},
        "output": OUTPUT,
    },
    "logistic": {
        "problem": {"variant": "logistic",
                    "rows": LOGISTIC_ROWS.round(6).tolist(),
                    "targets": [0, 1, 1, 0, 1, 0, 0, 1], "l1_weight": 0.01},
        "schedule": {"type": "quasicyclic", "m": 8, "K": 4, "seed": 2},
        "solver": {"max_iters": 50000, "tol_residual": 1e-10,
                   "check_every": 10},
        "errors": {"c": 0.01, "p": 2.0, "seed": 3},
        "audits": {"fejer": True},
        "output": OUTPUT,
    },
    "alternating_projections": {
        "problem": {"variant": "alternating_projections",
                    "C": {"set": "ball", "center": [0, 0], "radius": 1},
                    "D": {"set": "halfspace", "a": [1, 1], "b": 3}},
        "schedule": {"type": "cyclic", "m": 1, "block_size": 1},
        "solver": {"max_iters": 50000, "tol_residual": 1e-10,
                   "check_every": 10, "x0": [3, 2]},
        "audits": {"fejer": True},
        "output": OUTPUT,
    },
    "common_fixed_point": {
        "problem": {"variant": "common_fixed_point",
                    "sets": [{"set": "ball", "center": [0, 0], "radius": 1},
                             {"set": "halfspace", "a": [1, 1], "b": 0.5}]},
        "schedule": {"type": "explicit", "m": 2, "K": 2,
                     "blocks": [[1], [2]]},
        "solver": {"max_iters": 50000, "tol_residual": 1e-10,
                   "check_every": 10, "x0": [3, 2]},
        "audits": {"fejer": True},
        "output": OUTPUT,
    },
}
DELETE = object()
VALUES = [DELETE, None, True, False, "", "x", -1, 0, 1, 1.5, 1e308, -1e308,
          2**63, 2**70, [], {}, 1e-300, [1e200, 1e200]]
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


def paths(node, prefix=()):
    """Every key of every mapping in ``node``, and every mapping in a list,
    reached through mappings and lists of mappings: a section, a leaf of a
    section, a set of ``problem.sets`` and each key of that set."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = [(k, v) for k, v in enumerate(node) if isinstance(v, dict)]
    else:
        return []
    return [path for key, value in items
            for path in [prefix + (key,), *paths(value, prefix + (key,))]]


def holds(owner, key):
    """Whether an edit may set or delete ``owner[key]``: ``owner`` is a
    mapping, or a list still long enough after earlier edits."""
    return isinstance(owner, dict) or (
        isinstance(owner, list) and isinstance(key, int) and key < len(owner))


def edited(base, edits):
    cfg = copy.deepcopy(base)
    for path, value in edits:
        owner = cfg
        for key in path[:-1]:
            owner = owner.get(key) if isinstance(owner, dict) else (
                owner[key] if holds(owner, key) else None)
        key = path[-1]
        if not holds(owner, key):
            continue        # an earlier edit replaced or dropped the owner
        if value is not DELETE:
            owner[key] = copy.deepcopy(value)   # [] and {} are shared
        elif isinstance(owner, dict):
            owner.pop(key, None)
        else:
            del owner[key]
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


@pytest.mark.parametrize("name", sorted(BASES))
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_solve_exit_code_contract(workdir, name, data):
    base = BASES[name]
    edits = data.draw(st.lists(
        st.tuples(st.sampled_from(paths(base)), st.sampled_from(VALUES)),
        min_size=1, max_size=2, unique_by=lambda edit: edit[0]), label="edits")
    code, out, err = solve(workdir, edited(base, edits))
    assert code in EXIT_CODES
    if code >= 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        json.loads(out)


BALLS = {
    "problem": {"variant": "common_fixed_point",
                "sets": [{"set": "ball", "center": [0, 0], "radius": 1},
                         {"set": "ball", "center": [1, 0], "radius": 1}]},
    "schedule": {"type": "cyclic", "m": 2, "block_size": 1},
    "solver": {"x0": [3, 2]},
    "audits": {"fejer": True},
    "output": {"trace": "balls.csv"},
}
CELL_VALUES = ["", "x", "nan", "inf", "-1", "0", str(2**63), str(2**70)]
N_COLUMN, BLOCK_COLUMN = 0, 5
TRACE_LINES = 72        # the header and the balls solve's 71 records


@pytest.fixture(scope="module")
def balls_trace(tmp_path_factory):
    """The directory of a small solve and the lines of the trace it wrote,
    each with its newline."""
    path = tmp_path_factory.mktemp("balls")
    code, _, err = solve(path, BALLS)
    assert code == 0, err
    lines = (path / "balls.csv").read_bytes().splitlines(keepends=True)
    assert len(lines) == TRACE_LINES
    return path, lines


@st.composite
def edits(draw):
    """One corruption of the balls trace: ("cell", line, column, value),
    ("truncate", line, cut), ("duplicate", line), ("delete", line) or
    ("byte", offset, byte). A cut or offset past the end wraps around."""
    kind = draw(st.sampled_from(["cell", "truncate", "duplicate", "delete",
                                 "byte"]), label="kind")
    if kind == "byte":
        return (kind, draw(st.integers(0, 2**16), label="at"),
                draw(st.integers(0x80, 0xFF), label="byte"))
    k = draw(st.integers(0, TRACE_LINES - 1), label="line")
    if kind == "cell":
        return (kind, k, draw(st.integers(0, 6), label="column"),
                draw(st.sampled_from(CELL_VALUES), label="value"))
    if kind == "truncate":
        return kind, k, draw(st.integers(0, 2**16), label="cut")
    return kind, k


def corrupt(lines, edit):
    """(the trace ``lines`` with ``edit`` made, whether the audit must exit
    2)."""
    kind, k, *args = edit
    out = list(lines)
    if kind == "cell":
        column, value = args
        cells = lines[k].rstrip(b"\n").split(b",")
        value = value.encode()
        # a drawn value other than the cell's is a wrong n or an invalid
        # block, on the terminal record too
        refused = (value != cells[column]
                   and column in (N_COLUMN, BLOCK_COLUMN))
        cells[column] = value
        out[k] = b",".join(cells) + b"\n"
    elif kind == "truncate":
        cut = args[0] % len(lines[k])
        out[k] = lines[k][:cut] + b"\n"
        refused = False
    elif kind == "duplicate":
        out.insert(k, lines[k])
        refused = True
    elif kind == "delete":
        del out[k]
        refused = k < len(lines) - 1
    else:
        raw = b"".join(lines)
        at = k % (len(raw) + 1)
        return raw[:at] + bytes(args) + raw[at:], True
    return b"".join(out), refused


def audit(path):
    """Exit code, stdout and stderr of `audit` on the trace at ``path``."""
    out, err = io.StringIO(), io.StringIO()
    with time_bound(TIME_BOUND_S), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(["audit", "--trace", str(path), "--weights", "0.5,0.5",
                         "--K", "2"])
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=300)
@given(edit=edits())
# the terminal record naming block 0, and a byte that is not UTF-8
@example(edit=("cell", TRACE_LINES - 1, BLOCK_COLUMN, "0"))
@example(edit=("byte", 300, 0xFF))
def test_audit_exit_code_contract(balls_trace, edit):
    workdir, lines = balls_trace
    raw, refused = corrupt(lines, edit)
    path = workdir / "corrupted.csv"
    path.write_bytes(raw)
    code, out, err = audit(path)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
    if refused:
        assert code == 2, out
