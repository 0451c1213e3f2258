"""The Block contract: a schedule's blocks carry their sorted 0-based index
array, and a slice in its place when the indices are consecutive, built once
and shared; the layers that read them (Fejer replay, trace writer) give what
they gave when each of them sorted the set itself."""

import copy
import hashlib
import math
import pickle
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blocksplit.harness import (TRACE_HEADER, ConfigError, read_trace_csv,
                                run_experiment, synthetic_regression,
                                synthetic_unit_rows, write_trace_csv)
from blocksplit.operators import apply, check_weights
from blocksplit.problems import lasso_problem, least_squares_feasibility
from blocksplit.schedules import (Block, BlockSchedule, CoveringError,
                                  check_concentrating, lag_identity_check,
                                  last_activation, make_cyclic, make_explicit,
                                  make_quasicyclic_random, mu_row,
                                  record_activation, validate_covering)
from blocksplit.solver import (AuditReport, SeededDecayErrors, SolverConfig,
                               TraceRecord, fejer_audit, run, run_economical)
from support import trace_of


class TestBlock:
    def test_idx_is_sorted_zero_based_and_read_only(self):
        blk = Block([7, 3, 5])
        assert blk.idx.tolist() == [2, 4, 6]
        assert blk.idx.dtype == np.intp
        with pytest.raises(ValueError):
            blk.idx[0] = 0

    def test_behaves_as_its_frozenset(self):
        blk = Block({1, 4})
        assert blk == frozenset({1, 4}) and frozenset({1, 4}) == blk
        assert hash(blk) == hash(frozenset({1, 4}))
        assert 4 in blk and 2 not in blk
        assert {blk: "a"}[frozenset({4, 1})] == "a"

    @pytest.mark.parametrize("clone", [
        lambda b: pickle.loads(pickle.dumps(b)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"])
    def test_copies_rebuild_a_read_only_idx(self, clone):
        blk = Block([3, 1, 2])
        twin = clone(blk)
        assert type(twin) is Block and twin == blk
        assert twin.idx.tolist() == [0, 1, 2]
        assert not twin.idx.flags.writeable

    @pytest.mark.parametrize("clone", [
        lambda b: pickle.loads(pickle.dumps(b)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"])
    @pytest.mark.parametrize("members, rows", [
        ([4, 2, 3], slice(1, 4)), ([5, 1, 2], [0, 1, 4])],
        ids=["consecutive", "gapped"])
    def test_copies_rebuild_rows(self, clone, members, rows):
        twin = clone(Block(members))
        if isinstance(rows, slice):
            assert twin.rows == rows
        else:
            assert twin.rows is twin.idx and twin.idx.tolist() == rows

    @settings(deadline=None, max_examples=200)
    @given(st.frozensets(st.integers(1, 40), min_size=1))
    @example(frozenset({1}))
    @example(frozenset({40, 39}))
    def test_rows_is_a_slice_exactly_for_consecutive_members(self, members):
        blk = Block(members)
        consecutive = max(members) - min(members) + 1 == len(members)
        assert isinstance(blk.rows, slice) == consecutive
        a = np.arange(2.0, 82.0).reshape(40, 2)
        assert np.array_equal(a[blk.rows], a[blk.idx])
        if not consecutive:
            assert blk.rows is blk.idx

    def test_empty_block_has_an_empty_index_array(self):
        blk = Block()
        assert not blk and blk.idx.dtype == np.intp and blk.idx.size == 0
        assert blk.rows.size == 0

    @pytest.mark.parametrize("members", [[1.7], [1, 2.5], ["a"], [2**70]],
                             ids=["fraction", "mixed", "string", "huge"])
    def test_non_integer_members_rejected(self, members):
        with pytest.raises(ValueError, match="block members must be integers"):
            Block(members)

    @pytest.mark.parametrize("members, wide", [
        ([2**64 - 1], [2**64 - 1]), ([2**63], [2**63]),
        ([2**63, 1, 2, 3], [2**63]), ([-2**62 - 1, 5], [-2**62 - 1]),
        ([-2**62 - 1, 5, 2**70], [-2**62 - 1, 2**70]),
        ([np.uint64(2**63)], [2**63]),
    ], ids=["uint64-max", "2**63", "mixed", "below", "both-ends",
            "numpy-uint64"])
    def test_members_beyond_the_int64_bound_are_named_not_wrapped(self, members,
                                                                 wide):
        # numpy would read these as uint64 or float64, and the 0-based intp
        # index would wrap: list(Block([2**64 - 1])) was [-1]
        with pytest.raises(ValueError, match=re.escape(
                f"block members must be integers within +-2**62, got {wide}")):
            Block(members)

    def test_members_at_the_bound_are_kept(self):
        blk = Block([-2**62, 2**62])
        assert list(blk) == [-2**62, 2**62]
        assert blk.idx.tolist() == [-2**62 - 1, 2**62 - 1]


member_lists = st.integers(1, 40).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(1, m), max_size=2 * m)))
containers = st.sampled_from([
    list, set, lambda ms: (i for i in ms), lambda ms: np.array(ms, np.int64)])


@settings(deadline=None, max_examples=200)
@given(member_lists, containers)
@example((9, [9, 1]), list)              # a frozenset iterates these as 9, 1
@example((3, []), set)
@example((5, [5, 5, 2]), lambda ms: np.array(ms, np.int64))
def test_block_agrees_with_its_frozenset(case, container):
    m, members = case
    blk, ref = Block(container(members)), frozenset(members)
    assert blk == ref and ref == blk and blk == set(ref) and set(ref) == blk
    assert not blk != ref and not ref != blk
    assert hash(blk) == hash(ref)
    assert len(blk) == len(ref) and bool(blk) == bool(ref)
    assert list(blk) == sorted(ref)
    assert all(type(i) is int for i in blk)
    for item in [*ref, 0, m + 1, 1.5, "a"]:
        assert (item in blk) == (item in ref)
    assert Block(members) == blk and hash(Block(members)) == hash(blk)


def test_block_is_immutable_and_holds_no_set():
    blk = Block([2, 1])
    with pytest.raises(AttributeError):
        blk.idx = np.arange(3)
    with pytest.raises(AttributeError):
        blk.extra = 1
    assert not isinstance(blk, (set, frozenset))
    assert not hasattr(blk, "__dict__")


@contextmanager
def traced_memory():
    """Yields a function giving (current, peak) bytes traced since entry."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        yield lambda: tuple(b - base for b in tracemalloc.get_traced_memory())
    finally:
        if started:
            tracemalloc.stop()


def test_quasicyclic_cache_is_small():
    # the README schedule; a frozenset-based cache took about 1.5 KB a block
    with traced_memory() as traced:
        schedule = make_quasicyclic_random(30, 5, seed=1)
        schedule.block(6249)
        held = traced()[0]
    assert held / 6250 < 400


class SealedBlock(Block):
    """A Block whose Python-level methods fail when called."""

    __slots__ = ()

    def _sealed(self, *args):
        raise AssertionError("a Block method was called")

    __len__ = __iter__ = __contains__ = __eq__ = __hash__ = _sealed


@pytest.mark.parametrize("kind", ["stacked", "list", "family"])
@pytest.mark.parametrize("runner", [run, run_economical])
def test_solver_loop_reads_only_idx_and_rows(kind, runner):
    inner = make_quasicyclic_random(12, 4, seed=6)
    schedule = BlockSchedule(
        12, 4, lambda n: SealedBlock.from_sorted(inner.block(n).idx))
    prob = least_squares_feasibility(*synthetic_unit_rows(3, 12, 1))
    ops = list(prob.ts)
    ts = {"stacked": prob.ts, "list": ops,
          "family": lambda i, n: ops[i - 1]}[kind]
    cfg = SolverConfig(weights=prob.weights, schedule=schedule, max_iters=60,
                       tol_residual=-1.0, check_every=3,
                       error_model=SeededDecayErrors(1e-3, seed=2))
    res = runner(prob.t0, ts, cfg, np.ones(3), x_ref=np.zeros(3))
    assert res.iterations == 60
    assert type(res.trace[0].block) is SealedBlock


def test_trace_reader_sorts_deduplicates_and_bounds_members(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(f"{TRACE_HEADER}\n0,1.0,0.5,,,3|1|3,2.0\n1,,,,,,1.0\n")
    blocks = [rec.block for rec in read_trace_csv(path)]
    assert blocks[1] is None and list(blocks[0]) == [1, 3]
    assert blocks[0].idx.tolist() == [0, 2]
    path.write_text(f"{TRACE_HEADER}\n0,1.0,0.5,,,1|{2**70},2.0\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"line 2: malformed trace line '0,1.0,0.5,,,1|{2**70},2.0' "
            f"(block members must be integers within +-2**62, "
            f"got [{2**70}])")):
        read_trace_csv(path)


# the messages BlockSchedule.block raised for corrupt blocks when it
# validated a plain frozenset; the Block checks keep them
@pytest.mark.parametrize("members, message", [
    (set(), "schedule 's': empty block at n=2"),
    ({0, 1}, "schedule 's': block [0, 1] at n=2 not within 1..3"),
    ({1, 4}, "schedule 's': block [1, 4] at n=2 not within 1..3"),
    ({1.7}, "schedule 's': block [1.7] at n=2 not within 1..3"),
], ids=["empty", "zero", "m-plus-one", "fraction"])
def test_corrupt_blocks_raise_the_same_errors(members, message):
    schedule = BlockSchedule(3, 1, lambda n: members, name="s")
    with pytest.raises(CoveringError, match=f"^{re.escape(message)}$"):
        schedule.block(2)


def test_block_from_block_fn_is_returned_as_is():
    blk = Block({1, 2})
    assert BlockSchedule(2, 1, lambda n: blk).block(5) is blk
    wrapped = BlockSchedule(2, 1, lambda n: [2, 1]).block(0)
    assert type(wrapped) is Block and wrapped.idx.tolist() == [0, 1]


class TestExplicitEntries:
    def test_integral_float_entry_accepted(self):
        blk = make_explicit(3, 1, [[1, 2.0, 3]]).block(0)
        assert blk == {1, 2, 3} and blk.idx.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("entry", [1.7, True, "2"])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(ValueError, match=re.escape(
                f"schedule.blocks entry must be an integer, got {entry!r}")):
            make_explicit(3, 1, [[1, entry, 3]])

    def test_non_list_block_rejected(self):
        with pytest.raises(ValueError, match="must be a list of index lists"):
            make_explicit(3, 1, [1, [2, 3]])


@st.composite
def cyclic_cases(draw):
    m = draw(st.integers(1, 40))
    return make_cyclic(m, draw(st.integers(1, m)))


@st.composite
def explicit_cases(draw):
    m = draw(st.integers(1, 8))
    blocks = draw(st.lists(st.sets(st.integers(1, m), min_size=1),
                           min_size=1, max_size=6))
    return make_explicit(m, draw(st.integers(1, 5)), [list(b) for b in blocks])


schedule_cases = st.one_of(
    cyclic_cases(), explicit_cases(),
    st.builds(make_quasicyclic_random, st.integers(1, 12), st.integers(1, 7),
              st.integers(0, 2**32 - 1)))


@settings(deadline=None)
@given(schedule_cases)
@example(make_cyclic(7, 3))     # wraps past m
@example(make_cyclic(5, 5))     # full activation
def test_every_block_carries_its_sorted_index_array(schedule):
    for n in range(60):
        blk = schedule.block(n)
        assert type(blk) is Block
        expected = np.array(sorted(blk)) - 1
        assert np.array_equal(blk.idx, expected)
        assert blk.idx.dtype == np.intp and not blk.idx.flags.writeable
        assert schedule.block(n) is blk


@given(st.integers(1, 40).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, m), st.integers(0, 200))))
@example((7, 3, 2))
@example((5, 5, 3))
def test_cyclic_blocks_are_shared_across_periods(case):
    m, block_size, n = case
    schedule = make_cyclic(m, block_size)
    period = m // math.gcd(m, block_size)
    blk = schedule.block(n)
    assert schedule.block(n + period) is blk
    assert schedule.block(n % period) is blk


@settings(deadline=None, max_examples=50)
@given(schedule_cases, st.integers(0, 40), st.integers(0, 2**32 - 1))
@example(make_cyclic(7, 3), 20, 0)
@example(make_explicit(3, 2, [[1], [2], [3]]), 5, 1)    # violates covering
def test_lag_identity_on_running_last_activations(schedule, extra, seed):
    """For every n >= K-1 the running ``last`` array is c(., n), and the
    array row n weighs any nonnegative sequence as the lagged gather does."""
    K, m = schedule.K, schedule.m
    rng = np.random.default_rng(seed)
    raw = rng.random(m) + 0.05
    weights = raw / raw.sum()
    last = np.full(m, -1)
    for n in range(K + extra):
        try:
            record_activation(last, schedule.block(n).idx, n, K)
        except CoveringError as exc:
            # c(i, n) is undefined from here on, for a real missing index
            with pytest.raises(CoveringError):
                last_activation(schedule, exc.missing[0], n)
            return
        if n >= K - 1:
            assert last.tolist() == [last_activation(schedule, i, n)
                                     for i in range(1, m + 1)]
            assert lag_identity_check(schedule, weights, n, rng.random(n + 1))


@settings(deadline=None, max_examples=50)
@given(schedule_cases, st.integers(0, 30), st.integers(0, 2**32 - 1))
@example(make_cyclic(7, 3), 10, 0)
@example(make_explicit(3, 2, [[1], [2], [3]]), 5, 1)    # violates covering
def test_mu_rows_are_concentrating_where_windows_are_covered(schedule, extra,
                                                            seed):
    """Row n of the induced array sums to 1 exactly when window n is
    covered, since an index missing from it takes its weight along; every
    row keeps its mass within depth K-1, with at least min w_i on its
    diagonal. check_concentrating reports the same three conditions."""
    K, m = schedule.K, schedule.m
    raw = np.random.default_rng(seed).random(m) + 0.05
    weights = raw / raw.sum()
    last = np.full(m, -1)
    rows, all_covered = [], True
    for n in range(K + extra):
        try:
            record_activation(last, schedule.block(n).idx, n, K)
            covered = True
        except CoveringError:
            covered = all_covered = False
        row = mu_row(schedule, weights, n)
        rows.append(row)
        assert (abs(row.total() - 1.0) <= 1e-12) == covered
        assert all(max(0, n - K + 1) <= j <= n for j in row.entries)
        assert row.diagonal() >= weights.min()
    report = check_concentrating(rows, K)
    assert report.sum_ok == all_covered and report.band_ok
    assert report.diagonal_infimum >= weights.min()


def reference_mu_row(schedule, weights, n):
    """Row n of the induced array as written with set differences and a
    builtin sum over the sorted fresh indices."""
    K = schedule.K
    if n <= K - 2:
        return {n: 1.0}
    entries, seen = {}, set()
    for j in range(n, n - K, -1):
        block = frozenset(schedule.block(j))
        fresh = block - seen
        if fresh:
            entries[j] = float(sum(weights[i - 1] for i in sorted(fresh)))
        seen |= block
    return entries


@settings(deadline=None, max_examples=50)
@given(schedule_cases, st.integers(0, 30), st.integers(0, 2**32 - 1))
@example(make_cyclic(7, 3), 10, 0)
@example(make_explicit(3, 2, [[1], [2], [3]]), 5, 1)    # violates covering
def test_mu_rows_match_the_set_difference_rows(schedule, extra, seed):
    # magnitudes over many decades, so the summation order shows
    raw = np.exp(np.random.default_rng(seed).normal(0.0, 6.0, schedule.m))
    weights = raw / raw.sum()
    for n in range(schedule.K + extra):
        row = mu_row(schedule, weights, n)
        assert row.entries == reference_mu_row(schedule, weights, n)
        assert all(type(mu) is float for mu in row.entries.values())


@settings(deadline=None, max_examples=40)
@given(schedule_cases, st.integers(1, 4), st.integers(0, 20),
       st.integers(0, 2**16), st.booleans())
@example(make_cyclic(7, 3), 2, 10, 0, False)
@example(make_explicit(3, 2, [[1], [2], [3]]), 2, 5, 1, True)
def test_stale_buffer_rows_are_last_activation_outputs(schedule, d, extra,
                                                       seed, economical):
    """With record_buffers, row i of the buffer recorded at step n is
    T_i x_c + e_{i,c}, c being the last step <= n whose block held i, and
    x_0 while i has not been activated."""
    m, K = schedule.m, schedule.K
    prob = least_squares_feasibility(*synthetic_unit_rows(d, m, seed))
    errors = SeededDecayErrors(0.1, seed=seed)
    cfg = SolverConfig(weights=prob.weights, schedule=schedule,
                       max_iters=K + extra, tol_residual=-1.0, check_every=3,
                       error_model=errors, record_buffers=True)
    x0 = np.random.default_rng(seed).standard_normal(d)
    runner = run_economical if economical else run
    try:
        trace = runner(prob.t0, prob.ts, cfg, x0).trace
    except CoveringError:
        assert validate_covering(schedule, K + extra) is not None
        return
    last = [-1] * m
    for rec in trace[:-1]:
        for i in rec.block:
            last[i - 1] = rec.n
        for i, c in enumerate(last, 1):
            expected = (x0 if c < 0 else apply(prob.ts[i - 1], trace[c].x)
                        + errors.error(i, c, d))
            np.testing.assert_allclose(rec.t_buffer[i - 1], expected,
                                       rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# readers of idx against the code they replace

def reference_fejer_audit(dists, err0s, errsums, blocks, weights, K):
    """The Fejer audit as it was written with an interpreter-level sum."""
    w = check_weights(weights)
    dists = np.asarray(dists, dtype=float)
    slack = 1e-9 * (1.0 + float(dists[0]))
    max_violation, first_bad, checked = -np.inf, None, 0
    last = np.full(w.size, -1)
    for n in range(dists.size - 1):
        if blocks[n] is None:
            break
        idx = np.fromiter(blocks[n], np.intp, len(blocks[n])) - 1
        record_activation(last, idx, n, K)
        if n < K - 1:
            continue
        bound = float(sum(w * dists[last]))
        bound += float(err0s[n]) + float(errsums[n])
        violation = dists[n + 1] - bound
        checked += 1
        if violation > max_violation:
            max_violation = violation
        if violation > slack and first_bad is None:
            first_bad = n
    return AuditReport(passed=checked > 0 and max_violation <= slack,
                       max_violation=float(max_violation), slack=slack,
                       first_violation_n=first_bad, n_checked=checked,
                       label="fejer")


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 300), st.integers(1, 6), st.integers(1, 40),
       st.integers(0, 2**32 - 1), st.booleans())
def test_fejer_audit_matches_the_interpreter_sum(m, K, steps, seed, plain):
    rng = np.random.default_rng(seed)
    schedule = make_quasicyclic_random(m, K, seed)
    blocks = [schedule.block(n) for n in range(steps)] + [None]
    if plain:
        blocks = [None if b is None else frozenset(b) for b in blocks]
    w = rng.random(m) + 0.01
    w /= w.sum()
    # magnitudes spread over many decades, so rounding order shows
    dists = np.exp(rng.normal(0.0, 4.0, steps + 1))
    err0s = rng.random(steps + 1) * 1e-3
    errsums = rng.random(steps + 1) * 1e-3
    trace = trace_of(dists, blocks, err0s, errsums)
    if steps < K:
        # no iteration to check, which the interpreter sum reported as a fail
        with pytest.raises(ValueError, match="recorded iterates"):
            fejer_audit(trace, None, w, K)
        return
    assert (fejer_audit(trace, None, w, K)
            == reference_fejer_audit(dists, err0s, errsums, blocks, w, K))


def _fmt(v):
    return "" if v is None else repr(float(v))


def reference_trace_csv(trace):
    """The trace CSV as written when each record's block was sorted."""
    lines = [TRACE_HEADER]
    for rec in trace:
        block = ("" if rec.block is None else
                 "|".join(str(i) for i in sorted(rec.block)))
        lines.append(",".join([
            str(rec.n), _fmt(rec.residual), _fmt(rec.step), _fmt(rec.err0),
            _fmt(rec.errsum), block, _fmt(rec.dist_ref),
        ]))
    return "\n".join(lines) + "\n"


values = st.none() | st.floats()
blocks = st.none() | st.sets(st.integers(1, 3000), min_size=1).flatmap(
    lambda s: st.sampled_from([Block(s), frozenset(s)]))
records = st.builds(TraceRecord, n=st.integers(0, 10**6),
                    x=st.just(np.zeros(1)), block=blocks, residual=values,
                    step=values, err0=values, errsum=values, dist_ref=values)


@settings(deadline=None)
@given(st.lists(records, max_size=8))
def test_trace_csv_matches_the_sorting_writer(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_text() == reference_trace_csv(trace)


def joined_trace_csv(trace):
    """The trace CSV as written when all its lines were joined first."""
    lines = [TRACE_HEADER]
    for rec in trace:
        block = ("" if rec.block is None else
                 "|".join(map(str, (rec.block.idx + 1).tolist())))
        lines.append(",".join([
            str(rec.n), _fmt(rec.residual), _fmt(rec.step), _fmt(rec.err0),
            _fmt(rec.errsum), block, _fmt(rec.dist_ref),
        ]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("length", [6000, 24000])
def test_trace_writer_memory_does_not_grow_with_the_trace(tmp_path, length):
    schedule = make_quasicyclic_random(30, 5, seed=1)
    rng = np.random.default_rng(length)
    trace = [TraceRecord(n=n, x=np.zeros(1), block=schedule.block(n),
                         residual=float(r) if n % 10 == 0 else None,
                         step=float(r), err0=float(r) / 3, errsum=0.0,
                         dist_ref=float(r) * 7)
             for n, r in enumerate(rng.random(length))]
    trace.append(TraceRecord(n=length, x=np.zeros(1), residual=1e-11))
    path = tmp_path / "trace.csv"
    with traced_memory() as traced:
        write_trace_csv(path, trace)
        peak = traced()[1]
    assert peak < 64 * 1024
    assert path.read_text() == joined_trace_csv(trace)


def test_trace_records_are_slotted():
    rec = TraceRecord(n=0, x=np.zeros(1))
    assert not hasattr(rec, "__dict__")
    with pytest.raises(AttributeError):
        rec.extra = 1


# ---------------------------------------------------------------------------
# trace bytes pinned before blocks carried their index arrays

def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_readme_config_with_errors_trace_pinned(tmp_path):
    A, eta, _ = synthetic_regression(20, 30, 1)
    np.savetxt(tmp_path / "data.csv", np.column_stack([A, eta]),
               delimiter=",")
    cfg = {
        "problem": {"variant": "lasso", "data_csv": "data.csv",
                    "l1_weight": 0.01},
        "schedule": {"type": "quasicyclic", "m": 30, "K": 5, "seed": 1},
        "solver": {"max_iters": 300, "tol_residual": 1e-10,
                   "check_every": 10},
        "errors": {"c": 0.01, "p": 2.0, "seed": 4},
        "audits": {"fejer": True, "reference_iters": 2000},
        "output": {"trace": "trace.csv"},
    }
    run_experiment(cfg, base_dir=tmp_path)
    assert _sha256(tmp_path / "trace.csv") == (
        "46766c88651e5ba0860aa404afa0ffcf7e35e4b04adf4cb0a4d273a619302150")


def test_cyclic_economical_least_squares_trace_pinned(tmp_path):
    prob = least_squares_feasibility(*synthetic_unit_rows(6, 50, 2))
    # blocks of 15 over 50 operators wrap, with a period of 10 blocks
    res = prob.solve(make_cyclic(50, 15), np.zeros(6), economical=True,
                     x_ref=np.ones(6), max_iters=120, tol_residual=1e-12,
                     check_every=7)
    write_trace_csv(tmp_path / "trace.csv", res.trace)
    assert _sha256(tmp_path / "trace.csv") == (
        "a1c0b4db44eba2b6483f38a0e207384d92f0715ead70b7e789c21dd4e6903e98")


# the two bench paths at bench scale, pinned before the loop's fixed cost was
# cut: a change to the loop may not move a bit of either trace

def test_cyclic_lasso_stack_trace_pinned(tmp_path):
    # lasso_wide's path: a RowStack, blocks of 10 over 500 rows (K=50), the
    # plain mean and the gated stopping check
    A, eta, _ = synthetic_regression(20, 500, 2)
    res = lasso_problem(A, eta, reg=1e-3).solve(
        make_cyclic(500, 10), np.zeros(20), max_iters=400, tol_residual=1e-2,
        check_every=10)
    assert res.iterations == 400
    write_trace_csv(tmp_path / "trace.csv", res.trace)
    assert _sha256(tmp_path / "trace.csv") == (
        "4edd1899a3946b9df5f99a03e2d11626ab94c3d860f3002ea51a0a7e13042270")


def test_cyclic_economical_least_squares_at_scale_trace_pinned(tmp_path):
    # lsq_tall's path: blocks of 100 over 2,000 rows (K=20), economical mean
    prob = least_squares_feasibility(*synthetic_unit_rows(20, 2000, 2))
    res = prob.solve(make_cyclic(2000, 100), np.zeros(20), economical=True,
                     max_iters=300, tol_residual=1e-4, check_every=50)
    assert res.iterations == 300
    write_trace_csv(tmp_path / "trace.csv", res.trace)
    assert _sha256(tmp_path / "trace.csv") == (
        "70bc8aff3ec09552cdf1634afa998c6e56ef09b4b00b7bdc9999ccf1725ca6a7")
