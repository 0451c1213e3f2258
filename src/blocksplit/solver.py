"""Block-update iteration for composite fixed point problems.

At iteration n only the operators indexed by I_n are re-evaluated; stale
evaluations of the others are carried in a buffer, and the outer operator is
applied to the weighted mean of the buffer:

    for i in I_n:            t[i] = T_{i,n} x_n + e_{i,n}
    for i not in I_n:        t[i] stays t[i] from iteration n-1
    x_{n+1} = T_{0,n}( sum_i w_i t[i] ) + e_{0,n}

The economical variant maintains the running weighted mean incrementally
instead of recomputing it, which matters when |I_n| << m. Runtime audits
check the per-iteration distance inequality against a reference solution and
the geometric envelope implied by declared contraction factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .operators import (AveragedOp, NonFiniteError, RowStack, apply, as_int,
                        as_point, check_weights, kahan_weighted_sum, norm,
                        row_norms)
from .schedules import (Block, BlockSchedule, CoveringError, as_block,
                         record_activation)


# ---------------------------------------------------------------------------
# injected errors

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): hashmix
# constants for the entropy pool, the mix multipliers, and the output chain
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715


def _hash_chain(h, mult, count):
    """The xor constants and multipliers of ``count`` successive hashmix
    calls from hash constant ``h``, as two (count, 1) uint32 columns: call k
    xors with the chain's k-th constant and multiplies by the next."""
    chain = [h]
    for _ in range(count):
        chain.append((chain[-1] * mult) & _MASK32)
    col = np.array(chain, np.uint32)[:, None]
    return col[:-1], col[1:]


# 4 pool fills, then 12 cross-mixes: source word s into every other word, in
# order, as (4, 1) columns whose row s is unused
_POOL_XOR, _POOL_MUL = _hash_chain(_INIT_A, _MULT_A, 16)
_FILL_XOR, _FILL_MUL = _POOL_XOR[:4], _POOL_MUL[:4]
_CROSS = [(s, *(np.insert(col[4 + 3 * s:7 + 3 * s], s, 0, axis=0)
                for col in (_POOL_XOR, _POOL_MUL))) for s in range(4)]
_OUT_XOR, _OUT_MUL = _hash_chain(_INIT_B, _MULT_B, 8)
_U16 = np.array(16, np.uint32)
_U_MIX_L = np.array(_MIX_L, np.uint32)
_U_MIX_R = np.array(_MIX_R, np.uint32)


def _seed_words(seed, idx, steps):
    """``SeedSequence([seed, i, n]).generate_state(4, np.uint64)`` for every
    pair (i, n) of the uint32 vectors ``idx`` and ``steps`` (a uint32 scalar
    ``steps`` serves every i), as a ``(len(idx), 4)`` matrix.

    Each entropy word is below 2**32, so the entropy is the three words
    (seed, i, n) and the 4-word pool is filled with their hashmixes and one
    of 0, a pool column per pair. The three cross-mixes from each source word
    update the whole pool at once, the source row restored after. Output:
    8 uint32 words hashed from the pool, little-endian pairs read as uint64.
    """
    pool = np.empty((4, idx.size), np.uint32)
    pool[0] = seed
    pool[1] = idx
    pool[2] = steps
    pool[3] = 0
    pool ^= _FILL_XOR
    pool *= _FILL_MUL
    pool ^= pool >> _U16
    h = np.empty_like(pool)
    for src, xor, mul in _CROSS:
        keep = pool[src].copy()
        np.bitwise_xor(keep, xor, out=h)
        h *= mul
        h ^= h >> _U16
        h *= _U_MIX_R
        pool *= _U_MIX_L
        pool -= h
        pool ^= pool >> _U16
        pool[src] = keep
    out = np.concatenate((pool, pool))
    out ^= _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> _U16
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 its four precomputed state words."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _word(value, name):
    """``value`` as an int in [0, 2**32): one SeedSequence entropy word."""
    value = as_int(value, name)
    if not 0 <= value <= _MASK32:
        raise ValueError(f"{name} must lie in [0, 2**32), got {value}")
    return value


class SeededDecayErrors:
    """Deterministic summable perturbations e_{i,n} for robustness tests.

    e_{i,n} is a pure function of (seed, i, n): the direction is
    ``np.random.default_rng([seed, i, n]).standard_normal(dim)`` normalised,
    the magnitude c / (n+1)**p, so the lagged error sums required by the
    convergence theory stay finite for p > 1. i = 0 addresses the outer
    operator. seed, i and n each lie in [0, 2**32).

    ``error(indices, steps, dim)`` draws many errors in one call: for a 1-D
    integer array of indices and either one step n or a 1-D integer array of
    one step per index, row r is e_{indices[r], n} or e_{indices[r],
    steps[r]}, bit for bit the single-index draw. The seed hash, the
    normalisation and the scaling each run once over all rows; only the
    PCG64 generator and its standard normal draw are per row. Each scale
    c / (n+1)**p is Python's float power (the C library's ``pow``), once per
    distinct step: numpy's ``power`` rounds some of them differently. Where
    that power overflows, the scale is exp(log c - p log(n+1)) instead.
    """

    def __init__(self, c, seed=0, p=2.0):
        if not (math.isfinite(c) and math.isfinite(p)):
            raise ValueError(f"need finite c and p, got c={c!r}, p={p!r}")
        if c < 0 or p <= 1.0:
            raise ValueError("need c >= 0 and decay exponent p > 1")
        self.c = float(c)
        self.seed = _word(seed, "seed")
        self.p = float(p)

    def error(self, i, n, dim):
        """e_{i,n} as a vector for an int ``i``; for a 1-D integer array
        ``i``, the matrix whose row r is e_{i[r],n}, or e_{i[r],n[r]} when
        ``n`` is a 1-D integer array as long as ``i``."""
        idx = np.asarray(i)
        if idx.ndim > 1 or idx.dtype.kind not in "iu":
            raise ValueError("error indices must be an int or a 1-D integer "
                             "array")
        if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
            raise ValueError("error indices must lie in [0, 2**32)")
        steps = np.asarray(n)
        if steps.ndim == 0:
            steps = np.array(_word(n, "n"))
        elif steps.dtype.kind not in "iu" or steps.shape != idx.shape[:1]:
            raise ValueError("steps must be an int or a 1-D integer array "
                             "with one step per index")
        elif steps.size and (steps.min() < 0 or steps.max() > _MASK32):
            raise ValueError("steps must lie in [0, 2**32)")
        rows = idx.reshape(-1).astype(np.uint32)
        out = np.zeros((rows.size, dim))
        if self.c != 0.0:
            words = _seed_words(self.seed, rows, steps.astype(np.uint32))
            for r, state in enumerate(words):
                rng = np.random.Generator(np.random.PCG64(_Words(state)))
                rng.standard_normal(out=out[r])
            norms = row_norms(out)
            zero = norms == 0.0
            out[zero, 0] = 1.0
            norms[zero] = 1.0
            out /= norms[:, None]
            distinct, where = np.unique(steps, return_inverse=True)
            scales = np.array([self._scale(k) for k in distinct.tolist()])
            out *= scales[where].reshape(-1, 1)
        return out if idx.ndim else out[0]

    def _scale(self, k):
        """c / (k+1)**p, through logs only where the power overflows a float
        (k >= 1 with p = 2000, say): the scale is then below c / 1.7e308 and
        may underflow to 0."""
        try:
            return self.c / (k + 1.0) ** self.p
        except OverflowError:
            return math.exp(math.log(self.c) - self.p * math.log(k + 1.0))


# ---------------------------------------------------------------------------
# configuration and state

@dataclass
class SolverConfig:
    """Run parameters.

    ``epsilon`` bounds the admissible averagedness constants: every operator
    must declare alpha < 1/(1 + epsilon). ``check_every`` is the spacing of
    candidate stopping checks, each a full sweep of operator evaluations.
    A run with no ``error_model`` and ``tol_residual`` >= 0 skips a
    candidate whose recorded steps predict a residual above a margin times
    the tolerance, the margin set from how far the run's earlier
    predictions missed, but never more than 19 in a row, nor one 4K or
    more iterations after the last check run, nor a candidate before n = K
    or at the cap (see ``_run_core``). A negative ``tol_residual`` disables
    the rule, leaving only the ``max_iters`` cap; every candidate check then
    runs.
    """

    weights: object
    schedule: BlockSchedule
    epsilon: float = 1e-3
    max_iters: int = 1000
    tol_residual: float = 1e-10
    check_every: int = 10
    # object whose .error(indices, steps, dim) returns one row
    # e_{indices[r], steps[r]} per entry of two equal-length 1-D int arrays;
    # index 0 is the outer operator. The solver draws a window of upcoming
    # iterations per call, so a row must not depend on when it is drawn.
    error_model: object = None
    record_buffers: bool = False

    def __post_init__(self):
        self.max_iters = as_int(self.max_iters, "max_iters")
        self.check_every = as_int(self.check_every, "check_every")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_iters < 0 or self.check_every < 1:
            raise ValueError("max_iters must be >= 0 and check_every >= 1")
        if math.isnan(self.tol_residual):
            raise ValueError("tol_residual must be a number, not NaN")


@dataclass(slots=True)
class TraceRecord:
    """Per-iteration diagnostics. ``x`` is the iterate *before* the update at
    ``n``; the terminal record of a run has no block/step entries."""

    n: int
    x: np.ndarray
    block: Block | None = None
    residual: float | None = None
    step: float | None = None
    err0: float | None = None
    errsum: float | None = None
    dist_ref: float | None = None
    t_buffer: np.ndarray | None = field(default=None, repr=False)


@dataclass
class SolverResult:
    """``stats`` counts what the run did: ``block_evals`` (inner
    evaluations in block updates), ``checks`` (stopping checks run, m inner
    evaluations each) and ``checks_skipped`` (candidate checks the predictor
    skipped)."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual: float | None
    trace: list
    sum_err0: float = 0.0
    sum_lagged_errors: float = 0.0
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# operator families

def _families(t0, ts, m, epsilon=None, K=1):
    """``t0f(n)``, T_{0,n}, and ``inner``, the one evaluator of the inner
    operators. Each must declare alpha < 1/(1+epsilon) (unchecked for
    ``epsilon`` None): a fixed T0 and a sequence here, a family's member at
    every call. ``inner(x, block, n)`` is the rows T_{i,n} x, i in ``block``;
    given the run's last activations ``last``, all m rows T_{i,c(i,n)} x,
    c(i, n) being i's last activation in {n-K+1, ..., n}, block n included,
    or n if none. Only a family builds these lags. A RowStack's rows are one
    ``kernel`` call at the finite ``x`` with tuple compares of the shapes (a
    mismatch goes through ``eval_block``, which raises ``apply``'s error),
    not scanned: a non-finite row makes the weighted mean non-finite, which
    ``_outer`` checks. ``strict=True`` re-runs a stack's rows through
    ``eval_block`` to name a bad row; ``apply`` validated per-operator rows.
    """
    limit = math.inf if epsilon is None else 1.0 / (1.0 + epsilon)

    def checked(op):
        if op.alpha >= limit:
            raise ValueError(
                f"operator {op.name!r} declares alpha={op.alpha}, which is "
                f"not < 1/(1+epsilon) = {limit} for epsilon={epsilon}")
        return op

    if isinstance(t0, AveragedOp):
        checked(t0)
        t0f = lambda n: t0
    elif callable(t0):
        t0f = lambda n: checked(t0(n))
    else:
        raise TypeError("t0 must be an AveragedOp or a callable n -> AveragedOp")
    if isinstance(ts, (list, tuple, RowStack)) and len(ts) != m:
        raise ValueError(f"expected {m} operators, got {len(ts)}")

    if isinstance(ts, RowStack):
        # one compare of the whole array; only a bad member is built
        bad = np.flatnonzero(ts.alphas >= limit)
        if bad.size:
            checked(ts[bad[0]])

        def inner(x, block, n, last=None, strict=False):
            rows, count = ((block.rows, block.idx.size) if last is None
                           else (slice(None), m))
            if not strict and x.shape == (ts.dim,):
                out = np.asarray(ts.kernel(rows, x), dtype=float)
                if out.shape == (count, ts.dim):
                    return out
            return ts.eval_block(rows, x)
        return t0f, inner

    if isinstance(ts, (list, tuple)):
        for op in ts:
            checked(op)

        def ops(block, n, last):
            return ([ts[i] for i in block.idx.tolist()] if last is None
                    else ts)
    elif callable(ts):
        def ops(block, n, last):
            if last is None:
                # each member is checked just before it is applied
                return (checked(ts(i, n)) for i in (block.idx + 1).tolist())
            lags = np.where(last < max(0, n - K + 1), n, last)
            lags[block.rows] = n
            return [checked(ts(i, c)) for i, c in enumerate(lags.tolist(), 1)]
    else:
        raise TypeError("ts must be a sequence of AveragedOp or a callable "
                        "(i, n) -> AveragedOp")

    def inner(x, block, n, last=None, strict=False):
        return None if strict else [apply(op, x) for op in ops(block, n, last)]
    return t0f, inner


def _outer(t0, mean, inner, x, block, n, last=None):
    """T0 at ``mean``, the weighted mean of ``inner(x, block, n, last)``; on a
    non-finite result the rows are re-run strictly to name a bad row."""
    try:
        return apply(t0, mean)
    except NonFiniteError:
        inner(x, block, n, last, strict=True)
        raise


def _residual(x, t0f, inner, w, block, n, last=None):
    """|| x - T_{0,n}(sum_i w_i T_{i,c(i,n)} x) ||, asking for T0 last."""
    outs = inner(x, block, n, last)
    # a non-finite row turns the TwoSum errors into NaN; apply reports it
    with np.errstate(invalid="ignore"):
        mean = kahan_weighted_sum(outs, w)
    return norm(x - _outer(t0f(n), mean, inner, x, block, n, last))


def fixed_point_residual(x, t0, ts, weights):
    """|| x - T_0( sum_i w_i T_i x ) || for autonomous operators."""
    w = check_weights(weights)
    t0f, inner = _families(t0, ts, w.size)
    every = Block.from_sorted(np.arange(w.size, dtype=np.intp))
    return _residual(as_point(x), t0f, inner, w, every, 0)


# ---------------------------------------------------------------------------
# main iterations

# bytes of error rows drawn per window of iterations: the per-call cost of
# the error model (its seed hash, row norms and scaling) is paid once a
# window, and the window's rows stay small at any dimension
_ERROR_WINDOW_BYTES = 1 << 17


def _error_window(model, schedule, block, start, stop, dim):
    """The injected errors of iterations start, start+1, ..., drawn in one
    ``model.error`` call.

    Iteration k gets the rows [0, *sorted(I_k)] at step k, row 0 being
    e_{0,k}; ``block`` is iteration start's. The window ends before
    ``stop`` (the iteration cap), once its rows reach
    ``_ERROR_WINDOW_BYTES`` (the last iteration may pass the bound by its
    block) and before a block the schedule rejects as corrupt, whose
    CoveringError the loop then raises at its own n; iteration start is
    always in it. Returns one ``(block, rows, row_norms)`` entry per
    iteration, the last iteration first, so each block is fetched once. A
    draw that is not a float array of one row per index and ``dim`` columns
    is refused (ValueError).
    """
    max_rows = _ERROR_WINDOW_BYTES // (8 * dim)
    blocks = [block]
    indices = [0, *(block.idx + 1).tolist()]
    for k in range(start + 1, stop):
        if len(indices) >= max_rows:
            break
        try:
            block = schedule.block(k)
        except CoveringError:
            # a corrupt block belongs to iteration k, which may never run
            break
        blocks.append(block)
        indices += [0, *(block.idx + 1).tolist()]
    sizes = [1 + b.idx.size for b in blocks]
    steps = np.repeat(np.arange(start, start + len(blocks)), sizes)
    errs = model.error(np.array(indices), steps, dim)
    expected = (len(indices), dim)
    if not (isinstance(errs, np.ndarray) and errs.dtype.kind == "f"
            and errs.shape == expected):
        got = (f"a {errs.dtype} array of shape {errs.shape}"
               if isinstance(errs, np.ndarray) else type(errs).__name__)
        raise ValueError(f"error model returned {got}, expected a float "
                         f"array of shape {expected}")
    norms = row_norms(errs)
    end = errs.shape[0]
    entries = []
    for b, size in zip(blocks[::-1], sizes[::-1]):
        entries.append((b, errs[end - size:end], norms[end - size:end]))
        end -= size
    return entries


def run(t0, ts, cfg, x0, x_ref=None):
    """Run the block-update iteration; the weighted buffer mean is rebuilt
    from scratch every iteration."""
    return _run_core(t0, ts, cfg, x0, x_ref, economical=False)


def run_economical(t0, ts, cfg, x0, x_ref=None):
    """Run the block-update iteration maintaining the weighted buffer mean
    incrementally (subtract the stale active terms, add the fresh ones)."""
    return _run_core(t0, ts, cfg, x0, x_ref, economical=True)


# The stopping check's predictor. Over an error-free run the lagged residual
# r_n keeps a steady ratio to S_n, the sum of the K steps ||x_{k+1} - x_k||
# before n: from n = K to 2,000, the middle 90% of r_n / S_n lay in
# 0.48-0.49 on lasso (m=500, cyclic, K=50) and 0.46-0.47 on least squares
# (m=2000, cyclic, K=20); quasicyclic blocks are larger, and the ratio lower
# (0.02-0.03 at m=500, K=50). So the rule takes the ratio from the last
# check run at some n_c >= K, with residual r_c and window sum S_c: a
# scheduled check at n >= K is skipped when r_c S_n / S_c exceeds a margin
# times the tolerance, and forced once n - n_c reaches _FORCE_AFTER
# candidates or _FORCE_WINDOWS K-windows, whichever is fewer iterations. So
# at most 19 candidates in a row are skipped, a skipped span is shorter than
# 4K iterations, and with check_every >= 4K nothing is skipped.
#
# The margin is calibrated from the run's own misses. Each check run at
# n >= K against a basis compares the measured r_n with the prediction;
# `miss` is the widest factor between the two, either way. Until
# _CALIBRATE_AFTER comparisons exist the margin is _CHECK_MARGIN, then
# _MISS_MARGIN * miss: a run whose ratio holds steady skips more (lasso_wide
# misses by 1.09 at most, the first comparison at n = 250, so its margin is
# 1.25 and 27 checks run instead of 54), one whose ratio wanders skips less
# than at margin 2. Surveyed by replaying both rules on every-iteration
# residual series. Large: 7 error-free runs (lasso at m=30, cyclic K=6,
# quasicyclic K=5 and full activation K=1; lasso at m=500, cyclic and
# quasicyclic K=50; least squares at m=2000, cyclic and quasicyclic K=20;
# 20,000 iterations), tolerances 1e-1 to 1e-13 and check_every 1 to 500:
# of 810 combinations none stopped later than with every check at either
# margin, and the checks run went 48,766 -> 40,085. Generated: 4 samples
# of 300 problems drawn as tests/test_run_properties.py draws them (m <= 26,
# 100-600 iterations from 3 N(0, I)), tolerances the residual 25, 50 and 90%
# of the way through, check_every 1 to 200, 28,800 combinations: late stops
# 1,815 -> 1,726, late iterations 10,498 -> 10,147, checks 311,382 ->
# 307,408, and each sample improved on all three. Most late stops there
# fall where the tolerance is below 1e-13 times the largest residual, in
# rounding noise, and any one 40-problem sample can go either way. The
# residual is not monotone, so a late stop is always possible. Not taken:
# 1.05 plus 4 times the largest shortfall below a prediction (lasso_wide 34
# checks, but more late stops than margin 2 on every generated sample,
# 1,815 -> 1,862, and 7 on the large survey when calibrated after the first
# comparison instead of the fifth).
_CHECK_MARGIN = 2.0
_CALIBRATE_AFTER = 5
_MISS_MARGIN = 1.15
_FORCE_AFTER = 20
_FORCE_WINDOWS = 4


# +inf and -inf rows in one column make a NaN mean, and a non-finite row
# turns a check's TwoSum errors into NaN; apply reports either. One errstate
# for the whole run, not one per iteration.
@np.errstate(invalid="ignore")
def _run_core(t0, ts, cfg, x0, x_ref, economical):
    schedule = cfg.schedule
    m, K = schedule.m, schedule.K
    w = check_weights(cfg.weights)
    if w.size != m:
        raise ValueError("one weight per operator required")
    x = as_point(x0)
    dim = x.size
    if x_ref is not None:
        x_ref = as_point(x_ref, dim=dim)
    t0f, inner = _families(t0, ts, m, cfg.epsilon, K)
    # read once: the loop below runs these per iteration
    check_every, tol, max_iters = (cfg.check_every, cfg.tol_residual,
                                   cfg.max_iters)
    errors, record_buffers = cfg.error_model, cfg.record_buffers

    tbuf = np.tile(x, (m, 1))
    err_norms = np.zeros(m)
    # (block, error rows, row norms) of the fetched iterations still to run
    pending = []
    if economical:
        z = w @ tbuf

    trace = []
    # last[i-1]: latest step whose block activated i, -1 before any; it
    # serves the lagged stopping check and the on-the-fly covering test
    last = np.full(m, -1)
    # injected errors enter the steps and break the predictor, and a
    # negative tolerance makes every check a requested diagnostic
    gated = errors is None and tol >= 0
    # (n_c, r_c, S_c) of the last check run at some n_c >= K; S_c = 0 until
    # there is one, so nothing is skipped before it
    basis = (None, None, 0.0)
    # the widest factor, either way, by which a check run at n >= K missed
    # its basis's prediction r_c S_n / S_c, over `seen` such comparisons
    miss, seen = 1.0, 0
    force_span = min(_FORCE_AFTER * check_every, _FORCE_WINDOWS * K)
    block_evals = checks = skipped = 0
    n = 0
    while True:
        at_cap = n >= max_iters
        if pending:
            block, errs, norms = pending.pop()
        else:
            block, errs = schedule.block(n), None
        residual = None
        if at_cap or n % check_every == 0:
            # S_n as a plain sum, recomputed at each candidate: no rounding
            # drift builds up, and an overflow gives inf instead of raising
            s_n = (sum(rec.step for rec in trace[n - K:n])
                   if gated and n >= K else None)
            n_c, r_c, s_c = basis
            margin = (_CHECK_MARGIN if seen < _CALIBRATE_AFTER
                      else _MISS_MARGIN * miss)
            if (not at_cap and s_c > 0 and n - n_c < force_span
                    and r_c * s_n > margin * tol * s_c):
                skipped += 1
            else:
                residual = _residual(x, t0f, inner, w, block, n, last)
                checks += 1
                if s_n is not None:
                    if s_c > 0:
                        # r_c > tol >= 0, else the run stopped at n_c; a
                        # prediction or a residual of 0 misses without bound
                        predicted, measured = r_c * s_n, residual * s_c
                        miss = (max(miss, predicted / measured,
                                    measured / predicted)
                                if predicted > 0 and measured > 0
                                else math.inf)
                        seen += 1
                    basis = (n, residual, s_n)
        converged = residual is not None and residual <= tol
        rec = TraceRecord(n=n, x=x.copy(), residual=residual,
                          dist_ref=norm(x - x_ref) if x_ref is not None else None)
        trace.append(rec)
        if converged or at_cap:
            break

        # a slice for consecutive members: views, not gathered copies
        rows = block.rows
        # covering is enforced on the fly: every K-window the run
        # traverses must activate all indices
        record_activation(last, rows, n, K)
        block_evals += block.idx.size
        if economical:
            wi = w[rows]
            y = z - wi @ tbuf[rows]

        new = inner(x, block, n)
        if errors is not None:
            if errs is None:
                pending = _error_window(errors, schedule, block, n,
                                        max_iters, dim)
                _, errs, norms = pending.pop()
            # row 0 is e_{0,n}, the others e_{i,n} for the active i
            new = new + errs[1:]
            err_norms[rows] = norms[1:]
        # the block's new rows in the layout a gather of tbuf[idx] has, so
        # the economical update below need not gather them back
        new = np.ascontiguousarray(new, dtype=float)
        tbuf[rows] = new
        if economical:
            z = y + wi @ new
            mean = z
        else:
            mean = w @ tbuf

        x_next = _outer(t0f(n), mean, inner, x, block, n)
        if errors is None:
            rec.err0 = rec.errsum = 0.0
        else:
            # apply checked T0's output; the error row added to it is not
            x_next = x_next + errs[0]
            if not np.isfinite(x_next).all():
                raise NonFiniteError(f"iterate became non-finite at n={n}")
            rec.err0 = float(norms[0])
            rec.errsum = float(err_norms.sum())

        rec.block = block
        rec.step = norm(x_next - x)
        if record_buffers:
            rec.t_buffer = tbuf.copy()
        x = x_next
        n += 1

    # the error terms of the lagged inequality, n = K-1 to the last update
    lagged = trace[K - 1:-1]
    return SolverResult(
        x=x,
        converged=converged,
        iterations=n,
        residual=residual,
        trace=trace,
        sum_err0=sum((rec.err0 for rec in lagged), 0.0),
        sum_lagged_errors=sum((rec.errsum for rec in lagged), 0.0),
        stats={"block_evals": block_evals, "checks": checks,
               "checks_skipped": skipped},
    )


# ---------------------------------------------------------------------------
# audits

@dataclass
class AuditReport:
    passed: bool
    max_violation: float
    slack: float
    first_violation_n: int | None
    n_checked: int
    label: str = ""

    def __bool__(self):
        return self.passed


def _audit_weights(weights, K):
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    return check_weights(weights)


def _check_finite(**series):
    """Refuse a NaN or infinite entry by its n: no slack tells it from a pass."""
    for name, values in series.items():
        bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=float)))
        if bad.size:
            raise ValueError(f"{name} at n={bad[0]} is not finite: "
                             f"{values[bad[0]]}")


def _verdict(violations, slack, first_n, label):
    """violations[k] is at n = first_n + k; each must be <= slack (NaN is
    not). The audits refuse a trace that leaves ``violations`` empty."""
    v = np.asarray(violations, dtype=float)
    bad = np.flatnonzero(~(v <= slack))
    return AuditReport(not bad.size, float(v.max()), slack,
                       first_n + int(bad[0]) if bad.size else None, v.size,
                       label)


def _distances(trace, x_ref):
    """d_n of every record: its iterate's distance to ``x_ref``, or, for
    ``x_ref`` None, the ``dist_ref`` the run recorded."""
    if x_ref is not None:
        x_ref = as_point(x_ref)
        return np.array([norm(rec.x - x_ref) for rec in trace])
    if any(rec.dist_ref is None for rec in trace):
        raise ValueError("trace has no dist_ref column; rerun with a "
                         "reference")
    return np.array([rec.dist_ref for rec in trace], dtype=float)


def fejer_audit(trace, x_ref, weights, K, slack=None):
    """Audit a trace against the lagged distance inequality: for every
    n >= K-1 with a successor iterate,

        d_{n+1} <= sum_i w_i d_{c(i,n)} + ||e_{0,n}|| + sum_i ||e_{i,c(i,n)}||

    where d_n is the distance of iterate n to the reference solution
    ``x_ref`` (a high-accuracy solution, e.g. the final iterate of a long
    error-free reference run; None reads each record's ``dist_ref``) and
    c(i, n) is replayed from the recorded blocks, which must satisfy the
    K-window covering condition (CoveringError otherwise); only the last
    record may lack its block (ValueError otherwise), and every block must
    name indices in 1..m. A trace of at most K records has no such n and is
    refused (ValueError). The default ``slack`` is 1e-9 * (1 + d_0).
    """
    w = _audit_weights(weights, K)
    dists = _distances(trace, x_ref)
    if dists.size <= K:
        # the inequality starts at n = K-1 and needs iterate n+1
        raise ValueError(f"need at least K+1 = {K + 1} recorded iterates, "
                         f"got {dists.size}")
    err0s = [rec.err0 or 0.0 for rec in trace]
    errsums = [rec.errsum or 0.0 for rec in trace]
    _check_finite(distance=dists, err0=err0s, errsum=errsums)
    if slack is None:
        slack = 1e-9 * (1.0 + float(dists[0]))
    violations = np.empty(dists.size - 1)   # d_{n+1} minus its bound
    last = np.full(w.size, -1)
    for n, rec in enumerate(trace):
        terminal = n == dists.size - 1
        if rec.block is None:
            if terminal:
                break
            raise ValueError(f"no block at n={n}: only the last record may "
                             f"have none")
        block = as_block(rec.block)
        idx = block.idx
        if idx.size and (idx[0] < 0 or idx[-1] >= w.size):
            raise ValueError(f"block {sorted(rec.block)} at n={n} names an "
                             f"index outside 1..{w.size} (one weight each)")
        if terminal:
            break
        record_activation(last, block.rows, n, K)
        if n < K - 1:
            continue
        # accumulate adds left to right, as the builtin sum did
        bound = float(np.add.accumulate(w * dists[last])[-1])
        bound += float(err0s[n]) + float(errsums[n])
        violations[n] = dists[n + 1] - bound
    return _verdict(violations[K - 1:], slack, K - 1, "fejer")


def linear_rate_audit(trace, x_ref, rho0, rhos, weights, K, slack=None):
    """Audit an error-free trace against the geometric envelope implied by
    declared contraction factors:

        d_n <= rho^{(1-K)/K} * max(d_0, ..., d_{K-1}) * rho^{n/K},

    with rho = rho0 * sum_i w_i rho_i, which must be < 1, and d_n measured
    as in ``fejer_audit``. The default ``slack`` is
    1e-12 * (1 + max(d_0, ..., d_{K-1})).
    """
    w = _audit_weights(weights, K)
    if any(rec.err0 or rec.errsum for rec in trace):
        raise ValueError("linear rate audit requires an error-free run")
    if rho0 is None or any(r is None for r in rhos):
        raise ValueError("every operator needs a declared Lipschitz constant")
    if len(rhos) != w.size:
        raise ValueError(f"rhos has {len(rhos)} entries but weights has "
                         f"{w.size}")
    rho = float(rho0) * float(np.dot(w, np.asarray(rhos, dtype=float)))
    if not 0.0 < rho < 1.0:
        raise ValueError(f"no linear guarantee: rho = {rho} is not in (0, 1)")
    dists = _distances(trace, x_ref)
    _check_finite(distance=dists)
    if dists.size < K:
        raise ValueError("need at least K recorded iterates")
    xi_hat = float(dists[:K].max())
    if slack is None:
        slack = 1e-12 * (1.0 + xi_hat)
    head = rho ** ((1.0 - K) / K) * xi_hat
    return _verdict([d - head * rho ** (n / K) for n, d in enumerate(dists)],
                    slack, 0, "linear-rate")
