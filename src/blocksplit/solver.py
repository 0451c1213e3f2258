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
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .operators import (AveragedOp, NonFiniteError, apply, as_point,
                        check_weights, kahan_weighted_sum, norm)
from .schedules import BlockSchedule, record_activation


# ---------------------------------------------------------------------------
# injected errors

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): hashmix
# constants for the entropy pool, the mix multipliers, and the output chain
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715


def _hash_chain(h, mult, count):
    """(xor constant, multiplier) of ``count`` successive hashmix calls."""
    out = []
    for _ in range(count):
        prev, h = h, (h * mult) & _MASK32
        out.append((prev, h))
    return out


def _cross_mix_constants():
    """Per source word s of the pool, the (4, 1) xor constants and
    multipliers of hashmix(pool[s]) as mixed into each other word, in the
    order SeedSequence mixes them; row s is unused."""
    groups = []
    for src in range(4):
        xor = np.zeros((4, 1), np.uint32)
        mul = np.zeros((4, 1), np.uint32)
        for k, dst in enumerate(d for d in range(4) if d != src):
            xor[dst], mul[dst] = _POOL_HASH[4 + 3 * src + k]
        groups.append((src, xor, mul))
    return groups


def _column(pairs):
    """The xor constants and the multipliers of ``pairs`` as (k, 1) arrays."""
    return (np.array(col, np.uint32)[:, None] for col in zip(*pairs))


# 4 pool fills, then 12 cross-mixes: source word s into every other word
_POOL_HASH = _hash_chain(_INIT_A, _MULT_A, 16)
_FILL_XOR, _FILL_MUL = _column(_POOL_HASH[:4])
_CROSS = _cross_mix_constants()
_OUT_XOR, _OUT_MUL = _column(_hash_chain(_INIT_B, _MULT_B, 8))
_U16 = np.array(16, np.uint32)
_U_MIX_L = np.array(_MIX_L, np.uint32)
_U_MIX_R = np.array(_MIX_R, np.uint32)


def _seed_words(seed, idx, n):
    """``SeedSequence([seed, i, n]).generate_state(4, np.uint64)`` for every
    i of the uint32 vector ``idx``, as a ``(len(idx), 4)`` matrix.

    Each entropy word is below 2**32, so the entropy is the three words
    (seed, i, n) and the 4-word pool is filled with their hashmixes and one
    of 0, a pool column per i. The three cross-mixes from each source word
    update the whole pool at once, the source row restored after. Output:
    8 uint32 words hashed from the pool, little-endian pairs read as uint64.
    """
    pool = np.empty((4, idx.size), np.uint32)
    pool[0] = seed
    pool[1] = idx
    pool[2] = n
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
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer in [0, 2**32), "
                         f"got {value!r}") from None
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

    ``error`` takes one index or a 1-D integer array of them and draws a
    whole block in one call, each row bit for bit the single-index draw.
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
        ``i``, the matrix whose row r is e_{i[r],n}."""
        idx = np.asarray(i)
        if idx.ndim > 1 or idx.dtype.kind not in "iu":
            raise ValueError("error indices must be an int or a 1-D integer "
                             "array")
        if idx.size and (idx.min() < 0 or idx.max() > _MASK32):
            raise ValueError("error indices must lie in [0, 2**32)")
        n = _word(n, "n")
        rows = idx.reshape(-1).astype(np.uint32)
        out = np.zeros((rows.size, dim))
        if self.c != 0.0:
            norms = np.empty(rows.size)
            for r, words in enumerate(_seed_words(self.seed, rows, n)):
                rng = np.random.Generator(np.random.PCG64(_Words(words)))
                rng.standard_normal(out=out[r])
                nd = norm(out[r])
                if nd == 0.0:
                    out[r, 0] = 1.0
                    nd = 1.0
                norms[r] = nd
            out /= norms[:, None]
            out *= self.c / (n + 1.0) ** self.p
        return out if idx.ndim else out[0]


# ---------------------------------------------------------------------------
# configuration and state

@dataclass
class SolverConfig:
    """Run parameters.

    ``epsilon`` bounds the admissible averagedness constants: every operator
    must declare alpha < 1/(1 + epsilon). The residual stopping rule is
    evaluated every ``check_every`` iterations to amortize its full sweep of
    operator evaluations; a negative ``tol_residual`` disables it, leaving
    only the ``max_iters`` cap. ``t_init`` overrides the default stale-buffer
    seed (the start point replicated).
    """

    weights: object
    schedule: BlockSchedule
    epsilon: float = 1e-3
    max_iters: int = 1000
    tol_residual: float = 1e-10
    check_every: int = 10
    t_init: object = None            # default: x0 replicated
    # object whose .error(indices, n, dim) returns one row e_{i,n} per
    # index of the 1-D int array ``indices``; index 0 is the outer operator
    error_model: object = None
    record_buffers: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_iters < 0 or self.check_every < 1:
            raise ValueError("max_iters must be >= 0 and check_every >= 1")


@dataclass
class TraceRecord:
    """Per-iteration diagnostics. ``x`` is the iterate *before* the update at
    ``n``; the terminal record of a run has no block/step entries."""

    n: int
    x: np.ndarray
    block: frozenset | None = None
    residual: float | None = None
    step: float | None = None
    err0: float | None = None
    errsum: float | None = None
    dist_ref: float | None = None
    t_buffer: np.ndarray | None = field(default=None, repr=False)


@dataclass
class SolverResult:
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float | None
    trace: list
    sum_err0: float = 0.0
    sum_lagged_errors: float = 0.0

    @property
    def iterates(self):
        return [rec.x for rec in self.trace]


# ---------------------------------------------------------------------------
# operator families

def _as_t0_family(t0):
    if isinstance(t0, AveragedOp):
        return lambda n: t0
    if callable(t0):
        return t0
    raise TypeError("t0 must be an AveragedOp or a callable n -> AveragedOp")


def _as_t_family(ts, m):
    if isinstance(ts, (list, tuple)):
        ops = list(ts)
        if len(ops) != m:
            raise ValueError(f"expected {m} operators, got {len(ops)}")
        return lambda i, n: ops[i - 1]
    if callable(ts):
        return ts
    raise TypeError("ts must be a sequence of AveragedOp or a callable (i, n) -> AveragedOp")


def _check_alpha(op, limit, epsilon):
    if op.alpha >= limit:
        raise ValueError(
            f"operator {op.name!r} declares alpha={op.alpha}, which is not "
            f"< 1/(1+epsilon) = {limit} for epsilon={epsilon}"
        )


def _residual(x, t0, inner_ops, w):
    if hasattr(inner_ops, "eval_block"):
        outs = inner_ops.eval_block(slice(None), x)
    else:
        outs = [apply(op, x) for op in inner_ops]
    return norm(x - apply(t0, kahan_weighted_sum(outs, w)))


def fixed_point_residual(x, t0, ts, weights):
    """|| x - T_0( sum_i w_i T_i x ) || for autonomous operators."""
    w = check_weights(weights)
    return _residual(as_point(x), t0, ts, w)


# ---------------------------------------------------------------------------
# main iterations

def run(t0, ts, cfg, x0, x_ref=None):
    """Run the block-update iteration; the weighted buffer mean is rebuilt
    from scratch every iteration."""
    return _run_core(t0, ts, cfg, x0, x_ref, economical=False)


def run_economical(t0, ts, cfg, x0, x_ref=None):
    """Run the block-update iteration maintaining the weighted buffer mean
    incrementally (subtract the stale active terms, add the fresh ones)."""
    return _run_core(t0, ts, cfg, x0, x_ref, economical=True)


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
    t0f = _as_t0_family(t0)
    tf = _as_t_family(ts, m)
    limit = 1.0 / (1.0 + cfg.epsilon)
    # fixed operators are checked once here, families at every iteration
    t0_fixed = isinstance(t0, AveragedOp)
    if t0_fixed:
        _check_alpha(t0, limit, cfg.epsilon)
    # autonomous operators ignore n, so the check needs no lag lookup
    autonomous = isinstance(ts, (list, tuple))
    if autonomous:
        for op in ts:
            _check_alpha(op, limit, cfg.epsilon)
    # row-structured operators (a RowStack) evaluate a block in one call
    eval_block = getattr(ts, "eval_block", None) if autonomous else None

    if cfg.t_init is None:
        tbuf = np.tile(x, (m, 1))
    else:
        tbuf = np.array([as_point(t, dim=dim) for t in cfg.t_init], dtype=float)
        if tbuf.shape != (m, dim):
            raise ValueError(f"t_init must provide {m} vectors of length {dim}")
    err_norms = np.zeros(m)
    if economical:
        z = w @ tbuf

    trace = []
    sum_err0 = 0.0
    sum_lagged = 0.0
    converged = False
    final_residual = None
    # last[i-1]: latest step whose block activated i, -1 before any; it
    # serves the lagged stopping check and the on-the-fly covering test
    last = [-1] * m
    n = 0
    while True:
        at_cap = n >= cfg.max_iters
        block = schedule.block(n)
        residual = None
        if at_cap or n % cfg.check_every == 0:
            if autonomous:
                check_ops = ts
            else:
                # c(i, n): last activation in the window {n-K+1, ..., n},
                # block n included; n itself before the first activation
                lo = max(0, n - K + 1)
                check_ops = [tf(i, n if i in block or k < lo else k)
                             for i, k in enumerate(last, 1)]
            residual = _residual(x, t0f(n), check_ops, w)
        dist = norm(x - x_ref) if x_ref is not None else None
        if residual is not None and residual <= cfg.tol_residual:
            converged = True
        if converged or at_cap:
            final_residual = residual
            trace.append(TraceRecord(n=n, x=x.copy(), residual=residual,
                                     dist_ref=dist))
            break

        # covering is enforced on the fly: every K-window the run
        # traverses must activate all indices
        record_activation(last, block, n, K)
        active = sorted(block)
        idx = np.array(active) - 1
        if economical:
            y = z - w[idx] @ tbuf[idx]

        if eval_block is not None:
            outs = eval_block(idx, x)
        else:
            ops = [tf(i, n) for i in active]
            if not autonomous:
                for op in ops:
                    _check_alpha(op, limit, cfg.epsilon)
            outs = [apply(op, x) for op in ops]
        if cfg.error_model is None:
            tbuf[idx] = outs
        else:
            # row 0 is e_{0,n}, the others e_{i,n} for the active i
            errs = cfg.error_model.error(np.array([0, *active]), n, dim)
            tbuf[idx] = outs + errs[1:]
            err_norms[idx] = [norm(e) for e in errs[1:]]

        if economical:
            z = y + w[idx] @ tbuf[idx]
            mean = z
        else:
            mean = w @ tbuf

        t0n = t0f(n)
        if not t0_fixed:
            _check_alpha(t0n, limit, cfg.epsilon)
        x_next = apply(t0n, mean)
        err0 = 0.0
        if cfg.error_model is not None:
            x_next = x_next + errs[0]
            err0 = norm(errs[0])
        if not np.isfinite(x_next).all():
            raise NonFiniteError(f"iterate became non-finite at n={n}")

        errsum = float(err_norms.sum())
        if n >= K - 1:
            sum_err0 += err0
            sum_lagged += errsum
        trace.append(TraceRecord(
            n=n,
            x=x.copy(),
            block=block,
            residual=residual,
            step=norm(x_next - x),
            err0=err0,
            errsum=errsum,
            dist_ref=dist,
            t_buffer=tbuf.copy() if cfg.record_buffers else None,
        ))
        x = x_next
        n += 1

    return SolverResult(
        x=x,
        converged=converged,
        iterations=trace[-1].n,
        residual=final_residual,
        trace=trace,
        sum_err0=sum_err0,
        sum_lagged_errors=sum_lagged,
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


def _check_K(K):
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")


def fejer_audit_arrays(dists, err0s, errsums, blocks, weights, K, slack=None):
    """Check, for every n >= K-1 with a successor iterate,

        d_{n+1} <= sum_i w_i d_{c(i,n)} + ||e_{0,n}|| + sum_i ||e_{i,c(i,n)}||

    where d_n is the distance of iterate n to the reference solution and
    c(i, n) is replayed from the recorded blocks, which must satisfy the
    K-window covering condition (CoveringError otherwise). The default
    ``slack`` is 1e-9 * (1 + d_0).
    """
    _check_K(K)
    w = check_weights(weights)
    dists = np.asarray(dists, dtype=float)
    if dists.size == 0:
        raise ValueError("need at least one recorded iterate")
    if slack is None:
        slack = 1e-9 * (1.0 + float(dists[0]))
    total = dists.size
    max_violation = -np.inf
    first_bad = None
    checked = 0
    last = [-1] * w.size
    for n in range(total - 1):
        if blocks[n] is None:
            break
        if not all(1 <= i <= w.size for i in blocks[n]):
            raise ValueError(f"block {sorted(blocks[n])} at n={n} names an "
                             f"index outside 1..{w.size} (one weight each)")
        record_activation(last, blocks[n], n, K)
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
    passed = checked > 0 and max_violation <= slack
    return AuditReport(passed=passed, max_violation=float(max_violation),
                       slack=slack, first_violation_n=first_bad,
                       n_checked=checked, label="fejer")


def fejer_audit(trace, x_ref, weights, K, slack=None):
    """Audit a solver trace against the lagged distance inequality.

    ``x_ref`` should be a high-accuracy solution, e.g. the final iterate of a
    long error-free reference run.
    """
    x_ref = as_point(x_ref)
    dists = [norm(rec.x - x_ref) for rec in trace]
    blocks = [rec.block for rec in trace]
    err0s = [rec.err0 or 0.0 for rec in trace]
    errsums = [rec.errsum or 0.0 for rec in trace]
    return fejer_audit_arrays(dists, err0s, errsums, blocks, weights, K, slack)


def linear_rate_audit_arrays(dists, rho0, rhos, weights, K, slack=None):
    """Check the geometric envelope implied by declared contraction factors:

        d_n <= rho^{(1-K)/K} * max(d_0, ..., d_{K-1}) * rho^{n/K},

    with rho = rho0 * sum_i w_i rho_i, which must be < 1. The default
    ``slack`` is 1e-12 * (1 + max(d_0, ..., d_{K-1})).
    """
    _check_K(K)
    w = check_weights(weights)
    if rho0 is None or any(r is None for r in rhos):
        raise ValueError("every operator needs a declared Lipschitz constant")
    rho = float(rho0) * float(np.dot(w, np.asarray(rhos, dtype=float)))
    if not 0.0 < rho < 1.0:
        raise ValueError(f"no linear guarantee: rho = {rho} is not in (0, 1)")
    dists = np.asarray(dists, dtype=float)
    if dists.size < K:
        raise ValueError("need at least K recorded iterates")
    xi_hat = float(dists[:K].max())
    if slack is None:
        slack = 1e-12 * (1.0 + xi_hat)
    max_violation = -np.inf
    first_bad = None
    for n in range(dists.size):
        envelope = rho ** ((1.0 - K) / K) * xi_hat * rho ** (n / K)
        violation = dists[n] - envelope
        if violation > max_violation:
            max_violation = violation
        if violation > slack and first_bad is None:
            first_bad = n
    return AuditReport(passed=max_violation <= slack,
                       max_violation=float(max_violation), slack=slack,
                       first_violation_n=first_bad, n_checked=dists.size,
                       label="linear-rate")


def linear_rate_audit(trace, x_ref, rho0, rhos, weights, K, slack=None):
    """Audit an error-free trace against the linear convergence envelope."""
    x_ref = as_point(x_ref)
    for rec in trace:
        if rec.err0:
            raise ValueError("linear rate audit requires an error-free run")
    dists = [norm(rec.x - x_ref) for rec in trace]
    return linear_rate_audit_arrays(dists, rho0, rhos, weights, K, slack)
