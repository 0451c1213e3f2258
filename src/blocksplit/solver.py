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

from dataclasses import dataclass, field

import numpy as np

from .operators import (AveragedOp, NonFiniteError, apply, as_point,
                        check_weights, kahan_weighted_sum, norm)
from .schedules import BlockSchedule, record_activation


# ---------------------------------------------------------------------------
# configuration and state

class SeededDecayErrors:
    """Deterministic summable perturbations e_{i,n} for robustness tests.

    Directions are seeded per (i, n); magnitudes are c / (n+1)**p, so the
    lagged error sums required by the convergence theory stay finite for
    p > 1. i = 0 addresses the outer operator.
    """

    def __init__(self, c, seed=0, p=2.0):
        if c < 0 or p <= 1.0:
            raise ValueError("need c >= 0 and decay exponent p > 1")
        if int(seed) < 0:
            raise ValueError("seed must be nonnegative")
        self.c = float(c)
        self.seed = int(seed)
        self.p = float(p)

    def error(self, i, n, dim):
        if self.c == 0.0:
            return np.zeros(dim)
        rng = np.random.default_rng([self.seed, i, n])
        direction = rng.standard_normal(dim)
        nd = np.linalg.norm(direction)
        if nd == 0.0:
            direction = np.zeros(dim)
            direction[0] = 1.0
            nd = 1.0
        return (self.c / (n + 1.0) ** self.p) * (direction / nd)


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
    error_model: object = None       # object with .error(i, n, dim)
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
            for i, out in zip(active, outs):
                e = np.asarray(cfg.error_model.error(i, n, dim), dtype=float)
                tbuf[i - 1] = out + e
                err_norms[i - 1] = norm(e)

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
            e0 = np.asarray(cfg.error_model.error(0, n, dim), dtype=float)
            x_next = x_next + e0
            err0 = norm(e0)
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
