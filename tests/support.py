"""Builders shared by the test modules, and the paper's iteration written out
as the reference the solver is compared against."""

import numpy as np

from blocksplit.calculus import LinearMap
from blocksplit.operators import (AveragedOp, apply, kahan_weighted_sum,
                                  norm)
from blocksplit.solver import TraceRecord


def identity_map(dim):
    return LinearMap(np.eye(dim))


def trace_of(dists, blocks, err0s=None, errsums=None):
    """A trace as ``read_trace_csv`` returns it, with no iterates: record n
    has ``dist_ref`` dists[n], block blocks[n] and, when given, err0s[n]
    and errsums[n]."""
    none = [None] * len(dists)
    return [TraceRecord(n, None, block, err0=err0, errsum=errsum,
                        dist_ref=dist)
            for n, (dist, block, err0, errsum) in enumerate(zip(
                dists, blocks, none if err0s is None else err0s,
                none if errsums is None else errsums))]


def reference_error(c, seed, p, i, n, dim):
    """e_{i,n} drawn the way the error model documents it: one generator per
    (seed, i, n), its standard normal vector normalised and scaled."""
    direction = np.random.default_rng([seed, i, n]).standard_normal(dim)
    nd = norm(direction)
    if nd == 0.0:
        direction = np.zeros(dim)
        direction[0] = 1.0
        nd = 1.0
    return (c / (n + 1.0) ** p) * (direction / nd)


def literal_run(t0, ts, weights, schedule, x0, iters, errors=None):
    """The paper's iteration as written, from t_i = x_0 for every i:

        for i in I_n:        t_i = T_{i,n} x_n + e_{i,n}
        for i not in I_n:    t_i stays
        x_{n+1} = T_{0,n}(sum_i w_i t_i) + e_{0,n}

    ``t0`` is T0 or a family n -> T_{0,n}, ``ts`` the list T_1..T_m or a
    family (i, n) -> T_{i,n}, and ``errors`` (a ``SeededDecayErrors``) gives
    c, seed and p to ``reference_error``. Returns x_0..x_iters, the buffer
    after each update, and at every n the lagged residual
    ||x_n - T_{0,n}(sum_i w_i T_{i,c(i,n)} x_n)||, c(i, n) being the last k
    in max(0, n-K+1)..n with i in I_k, or n if there is none."""
    T0 = (lambda n: t0) if isinstance(t0, AveragedOp) else t0
    T = ts if callable(ts) else (lambda i, n: ts[i - 1])

    def with_error(v, i, n):
        return v if errors is None else v + reference_error(
            errors.c, errors.seed, errors.p, i, n, v.size)

    w = np.asarray(weights, dtype=float)
    m, K = w.size, schedule.K
    x = np.asarray(x0, dtype=float)
    t = np.tile(x, (m, 1))
    blocks = [schedule.block(n) for n in range(iters + 1)]
    xs, buffers, residuals = [x], [], []
    for n in range(iters + 1):
        c = [max((k for k in range(max(0, n - K + 1), n + 1)
                  if i in blocks[k]), default=n) for i in range(1, m + 1)]
        sweep = [apply(T(i, c[i - 1]), x) for i in range(1, m + 1)]
        residuals.append(norm(x - apply(T0(n), kahan_weighted_sum(sweep, w))))
        if n == iters:
            break
        for i in blocks[n]:
            t[i - 1] = with_error(apply(T(i, n), x), i, n)
        x = with_error(apply(T0(n), w @ t), 0, n)
        xs.append(x)
        buffers.append(t.copy())
    return xs, buffers, residuals


def margin_two(miss, seen):
    """The stopping-check gate's margin before it calibrated itself: skip
    while the prediction exceeds twice the tolerance."""
    return 2.0


def calibrated_margin(miss, seen):
    """The gate's margin from its own misses: 2 until five predictions have
    been compared with measured residuals, then 1.15 times the widest factor
    by which one missed."""
    return 2.0 if seen < 5 else 1.15 * miss


def replay_gate(residuals, steps, K, check_every, tol, margin_rule):
    """The n at which an error-free run with ``tol`` >= 0 runs its stopping
    check, replayed from a dense series: ``residuals[n]`` is the lagged
    residual at every n up to the cap, ``steps[n]`` is ||x_{n+1} - x_n||,
    and ``margin_rule(miss, seen)`` gives the margin. The last n returned
    is where the run stops.

    Every ``check_every``-th n and the cap is a candidate. With S_n the sum
    of steps[n-K:n], a candidate at n >= K is skipped when n is not the cap
    and the last check run at some n_c >= K, with residual r_c and S_c > 0,
    lies fewer than min(20 check_every, 4K) iterations back and predicts
    r_c S_n / S_c above margin * tol. Each check run at n >= K against such
    a basis is one more comparison (``seen``), and ``miss`` is the widest
    factor between a measured r_n and its prediction, either way, over
    them: 1 before any, unbounded once a prediction or residual is 0."""
    cap = len(residuals) - 1
    force_span = min(20 * check_every, 4 * K)
    checked = []
    n_c = r_c = None
    s_c = 0.0
    miss, seen = 1.0, 0
    for n in range(cap + 1):
        if n % check_every and n < cap:
            continue
        s_n = sum(steps[n - K:n]) if n >= K else None
        if (n < cap and s_c > 0 and n - n_c < force_span
                and r_c * s_n > margin_rule(miss, seen) * tol * s_c):
            continue
        r_n = residuals[n]
        checked.append(n)
        if r_n <= tol:
            break
        if s_n is not None:
            if s_c > 0:
                seen += 1
                predicted, measured = r_c * s_n, r_n * s_c
                if predicted > 0 and measured > 0:
                    miss = max(miss, predicted / measured,
                               measured / predicted)
                else:
                    miss = float("inf")
            n_c, r_c, s_c = n, r_n, s_n
    return checked
