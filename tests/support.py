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
