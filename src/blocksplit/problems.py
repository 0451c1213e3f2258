"""Builders translating concrete problem classes into solver inputs.

Each builder emits the outer operator, the inner operator family, and the
weights, with the fixed-point inclusion required by the solver holding by
construction. All builders are autonomous except the cohypomonotone one,
whose resolvent indices may vary per iteration.

Lasso, logistic regression and least-squares feasibility are one problem,
proximal gradient over sum_i w_i loss(<a_i, x>, eta_i) with or without an
l1 term, and share one builder: one row kernel, one aggregated gradient and
one objective, with only the loss and the l1 weight changing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import (ConvexSet, LinearMap, SmoothScalar, grad_distance_penalty,
                       gradient_step_op, distance_penalty_value, projector_op)
from .operators import (AveragedOp, RowStack, as_point, certify_averaged,
                        check_weights, identity_op)
from .solver import SolverConfig, run, run_economical


@dataclass
class BuiltProblem:
    """Solver inputs produced by a builder, plus instance metadata."""

    t0: object
    ts: object
    weights: np.ndarray
    dim: int
    m: int
    gamma: float | None = None
    objective: callable = None
    name: str = ""
    meta: dict = field(default_factory=dict)

    def solve(self, schedule, x0, economical=False, x_ref=None, **cfg_kwargs):
        cfg = SolverConfig(weights=self.weights, schedule=schedule, **cfg_kwargs)
        runner = run_economical if economical else run
        return runner(self.t0, self.ts, cfg, x0, x_ref=x_ref)

    def op(self, i, n=0):
        """Operator i at iteration n (i = 0 is the outer operator)."""
        if i == 0:
            return self.t0 if isinstance(self.t0, AveragedOp) else self.t0(n)
        if isinstance(self.ts, (list, tuple, RowStack)):
            return self.ts[i - 1]
        return self.ts(i, n)


def _resolve_weights(weights, m):
    w = np.full(m, 1.0 / m) if weights is None else check_weights(weights)
    if w.size != m:
        raise ValueError(f"expected {m} weights")
    return np.asarray(w, dtype=float)


def _certify(ops, what):
    """Certify each operator on 128 sampled pairs, operator k from seed k."""
    for k, op in enumerate(ops):
        cert = certify_averaged(op, sample_count=128, seed=k)
        if not cert.passed:
            # a failed check's violation exceeds the tolerance, which a
            # passed one's does not
            check, worst = max(("averagedness", cert.max_violation),
                               ("Lipschitz", cert.max_lipschitz_violation),
                               key=lambda pair: pair[1])
            raise ValueError(f"{what}: operator {op.name!r} failed its "
                             f"{check} certificate (max violation "
                             f"{worst:.3e})")


# ---------------------------------------------------------------------------
# common fixed points and residual systems

def _firm_family(ops, what):
    """``ops`` as a list and their common dimension, after checking that they
    are a nonempty family of firmly nonexpansive operators on one space."""
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    dim = ops[0].dim
    for op in ops:
        if op.dim != dim:
            raise ValueError(f"operator {op.name!r} acts on dimension "
                             f"{op.dim}, not {dim}: one space required")
        if op.alpha > 0.5:
            raise ValueError(
                f"operator {op.name!r} declares alpha={op.alpha} > 1/2; "
                "firm nonexpansiveness required"
            )
    _certify(ops, what)
    return ops, dim


def build_common_fixed_point(Ts, weights=None):
    """Seek a common fixed point of firmly nonexpansive operators.

    The outer operator is the identity; solving drives the iterates into the
    intersection of the fixed point sets when it is nonempty.
    """
    ops, dim = _firm_family(Ts, "common fixed point")
    w = _resolve_weights(weights, len(ops))
    return BuiltProblem(t0=identity_op(dim), ts=ops, weights=w, dim=dim,
                        m=len(ops), name="common_fixed_point")


def build_residual_system(Rs, rs, weights=None):
    """Solve r_i = R_i x for firmly nonexpansive R_i via T_i = r_i + Id - R_i.

    When the system is inconsistent the iteration still settles on a fixed
    point of Id + sum_i w_i (r_i - R_i), the natural relaxation.
    """
    Rs = list(Rs)
    if len(Rs) != len(rs):
        raise ValueError("one target per operator required")
    Rs, dim = _firm_family(Rs, "residual system")
    targets = [as_point(r, dim=dim) for r in rs]
    ops = []
    for k, (R, r) in enumerate(zip(Rs, targets)):
        def fn(x, R=R, r=r):
            return r + x - R(x)

        ops.append(AveragedOp(fn, dim=dim, alpha=0.5, name=f"residual[{k + 1}]"))
    w = _resolve_weights(weights, len(ops))

    def gap(x):
        return max(float(np.linalg.norm(R(x) - r)) for R, r in zip(Rs, targets))

    return BuiltProblem(t0=identity_op(dim), ts=ops, weights=w, dim=dim,
                        m=len(ops), name="residual_system",
                        meta={"system_gap": gap})


# ---------------------------------------------------------------------------
# cohypomonotone inclusions

def build_cohypomonotone(resolvents, rhos, gammas, dim, weights=None):
    """Common zeros of cohypomonotone operators via relaxed resolvents.

    ``resolvents[i]`` must evaluate (gamma, x) -> J_{gamma A_i} x, and
    ``gammas`` is either a list of per-operator constants or a callable
    (i, n) -> gamma with gamma >= rho_i + 1e-3. Each emitted operator

        T_{i,n} = Id + (1 - rho_i/gamma) (J_{gamma A_i} - Id)

    is firmly nonexpansive with Fix T_{i,n} = zer A_i, so the fixed-point
    inclusion holds at every iteration even though gamma may vary. With every
    rho_i = 0 and full activation this is the barycentric proximal method.

    The structural hypothesis on each A_i (maximal rho_i-cohypomonotonicity)
    cannot be verified from an evaluable resolvent and is trusted; the
    certificate below only samples firm nonexpansiveness of the emitted
    operators.
    """
    m = len(resolvents)
    rhos = np.asarray(rhos, dtype=float)
    if rhos.shape != (m,) or np.any(rhos < 0):
        raise ValueError("need one rho >= 0 per operator")
    if callable(gammas):
        gamma_at = gammas
    else:
        consts = [float(g) for g in gammas]
        if len(consts) != m:
            raise ValueError("need one gamma per operator")
        gamma_at = lambda i, n: consts[i - 1]

    def make_op(i, n):
        g = float(gamma_at(i, n))
        rho = rhos[i - 1]
        if g < rho + 1e-3:
            raise ValueError(
                f"gamma[{i},{n}] = {g} below admissible rho + 1e-3 = {rho + 1e-3}"
            )
        lam = 1.0 - rho / g
        J = resolvents[i - 1]

        def fn(x):
            jx = np.asarray(J(g, x), dtype=float)
            return x + lam * (jx - x)

        return AveragedOp(fn, dim=dim, alpha=0.5, name=f"relaxed-J[{i},{n}]")

    _certify([make_op(i, 0) for i in range(1, m + 1)], "cohypomonotone")
    w = _resolve_weights(weights, m)
    return BuiltProblem(t0=identity_op(dim), ts=make_op, weights=w, dim=dim,
                        m=m, name="cohypomonotone",
                        meta={"gamma_at": gamma_at, "rhos": rhos})


def quadratic_resolvent(Q, minimizer):
    """Resolvent provider (gamma, x) -> J for the gradient map Q (x - z)."""
    Q = np.asarray(Q, dtype=float)
    z = as_point(minimizer)
    d = z.size
    if Q.shape != (d, d):
        raise ValueError("Q must be square and match the minimizer dimension")
    if float(np.linalg.eigvalsh(0.5 * (Q + Q.T)).min()) < -1e-10:
        raise ValueError("Q must be positive semidefinite")

    def J(gamma, x):
        return np.linalg.solve(np.eye(d) + gamma * Q, x + gamma * (Q @ z))

    return J


# ---------------------------------------------------------------------------
# forward-backward splitting and proximal gradients

def build_forward_backward(a0_resolvent, As, betas, dim, gamma=None,
                           weights=None, lipschitz0=None, lipschitzs=None):
    """Solve 0 in A_0 x + sum_i w_i A_i x with cocoercive A_i.

    ``a0_resolvent`` evaluates (gamma, x) -> J_{gamma A_0} x; each A_i must be
    beta_i-cocoercive so that Id - gamma A_i is averaged for
    gamma < 2 min beta_i. ``As`` is a list of the A_i, or one row kernel
    ``As(idx, x) -> (len(idx), dim)`` of A_i x at the 0-based rows ``idx``,
    whose forward steps form a ``RowStack``. A_0 a normal cone gives a
    variational inequality; A_0 the subdifferential of f_0 and A_i = grad f_i
    give proximal gradient.
    """
    stacked = callable(As)
    betas = np.asarray(betas, dtype=float)
    m = betas.size if stacked else len(As)
    if betas.shape != (m,) or np.any(betas <= 0):
        raise ValueError("need one positive cocoercivity constant per operator")
    bound = 2.0 * float(betas.min())
    if gamma is None:
        gamma = 0.9 * bound
    if not 0.0 < gamma < bound:
        raise ValueError(f"gamma must lie in (0, {bound}), got {gamma}")
    if stacked:
        ops = RowStack(lambda idx, x: x - gamma * As(idx, x), dim,
                       gamma / (2.0 * betas), "forward")
    else:
        ops = [gradient_step_op(A, float(b), gamma, dim, lipschitz=l,
                                name=f"forward[{k + 1}]")
               for k, (A, b, l) in enumerate(zip(As, betas,
                                                 lipschitzs or [None] * m))]
    t0 = AveragedOp(lambda x: np.asarray(a0_resolvent(gamma, x), dtype=float),
                    dim=dim, alpha=0.5, lipschitz=lipschitz0, name="J[gamma A0]")
    w = _resolve_weights(weights, m)
    return BuiltProblem(t0=t0, ts=ops, weights=w, dim=dim, m=m, gamma=gamma,
                        name="forward_backward")


def normal_cone_resolvent(C):
    """Resolvent of the normal cone of C, i.e. the projector for any gamma."""
    return lambda gamma, x: C.project(x)


def build_prox_grad(f0_prox, grads, betas, dim, gamma=None, weights=None,
                    objective=None, meta=None):
    """Minimize f_0 + sum_i w_i f_i with smooth f_i and proximable f_0.

    This is ``build_forward_backward`` with A_0 the subdifferential of f_0,
    whose resolvent ``f0_prox`` evaluates (gamma, x) -> prox_{gamma f_0} x,
    and A_i = grad f_i with a 1/beta_i Lipschitz constant. ``grads`` is a
    list of the gradients or one row gradient kernel, as ``As`` there.
    """
    prob = build_forward_backward(f0_prox, grads, betas, dim, gamma, weights,
                                  lipschitz0=1.0)
    if callable(grads):
        default_grad = lambda x: prob.weights @ grads(slice(None), x)
    else:
        default_grad = lambda x: sum(wi * np.asarray(g(x), dtype=float)
                                     for wi, g in zip(prob.weights, grads))
    prob.objective = objective
    prob.name = "prox_grad"
    prob.meta = {"f0_prox": f0_prox, "smooth_grad": default_grad,
                 **(meta or {})}
    return prob


def _rows_and_targets(rows, targets, what):
    # C order keeps each row's dot product (A[idx] * x).sum(axis=1) a
    # pairwise sum over that row alone, whatever the block
    A = np.ascontiguousarray(rows, dtype=float)
    eta = np.asarray(targets, dtype=float)
    if A.ndim != 2 or eta.shape != (A.shape[0],):
        raise ValueError(f"rows must be (m, d) with one {what} per row")
    if not (np.isfinite(A).all() and np.isfinite(eta).all()):
        k = int(np.argmin(np.isfinite(A).all(axis=1) & np.isfinite(eta)))
        raise ValueError(f"row {k} has a non-finite feature or {what}")
    sq_norms = (A * A).sum(axis=1)
    if np.any(sq_norms == 0.0):
        raise ValueError("zero rows are not allowed")
    return A, eta, sq_norms


def _row_loss_problem(A, eta, sq_norms, loss, dloss, curvature, reg, gamma,
                      weights, name, meta=None):
    """Proximal gradient over sum_i w_i loss(<a_i, x>, eta_i), plus
    ``reg`` ||x||_1 when ``reg`` is set (T_0 is the identity otherwise).

    ``dloss`` is d loss / dt and ``curvature`` bounds d^2 loss / dt^2, so
    row i's gradient is 1/(curvature ||a_i||^2)-cocoercive. ``A``, ``eta``
    and ``sq_norms`` come from ``_rows_and_targets``; ``weights`` are
    resolved once, by ``build_forward_backward``."""
    if reg is not None and not 0 < reg < np.inf:
        raise ValueError(f"l1 weight must be positive and finite, got {reg!r}")

    def grads(idx, x):
        # the row's own dot product keeps a block bit-identical to its rows
        Ai = A[idx]
        return dloss((Ai * x).sum(axis=1), eta[idx])[:, None] * Ai

    def smooth_grad(x):
        # from A x, apart from the row kernel, as an independent check of it
        return A.T @ (prob.weights * dloss(A @ x, eta))

    def objective(x):
        value = float(np.dot(prob.weights, loss(A @ x, eta)))
        return value if reg is None else reg * float(np.abs(x).sum()) + value

    meta = {"smooth_grad": smooth_grad, "rows": A, "targets": eta,
            **(meta or {})}
    if reg is None:
        f0_prox = lambda g, x: x
    else:
        # prox_l1's soft threshold without its checks, which repeat those
        # of apply (on x) and of the builder (on reg and gamma)
        f0_prox = lambda g, x: np.sign(x) * np.maximum(np.abs(x) - g * reg,
                                                       0.0)
        meta["l1_weight"] = reg
    prob = build_prox_grad(f0_prox, grads, 1.0 / (curvature * sq_norms),
                           A.shape[1], gamma, weights, objective, meta)
    prob.name = name
    return prob


def _square_loss(t, e):
    r = t - e
    return r * r


def _square_dloss(t, e):
    return 2.0 * (t - e)


def lasso_problem(rows, targets, reg, gamma=None, weights=None):
    """l1-regularized least squares: alpha ||x||_1 + sum_i w_i (<x, a_i> - eta_i)^2."""
    A, eta, sq_norms = _rows_and_targets(rows, targets, "target")
    return _row_loss_problem(A, eta, sq_norms, _square_loss, _square_dloss,
                             2.0, reg, gamma, weights, "lasso")


def logistic_problem(rows, labels, reg, gamma=None, weights=None):
    """l1-penalized logistic regression with labels in {0, 1}."""
    A, eta, sq_norms = _rows_and_targets(rows, labels, "label")
    if not set(np.unique(eta)) <= {0.0, 1.0}:
        raise ValueError("labels must be 0 or 1")
    # the derivative is sigmoid(t) - e, in a tanh form safe for any float t
    return _row_loss_problem(A, eta, sq_norms,
                             lambda t, e: np.logaddexp(0.0, t) - e * t,
                             lambda t, e: 0.5 * (1.0 + np.tanh(0.5 * t)) - e,
                             0.25, reg, gamma, weights, "logistic")


# ---------------------------------------------------------------------------
# relaxed feasibility

def build_feasibility_relaxation(C0, terms, gamma=None, weights=None):
    """Minimize sum_i w_i phi_i(d_{D_i}(L_i x)) over the hard constraint C0.

    ``terms`` is a list of (L, D, phi) with L a LinearMap, D a ConvexSet and
    phi an even smooth penalty vanishing only at 0. When the underlying
    feasibility problem is consistent, minimizers are exactly its solutions.
    Existence of a minimizer is the caller's responsibility (e.g. via
    coercivity or a bounded C0); unbounded iterates are the observable
    failure mode when none exists.
    """
    if not isinstance(C0, ConvexSet):
        raise ValueError("C0 must be a ConvexSet")
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one (L, D, phi) term")
    dim = C0.dim
    betas = []
    for L, D, phi in terms:
        if not isinstance(L, LinearMap) or not isinstance(D, ConvexSet):
            raise ValueError("each term must be (LinearMap, ConvexSet, SmoothScalar)")
        if not isinstance(phi, SmoothScalar) or not phi.even_vanishing_at_zero:
            raise ValueError("phi must be flagged even and vanishing only at 0")
        if L.domain_dim != dim or L.codomain_dim != D.dim:
            raise ValueError("dimension mismatch in (L, D) term")
        if L.norm <= 0.0:
            raise ValueError("linear maps must be nonzero")
        betas.append(1.0 / (phi.lipschitz_of_derivative * L.norm ** 2))
    w = _resolve_weights(weights, len(terms))

    def objective(x):
        return float(sum(wi * distance_penalty_value(phi, L, D, x)
                         for wi, (L, D, phi) in zip(w, terms)))

    def feasibility_gap(x):
        return max(float(D.distance(L(x))) for L, D, _ in terms)

    # f_0 is the indicator of C0, whose prox is the projector onto C0
    prob = build_prox_grad(
        normal_cone_resolvent(C0),
        [lambda x, phi=phi, L=L, D=D: grad_distance_penalty(phi, L, D, x)
         for L, D, phi in terms],
        betas, dim, gamma=gamma, weights=w, objective=objective,
        meta={"feasibility_gap": feasibility_gap, "beta": min(betas)})
    prob.name = "feasibility_relaxation"
    return prob


def least_squares_feasibility(rows, targets, gamma=None, weights=None):
    """The classical inconsistent-linear-system relaxation: rows as functionals,
    singleton targets, squared distance penalties, no hard constraint.

    With phi = t^2 and D_i = {eta_i} the penalty is (<a_i, x> - eta_i)^2, so
    this is the square loss of ``lasso_problem`` with f_0 = 0: T_0 is the
    identity (the projector onto the whole space).
    """
    A, eta, sq_norms = _rows_and_targets(rows, targets, "target")

    def feasibility_gap(x):
        return float(np.abs(A @ x - eta).max())

    return _row_loss_problem(
        A, eta, sq_norms, _square_loss, _square_dloss, 2.0, None, gamma,
        weights, "least_squares_feasibility",
        meta={"feasibility_gap": feasibility_gap,
              "beta": 1.0 / (2.0 * float(sq_norms.max()))})


def alternating_projections(C, D):
    """Best approximation pair iteration proj_C(proj_D x).

    This is the m = 1 relaxed feasibility instance with L the identity,
    penalty |.|^2 / 2 and unit step, for which the forward step is exactly
    the projector onto D.
    """
    if C.dim != D.dim:
        raise ValueError("sets must live in the same space")

    def objective(x):
        d = D.distance(x)
        return 0.5 * d * d

    def feasibility_gap(x):
        return float(D.distance(x))

    return BuiltProblem(t0=projector_op(C, name="proj[C]"),
                        ts=[projector_op(D, name="proj[D]")],
                        weights=np.array([1.0]), dim=C.dim, m=1, gamma=1.0,
                        objective=objective, name="alternating_projections",
                        meta={"feasibility_gap": feasibility_gap})
