"""Concrete averaged operators: projectors onto standard convex sets,
proximity operators, resolvents of monotone linear maps, and the gradient
of smooth distance penalties phi(d_D(Lx)).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lu_factor, lu_solve

from .operators import AveragedOp, as_int, as_point, norm

MEMBERSHIP_TOL = 1e-14


# ---------------------------------------------------------------------------
# convex sets

class ConvexSet:
    """A nonempty closed convex set with an exact projector."""

    dim = None

    def project(self, x):
        raise NotImplementedError

    def distance(self, x):
        x = as_point(x, dim=self.dim)
        return norm(x - self.project(x))


class Box(ConvexSet):
    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValueError("box bounds must be 1-D and equally shaped")
        # an infinite bound is well defined, unless it leaves the box empty
        for name, bound, empty in (("lower", self.lower, np.inf),
                                   ("upper", self.upper, -np.inf)):
            bad = bound[np.isnan(bound) | (bound == empty)]
            if bad.size:
                raise ValueError(f"box {name} bound {float(bad[0])} is NaN or "
                                 f"leaves the box empty")
        if np.any(self.lower > self.upper):
            raise ValueError("empty box: lower > upper somewhere")
        self.dim = self.lower.size

    def project(self, x):
        return np.clip(as_point(x, dim=self.dim), self.lower, self.upper)


class Halfspace(ConvexSet):
    """{x : <a, x> <= b} with <a, a> a positive, finite, normal float: a
    subnormal or infinite <a, a> would make the projection overflow or
    leave x where it is."""

    def __init__(self, a, b):
        self.a = as_point(a, name=f"{type(self).__name__.lower()} normal a")
        self.b = float(b)
        self.dim = self.a.size
        with np.errstate(over="ignore", under="ignore"):
            self._aa = float(np.dot(self.a, self.a))
        tiny = float(np.finfo(float).tiny)
        if not tiny <= self._aa < np.inf:
            raise ValueError(f"{type(self).__name__.lower()} normal a must have "
                             f"<a, a> in [{tiny!r}, inf), got {self._aa!r}")
        # b = +inf makes a halfspace the whole space; NaN or -inf, no set
        if not self.b > -np.inf:
            raise ValueError(f"{type(self).__name__.lower()} offset b must not "
                             f"be NaN or -inf, got {self.b!r}")

    def project(self, x):
        x = as_point(x, dim=self.dim)
        excess = np.dot(self.a, x) - self.b
        if excess <= 0.0:
            return x
        return x - (excess / self._aa) * self.a


class Hyperplane(Halfspace):
    """{x : <a, x> = b}, with ``a`` as for ``Halfspace`` and a finite b."""

    def __init__(self, a, b):
        super().__init__(a, b)
        if self.b == np.inf:
            raise ValueError(f"hyperplane offset b must be finite, got "
                             f"{self.b!r}")

    def project(self, x):
        x = as_point(x, dim=self.dim)
        return x - ((np.dot(self.a, x) - self.b) / self._aa) * self.a


class Ball(ConvexSet):
    def __init__(self, center, radius):
        self.center = as_point(center, name="ball center")
        self.radius = float(radius)
        if not self.radius > 0.0:
            raise ValueError(f"ball radius must be positive, got "
                             f"{self.radius!r}")
        self.dim = self.center.size

    def project(self, x):
        x = as_point(x, dim=self.dim)
        r = x - self.center
        nr = norm(r)
        if nr <= self.radius:
            return x
        return self.center + (self.radius / nr) * r


class AffineSubspace(ConvexSet):
    """{x : Ax = b} for a full-row-rank A; the projector factorization is
    computed once at construction and rank deficiency is rejected there."""

    def __init__(self, A, b):
        self.A = np.asarray(A, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise ValueError("need a k x d matrix and a length-k right-hand side")
        for name, value in (("matrix A", self.A), ("right-hand side b", self.b)):
            if not np.isfinite(value).all():
                raise ValueError(f"affine {name} must be finite")
        self.dim = self.A.shape[1]
        gram = self.A @ self.A.T
        try:
            self._factor = cho_factor(gram)
        except np.linalg.LinAlgError as exc:
            raise ValueError("affine system is rank deficient") from exc

    def project(self, x):
        x = as_point(x, dim=self.dim)
        resid = self.A @ x - self.b
        return x - self.A.T @ cho_solve(self._factor, resid)


class Singleton(ConvexSet):
    def __init__(self, point):
        self.point = as_point(point, name="singleton point")
        self.dim = self.point.size

    def project(self, x):
        as_point(x, dim=self.dim)
        return self.point.copy()


class FullSpace(ConvexSet):
    """All of R^d; projecting is the identity (an unconstrained 'hard' set)."""

    def __init__(self, dim):
        self.dim = int(dim)

    def project(self, x):
        return as_point(x, dim=self.dim)


def set_from_spec(spec):
    """Build a set from a config mapping, e.g. {"set": "ball", "center": [0, 0],
    "radius": 1}."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"set spec must be a mapping, got "
                         f"{type(spec).__name__}")
    kind = spec.get("set")
    if kind == "box":
        return Box(spec["lower"], spec["upper"])
    if kind == "halfspace":
        return Halfspace(spec["a"], spec["b"])
    if kind == "hyperplane":
        return Hyperplane(spec["a"], spec["b"])
    if kind == "ball":
        return Ball(spec["center"], spec["radius"])
    if kind == "affine":
        return AffineSubspace(spec["A"], spec["b"])
    if kind == "singleton":
        return Singleton(spec["point"])
    if kind == "full":
        return FullSpace(as_int(spec["dim"], "full set dim"))
    raise ValueError(f"unknown set kind {kind!r}")


def projector_op(convex_set, name=None):
    """Projectors are firmly nonexpansive, hence 1/2-averaged."""
    return AveragedOp(
        convex_set.project,
        dim=convex_set.dim,
        alpha=0.5,
        lipschitz=1.0,
        name=name or f"proj[{type(convex_set).__name__}]",
    )


# ---------------------------------------------------------------------------
# proximity operators

def prox_l1(x, t):
    """Componentwise soft threshold, the proximity operator of t * l1-norm."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    x = as_point(x)
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def prox_l1_op(dim, t):
    return AveragedOp(lambda x: prox_l1(x, t), dim=dim, alpha=0.5, lipschitz=1.0,
                      name=f"prox_l1[{t}]")


# ---------------------------------------------------------------------------
# resolvents

def _check_monotone_linear(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    sym = 0.5 * (A + A.T)
    lo = float(np.linalg.eigvalsh(sym).min())
    if lo < -1e-10:
        raise ValueError(f"matrix is not monotone: min eigenvalue {lo} of symmetric part")
    return A


def linear_resolvent_op(A, gamma, lipschitz=1.0):
    """The resolvent (I + gamma*A)^{-1} of a monotone linear A, prefactored.

    Monotonicity of A (positive semidefinite symmetric part, eigenvalue
    tolerance 1e-10) is checked here once; the induced operator is firmly
    nonexpansive.
    """
    A = _check_monotone_linear(A)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = A.shape[0]
    factor = lu_factor(np.eye(d) + gamma * A)
    return AveragedOp(lambda x: lu_solve(factor, x), dim=d, alpha=0.5,
                      lipschitz=lipschitz, name=f"J[{gamma}A]")


# ---------------------------------------------------------------------------
# smooth scalar penalties and linear maps

@dataclass(frozen=True)
class SmoothScalar:
    """A differentiable scalar function with a Lipschitz derivative.

    ``even_vanishing_at_zero`` flags the shape required by the distance
    penalties: even, nonnegative, and zero only at the origin.
    """

    value: callable
    derivative: callable
    lipschitz_of_derivative: float
    even_vanishing_at_zero: bool = False
    name: str = ""

    def __post_init__(self):
        if self.lipschitz_of_derivative <= 0:
            raise ValueError("derivative Lipschitz constant must be positive")


def square():
    return SmoothScalar(lambda t: t * t, lambda t: 2.0 * t, 2.0,
                        even_vanishing_at_zero=True, name="square")


def half_square():
    return SmoothScalar(lambda t: 0.5 * t * t, lambda t: t, 1.0,
                        even_vanishing_at_zero=True, name="half_square")


def huber(delta=1.0):
    if delta <= 0:
        raise ValueError("delta must be positive")

    def value(t):
        a = abs(t)
        return 0.5 * t * t if a <= delta else delta * a - 0.5 * delta * delta

    return SmoothScalar(value, lambda t: float(np.clip(t, -delta, delta)), 1.0,
                        even_vanishing_at_zero=True, name=f"huber[{delta}]")


class LinearMap:
    """A dense linear map with its adjoint and exact operator norm."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        if self.matrix.ndim != 2:
            raise ValueError("need a 2-D matrix")
        self.codomain_dim, self.domain_dim = self.matrix.shape
        # the largest singular value; an underestimate would under-declare
        # the alpha of forward steps built from it
        self.norm = float(np.linalg.norm(self.matrix, 2))

    def __call__(self, x):
        return self.matrix @ as_point(x, dim=self.domain_dim)

    def adjoint(self, y):
        return self.matrix.T @ as_point(y, dim=self.codomain_dim)


def row_map(a):
    """The functional x -> <x, a> as a 1 x d linear map."""
    return LinearMap(np.asarray(a, dtype=float).reshape(1, -1))


# ---------------------------------------------------------------------------
# distance penalty gradient

def distance_penalty_value(phi, L, D, x):
    """phi(d_D(L x))."""
    return float(phi.value(D.distance(L(x))))


def grad_distance_penalty(phi, L, D, x):
    """Gradient of x -> phi(d_D(Lx)) for an even phi vanishing only at 0.

    Returns 0 whenever Lx lies in D (projection residual below 1e-14), and

        (phi'(d) / d) * L^T (Lx - proj_D(Lx)),   d = d_D(Lx),

    otherwise. The Lipschitz constant of this gradient is mu * ||L||^2 where
    mu is the Lipschitz constant of phi'.
    """
    if not phi.even_vanishing_at_zero:
        raise ValueError("phi must be flagged even and vanishing only at 0")
    x = as_point(x, dim=L.domain_dim)
    y = L(x)
    resid = y - D.project(y)
    d = norm(resid)
    if d <= MEMBERSHIP_TOL:
        return np.zeros(L.domain_dim)
    return (phi.derivative(d) / d) * L.adjoint(resid)


def gradient_step_op(grad, beta, gamma, dim, lipschitz=None, name=""):
    """The forward step Id - gamma*A for a beta-cocoercive A.

    Cocoercivity makes the step gamma/(2*beta)-averaged for gamma in (0, 2*beta).
    """
    if beta <= 0:
        raise ValueError("cocoercivity constant must be positive")
    if not 0.0 < gamma < 2.0 * beta:
        raise ValueError(f"step {gamma} outside (0, {2.0 * beta})")
    alpha = gamma / (2.0 * beta)
    return AveragedOp(lambda x: x - gamma * np.asarray(grad(x), dtype=float),
                      dim=dim, alpha=alpha, lipschitz=lipschitz,
                      name=name or "forward-step")
