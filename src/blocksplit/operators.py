"""Averaged operators on R^d and the algebra used to assemble composite
fixed point problems: convex combinations, compositions, relaxations, and
a sampling-based certificate for declared averagedness constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np


class NonFiniteError(ValueError):
    """An operator produced, or was handed, a NaN/Inf coordinate."""


def as_point(x, dim=None):
    """Coerce ``x`` to a finite 1-D float64 vector, optionally of length ``dim``."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        p = np.atleast_1d(p.squeeze())
    if p.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.shape[0]}")
    if not np.isfinite(p).all():
        raise NonFiniteError("point has non-finite coordinates")
    return p


def inner(x, y):
    return float(np.dot(x, y))


def norm(x):
    """Euclidean norm of a 1-D float array, as ``np.linalg.norm`` computes
    it for one (the square root of ``x.dot(x)``) without its dispatch."""
    return math.sqrt(x.dot(x))


# bytes of products per chunk of kahan_weighted_sum: a chunk and the tree's
# scratch stay in cache; one tree over all 500 rows at d=1000 ran 2x slower
# than the row loop it replaced
_SUM_CHUNK_BYTES = 1 << 19


def kahan_weighted_sum(vectors, weights):
    """Compensated weighted sum sum_i w_i v_i of m equal-length vectors.

    The rounded products p_i = fl(w_i v_i) are added in a pairwise tree:
    each level adds the first half of its rows to the second half with
    TwoSum, which also yields each addition's exact rounding error, and an
    odd last row is carried up a level. The errors of all levels are summed
    and added to the tree's root, so the result is within about 2u|S| +
    (m u)^2 sum_i |p_i| of the exact sum S of the products (u = 2^-53). Each
    level is a few whole-array operations; rows go through the tree in
    chunks of ``_SUM_CHUNK_BYTES`` whose roots are summed by a last tree.
    A list of vectors and the same rows as one array give identical bits.

    The name is kept from the Kahan loop this replaced until the traced
    benchmark probe (``bench/bench_trace.py``), which wraps the function by
    name, moves to a new one.
    """
    v = np.asarray(vectors, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.ndim != 2 or 0 in v.shape:
        raise ValueError("need a nonempty sequence of nonempty equal-length "
                         "1-D vectors")
    m, dim = v.shape
    if w.shape != (m,):
        raise ValueError(f"need one weight per vector: got {w.size} weights "
                         f"for {m} vectors")
    chunk_rows = min(m, max(2, _SUM_CHUNK_BYTES // (8 * dim)))
    products = np.empty((chunk_rows, dim))
    roots = np.empty((-(-m // chunk_rows), dim))
    err = np.zeros(dim)
    for j, lo in enumerate(range(0, m, chunk_rows)):
        hi = min(m, lo + chunk_rows)
        chunk = np.multiply(w[lo:hi, None], v[lo:hi], out=products[:hi - lo])
        roots[j] = _twosum_tree(chunk, err)
    return _twosum_tree(roots, err) + err


def _twosum_tree(rows, err):
    """Pairwise sum of the rows of ``rows``, which it overwrites; adds the
    exact TwoSum rounding errors into ``err`` and returns the root row."""
    k = len(rows)
    src, dst = rows, np.empty(((k + 1) // 2, rows.shape[1]))
    tmp = np.empty((k // 2, rows.shape[1]))
    while k > 1:
        h = k // 2
        a, b, s, bv = src[:h], src[h:2 * h], dst[:h], tmp[:h]
        np.add(a, b, out=s)
        np.subtract(s, a, out=bv)       # b' = s - a
        np.subtract(b, bv, out=b)       # b - b'
        np.subtract(s, bv, out=bv)      # a' = s - b'
        np.subtract(a, bv, out=a)       # a - a'
        np.add(a, b, out=a)             # e = (a - a') + (b - b'), exactly
        err += a.sum(axis=0)
        if k % 2:
            dst[h] = src[k - 1]
        k = h + k % 2
        src, dst = dst[:k], src
    return src[0]


def check_weights(weights, tol=1e-12):
    """Validate strictly positive weights summing to one, return as array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-D sequence")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if abs(float(w.sum()) - 1.0) > tol:
        raise ValueError(f"weights must sum to 1 within {tol}, got {w.sum()!r}")
    return w


@dataclass(frozen=True)
class AveragedOp:
    """An evaluable operator T: R^dim -> R^dim with declared constants.

    ``alpha`` is the declared averagedness constant in (0, 1]; 1 means the
    operator is only declared nonexpansive. ``lipschitz`` is an optional
    declared Lipschitz constant in (0, 1]. Declared constants are trusted at
    run time; ``certify_averaged`` is the only place they are checked.
    """

    fn: callable = field(repr=False)
    dim: int
    alpha: float
    lipschitz: float | None = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("operator dimension must be >= 1")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.lipschitz is not None and not (0.0 < self.lipschitz <= 1.0):
            raise ValueError(f"lipschitz must lie in (0, 1], got {self.lipschitz}")

    def __call__(self, x):
        return apply(self, x)


def apply(op, x):
    """Evaluate ``op`` at ``x`` with dimension and finiteness checks."""
    p = as_point(x, dim=op.dim)
    out = np.asarray(op.fn(p), dtype=float)
    if out.shape != p.shape:
        raise ValueError(
            f"operator {op.name or op!r} is not dimension-preserving: "
            f"{p.shape} -> {out.shape}"
        )
    if not np.isfinite(out).all():
        raise _non_finite(op)
    return out


def _non_finite(op):
    return NonFiniteError(f"operator {op.name or op!r} produced non-finite output")


def _one_row(kernel, rows, x):
    return kernel(rows, x)[0]


class RowStack(list):
    """m operators of one form, each parametrised by a row, evaluable a
    block at a time.

    ``kernel(idx, x)`` evaluates the operators at the 0-based rows ``idx``
    (an integer array or a slice) at one point ``x`` and returns a
    ``(rows, dim)`` array. The list holds one ``AveragedOp`` per row whose
    body is the kernel on that one-row slice, so the formula exists once.
    A kernel must give every row the same bits in whatever block it is
    evaluated: compute its dot products as ``(A[idx] * x).sum(axis=1)``, not
    ``A[idx] @ x``, whose matrix-vector product rounds differently with the
    number of rows. Then ``eval_block`` agrees exactly with ``apply`` on each
    member, and a run on the stack equals a run on ``list(stack)``.
    """

    def __init__(self, kernel, dim, alphas, names):
        super().__init__(
            AveragedOp(partial(_one_row, kernel, slice(k, k + 1)), dim=dim,
                       alpha=float(alpha), name=name)
            for k, (alpha, name) in enumerate(zip(alphas, names)))
        self.kernel = kernel
        self.dim = dim

    def eval_block(self, idx, x):
        """The operators at the 0-based rows ``idx`` evaluated at ``x``, one
        row each; validated once per block as ``apply`` validates one call."""
        p = as_point(x, dim=self.dim)
        rows = range(len(self))[idx] if isinstance(idx, slice) else idx
        out = np.asarray(self.kernel(idx, p), dtype=float)
        if out.shape != (len(rows), self.dim):
            raise ValueError(
                f"row kernel is not dimension-preserving: {len(rows)} rows "
                f"at {p.shape} -> {out.shape}")
        finite = np.isfinite(out)
        if not finite.all():
            raise _non_finite(self[rows[int(np.argmin(finite.all(axis=1)))]])
        return out


def identity_op(dim, alpha=0.5):
    return AveragedOp(lambda x: x, dim=dim, alpha=alpha, lipschitz=1.0, name="id")


def scaling_op(dim, c):
    """The map x -> c*x for c in [0, 1]; (1-c)/2-averaged with constant c."""
    if not 0.0 <= c <= 1.0:
        raise ValueError("scaling factor must lie in [0, 1]")
    alpha = (1.0 - c) / 2.0 if c < 1.0 else 0.5
    lip = c if c > 0.0 else None
    return AveragedOp(lambda x: c * x, dim=dim, alpha=alpha, lipschitz=lip,
                      name=f"{c}*id")


def convex_combination(ops, weights):
    """The operator x -> sum_i w_i T_i x.

    A convex combination of alpha_i-averaged operators is (max alpha_i)-averaged,
    and its Lipschitz constant is the weighted mean of the pieces' constants
    when all of them are declared. The mean is formed by
    ``kahan_weighted_sum``, a compensated pairwise sum.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("need at least one operator")
    w = check_weights(weights)
    if w.size != len(ops):
        raise ValueError("one weight per operator required")
    dim = ops[0].dim
    for op in ops:
        if op.dim != dim:
            raise ValueError("all operators must share one dimension")

    def fn(x):
        return kahan_weighted_sum([apply(op, x) for op in ops], w)

    alpha = max(op.alpha for op in ops)
    lips = [op.lipschitz for op in ops]
    lipschitz = float(np.dot(w, lips)) if all(l is not None for l in lips) else None
    return AveragedOp(fn, dim=dim, alpha=alpha, lipschitz=lipschitz, name="combine")


def compose(outer, inner_op):
    """The operator x -> outer(inner(x)).

    Only nonexpansiveness (alpha = 1) is recorded for the composition; the
    solver needs averagedness constants of the factors, never of the product.
    """
    if outer.dim != inner_op.dim:
        raise ValueError("composition requires equal dimensions")
    lipschitz = None
    if outer.lipschitz is not None and inner_op.lipschitz is not None:
        lipschitz = outer.lipschitz * inner_op.lipschitz

    def fn(x):
        return apply(outer, apply(inner_op, x))

    return AveragedOp(fn, dim=outer.dim, alpha=1.0, lipschitz=lipschitz,
                      name="compose")


def relax(op, lam):
    """The relaxation x -> x + lam*(T x - x), (lam*alpha)-averaged."""
    if lam <= 0.0:
        raise ValueError("relaxation parameter must be positive")
    alpha = lam * op.alpha
    if alpha > 1.0 + 1e-15:
        raise ValueError(
            f"relaxation {lam} out of range for declared alpha {op.alpha} "
            f"(lam*alpha = {alpha} > 1)"
        )

    def fn(x):
        return x + lam * (apply(op, x) - x)

    return AveragedOp(fn, dim=op.dim, alpha=min(alpha, 1.0), name="relax")


@dataclass
class Certificate:
    """Result of sampling the averagedness inequality on random pairs."""

    passed: bool
    max_violation: float        # max normalized defect of the averagedness bound
    lipschitz_checked: bool
    max_lipschitz_violation: float
    sample_count: int
    alpha: float
    tol: float

    def __bool__(self):
        return self.passed


def certify_averaged(op, sample_count=10_000, seed=0, tol=1e-10, spread=2.0):
    """Check the declared alpha of ``op`` on seeded random pairs.

    For an alpha-averaged T and any x, y,

        ||Tx - Ty||^2 <= ||x - y||^2
                         - ((1 - alpha)/alpha) ||(x - Tx) - (y - Ty)||^2,

    so the sampled defect, normalized by 1 + ||x - y||^2, must stay below
    ``tol``. When a Lipschitz constant rho is declared, ||Tx - Ty|| is also
    checked against rho ||x - y|| with the analogous normalization.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    ratio = (1.0 - op.alpha) / op.alpha
    max_violation = -np.inf
    max_lip = -np.inf
    check_lip = op.lipschitz is not None
    for _ in range(sample_count):
        x = spread * rng.standard_normal(op.dim)
        y = spread * rng.standard_normal(op.dim)
        tx = apply(op, x)
        ty = apply(op, y)
        dxy2 = float(np.dot(x - y, x - y))
        dtt2 = float(np.dot(tx - ty, tx - ty))
        res = (x - tx) - (y - ty)
        defect = dtt2 + ratio * float(np.dot(res, res)) - dxy2
        max_violation = max(max_violation, defect / (1.0 + dxy2))
        if check_lip:
            lip_defect = np.sqrt(dtt2) - op.lipschitz * np.sqrt(dxy2)
            max_lip = max(max_lip, lip_defect / (1.0 + np.sqrt(dxy2)))
    passed = max_violation <= tol and (not check_lip or max_lip <= tol)
    return Certificate(
        passed=passed,
        max_violation=float(max_violation),
        lipschitz_checked=check_lip,
        max_lipschitz_violation=float(max_lip) if check_lip else 0.0,
        sample_count=sample_count,
        alpha=op.alpha,
        tol=tol,
    )
