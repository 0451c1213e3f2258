"""Averaged operators on R^d and the algebra used to assemble composite
fixed point problems: convex combinations, compositions, relaxations, and
a sampling-based certificate for declared averagedness constants.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np


class NonFiniteError(ValueError):
    """An operator produced, or was handed, a NaN/Inf coordinate."""


def as_point(x, dim=None, name="point"):
    """Coerce ``x`` to a finite 1-D float64 vector, optionally of length
    ``dim``; an error names it ``name``."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        p = np.atleast_1d(p.squeeze())
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {p.shape}")
    if dim is not None and p.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {p.shape[0]}")
    if not np.isfinite(p).all():
        raise NonFiniteError(f"{name} has non-finite coordinates")
    return p


def as_int(value, name):
    """``value`` as an int: an int or an integral float, never a bool."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


# the least sum of squares that ``norm`` takes as it stands, 2**-969 (about
# 2.0e-292): a square below 2**-1022 is subnormal or flushed to 0, off by up
# to 2**-1074, which is 2**-105 of this sum and so lost in its rounding
_TINY_SQUARES = 2.0 ** -969


def norm(x):
    """Euclidean norm of a 1-D float array, as ``np.linalg.norm`` computes
    it for one (the square root of ``x.dot(x)``) without its dispatch.

    ``np.vdot`` gives the same sum of squares without an overflow warning.
    Where that sum overflows although every entry is finite, or falls below
    2**-969 although some entry is not 0, the norm is taken of ``x`` scaled
    by its largest ``|x_i|``, so it stays finite and nonzero as long as the
    true norm is; any other sum keeps ``np.linalg.norm``'s bits."""
    s = np.vdot(x, x)
    if s < _TINY_SQUARES:
        if not x.any():
            return 0.0
    elif math.isfinite(s) or not np.isfinite(x).all():
        return math.sqrt(s)
    scale = float(np.abs(x).max())
    with np.errstate(under="ignore"):
        return scale * norm(x / scale)


def row_norms(X):
    """``norm`` of every row of a 2-D float array, bit for bit, in one call.

    Each row's dot product goes through the batched ``matmul`` of a (1, d)
    and a (d, 1) view, which rounds as ``x.dot(x)`` does; ``einsum`` and
    ``(X * X).sum(axis=1)`` add in another order. A row whose sum of
    squares falls below 2**-969 with an entry not 0 goes through ``norm``.
    One whose sum overflows is the exception: its norm is inf, with
    numpy's overflow warning (an error under ``over="raise"``, which the
    harness reports as divergence), where ``norm`` rescales.
    """
    sums = np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]
    out = np.sqrt(sums)
    tiny = np.flatnonzero(sums < _TINY_SQUARES)
    if tiny.size:
        for r in tiny[X[tiny].any(axis=1)].tolist():
            out[r] = norm(X[r])
    return out


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


def check_weights(weights):
    """Validate finite, strictly positive weights summing to one within
    1e-12, return as array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-D sequence")
    finite = np.isfinite(w)
    if not finite.all():
        raise ValueError(f"weights must be finite, got {w[~finite][0]}")
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
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


_FLOAT = np.dtype(float)


def apply(op, x):
    """Evaluate ``op`` at ``x`` with dimension and finiteness checks.

    A float64 array of length ``op.dim`` is taken as it is when its sum of
    squares is finite, which it is only if every coordinate is; ``np.vdot``
    computes that sum without a floating-point warning. Anything else, a
    huge finite vector whose square overflows included, goes through
    ``as_point``, which decides it and gives its error. The output's sum of
    squares is tested the same way, then scanned if it is not finite.
    """
    if not (type(x) is np.ndarray and x.dtype is _FLOAT
            and x.shape == (op.dim,) and math.isfinite(np.vdot(x, x))):
        x = as_point(x, dim=op.dim)
    out = np.asarray(op.fn(x), dtype=float)
    if out.shape != x.shape:
        raise ValueError(
            f"operator {op.name or op!r} is not dimension-preserving: "
            f"{x.shape} -> {out.shape}"
        )
    if not (math.isfinite(np.vdot(out, out)) or np.isfinite(out).all()):
        raise _non_finite(op)
    return out


def _non_finite(op):
    return NonFiniteError(f"operator {op.name or op!r} produced non-finite output")


def _one_row(kernel, rows, x):
    return kernel(rows, x)[0]


class RowStack:
    """m operators of one form, each parametrised by a row, evaluable a
    block at a time.

    ``kernel(idx, x)`` evaluates the operators at the 0-based rows ``idx``
    (an integer array or a slice) at one point ``x`` and returns a
    ``(rows, dim)`` array. The stack holds only the kernel, ``dim``, the
    read-only float array ``alphas`` of the m declared constants and the
    name prefix ``name``. It is a read-only sequence of m ``AveragedOp``s:
    ``stack[k]`` (negative k as for a list, IndexError out of range) and
    iteration build member k when asked, as the operator whose body is the
    kernel on the one-row slice ``slice(k, k + 1)``, with alpha
    ``alphas[k]`` and the name ``f"{name}[{k + 1}]"``. So the formula exists
    once and no per-row object is kept. The constructor checks ``dim`` and
    every alpha as ``AveragedOp`` checks one.

    A kernel must give every row the same bits in whatever block it is
    evaluated, and for a slice as for the same rows as an array: compute
    its dot products as ``(A[idx] * x).sum(axis=1)``, not ``A[idx] @ x``,
    whose matrix-vector product rounds differently with the number of rows.
    Then ``eval_block`` agrees exactly with ``apply`` on each member, and a
    run on the stack equals a run on ``list(stack)``.

    The solver calls ``kernel`` itself, with a block's ``rows`` (a slice for
    consecutive rows) at its already finite iterate, and checks only the
    output's shape. A non-finite row makes the weighted mean it enters
    non-finite; that mean is validated, and only then is the block re-run
    through ``eval_block`` so that the error names the row's operator.
    """

    def __init__(self, kernel, dim, alphas, name=""):
        if dim < 1:
            raise ValueError("operator dimension must be >= 1")
        alphas = np.array(alphas, dtype=float)
        if alphas.ndim != 1:
            raise ValueError("alphas must be a 1-D sequence, one per row")
        bad = np.flatnonzero(~((alphas > 0.0) & (alphas <= 1.0)))
        if bad.size:
            raise ValueError(f"alpha must lie in (0, 1], got "
                             f"{float(alphas[bad[0]])}")
        alphas.flags.writeable = False
        self.kernel = kernel
        self.dim = dim
        self.alphas = alphas
        self.name = name

    def __len__(self):
        return self.alphas.size

    def __getitem__(self, k):
        k = range(self.alphas.size)[operator.index(k)]
        return AveragedOp(partial(_one_row, self.kernel, slice(k, k + 1)),
                          dim=self.dim, alpha=float(self.alphas[k]),
                          name=f"{self.name}[{k + 1}]")

    def __iter__(self):
        return map(self.__getitem__, range(self.alphas.size))

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

    def __bool__(self):
        return self.passed


def certify_averaged(op, sample_count=10_000, seed=0):
    """Check the declared alpha of ``op`` on seeded random pairs.

    For an alpha-averaged T and any x, y,

        ||Tx - Ty||^2 <= ||x - y||^2
                         - ((1 - alpha)/alpha) ||(x - Tx) - (y - Ty)||^2,

    so the sampled defect, normalized by 1 + ||x - y||^2, must stay below
    1e-10. When a Lipschitz constant rho is declared, ||Tx - Ty|| is also
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
        x = 2.0 * rng.standard_normal(op.dim)
        y = 2.0 * rng.standard_normal(op.dim)
        tx = apply(op, x)
        ty = apply(op, y)
        dxy2 = float(np.dot(x - y, x - y))
        dtt2 = float(np.dot(tx - ty, tx - ty))
        res = (x - tx) - (y - ty)
        defect = dtt2 + ratio * float(np.dot(res, res)) - dxy2
        max_violation = max(max_violation, defect / (1.0 + dxy2))
        if check_lip:
            # Python floats keep `passed` a bool, as Certificate.__bool__
            # must return one
            lip_defect = math.sqrt(dtt2) - op.lipschitz * math.sqrt(dxy2)
            max_lip = max(max_lip, lip_defect / (1.0 + math.sqrt(dxy2)))
    passed = max_violation <= 1e-10 and (not check_lip or max_lip <= 1e-10)
    return Certificate(
        passed=passed,
        max_violation=float(max_violation),
        lipschitz_checked=check_lip,
        max_lipschitz_violation=float(max_lip) if check_lip else 0.0,
    )
