"""Block activation schedules and their covering diagnostics.

A schedule is the deterministic sequence (I_n) of nonempty subsets of
{1, ..., m} driving which operators get re-evaluated at iteration n. Every
schedule here satisfies the K-window covering condition: the union of any K
consecutive blocks is the full index set. The module also builds the
triangular weight rows mu_{n,j} induced by a schedule, together with the
three structural checks (row sums, band width, diagonal mass) that make the
array concentrating, the lag identity tying the rows to last-activation
indices, and the running last-activation update that decides covering
everywhere in the package.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .operators import as_int, check_weights


class CoveringError(ValueError):
    """The K-window covering condition failed, or a schedule is corrupt.

    A failed window carries its first step ``start`` and the sorted
    ``missing`` indices; both are None for a corrupt block.
    """

    def __init__(self, message, start=None, missing=None):
        super().__init__(message)
        self.start = start
        self.missing = missing


class Block:
    """A block I_n of 1-based operator indices, held as ``idx``, a sorted,
    read-only array of distinct 0-based ``np.intp`` indices, and as ``rows``,
    the same rows as an index: the slice ``slice(idx[0], idx[-1] + 1)`` when
    the members are consecutive and positive, ``idx`` itself otherwise. Both
    are built once with the block, and a Block cannot be changed after.

    A Block is not a frozenset, but it compares as the frozenset of its
    members: ``==`` holds both ways with a set or frozenset of the same
    members, and ``hash``, ``in``, ``len`` and truth are that frozenset's.
    Iteration yields the members as Python ints in increasing order, so
    ``frozenset(blk)`` gives the frozenset itself. The object keeps only
    its arrays.

    Every layer that indexes with a block reads ``idx`` or ``rows`` instead
    of sorting the set again, and the solver's loop calls no Block method.
    For members in 1..len(a), ``a[blk.rows]`` equals ``a[blk.idx]``, but a
    slice makes a view where the index array gathers a copy, so the
    solver's per-iteration reads, writes and row kernel take ``rows``.
    Members may come as any iterable; duplicates are dropped, and members
    must be integers within +-2**62, so that index arithmetic on them stays
    in int64 (ValueError otherwise, naming the members beyond). Their range
    within 1..m is the schedule's to check.
    """

    __slots__ = ("idx", "rows")

    def __new__(cls, members=()):
        members = set(members)
        if not members:
            return cls.from_sorted(np.empty(0, np.intp))
        ordered = _ordered(members)
        idx, bound = np.array(ordered), 2**62
        if (idx.dtype.kind not in "iu" or ordered[0] < -bound
                or ordered[-1] > bound):
            # numpy reads members beyond int64 as uint64, float or object
            wide = [int(i) for i in ordered if isinstance(i, numbers.Integral)
                    and not -bound <= i <= bound]
            if wide:
                raise ValueError(f"block members must be integers within "
                                 f"+-2**62, got {wide}")
            raise ValueError(f"block members must be integers, got {ordered}")
        idx = idx.astype(np.intp, copy=False)
        idx -= 1
        return cls.from_sorted(idx)

    @classmethod
    def from_sorted(cls, idx):
        """The Block over ``idx``, a sorted array of distinct 0-based
        ``np.intp`` indices, taken as is: not checked, not copied, and made
        read-only. ``rows`` is a slice when the members span exactly their
        count and start at 1 or above: a start below would wrap in a
        slice."""
        idx.flags.writeable = False
        self = object.__new__(cls)
        _set_idx(self, idx)
        if idx.size and idx[0] >= 0 and idx[-1] - idx[0] == idx.size - 1:
            _set_rows(self, slice(int(idx[0]), int(idx[-1]) + 1))
        else:
            _set_rows(self, idx)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("a Block is immutable")

    __delattr__ = __setattr__

    def __len__(self):
        return self.idx.size

    def __iter__(self):
        return iter((self.idx + 1).tolist())

    def __contains__(self, item):
        return item in frozenset(self)

    def __eq__(self, other):
        if isinstance(other, Block):
            return np.array_equal(self.idx, other.idx)
        if isinstance(other, (set, frozenset)):
            return frozenset(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self))

    def __repr__(self):
        return f"Block({(self.idx + 1).tolist()})"

    def __reduce__(self):
        # rebuild idx and rows from the members, so a copy's idx is read-only
        return type(self), ((self.idx + 1).tolist(),)


# the slots' own setters: Block.__setattr__ refuses every assignment
_set_idx, _set_rows = Block.idx.__set__, Block.rows.__set__


def _ordered(members):
    """``members`` sorted, by ``repr`` where their kinds do not compare."""
    try:
        return sorted(members)
    except TypeError:           # unordered kinds, such as 1 and "a"
        return sorted(members, key=repr)


def as_block(members):
    """``members`` as a Block: a Block as is, any other iterable wrapped."""
    return members if isinstance(members, Block) else Block(members)


class BlockSchedule:
    """Deterministic generator n -> I_n over {1, ..., m} with covering constant K."""

    def __init__(self, m, K, block_fn, name=""):
        if m < 1 or K < 1:
            raise ValueError("m and K must be >= 1")
        self.m = int(m)
        self.K = int(K)
        self.name = name
        self._block_fn = block_fn

    def block(self, n):
        """The activated index set I_n (1-based indices) as a Block.

        This is the per-iteration fetch. A Block from ``block_fn`` is returned
        as is (the generators below hand out shared, cached Blocks); any
        other iterable is wrapped once. An empty block, or one with a member
        outside 1..m or not an integer, raises CoveringError.
        """
        if n < 0:
            raise ValueError("block index must be >= 0")
        blk = members = self._block_fn(n)
        if not isinstance(blk, Block):
            members = frozenset(members)
            try:
                blk = Block(members)
            except ValueError:
                blk = None      # non-integer members: out of range below
        # the checks read idx alone: no Block method runs per iteration
        if blk is not None and not blk.idx.size:
            raise CoveringError(f"schedule {self.name!r}: empty block at n={n}")
        if blk is None or blk.idx[0] < 0 or blk.idx[-1] >= self.m:
            raise CoveringError(
                f"schedule {self.name!r}: block {_ordered(members)} at n={n} "
                f"not within 1..{self.m}"
            )
        return blk

    def __repr__(self):
        return f"BlockSchedule(m={self.m}, K={self.K}, name={self.name!r})"


# The most indices the quasicyclic generator and the covering walk accept.
# Each keeps int64 arrays with one entry per index, 1 GiB apiece at this
# bound; a larger m is refused before any of them is allocated, instead of
# failing in numpy after the request. A cyclic or explicit schedule allocates
# nothing per index, so it may be larger until it is walked.
MAX_M = 1 << 27


def _check_m(m):
    if m > MAX_M:
        raise ValueError(f"schedule.m must be at most {MAX_M}, got {m}: a "
                         f"schedule keeps 8-byte arrays of m entries")


def make_cyclic(m, block_size):
    """Consecutive wrapped index windows of the given size; K = ceil(m / size).

    The blocks repeat with period m // gcd(m, block_size); each of the
    period's Blocks is built on its first fetch and shared after that, so
    nothing is sized by the period.
    """
    if not 1 <= block_size <= m:
        raise ValueError("block_size must lie in 1..m")
    K = -(-m // block_size)
    period = m // math.gcd(m, block_size)
    cache = {}

    def block_fn(n):
        j = n % period
        blk = cache.get(j)
        if blk is None:
            start = (j * block_size) % m + 1
            stop = start + block_size
            if stop <= m + 1:
                members = range(start, stop)
            else:
                members = [*range(start, m + 1), *range(1, stop - m)]
            blk = cache[j] = Block(members)
        return blk

    return BlockSchedule(m, K, block_fn, name=f"cyclic({m},{block_size})")


def make_full(m):
    """Full activation I_n = {1, ..., m}, K = 1."""
    return make_cyclic(m, m)


def make_quasicyclic_random(m, K, seed):
    """Seeded random nonempty blocks with forced sweep completion.

    Any index that was not activated during the previous K-1 steps is
    inserted into I_n, so the covering condition holds by construction
    rather than by rejection sampling. The Blocks are cached: ``mu_row``,
    ``last_activation`` and ``validate_covering`` read old blocks, and the
    seeded generator cannot produce block n without replaying it from 0.
    An m above ``MAX_M`` is refused (ValueError).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    _check_m(m)
    rng = np.random.default_rng(seed)
    cache = []
    last = np.full(m, -1)
    every = np.arange(m)

    def extend():
        n = len(cache)
        size = int(rng.integers(1, m + 1))
        # the overdue indices and the random picks, as a mask: selecting
        # with it gives the block sorted and distinct, in an array that owns
        # its data, so the cache holds nothing beside it
        active = last <= n - K
        active[rng.choice(m, size=size, replace=False)] = True
        idx = every[active]
        record_activation(last, idx, n, K)
        cache.append(Block.from_sorted(idx))

    def block_fn(n):
        while len(cache) <= n:
            extend()
        return cache[n]

    return BlockSchedule(m, K, block_fn, name=f"quasicyclic({m},{K},seed={seed})")


def make_explicit(m, K, blocks):
    """Schedule repeating the given list of 1-based index lists.

    Every entry must be an integer (an integral float such as 2.0 is one;
    1.7 and true are not) in 1..m, and every block a list of them:
    ValueError otherwise.
    """
    try:
        fixed = [Block(as_int(i, "schedule.blocks entry") for i in blk)
                 for blk in blocks]
    except TypeError:
        raise ValueError(f"schedule.blocks must be a list of index lists, "
                         f"got {blocks!r}") from None
    if not fixed:
        raise ValueError("need at least one block")
    for blk in fixed:
        if not blk or blk.idx[0] < 0 or blk.idx[-1] >= m:
            raise ValueError(f"block {sorted(blk)} invalid for m={m}")

    def block_fn(n):
        return fixed[n % len(fixed)]

    return BlockSchedule(m, K, block_fn, name="explicit")


def schedule_from_spec(spec):
    """Build a schedule from a config mapping.

    Recognized forms:
      {"type": "cyclic", "m": ..., "block_size": ...}
      {"type": "quasicyclic", "m": ..., "K": ..., "seed": ...}
      {"type": "explicit", "m": ..., "K": ..., "blocks": [[...], ...]}

    m, K, block_size and seed must be integers (an integral float such as
    30.0 is one; 30.7 and true are not), and a quasicyclic seed must be
    >= 0. A missing required key or a value refused is a ValueError naming
    it as ``schedule.<key>``.
    """
    def required(key):
        if key not in spec:
            raise ValueError(f"schedule.{key} is missing")
        return spec[key]

    def integer(key, default=None):
        value = required(key) if default is None else spec.get(key, default)
        return as_int(value, f"schedule.{key}")

    kind = spec.get("type")
    m = integer("m")
    if kind == "cyclic":
        return make_cyclic(m, integer("block_size", 1))
    if kind == "quasicyclic":
        seed = integer("seed", 0)
        if seed < 0:
            raise ValueError(f"schedule.seed must be >= 0, got {seed}")
        return make_quasicyclic_random(m, integer("K"), seed)
    if kind == "explicit":
        return make_explicit(m, integer("K"), required("blocks"))
    raise ValueError(f"unknown schedule type {kind!r}")


def validate_covering(schedule, horizon):
    """Check the K-window covering condition on all windows inside ``horizon``.

    Returns None when every window {n, ..., n+K-1} with n + K <= horizon
    covers {1, ..., m}; otherwise returns (n, missing) for the first window
    start n that fails, with the sorted missing indices. The blocks are
    replayed through ``record_activation``; a corrupt block still raises.

    The walk is linear in ``horizon`` and has no cap: a long horizon is a
    cost, not an error. Over 10**6 steps on a shared 2-CPU machine, cyclic
    m=6 with blocks of 2 took 2.8 s, and quasicyclic m=30, K=5 took 23 s and
    370 MB, since its generator keeps every block it draws. One period
    decides a cyclic schedule, but a shortcut for it would be a second
    covering rule beside ``record_activation``. An m above ``MAX_M`` is
    refused (ValueError) before the walk's array is allocated.
    """
    K = schedule.K
    if horizon < K:
        raise ValueError(f"horizon {horizon} must be at least K={K}")
    _check_m(schedule.m)
    last = np.full(schedule.m, -1)
    for n in range(horizon):
        block = schedule.block(n)
        try:
            record_activation(last, block.rows, n, K)
        except CoveringError as exc:
            return exc.start, exc.missing
    return None


def last_activation(schedule, i, n):
    """The last-activation index c(i, n) = max{k in {n-K+1, ..., n} : i in I_k}."""
    K = schedule.K
    if n < K - 1:
        raise ValueError(f"last activation needs n >= K-1 = {K - 1}")
    if not 1 <= i <= schedule.m:
        raise ValueError(f"operator index {i} out of range 1..{schedule.m}")
    for k in range(n, n - K, -1):
        if i in schedule.block(k):
            return k
    raise CoveringError(
        f"index {i} never activated in window {n - K + 1}..{n}; schedule corrupt"
    )


def record_activation(last, idx, n, K):
    """Advance a running last-activation array past the block I_n.

    ``last`` is an integer array of length m: ``last[i - 1]`` holds the
    latest step k < n with i in I_k, or -1 when there is none. ``idx`` is
    I_n as an array of 0-based indices (duplicates are harmless) or as a
    Block's ``rows``; it is trusted to lie in 0..m-1, since a negative index
    would wrap silently, so callers check ranges first. The update is
    ``last[idx] = n`` in place, after which ``last[i - 1]`` equals
    ``last_activation(schedule, i, n)`` for every n >= K-1. From n = K-1 on,
    an index not activated in the window {n-K+1, ..., n} raises
    CoveringError with the window's ``start`` and the sorted 1-based
    ``missing`` indices as Python ints. This is the one place that decides
    K-window covering: the solver, the Fejer replay, ``validate_covering``
    and the quasicyclic generator all advance an array through it.
    """
    last[idx] = n
    if n >= K - 1 and last.min() <= n - K:
        missing = (np.flatnonzero(last <= n - K) + 1).tolist()
        raise CoveringError(
            f"covering violated: indices {missing} absent from window "
            f"starting at n={n - K + 1} (K={K})",
            start=n - K + 1, missing=missing,
        )


@dataclass
class ConcentratingRow:
    """Sparse row of the schedule-induced triangular array (at most K nonzeros)."""

    n: int
    entries: dict = field(default_factory=dict)

    def total(self):
        return float(sum(self.entries.values()))

    def diagonal(self):
        return float(self.entries.get(self.n, 0.0))

    def dot(self, xs):
        return float(sum(mu * xs[j] for j, mu in self.entries.items()))


def mu_row(schedule, weights, n):
    """Row n of the concentrating array induced by the schedule and weights.

    For n <= K-2 the row is the unit mass at j = n. From n = K-1 on, entry j
    carries the total weight of the indices whose last activation in the
    trailing window happened at step j:

        mu_{n,j} = sum of w_i over i in I_j minus union of I_{j+1}, ..., I_n,

    for j in {n-K+1, ..., n}, and 0 elsewhere. Rows are row-stochastic, the
    diagonal mass is at least min_i w_i, and entries vanish once n - j >= K.
    """
    w = check_weights(weights)
    if w.size != schedule.m:
        raise ValueError("one weight per operator index required")
    if n < 0:
        raise ValueError("row index must be >= 0")
    K = schedule.K
    if n <= K - 2:
        return ConcentratingRow(n=n, entries={n: 1.0})
    entries = {}
    seen = np.zeros(schedule.m, dtype=bool)
    for j in range(n, n - K, -1):
        idx = schedule.block(j).idx
        fresh = idx[~seen[idx]]
        if fresh.size:
            # left to right over the sorted fresh indices, as a builtin sum
            entries[j] = float(np.add.accumulate(w[fresh])[-1])
        seen[idx] = True
    return ConcentratingRow(n=n, entries=entries)


@dataclass
class ConcentratingReport:
    passed: bool
    sum_ok: bool
    band_ok: bool
    diagonal_infimum: float
    failures: list

    def __bool__(self):
        return self.passed


def check_concentrating(rows, K):
    """Verify the three concentrating-array conditions on the given rows.

    (i) each row sums to 1 within 1e-12; (ii) no mass at depth
    n - j >= K; (iii) the diagonal masses are bounded away from 0. The report
    carries the observed diagonal infimum and the first few failures.
    """
    failures = []
    sum_ok = band_ok = True
    diag_inf = np.inf
    for row in rows:
        if abs(row.total() - 1.0) > 1e-12:
            sum_ok = False
            failures.append((row.n, "row-sum", row.total()))
        for j, mu in row.entries.items():
            if mu != 0.0 and (row.n - j >= K or j > row.n or j < 0):
                band_ok = False
                failures.append((row.n, "band", j))
        diag_inf = min(diag_inf, row.diagonal())
    diag_ok = diag_inf > 0.0
    if not diag_ok:
        failures.append((None, "diagonal", diag_inf))
    return ConcentratingReport(
        passed=sum_ok and band_ok and diag_ok,
        sum_ok=sum_ok,
        band_ok=band_ok,
        diagonal_infimum=float(diag_inf),
        failures=failures,
    )


def lag_identity_check(schedule, weights, n, xs, tol=1e-12):
    """Check sum_j mu_{n,j} xs_j == sum_i w_i xs_{c(i,n)} at index n >= K-1.

    Both sides are computed independently (row dot product versus weighted
    last-activation gather); returns True when they agree within ``tol``.
    """
    w = check_weights(weights)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size != n + 1:
        raise ValueError(f"xs must have length n+1 = {n + 1}")
    if np.any(xs < 0):
        raise ValueError("xs entries must be nonnegative")
    lhs = mu_row(schedule, w, n).dot(xs)
    rhs = float(
        sum(w[i - 1] * xs[last_activation(schedule, i, n)]
            for i in range(1, schedule.m + 1))
    )
    return abs(lhs - rhs) <= tol
