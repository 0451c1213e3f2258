"""Builders shared by the test modules."""

import numpy as np

from blocksplit.calculus import LinearMap
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
