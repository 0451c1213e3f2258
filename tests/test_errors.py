"""Injected errors: e_{i,n} is a pure function of (seed, i, n), drawn a block
at a time and bit for bit the draw of numpy's ``default_rng([seed, i, n])``."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blocksplit.operators import norm
from blocksplit.solver import SeededDecayErrors, _seed_words

WORD = st.integers(0, 2**32 - 1)


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


@settings(deadline=None, max_examples=60)
@given(seed=WORD, n=WORD, indices=st.lists(WORD, min_size=1, max_size=40),
       dim=st.integers(1, 64), c=st.floats(1e-6, 10.0),
       p=st.floats(1.01, 3.0))
@example(seed=0, n=0, indices=[0], dim=1, c=1.0, p=2.0)
@example(seed=2**32 - 1, n=2**32 - 1, indices=[0, 2**32 - 1, 1, 2**32 - 1],
         dim=64, c=0.01, p=2.0)
def test_block_rows_equal_the_per_index_reference(seed, n, indices, dim, c, p):
    model = SeededDecayErrors(c, seed=seed, p=p)
    block = model.error(np.array(indices), n, dim)
    assert block.shape == (len(indices), dim)
    for row, i in zip(block, indices):
        ref = reference_error(c, seed, p, i, n, dim)
        assert np.array_equal(row, ref)
    assert np.array_equal(model.error(indices[0], n, dim), block[0])

    words = _seed_words(seed, np.array(indices, dtype=np.uint32), n)
    assert words.dtype == np.uint64 and words.shape == (len(indices), 4)
    for row, i in zip(words, indices):
        expected = np.random.SeedSequence([seed, i, n]).generate_state(
            4, np.uint64)
        assert np.array_equal(row, expected)


# SHA-256 of little-endian float64 error matrices, recorded with numpy 2.4.6
# from one `default_rng([seed, i, n])` per row. A numpy release that changes
# SeedSequence, PCG64 or the normal sampler changes these.
PINNED = [
    ((0.01, 4, 2.0, 0, list(range(31)), 20),
     "d75403abef1abfd61bcaf141141958cbec018700cb535c8b34f28de5bf3a4280"),
    ((0.01, 4, 2.0, 6249, [0, 3, 7, 11, 30], 20),
     "835d84568c3b02bf56de706dc28664852e3ee4f839046f6390b5d1088558faee"),
    ((1.0, 2**32 - 1, 1.5, 2**32 - 1, [0, 1, 2**31, 2**32 - 1], 7),
     "431caea1c8cd8747e46dde5a1995aed4d7a271707f7b4904f8c47cf9608ee8db"),
    ((0.5, 0, 3.0, 12345, list(range(39, -1, -1)), 64),
     "14e6a361df76105c0412edfa1baa0982004533f377bb7e244d96e41e7ca2d2c6"),
]


@pytest.mark.parametrize("case, digest", PINNED,
                         ids=["readme-n0", "readme-late", "max-words", "dim64"])
def test_pinned_error_matrices(case, digest):
    c, seed, p, n, indices, dim = case
    block = SeededDecayErrors(c, seed=seed, p=p).error(np.array(indices), n, dim)
    assert hashlib.sha256(block.astype("<f8").tobytes()).hexdigest() == digest


def test_zero_magnitude_block():
    block = SeededDecayErrors(0.0, seed=3).error(np.arange(4), 7, 5)
    assert block.shape == (4, 5) and not block.any()


@pytest.mark.parametrize("kwargs, message", [
    ({"c": float("nan")}, "finite"),
    ({"c": float("inf")}, "finite"),
    ({"c": 1.0, "p": float("nan")}, "finite"),
    ({"c": 1.0, "p": float("inf")}, "finite"),
    ({"c": 1.0, "seed": 1.7}, "seed must be an integer"),
    ({"c": 1.0, "seed": -1}, "seed must lie in"),
    ({"c": 1.0, "seed": 2**32}, "seed must lie in"),
])
def test_bad_parameters_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SeededDecayErrors(**kwargs)


def test_integral_float_seed_accepted():
    assert SeededDecayErrors(1.0, seed=4.0).seed == 4


@pytest.mark.parametrize("i, n, message", [
    (-1, 0, "indices must lie in"),
    (2**32, 0, "indices must lie in"),
    (np.array([0, 2**32]), 0, "indices must lie in"),
    (np.array([[0, 1]]), 0, "1-D integer array"),
    (np.array([0.5]), 0, "1-D integer array"),
    (0, -1, "n must lie in"),
    (0, 2**32, "n must lie in"),
])
def test_indices_and_step_outside_one_word_rejected(i, n, message):
    with pytest.raises(ValueError, match=message):
        SeededDecayErrors(1.0).error(i, n, 3)
