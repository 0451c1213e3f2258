import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blocksplit import operators
from blocksplit.calculus import Ball, Box, Halfspace, Hyperplane, projector_op
from blocksplit.operators import (AveragedOp, NonFiniteError, apply,
                                  as_point, certify_averaged, check_weights, compose,
                                  identity_op, kahan_weighted_sum, norm, relax,
                                  row_norms, scaling_op)


def proj_x_axis():
    return projector_op(Hyperplane([0.0, 1.0], 0.0))


def proj_y_axis():
    return projector_op(Hyperplane([1.0, 0.0], 0.0))


class TestApply:
    def test_identity(self):
        assert np.allclose(apply(identity_op(2), [1.0, -2.0]), [1.0, -2.0])

    def test_orthant_projection_clamps(self):
        orthant = projector_op(Box([0.0, 0.0], [np.inf, np.inf]))
        assert np.allclose(apply(orthant, [-1.0, 3.0]), [0.0, 3.0])

    def test_scalar_scaling(self):
        assert np.allclose(apply(scaling_op(1, 0.5), [4.0]), [2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity_op(3), [1.0, 2.0])

    def test_broken_operator_flagged(self):
        bad = AveragedOp(lambda x: x * np.nan, dim=2, alpha=0.5)
        with pytest.raises(NonFiniteError):
            apply(bad, [1.0, 1.0])

    def test_input_not_modified(self):
        x = np.array([1.0, 2.0])
        apply(proj_x_axis(), x)
        assert np.array_equal(x, [1.0, 2.0])


class TestCompose:
    def test_identity_outer(self):
        T = proj_x_axis()
        comp = compose(identity_op(2), T)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(2)
            assert np.allclose(comp(x), T(x))

    def test_two_axis_projections(self):
        comp = compose(proj_x_axis(), proj_y_axis())
        assert np.allclose(comp([3.0, 5.0]), [0.0, 0.0])

    def test_half_scalings(self):
        comp = compose(scaling_op(1, 0.5), scaling_op(1, 0.5))
        assert np.allclose(comp([8.0]), [2.0])
        assert comp.lipschitz == pytest.approx(0.25)
        assert comp.alpha == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_op(2), identity_op(3))


class TestRelax:
    def test_unit_relaxation_is_original(self):
        T = proj_x_axis()
        R = relax(T, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(2)
            assert np.allclose(R(x), T(x))

    def test_half_relaxation_of_zero_map(self):
        R = relax(scaling_op(1, 0.0), 0.5)
        assert np.allclose(R([4.0]), [2.0])
        assert R.alpha == pytest.approx(0.25)

    def test_inverse_relaxation_recovers_action(self):
        T = projector_op(Ball([0.0, 0.0], 1.0))
        lam = 0.4
        back = relax(relax(T, lam), 1.0 / lam)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = 3.0 * rng.standard_normal(2)
            assert np.max(np.abs(back(x) - T(x))) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            relax(identity_op(1, alpha=1.0), 1.5)
        with pytest.raises(ValueError):
            relax(identity_op(1), -1.0)


class TestCertify:
    def test_projector_is_firmly_nonexpansive(self):
        cert = certify_averaged(projector_op(Ball([1.0, 0.0], 2.0)),
                                sample_count=500, seed=1)
        assert cert.passed
        assert cert.max_violation <= 1e-10

    def test_identity_with_small_alpha(self):
        cert = certify_averaged(identity_op(3, alpha=0.5), sample_count=200, seed=2)
        assert cert.passed

    def test_doubling_map_fails(self):
        doubler = AveragedOp(lambda x: 2.0 * x, dim=1, alpha=0.5)
        cert = certify_averaged(doubler, sample_count=200, seed=3)
        assert not cert.passed
        assert cert.max_violation > 0
        # frozen one-pair evaluation at x = (1), y = (0):
        # ||Tx-Ty||^2 + ((1-a)/a)||(x-Tx)-(y-Ty)||^2 - ||x-y||^2 = 4 + 1 - 1
        x, y = np.array([1.0]), np.array([0.0])
        defect = (np.dot(2 * x - 2 * y, 2 * x - 2 * y)
                  + 1.0 * np.dot((x - 2 * x) - (y - 2 * y), (x - 2 * x) - (y - 2 * y))
                  - np.dot(x - y, x - y))
        assert defect == pytest.approx(4.0)

    def test_lipschitz_declaration_checked(self):
        lying = AveragedOp(lambda x: x, dim=2, alpha=0.5, lipschitz=0.5)
        cert = certify_averaged(lying, sample_count=100, seed=4)
        assert cert.lipschitz_checked and not cert.passed

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            certify_averaged(identity_op(1), sample_count=0)


def test_catalog_certificates():
    """Every stock operator passes its declared constant on seeded pairs."""
    catalog = [
        identity_op(2),
        scaling_op(2, 0.5),
        scaling_op(2, 0.0),
        projector_op(Halfspace([1.0, -2.0], 0.5)),
        projector_op(Hyperplane([1.0, 1.0], 1.0)),
        projector_op(Ball([0.0, 1.0], 0.5)),
        projector_op(Box([-1.0, 0.0], [1.0, 2.0])),
    ]
    for op in catalog:
        cert = certify_averaged(op, sample_count=400, seed=5)
        assert cert.passed, (op.name, cert.max_violation)


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [0.5, 0.5, np.nan],
                                     [np.inf, 0.5, 0.5]],
                         ids=["nan-first", "nan-last", "inf"])
def test_check_weights_refuses_non_finite(weights):
    with pytest.raises(ValueError, match="weights must be finite"):
        check_weights(weights)


def test_kahan_weighted_sum_matches_fsum():
    import math

    rng = np.random.default_rng(9)
    vecs = [rng.standard_normal(4) * 10.0 ** rng.integers(-3, 4) for _ in range(12)]
    w = rng.random(12)
    got = kahan_weighted_sum(vecs, w)
    want = np.array([math.fsum(w[i] * vecs[i][k] for i in range(12))
                     for k in range(4)])
    assert np.max(np.abs(got - want)) <= 1e-13 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize("n_weights", [1, 2, 4])
def test_kahan_weighted_sum_needs_one_weight_per_vector(n_weights):
    vecs = [np.ones(2), np.ones(2), np.ones(2)]
    with pytest.raises(ValueError, match="one weight per vector"):
        kahan_weighted_sum(vecs, np.full(n_weights, 0.5))


UNIT_ROUNDOFF = 2.0 ** -53


@st.composite
def cancelling_rows(draw):
    """m rows scaled over 16 decades, half of them near-negatives of the
    other half, in shuffled order, with positive weights."""
    m = draw(st.integers(1, 70))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = rng.standard_normal((m, dim)) * 10.0 ** rng.uniform(-8, 8, (m, 1))
    h = m // 2
    vecs[h:2 * h] = -vecs[:h] * (1.0 + 1e-12 * rng.standard_normal((h, 1)))
    return vecs[rng.permutation(m)], rng.uniform(0.01, 1.0, m)


@settings(deadline=None, max_examples=200)
@given(cancelling_rows(), st.sampled_from([None, 2, 5, 16]))
def test_kahan_weighted_sum_within_compensated_bound(rows, chunk_rows):
    """Against the exact sum S of the rounded products p_i = fl(w_i v_i):
    |got - S| <= 2u|S| + (m u)^2 sum_i |p_i|, per coordinate, also when the
    rows go through the tree in chunks."""
    vecs, w = rows
    m, dim = vecs.shape
    chunk = (operators._SUM_CHUNK_BYTES if chunk_rows is None
             else 8 * dim * chunk_rows)
    with mock.patch.object(operators, "_SUM_CHUNK_BYTES", chunk):
        got = kahan_weighted_sum(vecs, w)
        assert got.tobytes() == kahan_weighted_sum(list(vecs), list(w)).tobytes()
    products = w[:, None] * vecs
    for k in range(dim):
        exact = sum(map(Fraction, products[:, k]), Fraction(0))
        bound = (2 * UNIT_ROUNDOFF * abs(float(exact))
                 + (m * UNIT_ROUNDOFF) ** 2 * float(np.abs(products[:, k]).sum()))
        assert abs(Fraction(got[k]) - exact) <= bound


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(-1e150, 1e150), max_size=40),
       st.integers(0, 2**32 - 1))
def test_norm_is_bit_identical_to_numpy(values, seed):
    rng = np.random.default_rng(seed)
    for x in (np.array(values, dtype=float),
              rng.standard_normal(len(values))
              * 10.0 ** rng.uniform(-150, 150, len(values))):
        assert norm(x) == float(np.linalg.norm(x)) == math.sqrt(x.dot(x))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.floats(-1.0, 1.0), max_size=40), st.floats(154.2, 308.0))
@example([1.0], 200.0)
def test_norm_of_a_huge_finite_vector_is_its_scaled_norm(unit, decade):
    """Where the sum of squares overflows although every entry is finite
    (the first entry's square does), the norm is within rounding of
    ``math.hypot``'s, which scales before it sums: finite when the true
    norm is, and with no floating-point error."""
    x = np.array([1.0, *unit]) * 10.0 ** decade
    assert not math.isfinite(np.vdot(x, x))
    reference = math.hypot(*x)
    with np.errstate(all="raise"):
        got = norm(x)
    if math.isinf(reference):
        assert got == math.inf
    else:
        assert abs(got - reference) <= (x.size + 2) * 2.0 ** -52 * reference


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.none(), st.floats(-150, 150)), min_size=1,
                max_size=40),
       st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_row_norms_are_norm_row_by_row(decades, dim, seed):
    # one row per entry: None is an all-zero row, a number its decade
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((len(decades), dim))
    for row, decade in zip(X, decades):
        row *= 0.0 if decade is None else 10.0 ** decade
    got = row_norms(X)
    assert got.shape == (len(decades),)
    for value, row in zip(got, X):
        assert value == norm(row)


def _reference_apply(op, x):
    """``apply`` as it was before its float64 fast path: every input through
    ``as_point``, every output through ``np.asarray`` and a full scan."""
    p = as_point(x, dim=op.dim)
    out = np.asarray(op.fn(p), dtype=float)
    if out.shape != p.shape:
        raise ValueError(
            f"operator {op.name or op!r} is not dimension-preserving: "
            f"{p.shape} -> {out.shape}")
    if not np.isfinite(out).all():
        raise NonFiniteError(
            f"operator {op.name or op!r} produced non-finite output")
    return out


@st.composite
def apply_inputs(draw):
    """A dimension and a point of one of the forms ``apply`` meets: float64
    vectors (finite, huge enough that their square overflows, or with a
    NaN or an infinity), int arrays, lists, columns and wrong lengths."""
    dim = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["finite", "huge", "non-finite", "int",
                                 "list", "column", "wrong length"]))
    length = dim
    if kind == "wrong length":
        length = draw(st.sampled_from([n for n in (0, dim - 1, dim + 1)
                                       if n >= 0]))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=length, max_size=length))
    x = np.array(values, dtype=float)
    if kind == "huge":
        x[draw(st.integers(0, dim - 1))] = draw(
            st.sampled_from([1.0, -1.0])) * draw(st.floats(1.4e154, 1.7e308))
    elif kind == "non-finite":
        x[draw(st.integers(0, dim - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "int":
        x = np.array(draw(st.lists(st.integers(-2**40, 2**40),
                                   min_size=dim, max_size=dim)))
    elif kind == "list":
        x = values
    elif kind == "column":
        x = x[:, None]
    return dim, x


# outputs of an operator body at the point p it is handed
APPLY_OUTPUTS = {
    "same": lambda p: p,
    "scaled": lambda p: 0.5 * p,
    "list": lambda p: [0.25] * p.size,
    "int": lambda p: np.arange(p.size),
    "float32": lambda p: np.full(p.size, 0.1, dtype=np.float32),
    "huge": lambda p: np.full(p.size, 1e300),
    "nan": lambda p: np.where(np.arange(p.size) == p.size - 1, np.nan, 1.0),
    "-inf": lambda p: np.full(p.size, -np.inf),
    "column": lambda p: np.zeros((p.size, 1)),
    "longer": lambda p: np.zeros(p.size + 1),
    "scalar": lambda p: np.float64(1.0),
}


def _outcome(fn, op, x):
    """('ok', dtype, shape, bytes) or ('raised', type, message), and the
    RuntimeWarnings the call emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(op, x)
        except Exception as exc:
            got = ("raised", type(exc), str(exc))
        else:
            got = ("ok", out.dtype, out.shape, out.tobytes())
    return got, [c for c in caught if issubclass(c.category, RuntimeWarning)]


@settings(deadline=None, max_examples=400)
@given(apply_inputs(), st.sampled_from(sorted(APPLY_OUTPUTS)))
def test_apply_fast_path_matches_the_reference(case, output):
    dim, x = case
    op = AveragedOp(APPLY_OUTPUTS[output], dim=dim, alpha=0.5, name="T")
    got, warned = _outcome(apply, op, x)
    expected, _ = _outcome(_reference_apply, op, x)
    assert got == expected
    assert not warned
