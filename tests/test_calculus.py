import re
import warnings

import numpy as np
import pytest

from blocksplit.calculus import (AffineSubspace, Ball, Box, FullSpace,
                                 Halfspace, Hyperplane, LinearMap, Singleton,
                                 distance_penalty_value,
                                 grad_distance_penalty, gradient_step_op,
                                 half_square, huber, linear_resolvent_op,
                                 projector_op, prox_l1, row_map,
                                 set_from_spec, square)
from blocksplit.operators import certify_averaged
from support import identity_map


def check_derivative(phi, n_samples=200, seed=0, tol=1e-6, spread=3.0):
    """Compare phi.derivative against central differences of phi.value."""
    rng = np.random.default_rng(seed)
    h = 1e-6
    worst = 0.0
    for _ in range(n_samples):
        t = spread * rng.standard_normal()
        fd = (phi.value(t + h) - phi.value(t - h)) / (2.0 * h)
        err = abs(fd - phi.derivative(t)) / (1.0 + abs(phi.derivative(t)))
        worst = max(worst, err)
    return worst <= tol, worst


class TestProxL1:
    def test_zero_threshold(self):
        x = np.array([1.5, -2.0, 0.0])
        assert np.array_equal(prox_l1(x, 0.0), x)

    def test_shrinks_and_kills(self):
        assert np.allclose(prox_l1([2.0, -0.5], 1.0), [1.0, 0.0])

    def test_origin_fixed(self):
        assert np.array_equal(prox_l1(np.zeros(3), 0.7), np.zeros(3))

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            prox_l1([1.0], -0.1)

    def test_subgradient_characterization(self):
        # (x - p)/t must be a valid subgradient of the l1 norm at p
        rng = np.random.default_rng(21)
        for _ in range(1000):
            x = 3.0 * rng.standard_normal(4)
            t = 0.01 + 2.0 * rng.random()
            p = prox_l1(x, t)
            g = (x - p) / t
            for pk, gk in zip(p, g):
                if pk != 0.0:
                    assert abs(gk - np.sign(pk)) <= 1e-12
                else:
                    assert abs(gk) <= 1.0 + 1e-12


class TestProjections:
    def test_interior_point_fixed(self):
        ball = Ball([0.0, 0.0], 2.0)
        x = np.array([0.5, -0.5])
        assert np.array_equal(ball.project(x), x)

    def test_halfspace(self):
        hs = Halfspace([1.0, 0.0], 0.0)
        assert np.allclose(hs.project([2.0, 3.0]), [0.0, 3.0])

    @pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
    @pytest.mark.parametrize("a, aa", [
        ([1e200, 1e200], "inf"), ([1e308, 1e308], "inf"),
        ([1e-160, 0.0], "1e-320"), ([1e-200, 0.0], "0.0"), ([0.0, 0.0], "0.0"),
    ], ids=["overflow", "overflow-max", "subnormal", "underflow", "zero"])
    def test_degenerate_normal_is_refused_without_a_warning(self, cls, a, aa):
        # an infinite <a, a> made the projection the identity, a subnormal
        # one overflowed it; both warned on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    f"{cls.__name__.lower()} normal a must have <a, a> in "
                    f"[2.2250738585072014e-308, inf), got {aa}")):
                cls(a, 0.5)

    @pytest.mark.parametrize("cls", [Halfspace, Hyperplane])
    def test_normal_near_the_bounds_projects(self, cls):
        for scale in (1e150, 1e-150):
            s = cls([scale, 0.0], 0.0)
            assert s._aa == scale * scale
            assert np.allclose(s.project([2.0, 3.0]), [0.0, 3.0], atol=1e-12)
        assert np.array_equal(Hyperplane([1.0, 0.0], 0.0).project([-2.0, 3.0]),
                              [0.0, 3.0])
        assert np.array_equal(Halfspace([1.0, 0.0], 0.0).project([-2.0, 3.0]),
                              [-2.0, 3.0])

    def test_ball_radial_scaling(self):
        ball = Ball([0.0, 0.0], 1.0)
        assert np.allclose(ball.project([3.0, 4.0]), [0.6, 0.8])

    def test_singleton_and_fullspace(self):
        s = Singleton([1.0, 2.0])
        assert np.allclose(s.project([9.0, 9.0]), [1.0, 2.0])
        assert np.allclose(FullSpace(2).project([9.0, -9.0]), [9.0, -9.0])

    def test_affine_subspace(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        b = np.array([1.0, 2.0])
        sub = AffineSubspace(A, b)
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = sub.project(5 * rng.standard_normal(3))
            assert np.linalg.norm(A @ p - b) <= 1e-10

    def test_affine_rank_deficiency_rejected(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            AffineSubspace(A, [1.0, 2.0])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Ball([0.0], -1.0)
        with pytest.raises(ValueError):
            Halfspace([0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            Box([1.0], [0.0])

    @pytest.mark.parametrize("make, message", [
        (lambda: Halfspace([1.0, 1.0], np.nan),
         "halfspace offset b must not be NaN or -inf, got nan"),
        (lambda: Halfspace([1.0, 1.0], -np.inf),
         "halfspace offset b must not be NaN or -inf, got -inf"),
        (lambda: Hyperplane([1.0, 1.0], np.nan),
         "hyperplane offset b must not be NaN or -inf, got nan"),
        (lambda: Hyperplane([1.0, 1.0], -np.inf),
         "hyperplane offset b must not be NaN or -inf, got -inf"),
        (lambda: Hyperplane([1.0, 1.0], np.inf),
         "hyperplane offset b must be finite, got inf"),
        (lambda: Ball([0.0, 0.0], np.nan),
         "ball radius must be positive, got nan"),
        (lambda: Box([0.0, np.nan], [1.0, 1.0]),
         "box lower bound nan is NaN or leaves the box empty"),
        (lambda: Box([0.0, 0.0], [np.nan, 1.0]),
         "box upper bound nan is NaN or leaves the box empty"),
        (lambda: Box([np.inf, 0.0], [np.inf, 1.0]),
         "box lower bound inf is NaN or leaves the box empty"),
        (lambda: Box([-np.inf, 0.0], [-np.inf, 1.0]),
         "box upper bound -inf is NaN or leaves the box empty"),
        (lambda: AffineSubspace([[1.0, 0.0]], [np.nan]),
         "affine right-hand side b must be finite"),
        (lambda: AffineSubspace([[1.0, 0.0]], [np.inf]),
         "affine right-hand side b must be finite"),
        (lambda: AffineSubspace([[1.0, np.inf]], [0.0]),
         "affine matrix A must be finite"),
    ], ids=["halfspace-b-nan", "halfspace-b-neg-inf", "hyperplane-b-nan",
            "hyperplane-b-neg-inf", "hyperplane-b-inf", "ball-radius-nan",
            "box-lower-nan", "box-upper-nan", "box-lower-inf",
            "box-upper-neg-inf", "affine-b-nan", "affine-b-inf",
            "affine-A-inf"])
    def test_parameters_that_leave_no_set_are_refused(self, make, message):
        # each constructed before, and its projection returned NaN or +-inf
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_infinite_parameters_that_leave_a_set_are_kept(self):
        x = np.array([-3.0, 4.0])
        for cset in (Box([-np.inf, 0.0], [np.inf, np.inf]),
                     Halfspace([1.0, 1.0], np.inf), Ball([1.0, 0.0], np.inf)):
            assert np.array_equal(cset.project(x), x)
        assert np.array_equal(Box([-np.inf, 5.0], [0.0, np.inf]).project(x),
                              [-3.0, 5.0])

    @pytest.mark.parametrize("cset", [
        Box([-1.0, -1.0], [1.0, 2.0]),
        Halfspace([1.0, -1.0], 0.5),
        Hyperplane([2.0, 1.0], 1.0),
        Ball([1.0, 0.0], 1.5),
        AffineSubspace(np.array([[1.0, 2.0]]), np.array([1.0])),
        Singleton([0.3, -0.7]),
    ])
    def test_idempotent_and_distance_decreasing(self, cset):
        rng = np.random.default_rng(1)
        for _ in range(40):
            x = 4.0 * rng.standard_normal(2)
            p = cset.project(x)
            assert np.linalg.norm(cset.project(p) - p) <= 1e-12
            # nearest point beats any member drawn from the set
            member = cset.project(4.0 * rng.standard_normal(2))
            assert (np.linalg.norm(x - p)
                    <= np.linalg.norm(x - member) + 1e-12)

    def test_projectors_firmly_nonexpansive(self):
        for cset in [Box([-1.0], [1.0]), Ball([2.0], 1.0), Halfspace([1.0], 0.0)]:
            cert = certify_averaged(projector_op(cset), sample_count=300, seed=2)
            assert cert.passed

    def test_set_from_spec(self):
        ball = set_from_spec({"set": "ball", "center": [0, 0], "radius": 1})
        assert isinstance(ball, Ball)
        assert np.allclose(ball.project([2.0, 0.0]), [1.0, 0.0])
        with pytest.raises(ValueError):
            set_from_spec({"set": "moon"})

    def test_full_set_dimension_is_an_integer(self):
        assert set_from_spec({"set": "full", "dim": 2.0}).dim == 2
        for dim in (2.7, True, "2"):
            with pytest.raises(ValueError, match=re.escape(
                    f"full set dim must be an integer, got {dim!r}")):
                set_from_spec({"set": "full", "dim": dim})


class TestResolvents:
    def test_zero_operator(self):
        x = np.array([1.0, -2.0])
        assert np.allclose(linear_resolvent_op(np.zeros((2, 2)), 1.0)(x), x)

    def test_identity_operator(self):
        out = linear_resolvent_op(np.eye(2), 1.0)([2.0, 4.0])
        assert np.allclose(out, [1.0, 2.0])

    def test_rotation_is_monotone(self):
        A = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = linear_resolvent_op(A, 1.0)([1.0, 0.0])
        assert np.allclose(out, [0.5, -0.5])

    def test_nonmonotone_rejected(self):
        with pytest.raises(ValueError):
            linear_resolvent_op(-np.eye(2), 1.0)
        with pytest.raises(ValueError):
            linear_resolvent_op(np.eye(2), 0.0)

    def test_firm_nonexpansiveness_sampled(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((3, 3))
        A = B @ B.T + np.array([[0.0, 0.3, 0.0],
                                [-0.3, 0.0, 0.1],
                                [0.0, -0.1, 0.0]])
        cert = certify_averaged(linear_resolvent_op(A, 0.7),
                                sample_count=300, seed=3)
        assert cert.passed


class TestSmoothScalars:
    @pytest.mark.parametrize("phi", [square(), half_square(), huber(0.7)])
    def test_derivative_matches_finite_differences(self, phi):
        ok, worst = check_derivative(phi, n_samples=300, seed=4)
        assert ok, worst

    @pytest.mark.parametrize("phi", [square(), half_square(), huber(1.3)])
    def test_shape_flags(self, phi):
        assert phi.even_vanishing_at_zero
        assert phi.value(0.0) == 0.0
        for t in [0.1, -2.0, 5.0]:
            assert phi.value(t) >= 0.0
            assert phi.value(t) == pytest.approx(phi.value(-t))

    def test_invalid_lipschitz(self):
        from blocksplit.calculus import SmoothScalar
        with pytest.raises(ValueError):
            SmoothScalar(lambda t: t, lambda t: 1.0, 0.0)


class TestLinearMap:
    def test_norm_matches_svd(self):
        rng = np.random.default_rng(13)
        for shape in [(1, 5), (3, 3), (4, 2), (6, 6)]:
            M = rng.standard_normal(shape)
            L = LinearMap(M)
            assert abs(L.norm - np.linalg.svd(M, compute_uv=False)[0]) <= 1e-10

    def test_norm_exact_with_near_equal_top_singular_values(self):
        # a power iteration stalls short of the top singular value when the
        # next one is within 1e-9 of it
        rng = np.random.default_rng(15)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        M = Q @ np.diag([2.0, 2.0 * (1.0 - 1e-9), 1.0, 0.5, 0.1]) @ Q.T
        assert LinearMap(M).norm == np.linalg.norm(M, 2)
        D = np.diag([1.0, 1.0 - 1e-9, 1.0 - 2e-9])
        assert LinearMap(D).norm == 1.0

    def test_adjoint_identity(self):
        rng = np.random.default_rng(14)
        L = LinearMap(rng.standard_normal((3, 4)))
        for _ in range(30):
            x = rng.standard_normal(4)
            y = rng.standard_normal(3)
            assert np.dot(L(x), y) == pytest.approx(np.dot(x, L.adjoint(y)))

    def test_row_map(self):
        L = row_map([3.0, 4.0])
        assert L.norm == pytest.approx(5.0)
        assert np.allclose(L([1.0, 1.0]), [7.0])


class TestDistancePenaltyGradient:
    def test_zero_inside(self):
        phi = half_square()
        L = identity_map(2)
        D = Ball([0.0, 0.0], 2.0)
        assert np.array_equal(grad_distance_penalty(phi, L, D, [0.5, 0.5]),
                              np.zeros(2))

    def test_reduces_to_residual(self):
        out = grad_distance_penalty(half_square(), identity_map(1),
                                    Singleton([0.0]), [3.0])
        assert np.allclose(out, [3.0])

    def test_ball_residual(self):
        out = grad_distance_penalty(half_square(), identity_map(2),
                                    Ball([0.0, 0.0], 1.0), [0.0, 2.0])
        assert np.allclose(out, [0.0, 1.0])

    def test_flag_required(self):
        from blocksplit.calculus import SmoothScalar
        phi = SmoothScalar(lambda t: t, lambda t: 1.0, 1.0,
                           even_vanishing_at_zero=False)
        with pytest.raises(ValueError):
            grad_distance_penalty(phi, identity_map(1), Singleton([0.0]), [1.0])

    @pytest.mark.parametrize("phi", [square(), half_square(), huber(0.9)])
    def test_matches_finite_differences(self, phi):
        rng = np.random.default_rng(15)
        L = LinearMap(rng.standard_normal((2, 3)))
        D = Ball([0.5, -0.5], 1.0)
        h = 1e-6
        tested = 0
        while tested < 100:
            x = 3.0 * rng.standard_normal(3)
            if D.distance(L(x)) < 0.05:
                continue
            g = grad_distance_penalty(phi, L, D, x)
            fd = np.zeros(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[k] = (distance_penalty_value(phi, L, D, x + e)
                         - distance_penalty_value(phi, L, D, x - e)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-5 * (1.0 + np.linalg.norm(g))
            tested += 1


class TestGradientStep:
    def test_step_range_enforced(self):
        with pytest.raises(ValueError):
            gradient_step_op(lambda x: x, beta=1.0, gamma=2.0, dim=1)

    def test_certified_at_declared_alpha(self):
        # gradient of a 1-Lipschitz-gradient quadratic is 1-cocoercive
        grad = lambda x: x
        op = gradient_step_op(grad, beta=1.0, gamma=1.5, dim=2)
        assert op.alpha == pytest.approx(0.75)
        assert certify_averaged(op, sample_count=300, seed=6).passed
