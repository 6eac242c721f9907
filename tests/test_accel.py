import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandinv.accel import (AccelConfig, FixedPointMap, anderson_combine,
                             anderson_weights, solve, spectral_alpha,
                             spectral_update, squarem_update)


def affine_map(A, b):
    return FixedPointMap(lambda x: A @ x + b, b.size)


def scalar_map(a, b):
    return FixedPointMap(lambda x: a * x + b, 1)


class TestSolvePlain:
    def test_geometric_fixed_point(self):
        out = solve(scalar_map(0.5, 1.0), np.array([0.0]),
                    AccelConfig(tolerance=1e-13, max_evaluations=200))
        assert out.converged
        assert out.termination == "converged"
        assert abs(out.point[0] - 2.0) < 1e-12

    def test_budget_exhaustion(self):
        out = solve(scalar_map(0.999, 0.0), np.array([1.0]),
                    AccelConfig(tolerance=1e-15, max_evaluations=10))
        assert not out.converged
        assert out.termination == "max_evaluations"
        assert out.evaluations == 10

    def test_non_finite_detection(self):
        fp = FixedPointMap(lambda x: x * np.inf, 1)
        out = solve(fp, np.array([1.0]), AccelConfig(max_evaluations=50))
        assert out.termination == "non_finite"
        assert not out.converged
        assert np.all(np.isfinite(out.point))

    def test_residual_history_monotone_for_contraction(self):
        out = solve(scalar_map(0.5, 1.0), np.array([0.0]),
                    AccelConfig(tolerance=1e-13, max_evaluations=200))
        hist = np.array(out.residual_history)
        assert np.all(np.diff(hist) <= 0)


class TestAnderson:
    def test_affine_scalar_exact_after_second_combination(self):
        # hand iteration of the affine map 0.9x + 0.1 from 0: the first
        # combination already lands on the analytic fixed point 1.0
        out = solve(scalar_map(0.9, 0.1), np.array([0.0]),
                    AccelConfig(method="anderson", anderson_memory=1,
                                tolerance=1e-13, max_evaluations=50))
        assert out.converged
        assert out.evaluations <= 4
        assert abs(out.point[0] - 1.0) < 1e-14

    def test_affine_2d_exact(self):
        A = np.array([[0.5, 0.2], [-0.1, 0.6]])
        b = np.array([1.0, -0.5])
        x_star = np.linalg.solve(np.eye(2) - A, b)  # analytic fixed point
        out = solve(affine_map(A, b), np.zeros(2),
                    AccelConfig(method="anderson", anderson_memory=2,
                                tolerance=1e-13, max_evaluations=50))
        assert out.converged
        assert np.max(np.abs(out.point - x_star)) < 1e-12
        assert out.evaluations <= 6

    def test_combine_m0_degenerates_to_plain(self):
        f = [np.array([0.3, -0.2])]
        g = [np.array([1.0, 2.0])]
        np.testing.assert_array_equal(anderson_combine(f, g, 0), g[0])

    def test_zero_residual_dominates(self):
        f = [np.array([1.0, 0.0]), np.array([0.0, 0.0])]
        g = [np.array([5.0, 5.0]), np.array([7.0, 7.0])]
        w = anderson_weights(f, 1)
        np.testing.assert_allclose(w, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(anderson_combine(f, g, 1), g[1], atol=1e-13)

    def test_near_singular_history_never_aborts(self):
        f = [np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0])]
        g = [np.array([0.0, 0.0])] * 3
        w = anderson_weights(f, 2)  # duplicate residuals: rank-deficient
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) < 1e-12

    @settings(deadline=None, max_examples=50)
    @given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 10 ** 6))
    def test_weights_sum_to_one(self, m_n, dim, seed):
        rng = np.random.default_rng(seed)
        f = [rng.normal(size=dim) for _ in range(m_n + 1)]
        w = anderson_weights(f, m_n)
        assert abs(w.sum() - 1.0) < 1e-12


class TestSpectralAlpha:
    def test_direct_arithmetic(self):
        s = np.array([2.0, 0.0])
        y = np.array([-1.0, 0.0])
        assert spectral_alpha(s, y, "S3") == pytest.approx(2.0)
        assert spectral_alpha(s, y, "S1") == pytest.approx(2.0)
        assert spectral_alpha(s, y, "S2") == pytest.approx(2.0)
        assert spectral_alpha(s, y, "S3prime") == pytest.approx(-2.0)

    def test_orthogonal_case(self):
        s = np.array([1.0, 0.0])
        y = np.array([0.0, 2.0])
        assert spectral_alpha(s, y, "S3") == pytest.approx(0.5)
        assert spectral_alpha(s, y, "S1") == pytest.approx(0.0)

    def test_cap(self):
        s = np.array([37.0])
        y = np.array([1.0])
        assert spectral_alpha(s, y, "S3", cap=10.0) == pytest.approx(10.0)

    def test_degenerate_y_falls_back(self):
        assert spectral_alpha(np.array([1.0]), np.array([0.0]), "S3",
                              fallback=0.7) == 0.7


class TestSpectralUpdate:
    def test_alpha_one_is_plain_step(self):
        x = np.array([1.0, 2.0])
        F = np.array([0.5, -0.5])
        np.testing.assert_array_equal(spectral_update(x, F, 1.0), x + F)

    def test_alpha_zero_is_identity(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(spectral_update(x, np.array([3.0, 4.0]), 0.0), x)

    def test_blockwise_scaling(self):
        x = np.zeros(4)
        F = np.array([1.0, 1.0, 2.0, 2.0])
        blocks = (np.array([0, 1]), np.array([2, 3]))
        got = spectral_update(x, F, np.array([2.0, 0.5]), blocks=blocks)
        np.testing.assert_array_equal(got, [2.0, 2.0, 1.0, 1.0])


class TestSquarem:
    def test_scalar_linear_exact(self):
        # Phi(x) = 0.5x from x=1: s=-0.5, y=0.25, alpha=2, update = 0 exactly
        x = np.array([1.0])
        phix = np.array([0.5])
        phi2x = np.array([0.25])
        s = phix - x
        y = phi2x - 2 * phix + x
        alpha = spectral_alpha(s, y, "S3")
        assert alpha == pytest.approx(2.0)
        np.testing.assert_allclose(squarem_update(x, phix, phi2x, alpha), [0.0],
                                   atol=1e-15)

    def test_alpha_one_is_two_step(self):
        x = np.array([1.0, 0.0])
        phix = np.array([0.7, 0.1])
        phi2x = np.array([0.55, 0.17])
        np.testing.assert_allclose(squarem_update(x, phix, phi2x, 1.0), phi2x,
                                   atol=1e-15)

    def test_alpha_zero_is_identity(self):
        x = np.array([1.0, 0.0])
        np.testing.assert_array_equal(
            squarem_update(x, np.array([2.0, 1.0]), np.array([3.0, 2.0]), 0.0), x)

    def test_evaluation_counting_two_per_step(self):
        calls = []
        fp = FixedPointMap(lambda x: calls.append(1) or 0.5 * x, 1)
        out = solve(fp, np.array([4.0]),
                    AccelConfig(method="squarem", tolerance=1e-13,
                                max_evaluations=100))
        assert out.converged
        assert out.evaluations == len(calls)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_reformulation_identity(self, dim, seed):
        # x + 2as + a^2 y equals the two-level spectral composition
        rng = np.random.default_rng(seed)
        A = 0.8 * rng.normal(size=(dim, dim)) / np.sqrt(dim)
        b = rng.normal(size=dim)
        phi = lambda z: A @ z + b
        x = rng.normal(size=dim)
        alpha = float(rng.uniform(-2, 2))
        phix = phi(x)
        direct = squarem_update(x, phix, phi(phix), alpha)
        psi = lambda z: (1 - alpha) * z + alpha * phi(z)
        composed = (1 - alpha) * psi(x) + alpha * psi(phix)
        np.testing.assert_allclose(direct, composed, atol=1e-10)


class TestNegativeAlphaDivergence:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(2, 8), st.integers(0, 10 ** 6))
    def test_negative_step_moves_away_from_fixed_point(self, dim, seed):
        # contraction in L2 + alpha < 0 implies the update is farther from x*
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(dim, dim))
        A *= 0.9 / np.linalg.norm(A, 2)
        b = rng.normal(size=dim)
        x_star = np.linalg.solve(np.eye(dim) - A, b)
        x = x_star + rng.normal(size=dim)
        alpha = -float(rng.uniform(0.01, 3.0))
        F = A @ x + b - x
        moved = spectral_update(x, F, alpha)
        assert np.linalg.norm(moved - x_star) > np.linalg.norm(x - x_star)

    def test_crafted_negative_s1_step_grows_residual(self):
        # 2-d contraction; an s,y pair with s'y > 0 makes rule S1 negative
        A = np.array([[0.5, 0.0], [0.0, 0.4]])
        b = np.array([1.0, 1.0])
        x_star = np.linalg.solve(np.eye(2) - A, b)
        s = np.array([1.0, 0.5])
        y = np.array([0.5, 1.0])
        alpha = spectral_alpha(s, y, "S1")
        assert alpha < 0
        x = x_star + np.array([0.3, -0.2])
        F = A @ x + b - x
        stepped = spectral_update(x, F, alpha)
        assert np.linalg.norm(stepped - x_star) > np.linalg.norm(x - x_star)


class TestDeterminism:
    @pytest.mark.parametrize("method", ["plain", "anderson", "spectral", "squarem"])
    def test_bitwise_identical_reruns(self, method):
        rng = np.random.default_rng(5)
        A = 0.7 * rng.normal(size=(6, 6)) / np.sqrt(6)
        b = rng.normal(size=6)
        cfg = AccelConfig(method=method, tolerance=1e-13, max_evaluations=500)
        out1 = solve(affine_map(A, b), np.zeros(6), cfg)
        out2 = solve(affine_map(A, b), np.zeros(6), cfg)
        assert out1.evaluations == out2.evaluations
        assert np.array_equal(out1.point, out2.point)
        assert out1.residual_history == out2.residual_history


class TestEvaluationCounting:
    @pytest.mark.parametrize("method,per_iter", [("plain", 1), ("spectral", 1)])
    def test_one_eval_per_iteration(self, method, per_iter):
        calls = []
        fp = FixedPointMap(lambda x: calls.append(1) or 0.5 * x + 1.0, 1)
        out = solve(fp, np.array([0.0]),
                    AccelConfig(method=method, tolerance=1e-13, max_evaluations=500))
        assert out.evaluations == len(calls)
        assert out.evaluations == len(out.residual_history)

    def test_anderson_one_eval_per_iteration(self):
        calls = []
        fp = FixedPointMap(lambda x: calls.append(1) or 0.5 * x + 1.0, 1)
        out = solve(fp, np.array([0.0]),
                    AccelConfig(method="anderson", tolerance=1e-13,
                                max_evaluations=500))
        assert out.evaluations == len(calls)


def test_block_partition_validation():
    with pytest.raises(ValueError):
        FixedPointMap(lambda x: x, 3, block_partition=(np.array([0, 1]),))
    with pytest.raises(ValueError):
        FixedPointMap(lambda x: x, 2, block_partition=(np.array([0, 1]),
                                                       np.array([1])))


def test_config_validation():
    with pytest.raises(ValueError):
        AccelConfig(method="newton")
    with pytest.raises(ValueError):
        AccelConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        AccelConfig(step_size_rule="S9")
    # not settable: the first step is the unit step, and only block steps
    # are capped, at DEFAULT_BLOCK_STEP_CAP
    with pytest.raises(TypeError):
        AccelConfig(initial_alpha=2.0)
    with pytest.raises(TypeError):
        AccelConfig(step_cap=2.0)


def recording_map(phi, dim):
    """A map that records every point it is evaluated at."""
    inputs = []

    def evaluate(x):
        inputs.append(np.array(x, copy=True))
        return phi(x)
    return FixedPointMap(evaluate, dim), inputs


def scripted_map(steps):
    """Phi(x) = x + steps[k] on the k-th call."""
    calls = []

    def evaluate(x):
        calls.append(1)
        return x + steps[len(calls) - 1]
    return FixedPointMap(evaluate, len(steps[0]))


# Two steps whose extrapolation overflows while both images stay finite:
# Anderson's weights reach ~2^50 on images near 1e300; the spectral step
# size reaches |s|/|y| = 1e250 with |s| = 1e150; SQUAREM's 2*alpha*s term
# reaches 2.6e308 with alpha = 1e154.
_OVERFLOW_STEPS = {
    "anderson": [np.array([1e300]), np.array([1e300 * (1 + 2.0 ** -50)])],
    "spectral": [np.array([1e150, 0.0]), np.array([1e150, 1e-100])],
    "squarem": [np.array([1.3e154, 0.0]), np.array([1.3e154, 1.3])],
}


class TestTerminationContract:
    @staticmethod
    def slow_contraction(dim=20):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(dim, dim))
        A *= 0.95 / np.linalg.norm(A, 2)
        b = rng.normal(size=dim)
        return lambda x: A @ x + b

    @pytest.mark.parametrize("method", ["plain", "anderson", "spectral", "squarem"])
    def test_non_finite_image_returns_evaluated_point(self, method):
        phi = self.slow_contraction(4)
        calls = []

        def evaluate(x):
            calls.append(1)
            return phi(x) * (np.inf if len(calls) == 3 else 1.0)
        fp, inputs = recording_map(evaluate, 4)
        out = solve(fp, np.zeros(4), AccelConfig(method=method, max_evaluations=50))
        assert out.termination == "non_finite"
        assert not out.converged
        assert out.evaluations == 3
        assert np.array_equal(out.point, inputs[2])

    @pytest.mark.parametrize("method", sorted(_OVERFLOW_STEPS))
    def test_non_finite_extrapolation_returns_last_image(self, method):
        steps = _OVERFLOW_STEPS[method]
        with np.errstate(over="ignore", invalid="ignore"):
            out = solve(scripted_map(steps), np.zeros(steps[0].size),
                        AccelConfig(method=method, max_evaluations=50))
        assert out.termination == "non_finite"
        assert not out.converged
        assert out.evaluations == 2
        # the second image: Phi(x1) for Anderson/spectral, Phi^2(x0) for SQUAREM
        assert np.array_equal(out.point, steps[0] + steps[1])

    def test_squarem_non_finite_second_evaluation_returns_first_image(self):
        phi = self.slow_contraction(4)
        calls = []

        def evaluate(x):
            calls.append(1)
            return phi(x) * (np.inf if len(calls) == 4 else 1.0)
        fp, inputs = recording_map(evaluate, 4)
        out = solve(fp, np.zeros(4), AccelConfig(method="squarem", max_evaluations=50))
        assert out.termination == "non_finite"
        assert out.evaluations == 4
        # Phi(x) of the outer iterate x = inputs[2] is the point evaluated last
        assert np.array_equal(out.point, phi(inputs[2]))
        assert np.array_equal(out.point, inputs[3])
        assert len(out.residual_history) == 2

    @pytest.mark.parametrize("method", ["plain", "anderson", "spectral", "squarem"])
    def test_max_evaluations_returns_next_iterate(self, method):
        # the point returned at budget n is the one a budget of n + 1 evaluates last
        n = 6
        phi = self.slow_contraction()
        cfg = AccelConfig(method=method, tolerance=1e-15, max_evaluations=n)
        out = solve(FixedPointMap(phi, 20), np.zeros(20), cfg)
        fp, inputs = recording_map(phi, 20)
        solve(fp, np.zeros(20), AccelConfig(method=method, tolerance=1e-15,
                                            max_evaluations=n + 1))
        assert out.termination == "max_evaluations"
        assert not out.converged
        assert out.evaluations == n
        assert np.array_equal(out.point, inputs[n])
        per_record = 2 if method == "squarem" else 1
        assert len(out.residual_history) == n // per_record
        assert out.final_residual == out.residual_history[-1]

    def test_squarem_odd_budget_stops_at_exactly_that_count(self):
        n = 7
        phi = self.slow_contraction()
        fp, inputs = recording_map(phi, 20)
        out = solve(fp, np.zeros(20), AccelConfig(method="squarem", tolerance=1e-15,
                                                  max_evaluations=n))
        assert out.termination == "max_evaluations"
        assert out.evaluations == n == len(inputs)
        # the last outer iterate, whose step the budget cut short
        assert np.array_equal(out.point, inputs[n - 1])
        assert len(out.residual_history) == (n + 1) // 2
