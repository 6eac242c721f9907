import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandinv import accel, datagen, dynamic, static_rcl
from demandinv.accel import (DEFAULT_BLOCK_STEP_CAP, SOLVE_ERRSTATE, AccelConfig,
                             FixedPointMap, _DifferenceQR, _step_rule, anderson_combine,
                             solve)
from demandinv.numerics import ls_minnorm


def affine_map(A, b):
    return FixedPointMap(lambda x: A @ x + b)


def scalar_map(a, b):
    return FixedPointMap(lambda x: a * x + b)


def recording_map(phi, block_labels=None):
    """A map that records every point it is evaluated at."""
    inputs = []

    def evaluate(x):
        inputs.append(np.array(x, copy=True))
        return phi(x)
    return FixedPointMap(evaluate, block_labels), inputs


def scripted_map(steps, block_labels=None):
    """Phi(x) = x + steps[k] on the k-th call, recording every x."""
    calls = iter(steps)
    return recording_map(lambda x: x + next(calls), block_labels)


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
        fp = FixedPointMap(lambda x: x * np.inf)
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
        np.testing.assert_array_equal(anderson_combine([], f[0], g), g[0])

    def test_zero_residual_dominates(self):
        f = [np.array([1.0, 0.0]), np.array([0.0, 0.0])]
        g = [np.array([5.0, 5.0]), np.array([7.0, 7.0])]
        np.testing.assert_allclose(weights(f), [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(anderson_combine(differences(f), f[-1], g), g[1],
                                   atol=1e-13)

    def test_near_singular_history_never_aborts(self):
        f = [np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0])]
        w = weights(f)  # duplicate residuals: rank-deficient
        assert np.isfinite(w).all()
        assert abs(w.sum() - 1.0) < 1e-12

    def test_kept_differences_match_differences_rebuilt_from_the_history(self):
        # a tall history (20 coordinates, memory 2) keeps its differences as
        # an updated QR factorisation; a replay that rebuilds every difference
        # from the window of residuals and solves afresh must give the points
        # solve evaluates, up to rounding
        phi, x0 = contraction(20)
        points = anderson_inputs(phi, x0, memory=2, evaluations=12)
        assert len(points) == 13
        np.testing.assert_array_equal(points[0], x0)
        for got, want in zip(points[1:], replay(phi, points[:-1], memory=2)):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_a_wide_history_evaluates_the_points_of_anderson_combine_bit_for_bit(self):
        # 3 coordinates and memory 5: the stacked differences, solved afresh
        phi, x0 = contraction(3)
        points = anderson_inputs(phi, x0, memory=5, evaluations=12)
        assert len(points) == 13
        np.testing.assert_array_equal(points[0], x0)
        for got, want in zip(points[1:], replay(phi, points[:-1], memory=5)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [20, 3], ids=["tall", "wide"])
    def test_the_first_step_is_the_plain_step(self, n):
        # memory 5: the empty window of a tall history and anderson_combine
        # with no differences both step to Phi(x0)
        phi, x0 = contraction(n)
        points = anderson_inputs(phi, x0, memory=5, evaluations=2)
        assert_same_bits(points[1], phi(x0))

    @settings(deadline=None, max_examples=50)
    @given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 10 ** 6))
    def test_weights_sum_to_one(self, m_n, dim, seed):
        rng = np.random.default_rng(seed)
        f = [rng.normal(size=dim) for _ in range(m_n + 1)]
        assert abs(weights(f).sum() - 1.0) < 1e-12


def contraction(n):
    """A nonlinear contraction on n coordinates and its start point."""
    rng = np.random.default_rng(5)
    A = rng.normal(size=(n, n))
    A *= 0.95 / np.linalg.norm(A, 2)
    b = rng.normal(size=n)
    return (lambda x: np.tanh(A @ x) + b), np.zeros(n)


def anderson_inputs(phi, x0, memory, evaluations):
    """The points an Anderson solve evaluates, then the next point if it ran
    out of budget."""
    fp, inputs = recording_map(phi)
    out = solve(fp, x0, AccelConfig(method="anderson", anderson_memory=memory,
                                    tolerance=1e-15, max_evaluations=evaluations))
    return inputs + [out.point] if out.termination == "max_evaluations" else inputs


def replay(phi, inputs, memory):
    """The point anderson_combine takes after each of inputs, from the window
    of the memory + 1 newest residuals and images rebuilt at every step."""
    f, g, points = [], [], []
    for x in inputs:
        f, g = (f + [phi(x) - x])[-(memory + 1):], (g + [phi(x)])[-(memory + 1):]
        points.append(anderson_combine(differences(f), f[-1], g))
    return points


def differences(residuals):
    """The differences of consecutive residuals, oldest first, rebuilt from them."""
    return [residuals[k + 1] - residuals[k] for k in range(len(residuals) - 1)]


def combine_weights(diffs, residual):
    """anderson_combine's weights: unit vectors as images return them exactly."""
    return anderson_combine(diffs, residual, list(np.eye(len(diffs) + 1)))


def weights(residuals):
    """anderson_combine's weights on the differences rebuilt from residuals."""
    return combine_weights(differences(residuals), residuals[-1])


def image_difference(d):
    """The image difference paired with the residual difference d: a fixed
    linear map of it, as an affine mapping's are, but not a multiple of it."""
    return np.roll(d, 1) - 0.5 * d


def append(window, kept, d, scale=1.0):
    """window.append on the pair (d, image_difference(d)) times scale, followed
    on kept, the window's residual differences unscaled: the oldest goes when
    the window is full, and d joins unless the window skips it as
    numerically dependent."""
    if window.size == len(window.R):
        del kept[0]
    window.append(scale * d, scale * image_difference(d))
    if window.size > len(kept):
        kept.append(d)


def fill(window, diffs):
    """Append diffs to window; the differences it keeps."""
    kept = []
    for d in diffs:
        append(window, kept, d)
    return kept


def tall_differences(rng, n, memory, kinds):
    """Differences of n coordinates, one per kind: random, a copy of one of
    the last memory differences, or zero."""
    diffs = []
    for kind in kinds:
        if kind == "random" or not diffs:
            diffs.append(rng.normal(size=n))
        else:
            window_diffs = diffs[-memory:]
            diffs.append(window_diffs[rng.integers(len(window_diffs))].copy()
                         if kind == "duplicate" else np.zeros(n))
    return diffs


def assert_factorises(window, kept):
    """Q orthonormal, R upper triangular with no zero on its diagonal, R.T @ Q
    the kept differences and R.T @ Gh their image differences."""
    k = window.size
    assert k == len(kept)
    Q, R, Gh = window.Q[:k], window.R[:k, :k], window.Gh[:k]
    assert np.linalg.norm(Q @ Q.T - np.eye(k), 2) <= 1e-12
    assert np.array_equal(R, np.triu(R))
    assert np.all(np.diag(R) != 0.0)
    D = np.reshape(kept, (k, window.Q.shape[1]))
    assert np.linalg.norm(R.T @ Q - D) <= 1e-12 * np.linalg.norm(D)
    E = np.reshape([image_difference(d) for d in kept], D.shape)
    assert np.linalg.norm(R.T @ Gh - E) <= 1e-12 * np.linalg.norm(E)


def combine_step(kept, residual, g):
    """anderson_combine's next iterate on the kept differences, from images
    that end at g and whose differences are the kept image differences."""
    images = [g]
    for d in reversed(kept):
        images.insert(0, images[0] - image_difference(d))
    return anderson_combine(kept, residual, images)


def assert_step_matches(window, kept, residual, g):
    want = combine_step(kept, residual, g)
    assert np.linalg.norm(window.step(g, residual) - want) <= 1e-8 * np.linalg.norm(want)


KINDS = st.lists(st.sampled_from(["random", "duplicate", "zero"]), min_size=1, max_size=18)


def counting_ls_minnorm(monkeypatch):
    """A list that gets one entry per call of accel's ls_minnorm."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return ls_minnorm(*args, **kwargs)
    monkeypatch.setattr(accel, "ls_minnorm", spy)
    return calls


def static_2types_market(replication):
    """The two-type static market of one replication at master seed 7, at a
    drawn theta, as the small-markets benchmark builds it."""
    rng = datagen.SeededRng(7, replication).generator()
    inst = datagen.gen_static_market(datagen.StaticDgpParams(n_products=250, n_draws=2), rng)
    return inst.with_theta(datagen.draw_theta(inst.theta_true, rng))


def durable_market():
    rng = datagen.SeededRng(11, 0).generator()
    inst = datagen.gen_dynamic_market(
        datagen.DynamicDgpParams(n_products=5, n_draws=10, horizon=10), rng)
    return inst.with_theta(datagen.draw_theta(inst.theta_true, rng))


ANDERSON = AccelConfig(method="anderson", tolerance=1e-13, max_evaluations=1000)


class TestDifferenceQR:
    @pytest.mark.parametrize("memory", range(1, 7))
    def test_three_windows_of_updates_keep_q_orthonormal_and_reproduce_the_differences(
            self, memory):
        rng = np.random.default_rng(memory)
        n = 30
        diffs = [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) for _ in range(3 * memory)]
        # a duplicated and a zero difference in the last window (at memory 1
        # the zero takes the duplicate's place)
        diffs[2 * memory] = diffs[2 * memory - 1].copy()
        diffs[3 * memory - 1] = np.zeros(n)
        window = _DifferenceQR(n, memory)
        kept = fill(window, diffs)
        # neither is kept, the zero after the full window deleted its oldest
        assert len(kept) == memory - 1
        assert all(d is not diffs[2 * memory] and d is not diffs[-1] for d in kept)
        assert_factorises(window, kept)
        assert_step_matches(window, kept, rng.normal(size=n), rng.normal(size=n))

    @settings(deadline=None, max_examples=200)
    @given(memory=st.integers(1, 6), extra=st.integers(0, 40),
           exponent=st.floats(-12.0, 12.0), seed=st.integers(0, 10 ** 6), kinds=KINDS)
    def test_the_step_matches_anderson_combine_on_tall_histories(
            self, memory, extra, exponent, seed, kinds):
        # an empty window steps to g itself, bit for bit
        n, scale = memory + extra, 10.0 ** exponent
        rng = np.random.default_rng(seed)
        diffs = [d * scale for d in tall_differences(rng, n, memory, kinds[:3 * memory])]
        window = _DifferenceQR(n, memory)
        kept = fill(window, diffs)
        residual, g = rng.normal(size=n) * scale, rng.normal(size=n)
        if not kept:
            assert np.array_equal(window.step(g, residual), g)
        assert_step_matches(window, kept, residual, g)

    @settings(deadline=None, max_examples=200)
    @given(memory=st.integers(1, 6), extra=st.integers(0, 40),
           seed=st.integers(0, 10 ** 6), kinds=KINDS)
    def test_every_append_leaves_a_factorisation_of_the_kept_differences(
            self, memory, extra, seed, kinds):
        n = memory + extra
        window, kept = _DifferenceQR(n, memory), []
        for d in tall_differences(np.random.default_rng(seed), n, memory, kinds):
            append(window, kept, d)
            assert_factorises(window, kept)

    @settings(deadline=None, max_examples=200)
    @given(memory=st.integers(1, 6), extra=st.integers(0, 40), seed=st.integers(0, 10 ** 6),
           kinds=KINDS, exponents=st.lists(st.sampled_from([-12, 0, 12]), min_size=18,
                                           max_size=18))
    def test_rescaling_a_kept_pair_leaves_the_step(self, memory, extra, seed, kinds, exponents):
        # each pair (dF_j, dG_j) scaled by 1e-12, 1 or 1e12: a kept difference
        # many orders smaller than the others is still kept, and used
        n = memory + extra
        rng = np.random.default_rng(seed)
        diffs = tall_differences(rng, n, memory, kinds)
        window, scaled = _DifferenceQR(n, memory), _DifferenceQR(n, memory)
        kept, kept_scaled = [], []
        for d, e in zip(diffs, exponents):
            append(window, kept, d)
            append(scaled, kept_scaled, d, 10.0 ** e)
        assert len(kept_scaled) == len(kept)
        assert all(d is e for d, e in zip(kept, kept_scaled))
        residual, g = rng.normal(size=n), rng.normal(size=n)
        want = window.step(g, residual)
        assert np.linalg.norm(scaled.step(g, residual) - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("n, memory", [(2500, 5), (250, 5), (30, 3)])
    def test_an_exact_repeat_is_never_stored(self, n, memory):
        # a repeat of a difference that stays in the window: one of the newer
        # ones when the window is full, since appending deletes the oldest
        rng = np.random.default_rng(n + memory)
        for _ in range(200):
            window = _DifferenceQR(n, memory)
            kept = fill(window, [rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
                                 for _ in range(rng.integers(1, memory + 1))])
            full = window.size == memory
            repeat = kept[rng.integers(int(full), len(kept))].copy()
            window.append(repeat, 2.0 * repeat)
            assert window.size == len(kept) - full

    @pytest.mark.parametrize("n", [50, 2500])
    def test_a_difference_within_the_cutoff_of_the_span_is_not_stored(self, n):
        # a + b perturbed at a tenth of the cutoff, relative to its norm, is
        # skipped, and the step is the step on a and b alone; perturbed at ten
        # times the cutoff it is stored
        rng = np.random.default_rng(3)
        a, b, e = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        e *= np.linalg.norm(a + b) / np.linalg.norm(e)
        residual, g = rng.normal(size=n), rng.normal(size=n)
        window = _DifferenceQR(n, 3)
        fill(window, [a, b])
        window.append(a + b + 10.0 * window.cutoff * e, np.zeros(n))
        assert window.size == 3
        window = _DifferenceQR(n, 3)
        kept = fill(window, [a, b, a + b + 0.1 * window.cutoff * e])
        assert window.size == 2 and len(kept) == 2
        assert_step_matches(window, kept, residual, g)

    @pytest.mark.parametrize("replication, mapping", [(10, "delta0"), (18, "delta1")])
    def test_a_whole_tall_static_solve_runs_no_least_squares(
            self, monkeypatch, replication, mapping):
        # two-type markets of 250 products, on whose windows a least-squares
        # fallback once fired
        calls = counting_ls_minnorm(monkeypatch)
        _, out = static_rcl.solve_inner(static_2types_market(replication), mapping, ANDERSON)
        assert out.converged and calls == []

    def test_a_whole_durable_solve_runs_no_least_squares(self, monkeypatch):
        calls = counting_ls_minnorm(monkeypatch)
        _, out = dynamic.pf_solve(durable_market(), 1.0, ANDERSON)
        assert out.converged and calls == []


class TestSpectralAlpha:
    def test_direct_arithmetic(self):
        s = np.array([2.0, 0.0])
        y = np.array([-1.0, 0.0])
        assert _step_rule(s, y, "S3") == pytest.approx(2.0)
        assert _step_rule(s, y, "S1") == pytest.approx(2.0)
        assert _step_rule(s, y, "S2") == pytest.approx(2.0)
        assert _step_rule(s, y, "S3prime") == pytest.approx(-2.0)

    def test_orthogonal_case(self):
        s = np.array([1.0, 0.0])
        y = np.array([0.0, 2.0])
        assert _step_rule(s, y, "S3") == pytest.approx(0.5)
        assert _step_rule(s, y, "S1") == pytest.approx(0.0)

    def test_cap(self):
        # only block step sizes are capped
        s = np.array([37.0, 1.0])
        y = np.array([1.0, 1.0])
        assert _step_rule(s[:1], y[:1], "S3") == pytest.approx(37.0)
        np.testing.assert_array_equal(_step_rule(s, y, "S3", np.array([0, 1])),
                                      [DEFAULT_BLOCK_STEP_CAP, 1.0])

    @np.errstate(**SOLVE_ERRSTATE)
    def test_degenerate_y_falls_back(self):
        assert _step_rule(np.array([1.0]), np.array([0.0]), "S3") == 1.0

    @pytest.mark.parametrize("rule", ["S1", "S2", "S3", "S3prime"])
    @np.errstate(**SOLVE_ERRSTATE)
    def test_underflowing_y_falls_back(self, rule):
        # y'y underflows to 0 while s'y = 1e-320 does not: S2's ratio is a
        # finite -1e20, yet y'y = 0 still means the unit step
        assert _step_rule(np.array([1e-150]), np.array([1e-170]), rule) == 1.0


def after_a_first_step(step, phi):
    """x + step on the first call and phi(x) after: solve's first spectral
    step s is then step, and y is phi's residual minus step."""
    calls = []

    def evaluate(x):
        calls.append(1)
        return x + step if len(calls) == 1 else phi(x)
    return evaluate


class TestSpectralUpdate:
    def test_alpha_one_is_plain_step(self):
        # the first spectral step is the unit step x + F
        x = np.array([1.0, 2.0])
        F = np.array([0.5, -0.5])
        fp, inputs = scripted_map([F, F])
        solve(fp, x, AccelConfig(method="spectral", max_evaluations=2))
        np.testing.assert_array_equal(inputs[1], x + F)

    def test_alpha_zero_is_identity(self):
        # rule S1 on the orthogonal s = (1, 0), y = (0, 2) gives alpha = 0
        steps = [np.array([1.0, 0.0]), np.array([1.0, 2.0]), np.zeros(2)]
        fp, inputs = scripted_map(steps)
        solve(fp, np.array([1.0, 2.0]),
              AccelConfig(method="spectral", step_size_rule="S1", max_evaluations=3))
        np.testing.assert_array_equal(inputs[2], inputs[1])

    def test_blockwise_scaling(self):
        # S3 block steps |s_b| / |y_b|: 2 on coordinates 0-1, 0.5 on 2-3
        s = np.ones(4)
        y = np.array([-0.5, -0.5, -2.0, -2.0])
        fp, inputs = scripted_map([s, s + y, np.zeros(4)], np.array([0, 0, 1, 1]))
        solve(fp, np.zeros(4), AccelConfig(method="spectral", use_blocks=True,
                                           max_evaluations=3))
        np.testing.assert_allclose(inputs[2], [2.0, 2.0, 0.5, 0.5], rtol=1e-15)


class TestSquarem:
    def test_scalar_linear_exact(self):
        # Phi(x) = 0.5x from x=1: s=-0.5, y=0.25, alpha=2, update = 0 exactly
        fp, inputs = recording_map(lambda x: 0.5 * x)
        out = solve(fp, np.array([1.0]), AccelConfig(method="squarem"))
        x, phix, phi2x = inputs[0], inputs[1], 0.5 * inputs[1]
        assert _step_rule(phix - x, phi2x - 2 * phix + x, "S3") == pytest.approx(2.0)
        np.testing.assert_allclose(inputs[2], [0.0], atol=1e-15)
        assert out.converged and out.evaluations == 3

    def test_alpha_one_is_two_step(self):
        # |s| = |y| makes S3's alpha 1, and x + 2s + y is Phi(Phi(x))
        x = np.array([1.0, 0.0])
        steps = [np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.zeros(2)]
        fp, inputs = scripted_map(steps)
        solve(fp, x, AccelConfig(method="squarem", max_evaluations=3))
        np.testing.assert_array_equal(inputs[2], x + steps[0] + steps[1])

    def test_alpha_zero_is_identity(self):
        # rule S1 on the orthogonal s = (1, 0), y = (0, 2) gives alpha = 0
        x = np.array([1.0, 0.0])
        steps = [np.array([1.0, 0.0]), np.array([1.0, 2.0]), np.zeros(2)]
        fp, inputs = scripted_map(steps)
        solve(fp, x, AccelConfig(method="squarem", step_size_rule="S1", max_evaluations=3))
        np.testing.assert_array_equal(inputs[2], x)

    def test_evaluation_counting_two_per_step(self):
        calls = []
        fp = FixedPointMap(lambda x: calls.append(1) or 0.5 * x)
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
        fp, inputs = recording_map(phi)
        solve(fp, x, AccelConfig(method="squarem", step_size_rule="S3prime",
                                 max_evaluations=3))
        phix = phi(x)
        alpha = _step_rule(phix - x, phi(phix) - 2.0 * phix + x, "S3prime")
        psi = lambda z: (1 - alpha) * z + alpha * phi(z)
        composed = (1 - alpha) * psi(x) + alpha * psi(phix)
        np.testing.assert_allclose(inputs[2], composed, atol=1e-10)


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
        a = float(rng.uniform(0.01, 3.0))
        # s = k F and y = (1 - k) F give the S1 step -k / (1 - k) = -a
        first = a / (1.0 + a) * (A @ x + b - x)
        fp, inputs = recording_map(after_a_first_step(first, lambda z: A @ z + b))
        solve(fp, x - first, AccelConfig(method="spectral", step_size_rule="S1",
                                         max_evaluations=3))
        F = A @ inputs[1] + b - inputs[1]
        np.testing.assert_allclose(inputs[2], inputs[1] - a * F, rtol=1e-9, atol=1e-9)
        assert np.linalg.norm(inputs[2] - x_star) > np.linalg.norm(inputs[1] - x_star)

    def test_crafted_negative_s1_step_grows_residual(self):
        # 2-d contraction; an s,y pair with s'y > 0 makes rule S1 negative
        A = np.array([[0.5, 0.0], [0.0, 0.4]])
        b = np.array([1.0, 1.0])
        x_star = np.linalg.solve(np.eye(2) - A, b)
        s = np.array([1.0, 0.5])
        y = np.array([0.5, 1.0])
        alpha = _step_rule(s, y, "S1")
        assert alpha < 0
        # from x1 - s, the first step s lands on x1, whose residual is s + y
        x1 = x_star + np.linalg.solve(A - np.eye(2), s + y)
        fp, inputs = recording_map(after_a_first_step(s, lambda z: A @ z + b))
        solve(fp, x1 - s, AccelConfig(method="spectral", step_size_rule="S1",
                                      max_evaluations=3))
        np.testing.assert_allclose(inputs[2], x1 + alpha * (s + y), rtol=1e-12)
        assert np.linalg.norm(inputs[2] - x_star) > np.linalg.norm(inputs[1] - x_star)


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
        fp = FixedPointMap(lambda x: calls.append(1) or 0.5 * x + 1.0)
        out = solve(fp, np.array([0.0]),
                    AccelConfig(method=method, tolerance=1e-13, max_evaluations=500))
        assert out.evaluations == len(calls)
        assert out.evaluations == len(out.residual_history)

    def test_anderson_one_eval_per_iteration(self):
        calls = []
        fp = FixedPointMap(lambda x: calls.append(1) or 0.5 * x + 1.0)
        out = solve(fp, np.array([0.0]),
                    AccelConfig(method="anderson", tolerance=1e-13,
                                max_evaluations=500))
        assert out.evaluations == len(calls)


def test_block_labels_validation():
    fp = FixedPointMap(lambda x: x, block_labels=np.array([0, 1, 0]))
    for labels in (np.array([0.0, 1.0, 0.0]),               # not integers
                   np.array([0, -1, 1]),                    # negative
                   np.array([[0, 1, 0]]),                   # not 1-d
                   (np.array([0, 2]), np.array([1]))):      # an index partition
        with pytest.raises(ValueError, match="block_labels"):
            FixedPointMap(lambda x: x, block_labels=labels)
    # the length is checked against the start point
    with pytest.raises(ValueError, match="block_labels has 3 labels for 2 coordinates"):
        solve(fp, np.zeros(2), AccelConfig())


def test_start_point_must_be_a_finite_vector():
    for x0 in (np.zeros((2, 2)), np.array(1.0), np.array([0.0, np.nan])):
        with pytest.raises(ValueError, match="x0 must be a finite vector"):
            solve(FixedPointMap(lambda x: x), x0, AccelConfig())


# images of another shape than their point's, (3,), and the shape each is
# reported with
_WRONG_IMAGES = pytest.mark.parametrize(
    "phi,shape", [(lambda x: 0.5, "()"), (lambda x: x[:, None], "(3, 1)")],
    ids=["scalar", "column"])


@pytest.mark.parametrize("method", ["plain", "anderson", "spectral", "squarem"])
@_WRONG_IMAGES
def test_an_image_of_another_shape_is_rejected(method, phi, shape):
    message = f"of shape {shape} for a point of shape (3,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(FixedPointMap(phi), np.ones(3), AccelConfig(method=method))


@_WRONG_IMAGES
def test_squarem_checks_its_second_image(phi, shape):
    images = iter([lambda x: 0.5 * x, phi])
    fp = FixedPointMap(lambda x: next(images)(x))
    message = f"of shape {shape} for a point of shape (3,)"
    with pytest.raises(ValueError, match=re.escape(message)):
        solve(fp, np.ones(3), AccelConfig(method="squarem"))


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
        fp, inputs = recording_map(evaluate)
        out = solve(fp, np.zeros(4), AccelConfig(method=method, max_evaluations=50))
        assert out.termination == "non_finite"
        assert not out.converged
        assert out.evaluations == 3
        assert np.array_equal(out.point, inputs[2])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "minus-inf"])
    @pytest.mark.parametrize("method", ["plain", "anderson", "spectral", "squarem"])
    def test_one_non_finite_entry_returns_evaluated_point(self, method, bad):
        # the third image has one non-finite entry among finite ones, so its
        # residual is non-finite; it is recorded in no residual history
        phi = self.slow_contraction(4)
        calls = []

        def evaluate(x):
            calls.append(1)
            g = phi(x)
            if len(calls) == 3:
                g[1] = bad
            return g
        fp, inputs = recording_map(evaluate)
        out = solve(fp, np.zeros(4), AccelConfig(method=method, max_evaluations=50))
        assert out.termination == "non_finite"
        assert out.evaluations == 3
        assert np.array_equal(out.point, inputs[2])
        per_record = 2 if method == "squarem" else 1
        assert len(out.residual_history) == (out.evaluations - 1) // per_record

    def test_a_finite_image_whose_residual_overflows_continues(self):
        # Phi(x) = -x from -1e308: every image is finite, every residual
        # overflows to inf, and the solve runs to its budget
        with np.errstate(over="ignore"):
            out = solve(FixedPointMap(lambda x: -x), np.array([-1e308, 0.0]),
                        AccelConfig(max_evaluations=3))
        assert out.termination == "max_evaluations"
        assert out.residual_history == [np.inf] * 3
        assert np.array_equal(out.point, [1e308, 0.0])  # the fourth iterate

    @pytest.mark.parametrize("method", sorted(_OVERFLOW_STEPS))
    def test_non_finite_extrapolation_returns_last_image(self, method):
        steps = _OVERFLOW_STEPS[method]
        with np.errstate(over="ignore", invalid="ignore"):
            out = solve(scripted_map(steps)[0], np.zeros(steps[0].size),
                        AccelConfig(method=method, max_evaluations=50))
        assert out.termination == "non_finite"
        assert not out.converged
        assert out.evaluations == 2
        # the second image: Phi(x1) for Anderson/spectral, Phi^2(x0) for SQUAREM
        assert np.array_equal(out.point, steps[0] + steps[1])

    def test_a_tall_windows_overflowing_step_returns_last_image(self):
        # 3 coordinates at memory 2: the residual difference is (0, 1, 0), so
        # the first combined step takes 1e10 + 1 times the image difference,
        # whose first entry is 1e300, and overflows
        steps = [np.array([1e300, 1e10, -2.0]), np.array([1e300, 1e10 + 1.0, -2.0])]
        out = solve(scripted_map(steps)[0], np.zeros(3),
                    AccelConfig(method="anderson", anderson_memory=2, max_evaluations=50))
        assert out.termination == "non_finite"
        assert out.evaluations == 2
        assert np.array_equal(out.point, steps[0] + steps[1])

    def test_squarem_non_finite_second_evaluation_returns_first_image(self):
        phi = self.slow_contraction(4)
        calls = []

        def evaluate(x):
            calls.append(1)
            return phi(x) * (np.inf if len(calls) == 4 else 1.0)
        fp, inputs = recording_map(evaluate)
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
        out = solve(FixedPointMap(phi), np.zeros(20), cfg)
        fp, inputs = recording_map(phi)
        solve(fp, np.zeros(20), AccelConfig(method=method, tolerance=1e-15,
                                            max_evaluations=n + 1))
        assert out.termination == "max_evaluations"
        assert not out.converged
        assert out.evaluations == n
        assert np.array_equal(out.point, inputs[n])
        per_record = 2 if method == "squarem" else 1
        assert len(out.residual_history) == n // per_record
        assert out.final_residual == out.residual_history[-1]

    def test_squarem_step_size_overflow_ends_non_finite_without_warnings(self):
        # S3 alpha = 1e150 / 1e-100 = 1e250, whose square overflows a double
        steps = [np.array([1e150, 0.0]), np.array([1e150, 1e-100])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve(scripted_map(steps)[0], np.zeros(2),
                        AccelConfig(method="squarem", max_evaluations=50))
        assert out.termination == "non_finite"
        assert out.evaluations == 2
        assert np.array_equal(out.point, steps[0] + steps[1])

    def test_squarem_huge_curvature_runs_without_warnings(self):
        # y = (0, 1e160): y @ y overflows; the third image is non-finite
        steps = [np.array([1.0, 0.0]), np.array([1.0, 1e160]), np.array([np.inf, 0.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solve(scripted_map(steps)[0], np.zeros(2),
                        AccelConfig(method="squarem", max_evaluations=50))
        assert out.termination == "non_finite"
        assert out.evaluations == 3

    def test_squarem_odd_budget_stops_at_exactly_that_count(self):
        n = 7
        phi = self.slow_contraction()
        fp, inputs = recording_map(phi)
        out = solve(fp, np.zeros(20), AccelConfig(method="squarem", tolerance=1e-15,
                                                  max_evaluations=n))
        assert out.termination == "max_evaluations"
        assert out.evaluations == n == len(inputs)
        # the last outer iterate, whose step the budget cut short
        assert np.array_equal(out.point, inputs[n - 1])
        assert len(out.residual_history) == (n + 1) // 2


# Three blocks of two coordinates each, interleaved as the per-period blocks
# of a flattened (I, T) state are: block b holds coordinates b and b + 3.
# Each scenario gives (s, y) per block as (first image step, second minus
# first). Dyadic values keep every sum exact, so the order in which a block
# is summed cannot move a bit.
_BLOCKS = np.tile(np.arange(3), 2)  # each coordinate's block label
_GROUPS = tuple(np.flatnonzero(_BLOCKS == b) for b in range(3))
_BIG = 2.0 ** 700  # s's and y'y overflow to inf: every rule's ratio is non-finite
_BLOCK_SCENARIOS = {
    "generic": [((1.5, -0.25), (0.75, 2.0)), ((-3.0, 0.5), (1.25, -1.5)),
                ((0.125, 4.0), (-2.0, -1.0))],
    "unit-step-and-orthogonal": [((1.0, -2.0), (0.0, 0.0)), ((2.0, 1.0), (1.0, -2.0)),
                                 ((1.5, -0.25), (0.75, 2.0))],
    "overflow-and-cap": [((_BIG, _BIG), (_BIG, -3.0 * _BIG)), ((37.0, 74.0), (-1.0, -2.0)),
                         ((-3.0, 0.5), (1.25, -1.5))],
}


def _block_vectors(scenario):
    s, y = np.empty(6), np.empty(6)
    for group, (s_b, y_b) in zip(_GROUPS, _BLOCK_SCENARIOS[scenario]):
        s[group], y[group] = s_b, y_b
    return s, y


@np.errstate(**SOLVE_ERRSTATE)
def _per_block_alphas(s, y, rule):
    """The per-block definition: each block's own scalar step size, capped."""
    return [min(_step_rule(s[g], y[g], rule), DEFAULT_BLOCK_STEP_CAP) for g in _GROUPS]


def third_input(steps, x0, method, rule, labels=_BLOCKS, tolerance=1e-13):
    """The point solve evaluates third on the scripted map Phi(x) = x + steps[k],
    with one step size per block of labels, or one in all with labels None."""
    cfg = AccelConfig(method=method, step_size_rule=rule, use_blocks=labels is not None,
                      max_evaluations=3, tolerance=tolerance)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fp, inputs = scripted_map(steps, labels)
        solve(fp, x0, cfg)
    return inputs[2]


class TestBlockStepSizes:
    third_input = staticmethod(third_input)

    @pytest.mark.parametrize("scenario", sorted(_BLOCK_SCENARIOS))
    @pytest.mark.parametrize("rule", ["S1", "S2", "S3", "S3prime"])
    def test_spectral_matches_a_per_block_loop(self, scenario, rule):
        # from x0 = -s the first (unit) step lands on 0 exactly; the solver's
        # s and y are then the scenario's, and the third point is alpha * F
        # with F = s + y, the second residual
        s, y = _block_vectors(scenario)
        F = s + y
        x2 = self.third_input([s, F, np.zeros(6)], -s, "spectral", rule)
        for group, alpha in zip(_GROUPS, _per_block_alphas(s, y, rule)):
            np.testing.assert_allclose(x2[group] / F[group], alpha, rtol=1e-15, atol=0)
            np.testing.assert_allclose(x2[group], alpha * F[group], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("scenario", sorted(_BLOCK_SCENARIOS))
    @pytest.mark.parametrize("rule", ["S1", "S2", "S3", "S3prime"])
    def test_squarem_matches_a_per_block_loop(self, scenario, rule):
        # from x0 = 0 the images are s and 2s + y: s = Phi(x) - x and
        # y = Phi2(x) - 2 Phi(x) + x are exactly the scenario's vectors
        s, y = _block_vectors(scenario)
        x_next = self.third_input([s, s + y, np.zeros(6)], np.zeros(6), "squarem", rule)
        for group, alpha in zip(_GROUPS, _per_block_alphas(s, y, rule)):
            np.testing.assert_allclose(x_next[group],
                                       2.0 * alpha * s[group] + alpha ** 2 * y[group],
                                       rtol=1e-15, atol=0)

    def test_the_scenarios_reach_every_fallback_and_the_cap(self):
        s, y = _block_vectors("unit-step-and-orthogonal")
        assert _per_block_alphas(s, y, "S3")[0] == 1.0  # y = 0
        assert _per_block_alphas(s, y, "S2")[1] == 1.0  # s'y = 0
        s, y = _block_vectors("overflow-and-cap")
        assert all(_per_block_alphas(s, y, rule)[0] == 1.0
                   for rule in ("S1", "S2", "S3", "S3prime"))
        assert _per_block_alphas(s, y, "S1")[1] == DEFAULT_BLOCK_STEP_CAP
        assert _step_rule(s[_GROUPS[1]], y[_GROUPS[1]], "S1") == pytest.approx(37.0)


# Each block of each scenario alone, as a scalar step size problem, and a
# ratio that overflows although s's and y'y do not (S2 divides by s'y = 0).
_SCALAR_SCENARIOS = {
    **{f"{scenario}[{b}]": pair for scenario, pairs in _BLOCK_SCENARIOS.items()
       for b, pair in enumerate(pairs)},
    "ratio-overflow": ((2.0 ** 511, 0.0), (0.0, 2.0 ** -520)),
}


def assert_same_bits(x, y):
    assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), (x, y)


class TestSolveLoopStepSizes:
    """The solve loop's step sizes are accel._step_rule's, scalar and per
    block, bit for bit: its third point is x + alpha * F (spectral) or x + 2
    alpha F + alpha^2 y (SQUAREM) with their alpha, the scripted maps of
    TestBlockStepSizes keeping s and y exact."""

    @staticmethod
    def cases():
        for name, (s_b, y_b) in _SCALAR_SCENARIOS.items():
            yield name, np.array(s_b), np.array(y_b), None
        for name in _BLOCK_SCENARIOS:
            yield name + "[blocks]", *_block_vectors(name), _BLOCKS

    @staticmethod
    @np.errstate(**SOLVE_ERRSTATE)
    def alpha(s, y, rule, labels):
        return _step_rule(s, y, rule, labels)  # per coordinate with labels

    @pytest.mark.parametrize("rule", ["S1", "S2", "S3", "S3prime"])
    def test_spectral(self, rule):
        for _, s, y, labels in self.cases():
            F = s + y
            x2 = third_input([s, F, np.zeros_like(s)], -s, "spectral", rule, labels)
            assert_same_bits(x2, np.zeros_like(s) + self.alpha(s, y, rule, labels) * F)

    @pytest.mark.parametrize("rule", ["S1", "S2", "S3", "S3prime"])
    def test_squarem(self, rule):
        for _, s, y, labels in self.cases():
            x0 = np.zeros_like(s)
            x_next = third_input([s, s + y, x0], x0, "squarem", rule, labels)
            alpha = self.alpha(s, y, rule, labels)
            assert_same_bits(x_next, x0 + 2.0 * alpha * s + np.float64(alpha) ** 2 * y)

    @pytest.mark.parametrize("rule", ["S1", "S2", "S3", "S3prime"])
    @pytest.mark.parametrize("first,second", [
        ([1.5, -0.25], [1.5, -0.25]),
        ([2.0 ** -600], [2.0 ** -600 + 2.0 ** -640]),
    ], ids=["zero-y", "underflowing-yy"])
    def test_squarem_takes_the_unit_step_on_degenerate_curvature_with_or_without_blocks(
            self, first, second, rule):
        # from x0 = 0, s = Phi(x0) and y = Phi2(x0) - 2 Phi(x0) + x0: zero,
        # or 2^-640, whose square underflows to 0
        s, x0 = np.array(first), np.zeros(len(first))
        y = s + second - 2.0 * s
        assert y @ y == 0.0
        steps, tolerance = [s, np.array(second), x0], 2.0 ** -1000
        scalar = third_input(steps, x0, "squarem", rule, None, tolerance)
        assert_same_bits(scalar, 2.0 * s + y)
        one_block = third_input(steps, x0, "squarem", rule, np.zeros(len(s), int), tolerance)
        assert_same_bits(one_block, scalar)

    @np.errstate(**SOLVE_ERRSTATE)
    def test_the_scalar_cases_reach_every_fallback(self):
        def case(name):
            return map(np.array, _SCALAR_SCENARIOS[name])

        s, y = case("unit-step-and-orthogonal[0]")
        assert y @ y == 0.0 and _step_rule(s, y, "S1") == 1.0
        s, y = case("unit-step-and-orthogonal[1]")
        assert s @ y == 0.0 and _step_rule(s, y, "S2") == 1.0
        s, y = case("overflow-and-cap[0]")
        assert s @ s == np.inf and _step_rule(s, y, "S3") == 1.0
        s, y = case("ratio-overflow")
        assert np.isfinite(s @ s) and 0.0 < y @ y
        assert np.sqrt(s @ s) / np.sqrt(y @ y) == np.inf
        assert _step_rule(s, y, "S3") == 1.0
