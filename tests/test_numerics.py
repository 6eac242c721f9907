import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demandinv.numerics import (chebyshev_eval_rows, chebyshev_fit_matrix,
                                chebyshev_nodes, log_share_gap, logsumexp,
                                ls_minnorm, normal_quadrature, ols_ar1_rows)


def chebyshev_fit(values):
    """Coefficients of one interpolant through values at the Chebyshev nodes."""
    values = np.asarray(values, dtype=float)
    return chebyshev_fit_matrix(values.size) @ values


def chebyshev_eval(coeffs, z):
    """One interpolant at points z in [-1, 1]: a single row of chebyshev_eval_rows."""
    z = np.asarray(z, dtype=float)
    return chebyshev_eval_rows(np.asarray(coeffs)[None, :], z[None, ...])[0]


def to_unit(x, lo, hi):
    """Points x of [lo, hi] mapped onto the interpolant's domain [-1, 1]."""
    return (2.0 * np.asarray(x, dtype=float) - (lo + hi)) / (hi - lo)


def ols_ar1(series):
    """(intercept, slope, residual sd) of one series: a single row of ols_ar1_rows."""
    return tuple(v[0] for v in ols_ar1_rows(np.asarray(series, dtype=float)[None, :]))


class TestLogsumexp:
    @pytest.mark.parametrize("shape, axis", [((5,), 0), ((4, 3), 0), ((4, 3), 1),
                                             ((4, 3, 2), 0), ((4, 3, 2), 1),
                                             ((4, 3, 2), 2)])
    def test_matches_naive_form(self, shape, axis):
        z = np.random.default_rng(0).normal(size=shape)
        np.testing.assert_allclose(logsumexp(z, axis), np.log(np.exp(z).sum(axis=axis)),
                                   rtol=1e-14)

    def test_weights_run_along_the_first_axis(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(4, 3))
        w = rng.random(4)
        np.testing.assert_allclose(logsumexp(z, 0, w),
                                   np.log((w[:, None] * np.exp(z)).sum(axis=0)), rtol=1e-14)
        np.testing.assert_allclose(logsumexp(z, 1, w), np.log(w) + logsumexp(z, 1),
                                   rtol=1e-14)

    def test_finite_where_the_naive_form_overflows(self):
        z = np.random.default_rng(2).normal(size=(4, 3))
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(np.log(np.exp(z + 1e3).sum(axis=0))))
        np.testing.assert_allclose(logsumexp(z + 1e3, 0), logsumexp(z, 0) + 1e3,
                                   rtol=1e-14)
        np.testing.assert_allclose(logsumexp(z - 1e3, 1), logsumexp(z, 1) - 1e3,
                                   rtol=1e-14)

    def test_log_share_gap(self):
        s = np.array([0.2, 0.3])
        assert log_share_gap(np.log(s), s) == 0.0
        assert log_share_gap(np.log(s), s * np.array([1.0, np.e])) == pytest.approx(1.0)
        assert log_share_gap(np.log(s), np.array([0.2, 0.0])) == np.inf


class TestLsMinnorm:
    def test_identity(self):
        np.testing.assert_allclose(ls_minnorm(np.eye(2), [3.0, 4.0]), [3.0, 4.0])

    def test_mean(self):
        got = ls_minnorm(np.array([[1.0], [1.0]]), [1.0, 3.0])
        np.testing.assert_allclose(got, [2.0])

    def test_small_singular_values_above_the_default_cutoff_are_kept(self):
        A, b = np.diag([1.0, 1e-10]), [1.0, 1.0]
        np.testing.assert_allclose(ls_minnorm(A, b), [1.0, 1e10])

    def test_singular_values_below_the_default_cutoff_are_cut(self):
        # lstsq's default cutoff is eps * max(A.shape) times the largest
        A, b = np.diag([1.0, 1e-20]), [1.0, 1.0]
        np.testing.assert_array_equal(ls_minnorm(A, b), [1.0, 0.0])

    def test_duplicated_columns_split_equally(self):
        # expected values frozen from the pseudo-inverse oracle on 3x3 instances
        rng = np.random.default_rng(0)
        for _ in range(5):
            col = rng.normal(size=3)
            A = np.column_stack([col, col, rng.normal(size=3)])
            b = rng.normal(size=3)
            got = ls_minnorm(A, b)
            expected = np.linalg.pinv(A) @ b
            np.testing.assert_allclose(got, expected, atol=1e-10)
            assert abs(got[0] - got[1]) < 1e-10

    @settings(deadline=None, max_examples=50)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
    def test_residual_orthogonal_to_column_space(self, m, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        g = ls_minnorm(A, b)
        assert np.max(np.abs(A.T @ (b - A @ g))) < 1e-10


class TestChebyshev:
    def test_single_node_at_midpoint(self):
        np.testing.assert_allclose(chebyshev_nodes(1, -1.0, 1.0), [0.0], atol=1e-16)

    def test_two_nodes(self):
        got = chebyshev_nodes(2, -1.0, 1.0)
        np.testing.assert_allclose(got, [-np.cos(np.pi / 4), np.cos(np.pi / 4)])

    def test_ten_nodes_symmetric_about_center(self):
        got = chebyshev_nodes(10, -20.0, 10.0)
        assert np.all(got > -20.0) and np.all(got < 10.0)
        assert np.all(np.diff(got) > 0)
        np.testing.assert_allclose(got + got[::-1], -10.0, atol=1e-12)

    def test_constant_reproduction(self):
        nodes = chebyshev_nodes(7, -2.0, 5.0)
        c = chebyshev_fit(np.full(7, 3.25))
        np.testing.assert_allclose(chebyshev_eval(c, to_unit(nodes, -2.0, 5.0)), 3.25,
                                   atol=1e-13)

    def test_linear_reproduction(self):
        nodes = chebyshev_nodes(6, -3.0, 4.0)
        c = chebyshev_fit(nodes)
        np.testing.assert_allclose(chebyshev_eval(c, to_unit(nodes, -3.0, 4.0)), nodes,
                                   atol=1e-12)

    def test_cubic_interpolation_error(self):
        lo, hi = -20.0, 10.0
        nodes = chebyshev_nodes(10, lo, hi)
        c = chebyshev_fit(nodes ** 3)
        assert np.max(np.abs(chebyshev_eval(c, to_unit(nodes, lo, hi)) - nodes ** 3)) < 1e-10
        xs = np.linspace(lo, hi, 113)
        assert np.max(np.abs(chebyshev_eval(c, to_unit(xs, lo, hi)) - xs ** 3)) < 1e-8

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 12), st.integers(0, 10 ** 6))
    def test_polynomial_reproduction(self, n, seed):
        # interpolant reproduces any polynomial of degree < n over the range
        rng = np.random.default_rng(seed)
        coefs = rng.normal(size=n)
        lo, hi = -2.0, 3.0
        nodes = chebyshev_nodes(n, lo, hi)
        poly = np.polyval(coefs, nodes)
        c = chebyshev_fit(poly)
        xs = np.linspace(lo, hi, 37)
        scale = max(1.0, np.max(np.abs(np.polyval(coefs, xs))))
        err = np.max(np.abs(chebyshev_eval(c, to_unit(xs, lo, hi)) - np.polyval(coefs, xs)))
        assert err / scale < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_rows_variant_matches_scalar(self, n):
        # each row agrees with numpy's chebval on points of [-1, 1]
        lo, hi = -4.0, 2.0
        nodes = chebyshev_nodes(n, lo, hi)
        vals = np.vstack([np.sin(nodes), np.cos(nodes)])
        coefs = vals @ chebyshev_fit_matrix(n).T
        z = np.linspace(-1.0, 1.0, 23)
        rows = chebyshev_eval_rows(coefs, np.vstack([z, z]))
        for r in range(2):
            np.testing.assert_allclose(rows[r], np.polynomial.chebyshev.chebval(z, coefs[r]),
                                       atol=1e-12)


class TestGaussHermite:
    """normal_quadrature: the Gauss-Hermite rule for a standard normal."""

    def test_order_one(self):
        nodes, weights = normal_quadrature(1)
        np.testing.assert_allclose(nodes, [0.0], atol=1e-15)
        np.testing.assert_allclose(weights, [1.0])

    def test_order_two_nodes(self):
        nodes, _ = normal_quadrature(2)
        np.testing.assert_allclose(sorted(nodes), [-1.0, 1.0])

    def test_weights_sum_and_symmetry(self):
        nodes, weights = normal_quadrature(5)
        assert weights.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(np.sort(nodes) + np.sort(nodes)[::-1], 0.0, atol=1e-12)

    def test_normal_variance_reproduced(self):
        # E[x^2] for N(0, sigma^2) with x = sigma z
        nodes, weights = normal_quadrature(5)
        for sigma in (0.5, 1.0, 2.7):
            got = np.sum(weights * (sigma * nodes) ** 2)
            assert got == pytest.approx(sigma ** 2, rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 8), st.integers(0, 10 ** 6))
    def test_polynomial_exactness_up_to_degree(self, order, seed):
        # degree 2*order-1 polynomials integrate exactly against the standard normal
        rng = np.random.default_rng(seed)
        degree = 2 * order - 1
        coefs = rng.uniform(-1, 1, size=degree + 1)
        nodes, weights = normal_quadrature(order)
        got = np.sum(weights * np.polyval(coefs, nodes))
        # standard normal moments: odd vanish, E z^k = (k-1)!! for even k
        from math import prod
        terms = [c * prod(range(k - 1, 0, -2)) for k, c in
                 enumerate(reversed(coefs)) if k % 2 == 0]
        scale = sum(abs(t) for t in terms)  # the moments grow to 13!! = 135135
        assert got == pytest.approx(sum(terms), rel=1e-10, abs=1e-12 * scale)


class TestAr1:
    def test_constant_series(self):
        intercept, slope, sd = ols_ar1([1.0, 1.0, 1.0, 1.0])
        assert intercept == pytest.approx(1.0)
        assert slope == 0.0
        assert sd == 0.0

    def test_noiseless_recursion_recovered(self):
        x = [0.3]
        for _ in range(60):
            x.append(0.1 + 0.95 * x[-1])
        intercept, slope, sd = ols_ar1(np.array(x))
        assert intercept == pytest.approx(0.1, abs=1e-9)
        assert slope == pytest.approx(0.95, abs=1e-9)
        assert sd < 1e-9

    def test_white_noise_slope_near_zero(self):
        rng = np.random.default_rng(42)
        _, slope, _ = ols_ar1(rng.normal(size=4000))
        assert abs(slope) < 0.1

    def test_rows_variant_matches_scalar(self):
        # each row agrees with numpy's polyfit and a directly computed residual sd
        rng = np.random.default_rng(3)
        series = rng.normal(size=(4, 25)).cumsum(axis=1)
        i0, s0, sd0 = ols_ar1_rows(series)
        for r in range(4):
            x, y = series[r, :-1], series[r, 1:]
            slope, intercept = np.polyfit(x, y, 1)
            resid = y - (intercept + slope * x)
            assert i0[r] == pytest.approx(intercept)
            assert s0[r] == pytest.approx(slope)
            assert sd0[r] == pytest.approx(np.sqrt(resid @ resid / (x.size - 2)))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            ols_ar1([1.0, 2.0])
