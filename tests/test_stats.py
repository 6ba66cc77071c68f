import numpy as np
import pytest

from recwhiten.data import DataError
from recwhiten.plda import PldaModel
from recwhiten.stats import (COV_FLOOR, Moments, NumericalError, cholesky_lower,
                             estimate_moments, gaussian_loglik_many, whitening_matrix)

from oracles import gaussian_loglik


def scalar_loglik(mean, var, v):
    # independent oracle for the 1-D density
    return float(-0.5 * (np.log(2 * np.pi) + np.log(var) + (v - mean) ** 2 / var))


class TestEstimateMoments:
    def test_two_point_analytic(self):
        m = estimate_moments([[1.0, 1.0], [-1.0, -1.0]], shrinkage=0.0)
        np.testing.assert_allclose(m.mean, [0.0, 0.0])
        expected = np.array([[2.0, 2.0], [2.0, 2.0]]) + COV_FLOOR * np.eye(2)
        np.testing.assert_allclose(m.cov, expected)
        assert m.n == 2

    def test_degenerate_duplicates_floor(self):
        v = np.array([3.0, -1.0, 2.0])
        m = estimate_moments(np.tile(v, (7, 1)), shrinkage=0.0)
        np.testing.assert_allclose(m.mean, v)
        np.testing.assert_allclose(m.cov, COV_FLOOR * np.eye(3))

    def test_large_sample_matches_generator(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5000, 2)) * np.sqrt([4.0, 1.0])
        m = estimate_moments(x, shrinkage=0.0)
        assert np.abs(m.cov - np.diag([4.0, 1.0])).max() < 0.2

    def test_too_few_vectors(self):
        with pytest.raises(ValueError, match="at least 2"):
            estimate_moments([[1.0, 2.0]])

    def test_shrunk_cov_is_spd_when_n_below_d(self):
        rng = np.random.default_rng(9)
        m = estimate_moments(rng.normal(size=(5, 50)), shrinkage=0.1)
        assert np.linalg.eigvalsh(m.cov).min() > 0


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(cholesky_lower(np.diag([4.0, 1.0])),
                                   np.diag([2.0, 1.0]))

    def test_reconstruction(self):
        m = np.array([[2.0, 1.0], [1.0, 1.0]])
        chol = cholesky_lower(m)
        np.testing.assert_allclose(
            chol, [[1.41421356, 0.0], [0.70710678, 0.70710678]], atol=1e-8)
        np.testing.assert_allclose(chol @ chol.T, m, atol=1e-12)
        assert np.all(np.tril(chol) == chol)

    def test_non_spd_rejected(self):
        with pytest.raises(NumericalError):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestWhiteningMatrix:
    def test_identity(self):
        m = Moments(np.zeros(2), np.eye(2), 10)
        np.testing.assert_allclose(whitening_matrix(m), np.eye(2))

    def test_diagonal(self):
        m = Moments(np.zeros(2), np.diag([4.0, 1.0]), 10)
        np.testing.assert_allclose(whitening_matrix(m), np.diag([0.5, 1.0]))

    def test_whitens_covariance(self):
        cov = np.array([[2.0, 1.0], [1.0, 1.0]])
        m = Moments(np.zeros(2), cov, 10)
        w = whitening_matrix(m)
        np.testing.assert_allclose(
            w, [[0.70710678, 0.0], [-0.70710678, 1.41421356]], atol=1e-8)
        np.testing.assert_allclose(w @ cov @ w.T, np.eye(2), atol=1e-10)

    def test_whitening_property_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            a = rng.normal(size=(d + 3, d))
            cov = a.T @ a / (d + 2) + 1e-6 * np.eye(d)
            m = Moments(rng.normal(size=d), cov, d + 3)
            w = whitening_matrix(m)
            assert np.abs(w @ cov @ w.T - np.eye(d)).max() < 1e-8


class TestGaussianLoglik:
    def test_standard_normal_at_mode(self):
        m = Moments(np.zeros(1), np.eye(1), 2)
        assert gaussian_loglik(m, np.zeros(1)) == pytest.approx(-0.91893853, abs=1e-8)

    def test_2d_standard_at_mode(self):
        m = Moments(np.zeros(2), np.eye(2), 2)
        assert gaussian_loglik(m, np.zeros(2)) == pytest.approx(-1.83787707, abs=1e-8)

    def test_scalar_oracle(self):
        m = Moments(np.array([1.0]), np.array([[4.0]]), 2)
        got = gaussian_loglik(m, np.array([3.0]))
        assert got == pytest.approx(scalar_loglik(1.0, 4.0, 3.0), abs=1e-12)
        assert got == pytest.approx(-2.11208571, abs=1e-8)

    def test_dimension_mismatch(self):
        m = Moments(np.zeros(2), np.eye(2), 2)
        with pytest.raises(ValueError):
            gaussian_loglik(m, np.zeros(3))

    def test_integrates_to_one_1d(self):
        m = Moments(np.array([0.7]), np.array([[2.3]]), 2)
        sigma = np.sqrt(2.3)
        xs = np.linspace(0.7 - 10 * sigma, 0.7 + 10 * sigma, 20001)
        dens = np.exp([gaussian_loglik(m, np.array([x])) for x in xs])
        area = np.sum((dens[1:] + dens[:-1]) * np.diff(xs)) / 2  # the trapezoid rule
        assert area == pytest.approx(1.0, abs=1e-4)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 4))
        m = Moments(rng.normal(size=4), a.T @ a / 5 + 0.1 * np.eye(4), 6)
        x = rng.normal(size=(10, 4))
        batch = gaussian_loglik_many(m, x)
        for i in range(10):
            assert batch[i] == pytest.approx(gaussian_loglik(m, x[i]), rel=1e-12)


class TestCheckSymmetric:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda m: Moments(np.zeros(1), m, 2), id="moments-cov"),
        pytest.param(lambda m: PldaModel(np.zeros(1), m, np.eye(1)), id="plda-ac"),
        pytest.param(lambda m: PldaModel(np.zeros(1), np.eye(1), m), id="plda-wc"),
    ])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected_without_warning(self, make, value):
        # the suite turns warnings into errors, so inf - inf in the symmetry
        # test would fail this before the DataError
        with pytest.raises(DataError, match="non-finite value in"):
            make(np.array([[value]]))
