import sys
import threading
import time

import numpy as np
import pytest

from recwhiten import stats
from recwhiten.data import DataError
from recwhiten.plda import PldaModel
from recwhiten.stats import (COV_FLOOR, SPLIT_WORK, Moments, NumericalError, cholesky_lower,
                             estimate_moments, gaussian_loglik_many, in_halves,
                             whitening_matrix)

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


class TestInHalves:
    """The helper thread takes the second half once the work reaches SPLIT_WORK."""

    def calls(self, n, work):
        seen = []
        in_halves(lambda rows: seen.append((rows, threading.get_ident())), n, work)
        return seen

    def test_below_the_split_one_call_on_the_caller(self):
        assert self.calls(9, SPLIT_WORK - 1) == [(slice(0, 9), threading.get_ident())]

    def test_at_the_split_the_helper_takes_the_second_half(self):
        seen = sorted(self.calls(9, SPLIT_WORK), key=lambda call: call[0].start)
        assert [rows for rows, _ in seen] == [slice(0, 4), slice(4, 9)]
        assert seen[0][1] == threading.get_ident() != seen[1][1]

    def test_an_error_is_raised_after_both_halves_end(self):
        ended = []

        def fn(rows):
            if rows.start == 0:
                raise ValueError("first half")
            time.sleep(0.05)
            ended.append(rows)
        with pytest.raises(ValueError, match="first half"):
            in_halves(fn, 10, SPLIT_WORK)
        assert ended == [slice(5, 10)]

    @pytest.mark.parametrize("failing,message", [((5,), "half 5"), ((0, 5), "half 0")])
    def test_the_first_failing_half_is_raised(self, failing, message):
        def fn(rows):
            if rows.start in failing:
                raise ValueError(f"half {rows.start}")
        with pytest.raises(ValueError, match=message):
            in_halves(fn, 10, SPLIT_WORK)

    def test_callers_on_four_threads_start_one_helper(self):
        """Four threads split at once, switching often, with no helper yet
        (as in a forked child): each gets its own halves, and one helper starts."""
        before = set(threading.enumerate())
        stats._forget_helper()
        got, start = {k: [] for k in range(4)}, threading.Barrier(4)

        def caller(k):
            start.wait(60)
            for _ in range(50):
                seen = []
                in_halves(seen.append, 2 * k + 2, SPLIT_WORK)
                got[k].append(sorted(seen, key=lambda rows: rows.start))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for k, calls in got.items():
            assert calls == [[slice(0, k + 1), slice(k + 1, 2 * k + 2)]] * 50
        started = [t.name for t in set(threading.enumerate()) - before]
        assert started == ["recwhiten-half"]

    def test_the_helper_keeps_the_callers_error_state(self):
        big = np.array([1.0, 1e300])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            in_halves(lambda rows: np.multiply(big[rows], big[rows]), 2, SPLIT_WORK)
