"""Second-order statistics and SPD linear algebra kernels.

Everything downstream (whitening stages, sub-corpus selection, PLDA,
projection) sits on these operations, each written once, here: the row
scatter (`scatter`), shrunk moment estimation, Cholesky factorization, the
whitening matrix W = L^-1, the SPD inverse with its log-determinant
(`spd_inverse`), the top eigenpairs of a symmetric matrix (`top_eigen`), and
Gaussian log-density.

`in_halves` runs the second half of a large batched kernel on the program's
one helper thread.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import DataError, NumericalError, freeze

COV_FLOOR = 1e-8
SPLIT_WORK = 1 << 25  # multiply-adds; a split call saves 1 ms or more on 2 cores
_START, _HELPER = threading.Lock(), None  # _HELPER: (jobs, their count) of the helper thread


def _serve(jobs: deque, ready: threading.Semaphore) -> None:
    while True:
        ready.acquire()
        jobs.popleft()()


def _forget_helper() -> None:
    """In a forked child: the inherited jobs have no live thread behind them."""
    global _START, _HELPER
    _START, _HELPER = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def in_halves(fn, n: int, work: float) -> None:
    """fn(slice(0, n)), or, once `work` (in multiply-adds) reaches SPLIT_WORK
    and n >= 2, fn(slice(n // 2, n)) on the helper thread while the caller runs
    fn(slice(0, n // 2)). fn writes only its own rows of buffers the caller
    allocated, so the halves cannot race and the helper's allocator arena stays
    small. The helper runs under the caller's floating-point error state. An
    exception is raised once both halves have ended, the first half's first."""
    global _HELPER
    if work < SPLIT_WORK or n < 2:
        fn(slice(0, n))
        return
    errors, done, failed = np.geterr(), threading.Event(), []

    def second_half():
        try:
            with np.errstate(**errors):
                fn(slice(n // 2, n))
        except BaseException as e:  # raised by the caller below
            failed.append(e)
        finally:
            done.set()
    with _START:  # the first split starts the helper
        if _HELPER is None:
            _HELPER = deque(), threading.Semaphore(0)
            threading.Thread(target=_serve, args=_HELPER, name="recwhiten-half",
                             daemon=True).start()
        _HELPER[0].append(second_half)
        _HELPER[1].release()
    try:
        fn(slice(0, n // 2))
    finally:
        done.wait()
    if failed:
        raise failed[0]


def check_symmetric(name: str, m: np.ndarray, d: int) -> None:
    """Raise DataError unless m is a finite symmetric (d, d) matrix; finiteness
    is tested first, so that the symmetry test never meets inf - inf."""
    if m.shape != (d, d):
        raise DataError(f"{name} shape {m.shape} does not match dim {d}")
    if not np.isfinite(m).all():
        raise DataError(f"non-finite value in {name}")
    scale = max(np.abs(m).max(), 1.0)
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise DataError(f"{name} not symmetric")


@dataclass(frozen=True)
class Moments:
    """Per-corpus mean and regularized covariance with sample count; read-only."""

    mean: np.ndarray
    cov: np.ndarray
    n: int
    corpus_id: str = ""

    def __post_init__(self):
        freeze(self, mean=np.array(self.mean, dtype=float), cov=np.array(self.cov, dtype=float))
        check_symmetric("covariance", self.cov, self.mean.shape[0])

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def scatter(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row mean of an (n, d) array and the scatter xc^T xc of its centered rows."""
    mean = x.mean(axis=0)
    xc = x - mean
    return mean, xc.T @ xc


def default_shrinkage(n: int, d: int) -> float:
    """Shrinkage weight used when the caller does not pin one: 0.1 in the
    small-sample regime (n <= 2d), 0 otherwise."""
    return 0.1 if n <= 2 * d else 0.0


def estimate_moments(vectors, corpus_id: str = "", shrinkage: float | None = None) -> Moments:
    """Sample mean and shrunk covariance of a stack of d-vectors.

    cov = S + (shrinkage * trace(S)/d + 1e-8) * I with S the unbiased (n-1)
    sample covariance and shrinkage in [0, 1), so cov is SPD even for n <= d.
    """
    x = np.asarray(vectors, dtype=float)
    n, d = x.shape
    if n < 2:
        raise DataError(f"need at least 2 vectors, got {n} in corpus {corpus_id!r}")
    if shrinkage is None:
        shrinkage = default_shrinkage(n, d)
    mean, s = scatter(x)
    cov = s / (n - 1)
    cov = 0.5 * (cov + cov.T)
    lam = shrinkage * np.trace(cov) / d + COV_FLOOR
    cov = cov + lam * np.eye(d)
    return Moments(mean, cov, n, corpus_id)


def cholesky_lower(m: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = m; raises NumericalError if not SPD."""
    m = np.asarray(m, dtype=float)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise NumericalError("matrix is not symmetric positive definite")


def spd_inverse(m: np.ndarray) -> tuple[np.ndarray, float]:
    """m^-1 through its Cholesky factor L, and log det m off L's diagonal for
    conditioning; raises NumericalError if m is not SPD."""
    chol = cholesky_lower(m)
    inv = np.linalg.solve(chol.T, np.linalg.solve(chol, np.eye(m.shape[0])))
    return inv, 2.0 * np.sum(np.log(np.diag(chol)))


def top_eigen(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of a symmetric matrix, largest first, and
    their eigenvectors as the columns of a (d, k) array."""
    vals, vecs = np.linalg.eigh(m)
    keep = np.argsort(vals)[::-1][:k]
    return vals[keep], vecs[:, keep]


def whitening_matrix(m: Moments) -> np.ndarray:
    """W = L^-1 for cov = L L^T, so that W cov W^T = I."""
    chol = cholesky_lower(m.cov)
    return np.linalg.solve(chol, np.eye(m.dim))


def gaussian_loglik_many(m: Moments, vectors: np.ndarray) -> np.ndarray:
    """Log-density of each row of an (n, d) array under N(mean, cov); logdet
    taken off the Cholesky diagonal for conditioning."""
    x = np.asarray(vectors, dtype=float)
    chol = cholesky_lower(m.cov)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    y = np.linalg.solve(chol, (x - m.mean).T)
    maha = np.einsum("ij,ij->j", y, y)
    d = m.dim
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)
