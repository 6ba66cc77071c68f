"""Single-vector forms of the batched kernels, kept as test oracles.

Each writes one operation out for one vector, the way the paper states it,
so that the tests can check the batched kernels of the package against it.
"""

import numpy as np

from recwhiten.plda import PldaModel
from recwhiten.stats import Moments, cholesky_lower
from recwhiten.whitening import RecursiveWhitener, WhiteningStage, length_normalize


def gaussian_loglik(m: Moments, v: np.ndarray) -> float:
    """Log-density of v under N(mean, cov); logdet taken off the Cholesky
    diagonal for conditioning."""
    v = np.asarray(v, dtype=float)
    if v.shape != m.mean.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {m.mean.shape}")
    chol = cholesky_lower(m.cov)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    y = np.linalg.solve(chol, v - m.mean)
    maha = float(y @ y)
    d = m.dim
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


def apply_stage(stage: WhiteningStage, v: np.ndarray) -> np.ndarray:
    """Center and whiten, no normalization: W (v - mean)."""
    v = np.asarray(v, dtype=float)
    if v.shape != stage.mean.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {stage.mean.shape}")
    return stage.w @ (v - stage.mean)


def transform(whitener: RecursiveWhitener, v: np.ndarray) -> np.ndarray:
    """Fold v through every stage: center, whiten, length-normalize."""
    out = np.asarray(v, dtype=float)
    for stage in whitener.stages:
        out = length_normalize(apply_stage(stage, out))
    return out


def score_pair(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> float:
    """LLR of (enroll, test) being same-speaker versus different-speaker."""
    e = np.asarray(enroll, dtype=float) - model.mean
    t = np.asarray(test, dtype=float) - model.mean
    if e.shape != (model.dim,) or t.shape != (model.dim,):
        raise ValueError("dimension mismatch")
    g, q, const = model.terms
    # cross term written as a commutative sum so swapping the pair is exact
    cross = (e @ q) @ t + (t @ q) @ e
    return float(const - 0.5 * (e @ g @ e + t @ g @ t + cross))
