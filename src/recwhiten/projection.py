"""PCA projection export for visualizing corpus distributions.

Fits principal axes on the concatenation of the given sets (optionally after
a whitening transform) and emits projected coordinates together with
per-corpus means and covariances in the projected plane, enough to draw
equal-probability contours externally.
"""

from __future__ import annotations

import numpy as np

from .data import ConfigError, DataError, NumericalError, VectorSet, concat, format_blocks
from .stats import scatter, top_eigen
from .whitening import RecursiveWhitener, transform_set


def fit_pca(x: np.ndarray, n_components: int):
    """Principal axes of the rows of x: (mean, components) with components
    as an (n_components, d) row basis, sorted by decreasing variance."""
    n, d = x.shape
    if n < 2:
        raise DataError(f"need at least 2 vectors for PCA, got {n}")
    if not 1 <= n_components <= d:
        raise ConfigError(f"n_components must be in [1, {d}], got {n_components}")
    mean, s = scatter(x)
    vals, vecs = top_eigen(s / (n - 1), n_components)
    if vals[-1] <= 1e-12 * max(vals[0], 1.0):
        raise NumericalError(f"input is rank-deficient for {n_components} components")
    axes = vecs.T
    # deterministic sign: largest-magnitude coefficient positive
    for row in axes:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return mean, axes


def project_sets(sets: list[VectorSet], whitener: RecursiveWhitener | None = None,
                 n_components: int = 2) -> str:
    """Project every entry of every set onto shared PCA axes; returns the
    rendered coordinate table."""
    if whitener is not None:
        sets = [transform_set(whitener, s) for s in sets]
    joined = concat(sets)
    x, corpora = joined.matrix(), joined.corpus_ids
    mean, axes = fit_pca(x, n_components)
    # a stack of (1, d) @ (d, k) products is one gemv per row, as `row @ axes.T`
    # of one row is; a single (n, d) @ (d, k) product would round differently
    coords = np.matmul((x - mean)[:, None, :], axes.T)[:, 0, :]

    blocks = [([f"#components={n_components}"], [joined.ids, corpora, coords])]
    for cid in sorted(set(corpora.tolist())):
        mu, s = scatter(pts := coords[corpora == cid])
        cov = s / max(len(pts) - 1, 1)  # one point: its scatter is zero
        blocks += [([], [["#corpus-mean"], [cid], mu[None]]),
                   ([], [["#corpus-cov"] * n_components, [cid] * n_components, cov])]
    return "".join(format_blocks(blocks))
