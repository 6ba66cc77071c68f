"""PCA projection export for visualizing corpus distributions.

Fits principal axes on the concatenation of the given sets (optionally after
a whitening transform) and emits projected coordinates together with
per-corpus means and covariances in the projected plane, enough to draw
equal-probability contours externally.
"""

from __future__ import annotations

import numpy as np

from .data import VectorSet, _fmt
from .stats import NumericalError
from .whitening import RecursiveWhitener, transform_set


def fit_pca(x: np.ndarray, n_components: int):
    """Principal axes of the rows of x: (mean, components) with components
    as an (n_components, d) row basis, sorted by decreasing variance."""
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least 2 vectors for PCA")
    if not 1 <= n_components <= d:
        raise ValueError(f"n_components must be in [1, {d}]")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (n - 1)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1][:n_components]
    if vals[order[-1]] <= 1e-12 * max(vals[order[0]], 1.0):
        raise NumericalError(
            f"input is rank-deficient for {n_components} components")
    axes = vecs[:, order].T
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
    x = np.vstack([s.matrix() for s in sets])
    if not len(x):
        raise ValueError("no vectors to project")
    mean, axes = fit_pca(x, n_components)
    coords = np.empty((len(x), n_components))
    for i, row in enumerate(x):
        coords[i] = (row - mean) @ axes.T  # per row: a batched product rounds differently

    ids = np.concatenate([s.ids for s in sets])
    corpora = np.concatenate([s.corpus_ids for s in sets])
    lines = [f"#components={n_components}"]
    lines += [f"{vid}\t{cid}\t" + " ".join(_fmt(v) for v in c)
              for vid, cid, c in zip(ids.tolist(), corpora.tolist(), coords)]
    for corpus_id in sorted(set(corpora.tolist())):
        pts = coords[corpora == corpus_id]
        mu = pts.mean(axis=0)
        if pts.shape[0] > 1:
            cc = pts - mu
            cov = (cc.T @ cc) / (pts.shape[0] - 1)
        else:
            cov = np.zeros((n_components, n_components))
        lines.append(f"#corpus-mean\t{corpus_id}\t" + " ".join(_fmt(v) for v in mu))
        for row in cov:
            lines.append(f"#corpus-cov\t{corpus_id}\t" + " ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"
