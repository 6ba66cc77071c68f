"""The batched kernels write the bytes of their single-vector oracles.

`enroll_models` normalizes all model vectors at once and `project_sets`
projects all rows at once, each through a stack of one-row BLAS products.
These tests compare bytes, not closeness, so that they fail if either switches
to a form that rounds differently: a plain (n, d) @ (d, k) product, a row-wise
`np.linalg.norm(axis=1)` or an `einsum`.
"""

import numpy as np
import pytest

from recwhiten.data import MISSING_SPEAKER, VectorSet
from recwhiten.plda import enroll_models
from recwhiten.projection import fit_pca, project_sets

from oracles import length_normalize, parse_coords

DIMS = [1, 2, 3, 5, 8, 13, 17, 31, 64, 100, 128, 199, 256, 300]


def session_groups(n_models):
    """Speaker labels for groups of 1, 2, 3 and 5 sessions, in turn, then two
    unlabeled entries, which enroll under their own ids."""
    labels = [f"spk{i}" for i in range(n_models) for _ in range((1, 2, 3, 5)[i % 4])]
    return labels + [MISSING_SPEAKER] * 2


@pytest.mark.parametrize("d", DIMS)
def test_enroll_models_match_single_vector_normalization(d):
    rng = np.random.default_rng(d)
    speakers = session_groups(24)
    n = len(speakers)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    ids = [f"e{i}" for i in range(n)]
    model_ids, vecs = enroll_models(VectorSet(ids, ["c"] * n, speakers, x))
    keys = [spk if spk != MISSING_SPEAKER else vid for vid, spk in zip(ids, speakers)]
    assert model_ids == list(dict.fromkeys(keys))
    for model_id, vec in zip(model_ids, vecs):
        rows = [i for i, key in enumerate(keys) if key == model_id]
        assert vec.tobytes() == length_normalize(x[rows].mean(axis=0)).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_project_sets_match_per_row_products(d):
    rng = np.random.default_rng(1000 + d)
    k = min(d, 3)
    sets = [VectorSet([f"{cid}{i}" for i in range(n)], [cid] * n, [MISSING_SPEAKER] * n,
                      rng.normal(loc=shift, size=(n, d)))
            for cid, n, shift in (("a", 40, 0.0), ("b", 1, 2.0), ("c", 25, -1.0))]
    x = np.vstack([s.matrix() for s in sets])
    mean, axes = fit_pca(x, k)
    expect = np.array([(row - mean) @ axes.T for row in x])
    assert parse_coords(project_sets(sets, n_components=k))[2].tobytes() == expect.tobytes()
