"""The batched kernels write the bytes of their single-vector oracles.

`enroll_models` normalizes all model vectors at once and `project_sets`
projects all rows at once, each through a stack of one-row BLAS products.
`train_plda` runs its per-speaker scatter in preallocated buffers, and
`score_matrix` may cut its quadratic terms into halves on two threads.
These tests compare bytes, not closeness, so that they fail if any of them
switches to a form that rounds differently: a plain (n, d) @ (d, k) product, a
row-wise `np.linalg.norm(axis=1)`, a gemm for the scatter, or an `einsum` over
other rows than today's.
"""

import threading

import numpy as np
import pytest

import recwhiten.stats
from recwhiten.data import MISSING_SPEAKER, VectorSet
from recwhiten.plda import PldaModel, enroll_models, score_matrix, train_plda
from recwhiten.projection import fit_pca, project_sets
from recwhiten.stats import COV_FLOOR, scatter

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


def train_oracle(x, speakers):
    """train_plda's mean, AC and WC from a loop that gathers each speaker's
    rows, in order of first appearance, and adds stats.scatter of them to WC in
    that order."""
    groups = {}
    for i, spk in enumerate(speakers):
        groups.setdefault(spk, []).append(i)
    d = x.shape[1]
    within, spk_means = np.zeros((d, d)), np.empty((len(groups), d))
    for i, rows in enumerate(groups.values()):
        spk_means[i], s = scatter(x[rows])
        within += s
    wc = within / (len(x) - len(groups)) + COV_FLOOR * np.eye(d)
    mean = x.mean(axis=0)
    sm = spk_means - mean
    ac = (sm.T @ sm) / (len(groups) - 1)
    return mean, 0.5 * (ac + ac.T), 0.5 * (wc + wc.T)


@pytest.mark.parametrize("layout", ["consecutive", "interleaved", "fortran"])
@pytest.mark.parametrize("d", DIMS)
def test_train_plda_matches_the_per_speaker_gather_loop(d, layout):
    """80 speakers of 1 to 11 sessions: rows consecutive by speaker (no
    gather), shuffled (one gather), or consecutive in a Fortran-ordered
    matrix (one gather into C order)."""
    rng = np.random.default_rng(2000 + d)
    speakers = np.repeat([f"s{i}" for i in range(80)], 1 + np.arange(80) % 11)
    if layout == "interleaved":
        speakers = speakers[rng.permutation(len(speakers))]
    x = rng.normal(size=(len(speakers), d)) + 2.0 * rng.normal(size=(1, d))
    if layout == "fortran":
        x = np.asfortranarray(x)
    model = train_plda(VectorSet([f"v{i}" for i in range(len(x))], ["c"] * len(x), speakers, x))
    expect = train_oracle(x, speakers)
    assert [m.tobytes() for m in (model.mean, model.ac, model.wc)] == [
        m.tobytes() for m in expect]


def random_model(rng, d):
    a, b = rng.normal(size=(2, d, d))
    return PldaModel(rng.normal(size=d), a @ a.T / d, b @ b.T / d + np.eye(d))


def score_oracle(model, enroll, test):
    """score_matrix with one einsum per stack for the quadratic terms."""
    e, t = enroll - model.mean, test - model.mean
    g, q, const = model.terms
    eg = np.einsum("ij,jk,ik->i", e, g, e)
    tg = np.einsum("ij,jk,ik->i", t, g, t)
    cross = (e @ q) @ t.T + ((t @ q) @ e.T).T
    return const - 0.5 * (eg[:, None] + tg[None, :] + cross)


SCORE_ROWS = [(1, 3), (3, 1), (2, 2), (4, 5), (5, 6), (7, 4), (3, 500), (25, 75), (140, 420),
              (1, 1000)]


@pytest.mark.parametrize("d", list(range(2, 34)) + [50, 64, 100, 128, 199, 200, 201, 256, 300])
def test_split_score_matrix_matches_one_einsum_per_stack(d, monkeypatch):
    """Every call split. At d = 2 an einsum of 1 or 2 rows rounds otherwise
    than one of more in about half of the draws, so there each size is drawn
    8 times, and a cut that leaves a half of fewer than 3 rows fails."""
    monkeypatch.setattr(recwhiten.stats, "SPLIT_WORK", 1)
    rng = np.random.default_rng(3000 + d)
    model = random_model(rng, d)
    for n_enroll, n_test in SCORE_ROWS * (8 if d == 2 else 1):
        enroll, test = rng.normal(size=(n_enroll, d)), rng.normal(size=(n_test, d))
        got = score_matrix(model, enroll, test)
        assert got.tobytes() == score_oracle(model, enroll, test).tobytes(), (n_enroll, n_test)


@pytest.mark.parametrize("d,n_enroll,n_test,split", [
    (200, 25, 75, True),     # whiten_deep: 25 models, 75 test vectors
    (50, 140, 420, False),   # trials_snorm: models x test vectors
    (50, 140, 300, False),   # trials_snorm: models x cohort
    (50, 420, 300, False),   # trials_snorm: test vectors x cohort
])
def test_score_matrix_splits_only_large_calls(d, n_enroll, n_test, split, monkeypatch):
    started, start = [], threading.Thread.start

    def spy(thread):
        started.append(thread.name)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", spy)
    rng = np.random.default_rng(d)
    model = random_model(rng, d)
    enroll, test = rng.normal(size=(n_enroll, d)), rng.normal(size=(n_test, d))
    got = score_matrix(model, enroll, test)
    assert started == ["recwhiten-half"] * split
    assert got.tobytes() == score_oracle(model, enroll, test).tobytes()
