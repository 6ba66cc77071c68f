import numpy as np
import pytest

from recwhiten.data import MISSING_SPEAKER, DataError, VectorSet
from recwhiten.projection import fit_pca, project_sets
from recwhiten.stats import NumericalError

from oracles import make_set, parse_coords


def test_full_rank_projection_is_isometric():
    rng = np.random.default_rng(70)
    x = rng.normal(size=(40, 2)) @ np.array([[2.0, 0.3], [0.3, 1.0]])
    ids, _, rows = parse_coords(project_sets([make_set(x)], n_components=2))
    coords = dict(zip(ids, rows))
    y = np.stack([coords[f"v{i}"] for i in range(40)])
    dist_x = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    dist_y = np.linalg.norm(y[:, None, :] - y[None, :, :], axis=2)
    np.testing.assert_allclose(dist_y, dist_x, atol=1e-10)


def test_first_axis_aligns_with_largest_variance():
    rng = np.random.default_rng(71)
    x = rng.normal(size=(5000, 3)) * np.array([5.0, 1.0, 0.5])
    _, axes = fit_pca(x, 1)
    angle = np.degrees(np.arccos(min(abs(axes[0, 0]), 1.0)))
    assert angle < 5.0


def test_separated_corpora_stay_separated():
    rng = np.random.default_rng(72)
    a = make_set(rng.normal(size=(200, 4)), "ca", prefix="a")
    b = make_set(rng.normal(size=(200, 4)) + 40.0, "cb", prefix="b")
    text = project_sets([a, b], n_components=2)
    means, stds = {}, {}
    _, corpora, coords = parse_coords(text)
    for cid in ("ca", "cb"):
        pts = coords[corpora == cid]
        means[cid] = pts.mean(axis=0)
        stds[cid] = pts.std(axis=0).max()
    gap = np.linalg.norm(means["ca"] - means["cb"])
    assert gap > 5.0 * max(stds.values())


def test_rank_deficient_rejected():
    x = np.zeros((10, 3))
    x[:, 0] = np.arange(10)
    with pytest.raises(NumericalError, match="rank-deficient"):
        project_sets([make_set(x)], n_components=2)


def test_corpus_contours_emitted():
    rng = np.random.default_rng(73)
    text = project_sets([make_set(rng.normal(size=(50, 3)), "only")], n_components=2)
    mean_lines = [l for l in text.splitlines() if l.startswith("#corpus-mean")]
    cov_lines = [l for l in text.splitlines() if l.startswith("#corpus-cov")]
    assert len(mean_lines) == 1 and len(cov_lines) == 2
    assert mean_lines[0].split("\t")[1] == "only"


@pytest.mark.parametrize("ids, corpora", [(["a\tb", "c", "d"], ["x"] * 3),
                                          (["a", "c", "d"], ["x", "y\nz", "x"])])
def test_unsafe_id_refused(ids, corpora):
    """An id or corpus id that would break its row is refused, as every save refuses it."""
    x = np.random.default_rng(74).normal(size=(3, 2))
    with pytest.raises(DataError, match="holds a tab, line break, NUL or surrogate"):
        project_sets([VectorSet(ids, corpora, [MISSING_SPEAKER] * 3, x)], n_components=2)
