import numpy as np
import pytest

from recwhiten.data import MISSING_SPEAKER, VectorSet
from recwhiten.stats import COV_FLOOR, Moments, estimate_moments, gaussian_loglik
from recwhiten.whitening import (CorpusLevel, LevelSelection, RecursiveWhitener,
                                 WhitenError, WhiteningStage, apply_stage, fit_recursive,
                                 fit_stage, length_normalize, load_whitener,
                                 save_whitener, select_subcorpus, transform,
                                 transform_matrix, transform_set)


def make_set(vectors, corpus_id="c", prefix="v"):
    n = len(vectors)
    return VectorSet([f"{prefix}{i}" for i in range(n)], [corpus_id] * n,
                     [MISSING_SPEAKER] * n, vectors)


class TestLengthNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(length_normalize([3.0, 4.0]), [0.6, 0.8])

    def test_idempotent_on_unit_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = rng.normal(size=5)
            u /= np.linalg.norm(u)
            np.testing.assert_allclose(length_normalize(u), u, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(WhitenError, match="zero-norm"):
            length_normalize([0.0, 0.0])

    def test_unit_norm_output(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(size=7) * 10.0 ** rng.integers(-3, 4)
            assert abs(np.linalg.norm(length_normalize(v)) - 1.0) < 1e-12


class TestFitApplyStage:
    def test_fit_on_standard_normal(self):
        rng = np.random.default_rng(2)
        stage = fit_stage(make_set(rng.normal(size=(5000, 10))), shrinkage=0.0)
        assert np.abs(stage.w - np.eye(10)).max() < 0.1
        assert np.abs(stage.mean).max() < 0.1

    def test_fit_with_shrinkage_hand_computed(self):
        stage = fit_stage(make_set([[1.0, 1.0], [-1.0, -1.0]]), shrinkage=0.5)
        # shrunk cov = [[2,2],[2,2]] + (0.5*2 + 1e-8) I, whitened by its
        # inverse Cholesky factor, verified via the whitening property
        cov = np.array([[2.0, 2.0], [2.0, 2.0]]) + (0.5 * 2.0 + COV_FLOOR) * np.eye(2)
        np.testing.assert_allclose(stage.mean, [0.0, 0.0])
        np.testing.assert_allclose(stage.w @ cov @ stage.w.T, np.eye(2), atol=1e-10)

    def test_degenerate_duplicated_vector(self):
        v = np.array([2.0, 1.0])
        stage = fit_stage(make_set(np.tile(v, (10, 1))), shrinkage=0.0)
        np.testing.assert_allclose(stage.w, np.eye(2) / np.sqrt(COV_FLOOR), rtol=1e-6)
        centered = apply_stage(stage, v)
        with pytest.raises(WhitenError):
            length_normalize(centered)

    def test_apply_pure_centering(self):
        stage = WhiteningStage(0, "c", np.array([1.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(apply_stage(stage, [2.0, 3.0]), [1.0, 2.0])

    def test_apply_pure_scaling(self):
        stage = WhiteningStage(0, "c", np.zeros(2), np.diag([0.5, 1.0]))
        np.testing.assert_allclose(apply_stage(stage, [4.0, 2.0]), [2.0, 2.0])

    def test_apply_matrix_vector_oracle(self):
        w = np.array([[0.70710678, 0.0], [-0.70710678, 1.41421356]])
        stage = WhiteningStage(0, "c", np.array([1.0, 0.0]), w)
        got = apply_stage(stage, [3.0, 1.0])
        np.testing.assert_allclose(got, w @ (np.array([3.0, 1.0]) - [1.0, 0.0]))
        np.testing.assert_allclose(got, [1.41421356, 0.0], atol=1e-8)


class TestSelectSubcorpus:
    def test_targets_at_first_mean(self):
        cands = [Moments(np.zeros(2), np.eye(2), 10),
                 Moments(np.array([5.0, 5.0]), np.eye(2), 10)]
        chosen, table = select_subcorpus(cands, [[0.1, 0.0], [-0.1, 0.0]])
        assert chosen == 0
        assert table[0] > table[1]

    def test_tie_breaks_to_lowest_index(self):
        m = Moments(np.zeros(2), np.eye(2), 10)
        chosen, table = select_subcorpus([m, m], [[0.3, -0.2]])
        assert chosen == 0
        assert table[0] == table[1]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, 4))
            cands = []
            for _ in range(k):
                a = rng.normal(size=(d + 2, d))
                cands.append(Moments(rng.normal(size=d),
                                     a.T @ a / (d + 1) + 0.2 * np.eye(d), d + 2))
            targets = rng.normal(size=(20, d))
            chosen, table = select_subcorpus(cands, targets)
            oracle = [sum(gaussian_loglik(c, t) for t in targets) for c in cands]
            assert chosen == int(np.argmax(oracle))
            np.testing.assert_allclose(table, oracle, rtol=1e-10)


class TestTransform:
    def test_single_identity_stage_reduces_to_normalize(self):
        w = RecursiveWhitener([WhiteningStage(0, "c", np.zeros(2), np.eye(2))])
        np.testing.assert_allclose(transform(w, [3.0, 4.0]), [0.6, 0.8])

    def test_two_identity_stages(self):
        stage = WhiteningStage(0, "c", np.zeros(2), np.eye(2))
        w = RecursiveWhitener([stage, WhiteningStage(1, "c", np.zeros(2), np.eye(2))])
        np.testing.assert_allclose(transform(w, [3.0, 4.0]), [0.6, 0.8])

    def test_composition_oracle(self):
        rng = np.random.default_rng(6)
        stages = []
        for lvl in range(2):
            a = rng.normal(size=(6, 6))
            stages.append(WhiteningStage(lvl, f"c{lvl}", rng.normal(size=6),
                                         a + 6 * np.eye(6)))
        w = RecursiveWhitener(stages)
        v = rng.normal(size=6)
        # step-by-step hand composition
        expect = v
        for s in stages:
            y = s.w @ (expect - s.mean)
            expect = y / np.linalg.norm(y)
        np.testing.assert_allclose(transform(w, v), expect, atol=1e-12)

    def test_unit_norm_invariant(self):
        rng = np.random.default_rng(7)
        stage = fit_stage(make_set(rng.normal(size=(100, 5))))
        w = RecursiveWhitener([stage])
        for _ in range(20):
            assert abs(np.linalg.norm(transform(w, rng.normal(size=5))) - 1.0) < 1e-12

    def test_transform_set_elementwise(self):
        rng = np.random.default_rng(8)
        stage = fit_stage(make_set(rng.normal(size=(50, 4))))
        w = RecursiveWhitener([stage])
        vs = make_set(rng.normal(size=(9, 4)), corpus_id="x")
        out = transform_set(w, vs)
        assert out.ids.tolist() == vs.ids.tolist()
        for e_in, e_out in zip(vs.entries, out.entries):
            np.testing.assert_allclose(e_out.values, transform(w, e_in.values),
                                       atol=1e-12)

    def test_transform_empty_set(self):
        stage = WhiteningStage(0, "c", np.zeros(3), np.eye(3))
        out = transform_set(RecursiveWhitener([stage]), make_set(np.empty((0, 3))))
        assert out.dim == 3 and len(out) == 0

    def test_whiteness_before_normalization(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(20, 20))
        cov = a @ a.T / 20 + 0.5 * np.eye(20)
        x = rng.multivariate_normal(rng.normal(size=20) * 3, cov, size=2000)
        stage = fit_stage(make_set(x), shrinkage=0.0)
        y = np.stack([apply_stage(stage, v) for v in x])
        sample_cov = np.cov(y.T)
        assert np.abs(sample_cov - np.eye(20)).max() < 0.15
        assert np.abs(y.mean(axis=0)).max() < 0.05


class TestFitRecursive:
    def test_stage0_on_standard_normal(self):
        rng = np.random.default_rng(10)
        in_domain = make_set(rng.normal(size=(5000, 8)), "ind")
        targets = make_set(rng.normal(size=(10, 8)), "t", prefix="t")
        w = fit_recursive(in_domain, [], targets, shrinkage=0.0)
        assert len(w.stages) == 1
        assert np.abs(w.stages[0].w - np.eye(8)).max() < 0.1

    def test_level1_picks_statistically_closer_candidate(self):
        rng = np.random.default_rng(11)
        d = 6
        in_domain = make_set(rng.normal(size=(400, d)), "ind")
        targets = make_set(rng.normal(size=(50, d)), "t", prefix="t")
        near = make_set(rng.normal(size=(300, d)) + 0.2, "near", prefix="n")
        far = make_set(rng.normal(size=(300, d)) + 30.0, "far", prefix="f")
        w = fit_recursive(in_domain, [CorpusLevel(1, [("far", far), ("near", near)])],
                          targets, shrinkage=0.0)
        sel = w.selection_log[0]
        assert sel.logliks[sel.chosen][0] == "near"
        assert w.stages[1].corpus_id == "near"
        # pooled log-likelihood gap is decisive, not marginal
        assert sel.logliks[1][1] - sel.logliks[0][1] > 1e3
        # oracle agreement in the transformed space
        w0 = RecursiveWhitener(w.stages[:1])
        t = transform_matrix(w0, targets.matrix())
        cands = [estimate_moments(transform_matrix(w0, s.matrix()), cid, 0.0)
                 for cid, s in (("far", far), ("near", near))]
        oracle = [sum(gaussian_loglik(c, x) for x in t) for c in cands]
        assert sel.chosen == int(np.argmax(oracle))
        np.testing.assert_allclose([ll for _, ll in sel.logliks], oracle, rtol=1e-8)

    def test_zero_levels_reduces_to_conventional_whitening(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(200, 5)) * 2 + 1
        in_domain = make_set(x, "ind")
        targets = make_set(rng.normal(size=(10, 5)), "t", prefix="t")
        w = fit_recursive(in_domain, [], targets, shrinkage=0.0)
        # direct single-whitening path: center, whiten, normalize
        m = estimate_moments(x, shrinkage=0.0)
        from recwhiten.stats import whitening_matrix
        wmat = whitening_matrix(m)
        for v in rng.normal(size=(20, 5)):
            y = wmat @ (v - m.mean)
            expect = y / np.linalg.norm(y)
            got = transform(w, v)
            assert np.array_equal(got, expect)  # bit-for-bit

    def test_level_fit_reduces_residual(self):
        # the chosen corpus gets measurably whiter after its own stage
        rng = np.random.default_rng(13)
        d = 8
        in_domain = make_set(rng.normal(size=(30, d)) @ np.diag(np.linspace(1, 3, d)), "ind")
        cand = make_set(rng.normal(size=(1500, d)) @ np.diag(np.linspace(1, 3, d)),
                        "cand", prefix="c")
        targets = make_set(rng.normal(size=(40, d)) @ np.diag(np.linspace(1, 3, d)),
                           "t", prefix="t")
        w = fit_recursive(in_domain, [CorpusLevel(1, [("cand", cand)])], targets)
        before = transform_matrix(RecursiveWhitener(w.stages[:1]), cand.matrix())
        after = transform_matrix(w, cand.matrix())
        resid_before = np.linalg.norm(np.cov(before.T) - np.eye(d))
        resid_after = np.linalg.norm(np.cov(after.T) - np.eye(d))
        assert resid_after < resid_before

    def test_mixed_dimension_rejected(self):
        a = make_set(np.zeros((3, 2)) + [[1, 2], [3, 4], [5, 6]], "a")
        b = make_set(np.ones((3, 3)), "b", prefix="b")
        with pytest.raises(ValueError, match="mixed dimensions"):
            fit_recursive(a, [], b)


class TestWhitenerSerialization:
    def test_odd_corpus_ids_round_trip(self, tmp_path):
        ids = ["", "ood a", "[x"]
        w = RecursiveWhitener(
            [WhiteningStage(k, cid, np.zeros(2), np.eye(2)) for k, cid in enumerate(ids)],
            [LevelSelection(1, [(cid, -1.5 + k) for k, cid in enumerate(ids)], 2)])
        p = tmp_path / "whitener.txt"
        save_whitener(w, p)
        back = load_whitener(p)
        assert [(s.level, s.corpus_id) for s in back.stages] == list(enumerate(ids))
        assert back.selection_log[0].logliks == w.selection_log[0].logliks
        assert back.selection_log[0].chosen == 2

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        in_domain = make_set(rng.normal(size=(100, 4)), "ind")
        targets = make_set(rng.normal(size=(20, 4)), "t", prefix="t")
        c1 = make_set(rng.normal(size=(80, 4)), "c1", prefix="a")
        c2 = make_set(rng.normal(size=(80, 4)) + 2, "c2", prefix="b")
        w = fit_recursive(in_domain, [CorpusLevel(1, [("c1", c1), ("c2", c2)])], targets)
        p = tmp_path / "whitener.txt"
        save_whitener(w, p)
        back = load_whitener(p)
        assert len(back.stages) == len(w.stages)
        for s1, s2 in zip(w.stages, back.stages):
            assert (s1.level, s1.corpus_id) == (s2.level, s2.corpus_id)
            np.testing.assert_array_equal(s1.mean, s2.mean)
            np.testing.assert_array_equal(s1.w, s2.w)
        assert len(back.selection_log) == 1
        sel1, sel2 = w.selection_log[0], back.selection_log[0]
        assert sel1.chosen == sel2.chosen
        assert sel1.logliks == sel2.logliks
