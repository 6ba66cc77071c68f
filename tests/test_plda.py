import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from recwhiten import plda
from recwhiten.data import MISSING_SPEAKER, DataError, NumericalError, TrialList, VectorSet
from recwhiten.plda import (PldaModel, enroll_models, load_plda, save_plda,
                            score_matrix, score_trials, train_plda)

from oracles import score_pair, trial_columns


def joint_gaussian_llr(model, e, t):
    """Brute-force oracle: evaluate both 2d-dimensional joint densities."""
    d = model.dim
    u = np.concatenate([e - model.mean, t - model.mean])
    tot = model.ac + model.wc
    same = np.block([[tot, model.ac], [model.ac, tot]])
    diff = np.block([[tot, np.zeros((d, d))], [np.zeros((d, d)), tot]])

    def logpdf(cov):
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        return -0.5 * (2 * d * np.log(2 * np.pi) + logdet + u @ np.linalg.solve(cov, u))

    return logpdf(same) - logpdf(diff)


def random_model(rng, d):
    a = rng.normal(size=(d + 2, d))
    b = rng.normal(size=(d + 2, d))
    ac = a.T @ a / (d + 1)
    wc = b.T @ b / (d + 1) + 0.1 * np.eye(d)
    return PldaModel(rng.normal(size=d), ac, wc)


def labeled_set(rng, ac_chol, wc_chol, n_spk, sessions, d, mean=None):
    mean = np.zeros(d) if mean is None else mean
    rows = []
    for s in range(n_spk):
        mu = mean + ac_chol @ rng.normal(size=d)
        for k in range(sessions):
            rows.append(mu + wc_chol @ rng.normal(size=d))
    speakers = [f"s{s}" for s in range(n_spk) for _ in range(sessions)]
    ids = [f"{spk}_u{i % sessions}" for i, spk in enumerate(speakers)]
    return VectorSet(ids, ["c"] * len(ids), speakers, np.reshape(rows, (-1, d)))


def one_corpus(ids, speakers, vectors):
    return VectorSet(ids, ["c"] * len(ids), speakers, vectors)


class TestTrainPlda:
    def test_zero_within_spread_floors_wc(self):
        m = train_plda(one_corpus([f"s{s}_u{k}" for s in range(3) for k in range(2)],
                                  [f"s{s}" for s in range(3) for k in range(2)],
                                  [[float(s), -float(s)] for s in range(3) for k in range(2)]))
        np.testing.assert_allclose(m.wc, 1e-8 * np.eye(2))

    def test_identical_speaker_means_zero_ac(self):
        m = train_plda(one_corpus([f"s{s}_{k}" for s in range(3) for k in "ab"],
                                  [f"s{s}" for s in range(3) for k in "ab"],
                                  [[1.0, 0.0], [-1.0, 0.0]] * 3))
        np.testing.assert_allclose(m.ac, np.zeros((2, 2)), atol=1e-15)

    def test_hand_computed_1d_scatters(self):
        # speakers at -1/+1, sessions offset by +-1
        m = train_plda(one_corpus(["a1", "a2", "b1", "b2"], ["a", "a", "b", "b"],
                                  [[-2.0], [0.0], [0.0], [2.0]]))
        assert m.mean[0] == pytest.approx(0.0)
        assert m.ac[0, 0] == pytest.approx(2.0)
        assert m.wc[0, 0] == pytest.approx(2.0, abs=1e-7)

    def test_unlabeled_entry_rejected(self):
        vs = one_corpus(["a", "b"], ["s1", MISSING_SPEAKER], [[0.0], [1.0]])
        with pytest.raises(DataError, match="entry 'b' has no speaker label"):
            train_plda(vs)

    def test_single_speaker_rejected(self):
        vs = one_corpus(["a", "b"], ["s1", "s1"], [[0.0], [1.0]])
        with pytest.raises(DataError, match="at least 2 speakers"):
            train_plda(vs)

    def test_parameter_recovery(self):
        # speaker-mean scatter has a ~sqrt(2/S) eigenvalue noise floor plus a
        # wc/sessions bias, so the truth has dominant directions and small wc
        rng = np.random.default_rng(1)
        d = 10
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        ac_true = q @ np.diag([8, 5, 3, 1.5, 0.8, 0.4, 0.2, 0.2, 0.2, 0.2]) @ q.T
        wc_true = np.diag(np.linspace(0.1, 0.4, d))
        data = labeled_set(rng, np.linalg.cholesky(ac_true),
                           np.linalg.cholesky(wc_true), 500, 8, d)
        m = train_plda(data)
        assert np.linalg.norm(m.ac - ac_true) / np.linalg.norm(ac_true) < 0.1
        assert np.linalg.norm(m.wc - wc_true) / np.linalg.norm(wc_true) < 0.1

    def test_rank_truncation(self):
        rng = np.random.default_rng(21)
        d = 8
        data = labeled_set(rng, np.linalg.cholesky(np.eye(d)),
                           np.linalg.cholesky(0.5 * np.eye(d)), 40, 4, d)
        full = train_plda(data)
        for r in (2, 5, d):
            m = train_plda(data, rank=r)
            svals = np.linalg.svd(m.ac, compute_uv=False)
            assert np.sum(svals > 1e-10) <= r
        # at full rank the model coincides with the untruncated one
        m_full = train_plda(data, rank=d)
        np.testing.assert_allclose(m_full.ac, full.ac, atol=1e-10)
        e, t = rng.normal(size=d), rng.normal(size=d)
        assert score_pair(m_full, e, t) == pytest.approx(score_pair(full, e, t), abs=1e-8)


class TestScorePair:
    def test_zero_ac_gives_zero_llr(self):
        m = PldaModel(np.zeros(3), np.zeros((3, 3)), np.eye(3))
        rng = np.random.default_rng(22)
        for _ in range(10):
            assert score_pair(m, rng.normal(size=3), rng.normal(size=3)) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        m = random_model(rng, 4)
        for _ in range(20):
            e, t = rng.normal(size=4), rng.normal(size=4)
            assert score_pair(m, e, t) == score_pair(m, t, e)

    def test_1d_hand_value(self):
        m = PldaModel(np.zeros(1), np.eye(1), np.eye(1))
        got = score_pair(m, np.array([1.0]), np.array([1.0]))
        # oracle: -0.5*((log 3 - log 4) + (2/3 - 1))
        expect = -0.5 * ((np.log(3.0) - np.log(4.0)) + (2.0 / 3.0 - 1.0))
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.31050770, abs=1e-8)

    def test_joint_gaussian_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            m = random_model(rng, d)
            e, t = rng.normal(size=d), rng.normal(size=d)
            assert score_pair(m, e, t) == pytest.approx(
                joint_gaussian_llr(m, e, t), abs=1e-8)

    def test_score_matrix_matches_pairs(self):
        rng = np.random.default_rng(25)
        m = random_model(rng, 3)
        e = rng.normal(size=(4, 3))
        t = rng.normal(size=(5, 3))
        mat = score_matrix(m, e, t)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == pytest.approx(score_pair(m, e[i], t[j]), rel=1e-10)


class TestScoreTrials:
    def make_eval(self, rng, d=3):
        m = random_model(rng, d)
        enroll = one_corpus(["e1"], ["spkA"], rng.normal(size=(1, d)))
        test = one_corpus(["t1"], [MISSING_SPEAKER], rng.normal(size=(1, d)))
        return m, enroll, test

    def test_single_session_equals_score_pair(self):
        rng = np.random.default_rng(26)
        m, enroll, test = self.make_eval(rng)
        trials = TrialList(["spkA"], ["t1"], ["target"])
        ss = score_trials(m, enroll, test, trials)
        e = enroll.matrix()[0]
        assert ss.scores[0] == pytest.approx(
            score_pair(m, e / np.linalg.norm(e), test.matrix()[0]), rel=1e-12)
        assert trial_columns(ss.trials)[2][0] == "target"

    def test_duplicate_sessions_idempotent(self):
        rng = np.random.default_rng(27)
        m = random_model(rng, 3)
        v = rng.normal(size=3)
        one = one_corpus(["e1"], ["spkA"], [v])
        two = one_corpus(["e1", "e2"], ["spkA", "spkA"], [v, v])
        test = one_corpus(["t1"], [MISSING_SPEAKER], rng.normal(size=(1, 3)))
        trials = TrialList(["spkA"], ["t1"], ["unknown"])
        s1 = score_trials(m, one, test, trials).scores[0]
        s2 = score_trials(m, two, test, trials).scores[0]
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_antipodal_sessions_rejected(self):
        rng = np.random.default_rng(28)
        m = random_model(rng, 2)
        u = np.array([0.6, 0.8])
        enroll = one_corpus(["e1", "e2"], ["spkA", "spkA"], [u, -u])
        test = one_corpus(["t1"], [MISSING_SPEAKER], [[1.0, 0.0]])
        trials = TrialList(["spkA"], ["t1"], ["unknown"])
        with pytest.raises(DataError, match="zero-norm enrollment model"):
            score_trials(m, enroll, test, trials)

    def test_equals_gathered_score_matrix(self):
        rng = np.random.default_rng(31)
        m = random_model(rng, 3)
        enroll = one_corpus([f"e{i}" for i in range(6)], [f"spk{i % 3}" for i in range(6)],
                            rng.normal(size=(6, 3)))
        test = one_corpus([f"t{j}" for j in range(4)], [MISSING_SPEAKER] * 4,
                          rng.normal(size=(4, 3)))
        pairs = [(f"spk{i}", f"t{j}") for i in range(3) for j in range(4)]
        keep = rng.permutation(len(pairs))[:9]  # shuffled and sparse
        labels = ("target", "nontarget", "unknown")
        trials = TrialList([pairs[k][0] for k in keep], [pairs[k][1] for k in keep],
                           [labels[k % 3] for k in keep])
        ss = score_trials(m, enroll, test, trials)
        model_ids, model_vecs = enroll_models(enroll)
        llr = score_matrix(m, model_vecs, test.matrix())
        expect = [float(llr[model_ids.index(mid), test.ids.tolist().index(tid)])
                  for mid, tid, _ in zip(*trial_columns(trials))]
        assert ss.scores.tolist() == expect
        assert ss.trials is trials

    def test_unresolved_model_rejected(self):
        rng = np.random.default_rng(29)
        m, enroll, test = self.make_eval(rng)
        trials = TrialList(["ghost"], ["t1"], ["unknown"])
        with pytest.raises(DataError, match="unresolved enrollment model"):
            score_trials(m, enroll, test, trials)
        # the first missing id in sorted order is named
        model, test_id = enroll_models(enroll)[0][0], test.ids[0]
        trials = TrialList([model, "zz", "ghost", model], [test_id] * 2 + ["t9", "t0"],
                           ["unknown"] * 4)
        with pytest.raises(DataError, match="^unresolved enrollment model 'ghost'$"):
            score_trials(m, enroll, test, trials)
        trials = TrialList([model] * 3, [test_id, "zz", "t0"], ["unknown"] * 3)
        with pytest.raises(DataError, match="^unresolved test id 't0'$"):
            score_trials(m, enroll, test, trials)

    def test_enroll_models_average_then_normalize(self):
        vs = one_corpus(["a", "b"], ["s", "s"], [[2.0, 0.0], [0.0, 2.0]])
        ids, vecs = enroll_models(vs)
        assert ids == ["s"]
        np.testing.assert_allclose(vecs[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_unlabeled_id_equal_to_a_speaker_id_rejected(self):
        # 'spk1' would enroll under its own id, a1 and a2 under speaker spk1
        vs = one_corpus(["spk1", "a1", "a2"], [MISSING_SPEAKER, "spk1", "spk1"],
                        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DataError, match="^unlabeled enrollment id 'spk1' is also a speaker"):
            enroll_models(vs)


class TestPldaSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        m = replace(random_model(rng, 4), rank=3)
        p = tmp_path / "plda.txt"
        save_plda(m, p)
        back = load_plda(p)
        np.testing.assert_array_equal(back.mean, m.mean)
        np.testing.assert_array_equal(back.ac, m.ac)
        np.testing.assert_array_equal(back.wc, m.wc)
        assert back.rank == 3

    def test_round_trip_no_rank(self, tmp_path):
        m = PldaModel(np.zeros(2), np.eye(2), np.eye(2))
        p = tmp_path / "plda.txt"
        save_plda(m, p)
        assert load_plda(p).rank is None


class TestModelRules:
    """PldaModel factors its scoring terms once, when built, and refuses a
    model that does not factor; nothing after construction factors again."""

    def test_not_spd_refused_when_built(self):
        with pytest.raises(NumericalError, match="not symmetric positive definite"):
            PldaModel([0.0], [[1.0]], [[-3.0]])

    @pytest.mark.parametrize("rank", [-5, 0, 3, 99])
    def test_rank_outside_dim_refused_when_built(self, rank):
        with pytest.raises(DataError, match=rf"^rank must be in \[1, 2\], got {rank}$"):
            PldaModel(np.zeros(2), np.eye(2), np.eye(2), rank)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_refused_when_built(self, value):
        with pytest.raises(DataError, match="^non-finite value in mean$"):
            PldaModel([0.0, value], np.eye(2), np.eye(2))

    def test_overflow_refused_when_built(self):
        with pytest.raises(FloatingPointError, match="overflow"):
            PldaModel([0.0], [[1e308]], [[1e308]])

    def test_train_plda_refuses_a_model_that_does_not_factor(self):
        # speakers 1e6 apart with identical sessions: WC is the 1e-8 floor,
        # which AC + WC cannot hold in float64
        speakers = [f"s{s}" for s in range(3) for _ in range(2)]
        vs = one_corpus([f"{spk}_{i % 2}" for i, spk in enumerate(speakers)], speakers,
                        [[1e6 * s, 1e6 * s * s] for s in range(3) for _ in range(2)])
        with pytest.raises(NumericalError, match="not symmetric positive definite"):
            train_plda(vs)

    def test_load_refuses_a_model_whose_terms_overflow(self, tmp_path):
        p = tmp_path / "plda.txt"
        p.write_text("[mean]\n0\n[ac]\n1e308\n[wc]\n1e308\n[rank]\n-\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(p))}: bad PLDA model: overflow"):
            load_plda(p)

    def test_scoring_does_not_factor_again(self, monkeypatch):
        rng = np.random.default_rng(32)
        m = random_model(rng, 3)
        enroll = one_corpus(["e1", "e2", "e3"], ["a", "a", "b"], rng.normal(size=(3, 3)))
        test = one_corpus(["t1", "t2"], [MISSING_SPEAKER] * 2, rng.normal(size=(2, 3)))
        trials = TrialList(["a", "b", "b"], ["t1", "t1", "t2"], ["target", "nontarget", "unknown"])
        e, t = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        matrix, scores = score_matrix(m, e, t), score_trials(m, enroll, test, trials).scores

        def refuse(model):
            raise AssertionError("scoring terms factored again")

        monkeypatch.setattr(plda, "_scoring_terms", refuse)
        with pytest.raises(AssertionError):  # the patch is in force for a new model
            PldaModel(m.mean, m.ac, m.wc)
        assert score_matrix(m, e, t).tobytes() == matrix.tobytes()
        assert score_trials(m, enroll, test, trials).scores.tobytes() == scores.tobytes()

    def test_terms_cannot_go_stale(self):
        """A built model's AC can be neither reassigned nor written into, so
        it always scores as a model built with its matrices."""
        m = PldaModel(np.zeros(2), np.eye(2), np.eye(2))
        with pytest.raises(FrozenInstanceError):
            m.ac = 5 * np.eye(2)
        with pytest.raises(ValueError, match="read-only"):
            m.ac[...] = 5 * np.eye(2)
        e, t = np.array([[1.0, 0.0]]), np.array([[1.0, 0.5]])
        assert score_matrix(m, e, t).tobytes() == \
            score_matrix(PldaModel(np.zeros(2), np.eye(2), np.eye(2)), e, t).tobytes()
