import numpy as np
import pytest

from recwhiten.data import ConfigError
from recwhiten.stats import cholesky_lower
from recwhiten.synth import (SubCorpusSpec, SynthConfig, _sample_corpus, generate_world,
                             make_rng, normals, random_spd)

from oracles import box_muller, sample_speakers, trial_columns


def small_config(**kw):
    cfg = SynthConfig(
        dim=kw.pop("dim", 8),
        seed=kw.pop("seed", 0),
        ood_subcorpora=kw.pop("ood_subcorpora", [
            SubCorpusSpec("ood_a", 20, 4, 0.0),
            SubCorpusSpec("ood_b", 20, 4, 3.0),
        ]),
        n_enroll_speakers=kw.pop("n_enroll_speakers", 8),
        n_unlabeled=kw.pop("n_unlabeled", 30),
        **kw,
    )
    return cfg


class TestNormals:
    def test_moments(self):
        z = normals(make_rng(0), (200000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_deterministic(self):
        a = normals(make_rng(123), (50,))
        b = normals(make_rng(123), (50,))
        np.testing.assert_array_equal(a, b)

    def test_odd_shapes(self):
        assert normals(make_rng(1), (3, 5)).shape == (3, 5)
        assert normals(make_rng(1), (7,)).shape == (7,)

    @pytest.mark.parametrize("shape", [(1,), (2,), (7,), (3, 5), (4, 4), (1, 201), (50, 50)])
    def test_one_block_matches_the_box_muller_oracle(self, shape):
        rng, ref = make_rng(3, stream=1), make_rng(3, stream=1)
        z = normals(rng, shape)
        assert z.shape == shape
        assert z.tobytes() == box_muller(ref, shape).tobytes()
        assert rng.random() == ref.random()  # the stream is left where the oracle leaves it

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 4), (1, 200)])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_stacked_blocks_equal_consecutive_calls(self, shape, count):
        rng, ref = make_rng(11, stream=2), make_rng(11, stream=2)
        z = normals(rng, shape, count)
        assert z.shape == (count, *shape)
        for block in z:
            assert block.tobytes() == normals(ref, shape).tobytes()
        assert rng.random() == ref.random()


class TestSampleCorpus:
    """One stacked draw and gemm per corpus give the bytes of one draw and one
    product per speaker: k = 1 (the unlabeled corpus), odd k * d (the last
    sine dropped), d = 2 and d = 200."""

    @pytest.mark.parametrize("n_speakers,k,d", [
        (9, 1, 2), (9, 1, 7), (12, 1, 200), (5, 3, 5), (7, 6, 2), (6, 6, 200), (4, 3, 201)])
    def test_bytes_match_one_draw_per_speaker(self, n_speakers, k, d):
        chol = cholesky_lower(random_spd(d, 10.0, seed=d))
        mean = 3.0 * normals(make_rng(2), (d,))
        rng, ref = make_rng(5, stream=1), make_rng(5, stream=1)
        sessions = [f"s{i}" for i in range(k)]
        got = _sample_corpus(rng, "c", "p_", mean, chol, n_speakers, sessions, 1.3, 0.7)
        want = sample_speakers(ref, mean, chol, n_speakers, k, 1.3, 0.7)
        assert got.matrix().shape == (n_speakers * k, d)
        assert got.matrix().tobytes() == want.tobytes()
        assert rng.random() == ref.random()
        assert got.ids[:k].tolist() == [f"p_spk0000_{s}" for s in sessions]


class TestRandomSpd:
    def test_condition_one_is_identity(self):
        np.testing.assert_array_equal(random_spd(5, 1.0, 3), np.eye(5))

    def test_eigenvalues_log_spaced(self):
        m = random_spd(2, 4.0, 9)
        vals = np.sort(np.linalg.eigvalsh(m))
        np.testing.assert_allclose(vals, [0.5, 2.0], rtol=1e-10)

    def test_exact_condition_number(self):
        for d, k, seed in ((3, 10.0, 0), (8, 100.0, 1), (16, 2.5, 2)):
            vals = np.linalg.eigvalsh(random_spd(d, k, seed))
            assert vals.max() / vals.min() == pytest.approx(k, rel=1e-10)

    def test_always_spd(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            d = int(rng.integers(2, 12))
            k = float(rng.uniform(1.0, 1e4))
            cholesky_lower(random_spd(d, k, int(rng.integers(1 << 31))))

    def test_bad_condition_rejected(self):
        with pytest.raises(ValueError):
            random_spd(3, 0.5, 0)


class TestGenerateWorld:
    def test_determinism(self):
        cfg = small_config(seed=4)
        w1 = generate_world(cfg)
        w2 = generate_world(small_config(seed=4))
        np.testing.assert_array_equal(w1.ood_labeled.matrix(), w2.ood_labeled.matrix())
        np.testing.assert_array_equal(w1.enroll.matrix(), w2.enroll.matrix())
        np.testing.assert_array_equal(w1.test.matrix(), w2.test.matrix())
        assert trial_columns(w1.trials) == trial_columns(w2.trials)

    def test_seed_changes_output(self):
        w1 = generate_world(small_config(seed=1))
        w2 = generate_world(small_config(seed=2))
        assert not np.array_equal(w1.enroll.matrix(), w2.enroll.matrix())

    def test_counts(self):
        cfg = small_config(n_unlabeled=100)
        w = generate_world(cfg)
        assert len(w.indomain_unlabeled) == 100
        assert len(w.ood_labeled) == 2 * 20 * 4
        assert len(w.enroll) == 8 * cfg.enroll_sessions
        assert len(w.test) == 8 * cfg.test_sessions
        assert len(w.trials) == 8 * len(w.test)

    def test_labels_match_generating_speakers(self):
        w = generate_world(small_config(seed=6))
        speaker_of = dict(zip(w.test.ids.tolist(), w.test.speaker_ids.tolist()))
        t = w.trials
        for model_id, test_id, label in zip(*trial_columns(t)):
            same = speaker_of[test_id] == model_id
            assert label == ("target" if same else "nontarget")

    def test_subcorpus_covariance_matches_generator(self):
        cfg = small_config(
            dim=6, seed=7,
            ood_subcorpora=[SubCorpusSpec("big", 625, 8, 0.0)],
            across_var=1.3, within_var=0.7,
        )
        w = generate_world(cfg)
        x = w.ood_labeled.matrix()
        emp = np.cov(x.T)
        # generate_world draws every OOD sub-corpus with this session covariance
        expected = (1.3 + 0.7) * random_spd(cfg.dim, cfg.condition, cfg.seed)
        assert np.linalg.norm(emp - expected) / np.linalg.norm(expected) < 0.1

    def test_no_mismatch_control_moments_converge(self):
        cfg = small_config(
            dim=5, seed=8,
            ood_subcorpora=[SubCorpusSpec("ood", 400, 4, 0.0)],
            n_unlabeled=1600,
            language_shift=0.0, cov_scale=1.0,
        )
        w = generate_world(cfg)
        ood = w.ood_labeled.matrix()
        ind = w.indomain_unlabeled.matrix()
        assert np.abs(ood.mean(axis=0) - ind.mean(axis=0)).max() < 0.3
        assert np.linalg.norm(np.cov(ood.T) - np.cov(ind.T)) / \
            np.linalg.norm(np.cov(ood.T)) < 0.2

    @pytest.mark.parametrize("change", [
        {"dim": 2 ** 31},  # d * d values fit an index, 8 * d * d bytes do not
        {"dim": 2, "n_unlabeled": 2 ** 59},  # 2 ** 60 uniforms, 2 ** 63 bytes
        {"dim": 3, "ood_subcorpora": [SubCorpusSpec("a", 2 ** 58, 1, 0.0)]},  # 4 per speaker
    ])
    def test_sizes_beyond_numpy_bytes_rejected(self, change):
        with pytest.raises(ConfigError, match="bytes in one array"):
            small_config(**change).validate()

    def test_sizes_at_numpy_bytes_pass(self):
        # 2 ** 59 - 1 speakers of 2 uniforms: 2 ** 63 - 16 bytes, the largest array
        small_config(dim=2, n_unlabeled=2 ** 59 - 1, n_enroll_speakers=1).validate()

    def test_invalid_config_rejected(self):
        cfg = small_config()
        cfg.cov_scale = -1.0
        with pytest.raises(ValueError):
            generate_world(cfg)
        cfg = small_config(ood_subcorpora=[SubCorpusSpec("a", 5, 2, 0.0),
                                           SubCorpusSpec("a", 5, 2, 0.0)])
        with pytest.raises(ValueError, match="duplicate"):
            generate_world(cfg)
