import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recwhiten.config import parse_experiment_config
from recwhiten.data import (MISSING_SPEAKER, DataError, ScoreSet, TrialList,
                            VectorSet, load_scores, load_trials,
                            load_vector_table, save_scores, save_trials,
                            save_vector_table)
from recwhiten.experiment import build_levels, load_corpora


def write(tmp_path, text, name="table.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestVectorTable:
    def test_direct_parse(self, tmp_path):
        p = write(tmp_path, "#dim=2\nu1\tsre\tspkA\t1.0 2.0\n")
        vs = load_vector_table(p)
        assert vs.dim == 2
        assert len(vs) == 1
        e = vs.entries[0]
        assert e.id == "u1" and e.corpus_id == "sre" and e.speaker_id == "spkA"
        np.testing.assert_array_equal(e.values, [1.0, 2.0])

    def test_missing_speaker_sentinel(self, tmp_path):
        p = write(tmp_path, "#dim=2\nu1\tsre\t-\t1.0 2.0\n")
        assert load_vector_table(p).speaker_ids.tolist() == [MISSING_SPEAKER]

    def test_dimension_mismatch_reports_line(self, tmp_path):
        p = write(tmp_path, "#dim=2\nu1\tsre\t-\t1.0 2.0 3.0\n")
        with pytest.raises(DataError, match="dimension mismatch at line 2"):
            load_vector_table(p)

    def test_duplicate_id(self, tmp_path):
        p = write(tmp_path, "#dim=1\nu1\ta\t-\t1.0\nu1\tb\t-\t2.0\n")
        with pytest.raises(DataError, match="duplicate id"):
            load_vector_table(p)

    def test_non_finite_value(self, tmp_path):
        p = write(tmp_path, "#dim=1\nu1\ta\t-\tnan\n")
        with pytest.raises(DataError, match="non-finite"):
            load_vector_table(p)

    def test_missing_header(self, tmp_path):
        p = write(tmp_path, "u1\ta\t-\t1.0\n")
        with pytest.raises(DataError):
            load_vector_table(p)

    def test_round_trip(self, tmp_path):
        vs = VectorSet(["a", "b", "c"], ["c1", "c1", "c2"], ["s1", MISSING_SPEAKER, "s2"],
                       [[1.0, -2.5, 0.125], [0.3, 1e-5, 7.0], [9.0, 8.0, -1.0]])
        p = tmp_path / "out.txt"
        save_vector_table(vs, p)
        back = load_vector_table(p)
        assert back.dim == vs.dim and len(back) == len(vs)
        for col in ("ids", "corpus_ids", "speaker_ids"):
            assert getattr(back, col).tolist() == getattr(vs, col).tolist()
        np.testing.assert_array_equal(back.matrix(), vs.matrix())

    def test_empty_set_round_trip(self, tmp_path):
        p = tmp_path / "empty.txt"
        save_vector_table(VectorSet([], [], [], np.empty((0, 5))), p)
        back = load_vector_table(p)
        assert back.dim == 5 and len(back) == 0

    def test_tiny_value_round_trips_bit_for_bit(self, tmp_path):
        vs = VectorSet(["a"], ["c"], [MISSING_SPEAKER], [[1e-300]])
        p = tmp_path / "tiny.txt"
        save_vector_table(vs, p)
        back = load_vector_table(p)
        assert back.matrix()[0, 0] == 1e-300

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(12)
        for k in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(0, 8))
            corpora, speakers, rows = [], [], []
            for _ in range(n):
                corpora.append(f"c{int(rng.integers(3))}")
                speakers.append(MISSING_SPEAKER if rng.random() < 0.3
                                else f"s{int(rng.integers(4))}")
                rows.append(rng.normal(size=d) * 10.0 ** rng.integers(-20, 20))
            vs = VectorSet([f"v{i}" for i in range(n)], corpora, speakers,
                           np.reshape(rows, (n, d)))
            p = tmp_path / f"r{k}.txt"
            save_vector_table(vs, p)
            back = load_vector_table(p)
            np.testing.assert_array_equal(back.matrix(), vs.matrix())

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        # ids: no whitespace, no leading '#' (a comment line); other fields:
        # anything but the tab, line breaks and NUL the format cannot carry
        chars = st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r\0")
        ident = st.text(chars, min_size=1).filter(
            lambda s: not s.startswith("#") and not any(c.isspace() for c in s))
        tag = st.one_of(st.just(""), st.just(MISSING_SPEAKER), st.text(chars))
        dim = data.draw(st.integers(1, 4))
        ids = data.draw(st.lists(ident, max_size=6, unique=True))
        n = len(ids)
        corpora = data.draw(st.lists(tag, min_size=n, max_size=n))
        speakers = data.draw(st.lists(tag, min_size=n, max_size=n))
        values = data.draw(st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308])),
            min_size=n * dim, max_size=n * dim))
        vs = VectorSet(ids, corpora, speakers, np.reshape(values, (n, dim)))
        with tempfile.TemporaryDirectory() as tmp:
            p = os.path.join(tmp, "v.txt")
            save_vector_table(vs, p)
            back = load_vector_table(p)
        assert back.dim == dim
        for col in ("ids", "corpus_ids", "speaker_ids"):
            assert getattr(back, col).tolist() == getattr(vs, col).tolist()
        assert np.array_equal(back.matrix(), vs.matrix())
        assert np.array_equal(np.signbit(back.matrix()), np.signbit(vs.matrix()))


class TestVectorSet:
    def test_hierarchy_candidate_shares_ood_storage(self):
        cfg = parse_experiment_config(
            "[synth]\nseed = 3\ndim = 4\nsubcorpora = a:5:2:0.0 b:5:2:4.0 c:5:2:8.0\n"
            "n_enroll_speakers = 3\nn_unlabeled = 6\n\n"
            "[hierarchy]\nlevel1 = a+c b\n\n[backend]\nlevels = 0 1\n")
        corpora = load_corpora(cfg)
        ood = corpora.ood
        for token, cand in build_levels(cfg, corpora)[0].candidates:
            arrays = [v for v in vars(cand).values()
                      if isinstance(v, np.ndarray) and v.dtype == float]
            assert len(arrays) == 1 and np.shares_memory(arrays[0], ood.storage)
            wanted = np.isin(ood.corpus_ids, token.split("+"))
            assert cand.ids.tolist() == ood.ids[wanted].tolist()
            np.testing.assert_array_equal(cand.matrix(), ood.matrix()[wanted])
            assert not cand.matrix().flags.writeable
        assert not ood.matrix().flags.writeable
        with pytest.raises(ValueError):
            ood.matrix()[0, 0] = 1.0

    def test_validation_errors(self):
        with pytest.raises(DataError, match="dim >= 1"):
            VectorSet([], [], [], np.empty((0, 0)))
        with pytest.raises(DataError, match="differ in length"):
            VectorSet(["a", "b"], ["c"], ["-"], [[1.0]])
        with pytest.raises(DataError, match="duplicate id 'b'"):
            VectorSet(["b", "a", "b"], ["c"] * 3, ["-"] * 3, [[1.0], [2.0], [3.0]])
        with pytest.raises(DataError, match="non-finite value in entry 'y'"):
            VectorSet(["x", "y"], ["c"] * 2, ["-"] * 2, [[1.0], [np.inf]])


class TestTrialsAndScores:
    def test_trial_parse(self, tmp_path):
        p = write(tmp_path, "m1\tt1\ttarget\n")
        tl = load_trials(p)
        assert (tl.model_ids.tolist(), tl.test_ids.tolist(), tl.labels.tolist()) == \
            (["m1"], ["t1"], ["target"])

    def test_unknown_label(self, tmp_path):
        p = write(tmp_path, "m1\tt1\ttgt\n")
        with pytest.raises(DataError, match="unknown label"):
            load_trials(p)

    def test_duplicate_trial(self, tmp_path):
        p = write(tmp_path, "m1\tt1\ttarget\nm1\tt1\tnontarget\n")
        with pytest.raises(DataError, match="duplicate trial"):
            load_trials(p)

    def test_nul_in_id_rejected(self, tmp_path):
        p = write(tmp_path, "m1\tt1\ttarget\nm1\tt1\0\tnontarget\n")
        with pytest.raises(DataError, match="NUL character at line 2"):
            load_trials(p)
        p = write(tmp_path, "#dim=1\na\tc\t-\t1.0\na\0\tc\t-\t2.0\n", "vectors.txt")
        with pytest.raises(DataError, match="NUL character at line 3"):
            load_vector_table(p)

    def test_trials_round_trip(self, tmp_path):
        tl = TrialList(["m1", "m1", "m2", "spk 7", "mé"], ["t1", "t2", "t1", "a b", ""],
                       ["target", "nontarget", "unknown", "target", "unknown"])
        p = tmp_path / "trials.txt"
        save_trials(tl, p)
        back = load_trials(p)
        for col in ("model_ids", "test_ids", "labels"):
            assert getattr(back, col).tolist() == getattr(tl, col).tolist()

    def test_scores_round_trip(self, tmp_path):
        ss = ScoreSet(TrialList(["m1", "m1", "m2", "m2"], ["t1", "t2", "t1", "t 2"],
                                ["target", "nontarget", "unknown", "target"]),
                      [0.123456789123456789, -4.5e-8, 3.0, 5e-324])
        p = tmp_path / "scores.txt"
        save_scores(ss, p)
        back = load_scores(p)
        for col in ("model_ids", "test_ids", "labels"):
            assert getattr(back.trials, col).tolist() == getattr(ss.trials, col).tolist()
        assert back.scores.tolist() == ss.scores.tolist()

    def test_non_finite_score_rejected(self):
        with pytest.raises(DataError, match="non-finite score"):
            ScoreSet(TrialList(["m"], ["t"], ["target"]), [float("inf")])
