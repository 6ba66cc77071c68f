import numpy as np
import pytest

from recwhiten.data import (DataError, ScoreSet, TrialList,
                            VectorEntry, VectorSet, load_scores, load_trials,
                            load_vector_table, save_scores, save_trials,
                            save_vector_table)


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
        assert load_vector_table(p).entries[0].speaker_id is None

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
        vs = VectorSet(3, [
            VectorEntry("a", "c1", "s1", np.array([1.0, -2.5, 0.125])),
            VectorEntry("b", "c1", None, np.array([0.3, 1e-5, 7.0])),
            VectorEntry("c", "c2", "s2", np.array([9.0, 8.0, -1.0])),
        ])
        p = tmp_path / "out.txt"
        save_vector_table(vs, p)
        back = load_vector_table(p)
        assert back.dim == vs.dim and len(back) == len(vs)
        for e1, e2 in zip(vs.entries, back.entries):
            assert (e1.id, e1.corpus_id, e1.speaker_id) == (e2.id, e2.corpus_id, e2.speaker_id)
            np.testing.assert_array_equal(e1.values, e2.values)

    def test_empty_set_round_trip(self, tmp_path):
        p = tmp_path / "empty.txt"
        save_vector_table(VectorSet(5, []), p)
        back = load_vector_table(p)
        assert back.dim == 5 and len(back) == 0

    def test_tiny_value_round_trips_bit_for_bit(self, tmp_path):
        vs = VectorSet(1, [VectorEntry("a", "c", None, np.array([1e-300]))])
        p = tmp_path / "tiny.txt"
        save_vector_table(vs, p)
        back = load_vector_table(p)
        assert back.entries[0].values[0] == 1e-300

    def test_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(12)
        for k in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(0, 8))
            entries = [
                VectorEntry(f"v{i}", f"c{int(rng.integers(3))}",
                            None if rng.random() < 0.3 else f"s{int(rng.integers(4))}",
                            rng.normal(size=d) * 10.0 ** rng.integers(-20, 20))
                for i in range(n)
            ]
            vs = VectorSet(d, entries)
            p = tmp_path / f"r{k}.txt"
            save_vector_table(vs, p)
            back = load_vector_table(p)
            for e1, e2 in zip(vs.entries, back.entries):
                np.testing.assert_array_equal(e1.values, e2.values)


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
