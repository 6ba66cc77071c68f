import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recwhiten.config import parse_experiment_config
from recwhiten.data import (LABELS, MISSING_SPEAKER, DataError, ScoreSet,
                            TrialList, VectorSet, load_scores, load_trials,
                            load_vector_table, save_scores, save_trials,
                            save_vector_table)
from recwhiten.experiment import build_levels, load_corpora
from recwhiten.plda import PldaModel, load_plda, save_plda
from recwhiten.whitening import (LevelSelection, RecursiveWhitener,
                                 WhiteningStage, load_whitener, save_whitener)


def write(tmp_path, text, name="table.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


# Ids and tags for the round-trip properties: either any text, often what a
# field cannot carry (tab, LF, CR, NUL, a lone surrogate) next to a leading
# '#', spaces, the empty string and non-ASCII; or text free of those five.
ODD = ["", " ", "a b", "#", "#x", "[x]", "-", "é", "\u2028", "\t", "x\ty", "x\n", "\r",
       "x\0y", "x\0", "\ud800"]
ANY_TEXT = st.one_of(st.sampled_from(ODD), st.text(max_size=4))
FIELD_TEXT = st.text(st.characters(exclude_characters="\t\n\r\0"), max_size=4)
ALPHABETS = st.sampled_from([ANY_TEXT, FIELD_TEXT])
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308]))
PROPERTY = settings(max_examples=200, deadline=None, database=None)


def stripped(text):
    # numpy string arrays drop trailing NULs, so "x\0" is "x" in a column
    return text.rstrip("\0")


def readable(values):
    """Whether every value can be a field: no tab, LF, CR, NUL or surrogate."""
    return not any(c in "\t\n\r\0" or "\ud800" <= c <= "\udfff" for v in values for c in v)


def table_readable(columns):
    """Whether text columns can be a table: readable, no row starting with '#'."""
    return (readable(v for col in columns for v in col.tolist())
            and not any(v.startswith("#") for v in columns[0].tolist()))


def round_trip(save, load, x):
    """load(save(x)), or None when save refuses x, which must leave no file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved.txt")
        try:
            save(x, path)
        except DataError:
            assert not os.path.exists(path)
            return None
        return load(path)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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

    def test_dim_header_after_data_rejected(self, tmp_path):
        p = write(tmp_path, "#dim=2\nu1\tsre\t-\t1.0 2.0\n#dim=3\nu2\tsre\t-\t1.0 2.0 3.0\n")
        with pytest.raises(DataError, match="misplaced header at line 3"):
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

    @PROPERTY
    @given(st.data())
    def test_round_trip_property(self, data):
        text = data.draw(ALPHABETS)
        dim = data.draw(st.integers(1, 4))
        ids = data.draw(st.lists(text, max_size=6, unique_by=stripped))
        n = len(ids)
        corpora = data.draw(st.lists(text, min_size=n, max_size=n))
        speakers = data.draw(st.lists(text, min_size=n, max_size=n))
        values = data.draw(st.lists(FLOATS, min_size=n * dim, max_size=n * dim))
        vs = VectorSet(ids, corpora, speakers, np.reshape(values, (n, dim)))
        back = round_trip(save_vector_table, load_vector_table, vs)
        columns = ("ids", "corpus_ids", "speaker_ids")
        assert (back is None) == (not table_readable([getattr(vs, c) for c in columns]))
        if back is not None:
            assert back.dim == dim
            for col in columns:
                assert getattr(back, col).tolist() == getattr(vs, col).tolist()
            assert same_bits(back.matrix(), vs.matrix())


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

    @staticmethod
    def draw_trials(data):
        text = data.draw(ALPHABETS)
        pairs = data.draw(st.lists(st.tuples(text, text), max_size=6,
                                   unique_by=lambda p: (stripped(p[0]), stripped(p[1]))))
        labels = data.draw(st.lists(st.sampled_from(LABELS), min_size=len(pairs),
                                    max_size=len(pairs)))
        return TrialList([m for m, _ in pairs], [t for _, t in pairs], labels)

    @PROPERTY
    @given(st.data())
    def test_trials_round_trip_property(self, data):
        tl = self.draw_trials(data)
        back = round_trip(save_trials, load_trials, tl)
        columns = ("model_ids", "test_ids", "labels")
        assert (back is None) == (not table_readable([getattr(tl, c) for c in columns]))
        if back is not None:
            for col in columns:
                assert getattr(back, col).tolist() == getattr(tl, col).tolist()

    @PROPERTY
    @given(st.data())
    def test_scores_round_trip_property(self, data):
        tl = self.draw_trials(data)
        ss = ScoreSet(tl, data.draw(st.lists(FLOATS, min_size=len(tl), max_size=len(tl))))
        back = round_trip(save_scores, load_scores, ss)
        columns = ("model_ids", "test_ids", "labels")
        assert (back is None) == (not table_readable([getattr(tl, c) for c in columns]))
        if back is not None:
            for col in columns:
                assert getattr(back.trials, col).tolist() == getattr(tl, col).tolist()
            assert same_bits(back.scores, ss.scores)

    def test_non_finite_score_rejected(self):
        with pytest.raises(DataError, match="non-finite score"):
            ScoreSet(TrialList(["m"], ["t"], ["target"]), [float("inf")])


class TestSaveRefusals:
    @pytest.mark.parametrize("save, x", [
        pytest.param(save_vector_table, VectorSet(["#x", "y"], ["c"] * 2, ["-"] * 2, [[1.0], [2.0]]),
                     id="vector-id-starting-with-hash"),
        pytest.param(save_vector_table, VectorSet(["x"], ["a\tb"], ["-"], [[1.0]]),
                     id="tab-in-corpus-id"),
        pytest.param(save_trials, TrialList(["#m"], ["t"], ["target"]),
                     id="model-id-starting-with-hash"),
        pytest.param(save_scores, ScoreSet(TrialList(["m"], ["t\nu"], ["target"]), [1.0]),
                     id="line-break-in-test-id"),
        pytest.param(save_whitener, RecursiveWhitener([WhiteningStage(0, "c\r", [0.0], [[1.0]])]),
                     id="cr-in-whitener-corpus-id"),
        pytest.param(save_whitener, RecursiveWhitener([WhiteningStage(0, "c", [np.nan], [[1.0]])]),
                     id="nan-in-whitener"),
        pytest.param(save_plda, PldaModel([np.inf], [[1.0]], [[1.0]]), id="inf-in-plda"),
        pytest.param(save_plda, PldaModel([0.0], [[1.0]], [[-3.0]]), id="plda-not-spd"),
    ])
    def test_refused_before_the_file_exists(self, tmp_path, save, x):
        path = tmp_path / "saved.txt"
        with pytest.raises(DataError):
            save(x, path)
        assert not path.exists()


def draw_floats(data, *shape):
    return np.reshape(data.draw(st.lists(FLOATS, min_size=int(np.prod(shape)),
                                         max_size=int(np.prod(shape)))), shape)


class TestModelFileProperties:
    @PROPERTY
    @given(st.data())
    def test_whitener_round_trip_property(self, data):
        text = data.draw(ALPHABETS)
        dim = data.draw(st.integers(1, 3))
        depth = data.draw(st.integers(1, 3))
        stages = [WhiteningStage(level, data.draw(text), draw_floats(data, dim),
                                 draw_floats(data, dim, dim)) for level in range(depth)]
        log = []
        for level in range(1, depth):
            logliks = data.draw(st.lists(st.tuples(text, FLOATS), min_size=1, max_size=3))
            log.append(LevelSelection(level, logliks, data.draw(st.integers(0, len(logliks) - 1))))
        w = RecursiveWhitener(stages, log)
        back = round_trip(save_whitener, load_whitener, w)
        corpus_ids = [s.corpus_id for s in stages] + [c for sel in log for c, _ in sel.logliks]
        assert (back is None) == (not readable(corpus_ids))
        if back is not None:
            assert len(back.stages) == depth and len(back.selection_log) == depth - 1
            for got, want in zip(back.stages, stages):
                assert (got.level, got.corpus_id) == (want.level, want.corpus_id)
                assert same_bits(got.mean, want.mean) and same_bits(got.w, want.w)
            for got, want in zip(back.selection_log, log):
                assert (got.level, got.chosen) == (want.level, want.chosen)
                assert [c for c, _ in got.logliks] == [c for c, _ in want.logliks]
                assert same_bits([ll for _, ll in got.logliks], [ll for _, ll in want.logliks])

    @PROPERTY
    @given(st.data())
    def test_plda_round_trip_property(self, data):
        dim = data.draw(st.integers(1, 3))
        upper = np.triu(np.ones((dim, dim), dtype=bool))
        spd = data.draw(st.booleans())
        if spd:
            # AC PSD and WC - I PSD put [[AC + WC, AC], [AC, AC + WC]] above I,
            # so the model factors and save may not refuse it
            b, c = (np.reshape(data.draw(st.lists(st.floats(-1, 1), min_size=dim * dim,
                                                  max_size=dim * dim)), (dim, dim))
                    for _ in range(2))
            ac, wc = b @ b.T, np.eye(dim) + c @ c.T
        else:
            ac, wc = (draw_floats(data, dim, dim) for _ in range(2))
        model = PldaModel(draw_floats(data, dim), np.where(upper, ac, ac.T),
                          np.where(upper, wc, wc.T),
                          data.draw(st.one_of(st.none(), st.integers(-3, 10**6))))
        back = round_trip(save_plda, load_plda, model)
        assert back is not None or not spd
        if back is not None:
            assert back.rank == model.rank
            for name in ("mean", "ac", "wc"):
                assert same_bits(getattr(back, name), getattr(model, name))
