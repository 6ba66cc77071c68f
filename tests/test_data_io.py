import os
import re
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import oracles
from recwhiten import data as data_module
from recwhiten.config import parse_experiment_config
from recwhiten.data import (LABELS, MISSING_SPEAKER, DataError, Factored, NumericalError,
                            ScoreSet, TrialList, VectorSet, load_scores, load_trials,
                            load_vector_table, save_scores, save_trials,
                            save_vector_table)
from recwhiten.experiment import build_levels, load_corpora, selection_targets, write_world
from recwhiten.plda import PldaModel, load_plda, save_plda, score_matrix
from recwhiten.projection import project_sets
from recwhiten.stats import Moments
from recwhiten.synth import SubCorpusSpec, SynthConfig, generate_world
from recwhiten.whitening import (CorpusLevel, LevelSelection, RecursiveWhitener,
                                 WhiteningStage, fit_recursive, load_whitener,
                                 save_whitener)


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
FIELD_TEXT = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\t\n\r\0"),
                     max_size=4)
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
    """Whether text columns (lists) can be a table: readable, no row starting with '#'."""
    return (readable(v for col in columns for v in col)
            and not any(v.startswith("#") for v in columns[0]))


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
        assert (vs.ids.tolist(), vs.corpus_ids.tolist(), vs.speaker_ids.tolist()) == (
            ["u1"], ["sre"], ["spkA"])
        np.testing.assert_array_equal(vs.matrix(), [[1.0, 2.0]])

    def test_missing_speaker_sentinel(self, tmp_path):
        p = write(tmp_path, "#dim=2\nu1\tsre\t-\t1.0 2.0\n")
        assert load_vector_table(p).speaker_ids.tolist() == [MISSING_SPEAKER]

    def test_dimension_mismatch_reports_line(self, tmp_path):
        p = write(tmp_path, "#dim=2\nu1\tsre\t-\t1.0 2.0 3.0\n")
        with pytest.raises(DataError, match="dimension mismatch at line 2"):
            load_vector_table(p)

    @pytest.mark.parametrize("headers, line", [
        pytest.param("#dim=5\n#dim=2\n", 2, id="two-headers"),
        pytest.param("#dim=2\n# note\n#dim=2\n", 3, id="same-header-twice"),
        pytest.param("#dim=02\n", 1, id="leading-zero"),
        pytest.param("#dim=\u0662\n", 1, id="arabic-indic-digit"),
        pytest.param("#dim=+2\n", 1, id="sign"),
        pytest.param("#dim=0\n", 1, id="zero"),
        pytest.param(f"#dim={2**63}\n", 1, id="beyond-any-array"),
        pytest.param("#dim=" + "9" * 5000 + "\n", 1, id="beyond-int-str-digits"),
    ])
    def test_dim_header_once_as_save_spells_it(self, tmp_path, headers, line):
        p = write(tmp_path, headers + "u1\tsre\t-\t1.0 2.0\n")
        with pytest.raises(DataError, match=f"malformed or misplaced header at line {line}:"):
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
        assert (back is None) == (not table_readable([getattr(vs, c).tolist() for c in columns]))
        if back is not None:
            assert back.dim == dim
            for col in columns:
                assert getattr(back, col).tolist() == getattr(vs, col).tolist()
            assert same_bits(back.matrix(), vs.matrix())


class TestVectorSet:
    def test_hierarchy_candidate_views_ood_rows_when_consecutive(self):
        cfg = parse_experiment_config(
            "[synth]\nseed = 3\ndim = 4\nsubcorpora = a:5:2:0.0 b:5:2:4.0 c:5:2:8.0\n"
            "n_enroll_speakers = 3\nn_unlabeled = 6\n\n"
            "[hierarchy]\nlevel1 = a+c b c\n\n[backend]\nlevels = 0 1\n")
        corpora = load_corpora(cfg)
        ood = corpora.ood
        assert ood.matrix() is ood.matrix()
        for token, cand in build_levels(cfg, corpora)[0].candidates:
            # a single corpus is a run of OOD rows; a+c skips b's, so it is gathered
            assert np.shares_memory(cand.matrix(), ood.matrix()) == (token != "a+c")
            wanted = np.isin(ood.corpus_ids, token.split("+"))
            assert ood.ids[cand.rows].tolist() == ood.ids[wanted].tolist()
            assert cand.matrix().tobytes() == ood.matrix()[wanted].tobytes()
            assert not cand.matrix().flags.writeable
        assert not ood.matrix().flags.writeable
        with pytest.raises(ValueError):
            ood.matrix()[0, 0] = 1.0

    @staticmethod
    def three_corpus_world(dim, interleaved):
        """Corpora of three OOD sub-corpora of 400 vectors at dim, their rows
        in corpus order or shuffled (as a [data] table may hold them), and a
        config whose unions skip a corpus."""
        cfg = parse_experiment_config(
            f"[synth]\nseed = 5\ndim = {dim}\n"
            "subcorpora = a:40:10:0.0 b:40:10:4.0 c:40:10:8.0\n"
            "n_enroll_speakers = 4\nn_unlabeled = 30\n\n"
            "[hierarchy]\nlevel1 = a+c b c\nlevel2 = a+b c a+c\n\n[backend]\nlevels = 0 1 2\n")
        corpora = load_corpora(cfg)
        if interleaved:
            order = np.random.default_rng(0).permutation(len(corpora.ood))
            corpora = replace(corpora, ood=corpora.ood.take(order))
        return cfg, corpora

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_candidates_fit_as_the_vector_sets_they_select(self, tmp_path, interleaved):
        # d = 201 and candidates of 400 and 800 rows: BLOCK_ROWS cuts apply
        cfg, corpora = self.three_corpus_world(201, interleaved)
        ood = corpora.ood
        levels = build_levels(cfg, corpora)
        as_sets = [CorpusLevel(lv.level, [
            (token, ood.take(np.isin(ood.corpus_ids, token.split("+"))))
            for token, _ in lv.candidates]) for lv in levels]
        texts = []
        for name, hierarchy in (("rows", levels), ("sets", as_sets)):
            whitener = fit_recursive(corpora.unlabeled, hierarchy,
                                     selection_targets(cfg, corpora))
            save_whitener(whitener, tmp_path / name)
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("interleaved", [False, True])
    def test_build_levels_copies_no_vectors_or_ids(self, interleaved):
        cfg, corpora = self.three_corpus_world(200, interleaved)
        assert corpora.ood.matrix().nbytes >= 1 << 20
        tracemalloc.start()
        try:
            levels = build_levels(cfg, corpora)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(levels) == 2
        assert peak < corpora.ood.matrix().nbytes / 10

    @pytest.mark.parametrize("index, view", [
        ([1, 2], True), (slice(1, None), True), ([False, True, True, False], True),
        ([3], True), ([-1], True), ([0, 2], False), ([2, 1], False), ([], False),
    ])
    def test_take_views_consecutive_rows_and_copies_others(self, index, view):
        vs = VectorSet([f"v{i}" for i in range(4)], ["c"] * 4, ["-"] * 4,
                       np.arange(8.0).reshape(4, 2))
        sub = vs.take(index)
        rows = np.arange(4)[index]
        assert sub.ids.tolist() == vs.ids[rows].tolist()
        assert sub.matrix().tobytes() == vs.matrix()[rows].tobytes()
        assert np.shares_memory(sub.matrix(), vs.matrix()) == view
        assert not sub.matrix().flags.writeable

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
        assert oracles.trial_columns(tl) == (["m1"], ["t1"], ["target"])

    def test_unknown_label(self, tmp_path):
        p = write(tmp_path, "m1\tt1\ttgt\n")
        with pytest.raises(DataError, match="unknown label"):
            load_trials(p)

    def test_duplicate_trial(self, tmp_path):
        p = write(tmp_path, "m1\tt1\ttarget\nm1\tt1\tnontarget\n")
        with pytest.raises(DataError, match="duplicate trial"):
            load_trials(p)

    def test_fewer_scores_than_trials(self):
        tl = TrialList(["m", "m"], ["t1", "t2"], ["target", "nontarget"])
        with pytest.raises(DataError, match=r"^\(1,\) scores for 2 trials$"):
            ScoreSet(tl, [1.0])

    def test_duplicate_trial_names_first_repeat(self):
        # the earliest trial that repeats an earlier pair, whatever the id order
        tl = (["b", "a", "b", "a", "c", "a", "c"], ["y", "x", "y", "x", "z", "x", "w"])
        with pytest.raises(DataError, match=r"^duplicate trial \('b', 'y'\)$"):
            TrialList(*tl, ["unknown"] * 7)

    @given(st.lists(st.tuples(st.sampled_from(["", "a", "b", "mé", "a b", "é", "𝔘", "\uffff"]),
                              st.sampled_from(["", "t", "u", "tt", "日", "𝔘", "\uffff𝔘"])),
                    unique=True, max_size=20))
    def test_id_codes(self, pairs):
        model_ids, test_ids = [p[0] for p in pairs], [p[1] for p in pairs]
        tl = TrialList(model_ids, test_ids, ["unknown"] * len(pairs))
        assert tl.model.distinct.tolist() == sorted(set(model_ids)) == np.unique(model_ids).tolist()
        assert tl.test.distinct.tolist() == sorted(set(test_ids)) == np.unique(test_ids).tolist()
        assert tl.model.distinct[tl.model.codes].tolist() == model_ids
        assert tl.test.distinct[tl.test.codes].tolist() == test_ids

    @staticmethod
    def assert_same_fields(a, b):
        for name in ("model", "test", "label"):
            assert type(getattr(a, name)) is type(getattr(b, name)) is Factored, name
            for x, y in zip(getattr(a, name), getattr(b, name)):
                assert x.dtype.kind == y.dtype.kind and x.tolist() == y.tolist(), name

    @pytest.mark.parametrize("speakers", [
        range(4), range(995, 1005), [10000, 1001, 9999, 3, 10001]])  # 10000 sorts before 1001
    def test_factored_grid_equals_id_columns(self, speakers):
        models = np.array([f"eval_spk{s:04d}" for s in speakers])
        tests = np.array([f"{m}_t{k:02d}" for m in models[::-1] for k in range(2)])
        model_codes, test_codes = np.indices((len(models), len(tests))).reshape(2, -1)
        same = models[model_codes] == np.char.rpartition(tests, "_")[:, 0][test_codes]
        labels = np.where(same, "target", "nontarget")
        columns = TrialList(models[model_codes], tests[test_codes], labels)
        for label in (labels, Factored(["nontarget", "target"], same.astype(np.intp))):
            grid = TrialList(Factored(models, model_codes), Factored(tests, test_codes), label)
            self.assert_same_fields(grid, columns)
            assert oracles.trial_columns(grid) == oracles.trial_columns(columns)
            assert grid.model.distinct.tolist() == sorted(models.tolist())

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2)),
                    unique_by=lambda trial: trial[:2], max_size=20),
           st.permutations(["m", "a", "é", "m2", "", "𝔘"]), st.permutations(LABELS))
    def test_factored_equals_id_columns(self, trials, ids, label_order):
        """Any code order, distinct ids and labels in any order, some named by no code."""
        distinct, labels = np.array(ids), np.array(label_order)
        model_codes = np.array([m for m, _, _ in trials], dtype=np.intp)
        test_codes = np.array([t for _, t, _ in trials], dtype=np.int32)
        label_codes = np.array([lab for _, _, lab in trials], dtype=np.int16)
        columns = TrialList(distinct[model_codes], distinct[test_codes], labels[label_codes])
        for label in (labels[label_codes], Factored(label_order, label_codes)):
            self.assert_same_fields(
                TrialList(Factored(distinct, model_codes), Factored(ids, test_codes), label),
                columns)

    @pytest.mark.parametrize("distinct,codes,message", [
        (["a", "b", "a"], [0, 1], "repeated distinct id 'a'"),
        (["a", "b"], [0, -1], r"trial codes must be integers in \[0, 2\)"),
        (["a", "b"], [0, 2], r"trial codes must be integers in \[0, 2\)"),
        (["a", "b"], [0.0, 1.0], "trial codes must be integers"),
        (["a", "b"], [True, False], "trial codes must be integers"),
        (["a", "b"], np.array([0, 2], dtype=np.uint8), "trial codes must be integers"),
    ])
    def test_factored_refusals(self, distinct, codes, message):
        with pytest.raises(DataError, match=message):
            TrialList(Factored(distinct, codes), ["t1", "t2"], ["target", "target"])

    def test_factored_shares_the_trial_checks(self):
        with pytest.raises(DataError, match="duplicate trial"):
            TrialList(Factored(["m"], [0, 0]), Factored(["t"], [0, 0]), ["target"] * 2)
        with pytest.raises(DataError, match="differ in length"):
            TrialList(Factored(["m"], [0, 0]), ["t"], ["target"] * 2)
        with pytest.raises(DataError, match="unknown label"):
            TrialList(Factored(["m"], [0]), ["t"], ["bogus"])

    @pytest.mark.parametrize("labels", [
        ["target", "zz", "aa", "zz"],
        Factored(["aa", "target", "zz"], [1, 2, 0, 2]),
        Factored(["target", "zz", "aa", "bogus"], np.array([0, 1, 2, 1], dtype=np.uint8)),
    ])
    def test_unknown_label_names_the_first_bad_row(self, labels):
        """Not the first bad label in code-point order, whatever form the column takes."""
        with pytest.raises(DataError, match="^unknown label 'zz'$"):
            TrialList(["m1", "m2", "m3", "m4"], ["t"] * 4, labels)

    def test_label_no_trial_has_is_dropped(self):
        tl = TrialList(["m1", "m2"], ["t"] * 2, Factored(["bogus", "target", "unknown"], [1, 1]))
        assert tl.label.distinct.tolist() == ["target"]
        assert oracles.trial_columns(tl)[2] == ["target", "target"]

    def test_tuple_of_ids_is_an_id_column(self):
        tl = TrialList(("m1", "m2"), ("t1", "t2"), ("target", "nontarget"))
        assert oracles.trial_columns(tl) == (["m1", "m2"], ["t1", "t2"], ["target", "nontarget"])

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
        assert oracles.trial_columns(back) == oracles.trial_columns(tl)

    def test_scores_round_trip(self, tmp_path):
        ss = ScoreSet(TrialList(["m1", "m1", "m2", "m2"], ["t1", "t2", "t1", "t 2"],
                                ["target", "nontarget", "unknown", "target"]),
                      [0.123456789123456789, -4.5e-8, 3.0, 5e-324])
        p = tmp_path / "scores.txt"
        save_scores(ss, p)
        back = load_scores(p)
        assert oracles.trial_columns(back.trials) == oracles.trial_columns(ss.trials)
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
        columns = oracles.trial_columns(tl)
        assert (back is None) == (not table_readable(columns))
        if back is not None:
            assert oracles.trial_columns(back) == columns

    @PROPERTY
    @given(st.data())
    def test_scores_round_trip_property(self, data):
        tl = self.draw_trials(data)
        ss = ScoreSet(tl, data.draw(st.lists(FLOATS, min_size=len(tl), max_size=len(tl))))
        back = round_trip(save_scores, load_scores, ss)
        columns = oracles.trial_columns(tl)
        assert (back is None) == (not table_readable(columns))
        if back is not None:
            assert oracles.trial_columns(back.trials) == columns
            assert same_bits(back.scores, ss.scores)

    def test_non_finite_score_rejected(self):
        with pytest.raises(DataError, match="non-finite score"):
            ScoreSet(TrialList(["m"], ["t"], ["target"]), [float("inf")])


def frozen_objects():
    tl = TrialList(["m", "n"], ["t", "t"], ["target", "nontarget"])
    return [tl, ScoreSet(tl, [1.0, 2.0]), PldaModel(np.zeros(2), np.eye(2), 2 * np.eye(2)),
            WhiteningStage(0, "c", [0.0, 1.0], np.eye(2)),
            LevelSelection(1, [("c", 0.5), ("d", 1.0)], 0), Moments(np.zeros(2), np.eye(2), 3),
            VectorSet(["a", "b"], ["c"] * 2, ["s", "-"], np.eye(2)).take([1, 0])]


class TestReadOnly:
    @pytest.mark.parametrize("obj", frozen_objects(), ids=lambda obj: type(obj).__name__)
    def test_fields_and_arrays_refuse_writes(self, obj):
        for f in fields(obj):
            value = getattr(obj, f.name)
            with pytest.raises(FrozenInstanceError):
                setattr(obj, f.name, value)
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    with pytest.raises(ValueError, match="read-only"):
                        part[...] = part

    @pytest.mark.parametrize("trials", [frozen_objects()[0], frozen_objects()[1].trials])
    def test_trial_columns_are_read_only_factored(self, trials):
        for name in ("model", "test", "label"):
            column = getattr(trials, name)
            assert type(column) is Factored, name
            with pytest.raises(FrozenInstanceError):
                setattr(trials, name, column)
            for part in column._fields:
                array = getattr(column, part)
                with pytest.raises(AttributeError):
                    setattr(column, part, array)
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = array

    def test_arrays_passed_in_are_not_kept(self, tmp_path):
        """Writing into the arrays an object was built from leaves it as built."""
        ids, labels = np.array(["m", "n"]), np.array(["target", "nontarget"])
        tl = TrialList(ids, ids, labels)
        mean, ac, wc = np.zeros(2), np.eye(2), 2 * np.eye(2)
        model = PldaModel(mean, ac, wc)
        before = score_matrix(model, np.ones((1, 2)), np.ones((1, 2)))
        vs = VectorSet(ids, ids, ids, np.eye(2))
        ids[0], labels[0] = "z", "bogus"
        ac *= 5
        assert vs.ids.tolist() == vs.corpus_ids.tolist() == vs.speaker_ids.tolist() == ["m", "n"]
        assert oracles.trial_columns(tl) == (["m", "n"], ["m", "n"], ["target", "nontarget"])
        assert model.ac.tolist() == np.eye(2).tolist()
        assert score_matrix(model, np.ones((1, 2)), np.ones((1, 2))).tolist() == before.tolist()
        save_trials(tl, tmp_path / "trials.txt")
        assert (tmp_path / "trials.txt").read_text() == "m\tm\ttarget\nn\tn\tnontarget\n"


class TestSaveRefusals:
    def test_refusal_names_the_first_bad_distinct_id(self, tmp_path):
        """Trial ids are checked once per distinct id, so of two bad ids the
        refusal names the first in code-point order, not in row order."""
        tl = TrialList(["m", "b\tx", "a\tx"], ["t"] * 3, ["target"] * 3)
        with pytest.raises(DataError, match=re.escape(repr("a\tx"))):
            save_trials(tl, tmp_path / "trials.txt")
        tl = TrialList(["m", "#b", "#a"], ["t"] * 3, ["target"] * 3)
        with pytest.raises(DataError, match="'#a' would start a comment line"):
            save_trials(tl, tmp_path / "trials.txt")

    @pytest.mark.parametrize("save, x, error", [
        pytest.param(save_vector_table, VectorSet(["#x", "y"], ["c"] * 2, ["-"] * 2, [[1.0], [2.0]]),
                     DataError, id="vector-id-starting-with-hash"),
        pytest.param(save_vector_table, VectorSet(["x"], ["a\tb"], ["-"], [[1.0]]), DataError,
                     id="tab-in-corpus-id"),
        pytest.param(save_trials, TrialList(["#m"], ["t"], ["target"]), DataError,
                     id="model-id-starting-with-hash"),
        pytest.param(save_scores, ScoreSet(TrialList(["m"], ["t\nu"], ["target"]), [1.0]),
                     DataError, id="line-break-in-test-id"),
        pytest.param(save_whitener, RecursiveWhitener([WhiteningStage(0, "c\r", [0.0], [[1.0]])]),
                     DataError, id="cr-in-whitener-corpus-id"),
        pytest.param(save_whitener, lambda: WhiteningStage(0, "c", [np.nan], [[1.0]]), DataError,
                     id="nan-in-whitener"),
        pytest.param(save_whitener, lambda: RecursiveWhitener(
            [WhiteningStage(0, "c", [0.0, 0.0], [[1.0, 2.0], [2.0, 4.0]])]), DataError,
                     id="singular-whitener-stage"),
        pytest.param(save_whitener, RecursiveWhitener([WhiteningStage(1, "c", [0.0], [[1.0]])]),
                     DataError, id="whitener-first-stage-at-level-1"),
        pytest.param(save_whitener, RecursiveWhitener(
            [WhiteningStage(k, "c", [0.0], [[1.0]]) for k in range(2)],
            [LevelSelection(2, [("c", 0.0)], 0)]), DataError, id="whitener-selection-at-level-2"),
        pytest.param(save_whitener, RecursiveWhitener([WhiteningStage(0, "c", [0.0], [[1.0]])],
                                                      [LevelSelection(1, [("c", 0.0)], 0)]),
                     DataError, id="whitener-selection-without-its-stage"),
        pytest.param(save_whitener, RecursiveWhitener([]), DataError, id="whitener-no-stages"),
        pytest.param(save_whitener, lambda: LevelSelection(1, [("c", 0.0), ("d", 1.0)], 5),
                     DataError, id="whitener-chosen-out-of-range"),
        pytest.param(save_whitener, lambda: LevelSelection(1, [], 0), DataError,
                     id="whitener-empty-selection"),
        pytest.param(save_whitener, lambda: LevelSelection(1, [("c", np.nan)], 0), DataError,
                     id="whitener-nan-loglik"),
        pytest.param(save_whitener, RecursiveWhitener(
            [WhiteningStage(k, "c", [0.0], [[1.0]]) for k in range(2)],
            [LevelSelection(1, [("c", 0.0), ("d", 1.0)], 1)]), DataError,
                     id="whitener-selection-marks-another-corpus"),
        pytest.param(save_whitener, RecursiveWhitener(
            [WhiteningStage(0, "c", [0.0], [[1.0]]),
             WhiteningStage(1, "c", [0.0, 0.0], np.eye(2))]),
                     DataError, id="whitener-stages-differ-in-dimension"),
        pytest.param(save_plda, lambda: PldaModel([np.inf], [[1.0]], [[1.0]]), DataError,
                     id="inf-in-plda"),
        pytest.param(save_plda, lambda: PldaModel([0.0], [[1.0]], [[-3.0]]), NumericalError,
                     id="plda-not-spd"),
    ])
    def test_refused_before_the_file_exists(self, tmp_path, save, x, error):
        """save refuses x; or, where x is a constructor call, the constructor
        refuses what no file may hold, so there is nothing to save."""
        path = tmp_path / "saved.txt"
        with pytest.raises(error):
            x() if callable(x) else save(x, path)
        assert not path.exists()


def draw_floats(data, *shape, floats=FLOATS):
    return np.reshape(data.draw(st.lists(floats, min_size=int(np.prod(shape)),
                                         max_size=int(np.prod(shape)))), shape)


def draw_whitener(data, text, full_rank):
    """A whitener of 1-3 stages of dimension 1-3 with ids drawn from text, each
    selection choosing its stage's corpus; with full_rank, every stage matrix
    is nonsingular, so neither WhiteningStage nor save may refuse it."""
    dim = data.draw(st.integers(1, 3))
    depth = data.draw(st.integers(1, 3))

    def matrix():
        if not full_rank:
            return draw_floats(data, dim, dim)
        # strictly diagonally dominant, so nonsingular
        return 2 * dim * np.eye(dim) + np.reshape(data.draw(st.lists(
            st.floats(-1, 1), min_size=dim * dim, max_size=dim * dim)), (dim, dim))

    stages = [WhiteningStage(level, data.draw(text), draw_floats(data, dim), matrix())
              for level in range(depth)]
    log = []
    for level in range(1, depth):
        logliks = data.draw(st.lists(st.tuples(text, FLOATS), min_size=1, max_size=3))
        chosen = data.draw(st.integers(0, len(logliks) - 1))
        logliks[chosen] = (stages[level].corpus_id, logliks[chosen][1])
        log.append(LevelSelection(level, logliks, chosen))
    return RecursiveWhitener(stages, log)


def draw_plda(data, spd):
    """A PLDA model of dimension 1-3 with symmetric AC and WC; with spd, it
    factors and its rank is None or in [1, dim], so neither PldaModel nor
    save may refuse it. Without, the rank may also lie outside [1, dim]."""
    dim = data.draw(st.integers(1, 3))
    upper = np.triu(np.ones((dim, dim), dtype=bool))
    if spd:
        # AC PSD and WC - I PSD put [[AC + WC, AC], [AC, AC + WC]] above I
        b, c = (np.reshape(data.draw(st.lists(st.floats(-1, 1), min_size=dim * dim,
                                              max_size=dim * dim)), (dim, dim))
                for _ in range(2))
        ac, wc = b @ b.T, np.eye(dim) + c @ c.T
    else:
        ac, wc = (draw_floats(data, dim, dim) for _ in range(2))
    ranks = [st.none(), st.integers(1, dim)] + [st.integers(-3, 10**6)] * (not spd)
    return PldaModel(draw_floats(data, dim), np.where(upper, ac, ac.T),
                     np.where(upper, wc, wc.T), data.draw(st.one_of(ranks)))


class TestModelFileProperties:
    @PROPERTY
    @given(st.data())
    def test_whitener_round_trip_property(self, data):
        text = data.draw(ALPHABETS)
        full_rank = data.draw(st.booleans())
        try:
            w = draw_whitener(data, text, full_rank)
        except DataError:  # a singular stage matrix, refused when built
            assert not full_rank
            return
        stages, log, depth = w.stages, w.selection_log, len(w.stages)
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
        spd = data.draw(st.booleans())
        try:
            model = draw_plda(data, spd)
        except (ValueError, ArithmeticError):  # refused when built: does not factor,
            assert not spd                      # or its rank lies outside [1, dim]
            return
        assert model.rank is None or 1 <= model.rank <= model.dim
        back = round_trip(save_plda, load_plda, model)
        assert back.rank == model.rank
        for name in ("mean", "ac", "wc"):
            assert same_bits(getattr(back, name), getattr(model, name))

    @PROPERTY
    @given(st.data())
    def test_edited_file_property(self, data):
        """Blank lines anywhere leave a saved model as it was; a block or row
        that save never writes, or a block moved, makes the load raise DataError."""
        if data.draw(st.booleans()):
            save, load = save_whitener, load_whitener
            model = draw_whitener(data, FIELD_TEXT, full_rank=True)
        else:
            save, load, model = save_plda, load_plda, draw_plda(data, spd=True)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.txt")
            save(model, path)
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            lines = text.split("\n")[:-1]
            heads = [i for i, line in enumerate(lines) if line.startswith("[") and "\t" not in line]
            chosen = [i for i, line in enumerate(lines) if line.endswith("\tchosen")]
            edits = ["blank", "unknown block"] + ["move a block"] * (len(heads) > 1) + (
                ["second chosen"] * bool(chosen) + ["respell a level"] if load is load_whitener
                else ["duplicate block", "extra [mean] row", "extra [rank] line",
                      "respell the rank"])
            edit = data.draw(st.sampled_from(edits))
            if edit == "blank":
                for _ in range(data.draw(st.integers(1, 3))):
                    lines.insert(data.draw(st.integers(0, len(lines))),
                                 data.draw(st.sampled_from(["", " ", "\t", " \t "])))
            elif edit == "unknown block":
                lines.insert(data.draw(st.integers(0, len(lines))),
                             data.draw(st.sampled_from(["[bogus]", "[]", "[Mean]"])))
            elif edit == "duplicate block":
                k = data.draw(st.integers(0, len(heads) - 1))
                end = heads[k + 1] if k + 1 < len(heads) else len(lines)
                lines[end:end] = lines[heads[k]:end]
            elif edit == "move a block":  # with its rows, to another place in the block order
                blocks = [lines[i:j] for i, j in zip(heads, heads[1:] + [len(lines)])]
                k = data.draw(st.integers(0, len(blocks) - 1))
                block = blocks.pop(k)
                j = data.draw(st.integers(0, len(blocks) - 1))
                blocks.insert(j + (j >= k), block)
                lines = [line for b in blocks for line in b]
            elif edit == "second chosen":
                lines.insert(chosen[-1], lines[chosen[-1]])
            elif edit == "respell a level":  # another level, or the same one spelled otherwise
                k = data.draw(st.sampled_from(heads))
                spell = data.draw(st.sampled_from(["0{}", "+{}", "{}0", "{}_0"]))
                lines[k] = re.sub(r"\d+", lambda m: spell.format(m.group()), lines[k], count=1)
            elif edit == "respell the rank":  # int() reads an integer so spelled as that integer
                spell = data.draw(st.sampled_from(["+{}", " {}", "{} ", "0{}"]))
                lines[-1] = spell.format(lines[-1])
            else:  # a second [mean] row (the second line) or [rank] line (the last)
                row = 1 if edit == "extra [mean] row" else len(lines) - 1
                lines.insert(row, lines[row])
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("".join(line + "\n" for line in lines))
            if edit != "blank":
                with pytest.raises(DataError):
                    load(path)
                return
            resaved = os.path.join(tmp, "resaved.txt")
            save(load(path), resaved)
            with open(resaved, encoding="utf-8", newline="") as fh:
                assert fh.read() == text


# what %.17g writes differently from the shortest repr: signed zero, the least
# subnormal, a small exponent, and both sides of 1e16 and of 1e17, where it
# switches to exponent form
EDGE_FLOATS = [-0.0, 5e-324, 1e-5, -1e-5, 1e16, -1e17, 1e17] + [
    float(np.nextafter(x, to)) for x in (1e16, 1e17) for to in (0.0, np.inf)]
WRITTEN_FLOATS = st.one_of(FLOATS, st.sampled_from(EDGE_FLOATS))
SMALL_FLOATS = st.one_of(st.floats(-1, 1), st.sampled_from([-0.0, 5e-324, 1e-5]))
TEXT = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\t\n\r\0"),
               max_size=4)  # what a field can hold
ROW_TEXT = TEXT.filter(lambda t: not t.startswith("#"))


def saved_bytes(save, x, chunk=None) -> bytes:
    """The bytes save writes for x, with _CHUNK set to chunk if given."""
    with patch.object(data_module, "_CHUNK", chunk or data_module._CHUNK), \
            tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "saved.txt")
        save(x, path)
        with open(path, "rb") as fh:
            return fh.read()


def draw_rows(data):
    """A chunk of `step` rows and a row count next to it: 0, 1, step - 1,
    step or step + 1."""
    step = data.draw(st.integers(1, 4))
    return data.draw(st.sampled_from([0, 1, step - 1, step, step + 1])), step


def draw_trial_list(data, n):
    pairs = data.draw(st.lists(st.tuples(ROW_TEXT, TEXT), min_size=n, max_size=n,
                               unique=True))
    labels = data.draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    return TrialList([m for m, _ in pairs], [t for _, t in pairs], labels)


class TestWriterBytes:
    """Every save writes exactly the bytes of the row-at-a-time oracle
    writer, at row counts on both sides of a chunk boundary."""

    @PROPERTY
    @given(st.data())
    def test_vector_table(self, data):
        (n, step), dim = draw_rows(data), data.draw(st.integers(1, 3))
        ids = data.draw(st.lists(ROW_TEXT, min_size=n, max_size=n, unique=True))
        tags = [data.draw(st.lists(TEXT, min_size=n, max_size=n)) for _ in range(2)]
        vset = VectorSet(ids, *tags, draw_floats(data, n, dim, floats=WRITTEN_FLOATS))
        assert saved_bytes(save_vector_table, vset, step * (3 + dim)) == \
            oracles.vector_table_text(vset).encode()

    @PROPERTY
    @given(st.data())
    def test_trials_and_scores(self, data):
        n, step = draw_rows(data)
        tl = draw_trial_list(data, n)
        assert saved_bytes(save_trials, tl, step * 3) == oracles.trials_text(tl).encode()
        ss = ScoreSet(tl, data.draw(st.lists(WRITTEN_FLOATS, min_size=n, max_size=n)))
        assert saved_bytes(save_scores, ss, step * 4) == oracles.scores_text(ss).encode()

    @PROPERTY
    @given(st.data())
    def test_whitener(self, data):
        step = data.draw(st.integers(2, 4))
        dim = data.draw(st.sampled_from([step - 2, step - 1, step]).filter(bool))  # dim + 1 rows

        def stage(k):
            mean = draw_floats(data, dim, floats=WRITTEN_FLOATS)
            w = 2 * dim * np.eye(dim) + draw_floats(data, dim, dim, floats=SMALL_FLOATS)
            return WhiteningStage(k, data.draw(TEXT), mean, w)  # w diagonally dominant

        stages = [stage(k) for k in range(data.draw(st.integers(1, 3)))]
        log = []
        for k in range(1, len(stages)):
            logliks = data.draw(st.lists(st.tuples(TEXT, WRITTEN_FLOATS),
                                         min_size=1, max_size=step + 1))
            chosen = data.draw(st.integers(0, len(logliks) - 1))
            logliks[chosen] = (stages[k].corpus_id, logliks[chosen][1])
            log.append(LevelSelection(k, logliks, chosen))
        w = RecursiveWhitener(stages, log)
        assert saved_bytes(save_whitener, w, step * dim) == oracles.whitener_text(w).encode()

    @PROPERTY
    @given(st.data())
    def test_plda(self, data):
        step = data.draw(st.integers(1, 4))
        dim = data.draw(st.sampled_from([step - 1, step, step + 1]).filter(bool))  # dim rows
        b, c = (draw_floats(data, dim, dim, floats=SMALL_FLOATS) for _ in range(2))
        ac, wc = b @ b.T, np.eye(dim) + c @ c.T
        model = PldaModel(draw_floats(data, dim, floats=WRITTEN_FLOATS),
                          np.triu(ac) + np.triu(ac, 1).T, np.triu(wc) + np.triu(wc, 1).T,
                          data.draw(st.one_of(st.none(), st.integers(1, dim))))
        assert saved_bytes(save_plda, model, step * dim) == oracles.plda_text(model).encode()

    @PROPERTY
    @given(st.data())
    def test_projection(self, data):
        """project's coordinate table is the oracle's line-at-a-time rendering,
        for drawn sets, corpus ids and k, in chunks of a few rows."""
        dim = data.draw(st.integers(1, 4))
        k, step = data.draw(st.integers(1, dim)), data.draw(st.integers(1, 4))
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)
                          .filter(lambda sizes: sum(sizes) > dim))
        ids = iter(data.draw(st.lists(TEXT, min_size=sum(sizes), max_size=sum(sizes), unique=True)))
        pool = data.draw(st.lists(TEXT, min_size=1, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        scale = 10.0 ** data.draw(st.integers(-3, 3))
        sets = [VectorSet([next(ids) for _ in range(n)],
                          data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                          [MISSING_SPEAKER] * n, scale * rng.normal(size=(n, dim)) + rng.normal())
                for n in sizes]
        try:
            expect = oracles.projection_text(sets, k)
        except NumericalError:  # a draw too close to rank-deficient for the PCA
            reject()
        with patch.object(data_module, "_CHUNK", step * (2 + k)):
            assert project_sets(sets, n_components=k) == expect

    @pytest.mark.parametrize("config_hash", ["", "0123456789abcdef"])
    def test_world_manifest(self, tmp_path, config_hash):
        """The manifest's bytes, with and without its #config_hash= header."""
        cfg = SynthConfig(dim=2, seed=5, n_enroll_speakers=2, enroll_sessions=1, test_sessions=1,
                          n_unlabeled=4, ood_subcorpora=[SubCorpusSpec("a", 2, 2, 0.0),
                                                         SubCorpusSpec("b c", 2, 1, 1.5)])
        write_world(generate_world(cfg), tmp_path, config_hash)
        expect = [f"#config_hash={config_hash}"] if config_hash else []
        expect += ["file\tvectors_ood.txt", "file\tvectors_unlabeled.txt",
                   "file\tvectors_enroll.txt", "file\tvectors_test.txt", "file\ttrials.txt",
                   "config.dim\t2", "config.seed\t5", "config.n_enroll_speakers\t2",
                   "config.enroll_sessions\t1", "config.test_sessions\t1",
                   "config.n_unlabeled\t4", "config.language_shift\t12.0",
                   "config.cov_scale\t1.5", "config.condition\t10.0", "config.across_var\t1.0",
                   "config.within_var\t2.0", "config.subcorpus\ta:2:2:0.0",
                   "config.subcorpus\tb c:2:1:1.5"]
        assert (tmp_path / "world-manifest.txt").read_bytes() == \
            "".join(line + "\n" for line in expect).encode()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("save, text, width", [(save_trials, oracles.trials_text, 3),
                                                   (save_scores, oracles.scores_text, 4)])
    def test_at_the_chunk(self, save, text, width, offset):
        """A table of a chunk's row count at the module's _CHUNK, and one row either side."""
        rng = np.random.default_rng(offset + 1)
        n = data_module._CHUNK // width + offset
        tl = TrialList([f"m{i % 7}" for i in range(n)], [f"t{i}" for i in range(n)],
                       rng.choice(LABELS, n))
        x = tl if save is save_trials else ScoreSet(
            tl, rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n))
        assert saved_bytes(save, x) == text(x).encode()


# (fields, float field, #dim= header) of the vector, trial and score tables
TABLES = {"vectors": (4, 3, True), "trials": (3, None, False), "scores": (4, 2, False)}
# what a reader must take as it is: spaces, non-ASCII, Unicode whitespace and
# line separators that split a float field but not a line, '#' and '[' inside
READ_TEXT = st.one_of(st.sampled_from(["", " ", "a b", "é", "日本", " ", "\x0c", "\x85",
                                       "#", "x#", "[x]", "-"]), TEXT)
BLANKS = ["", " ", "\t", " \t ", "\x0c", "　"]
COMMENTS = ["#", "# note", "#\tx\ty", "#dim"]
SPACES = [" ", "  ", "\x0c", " 　", "\x85"]
# tokens that are no float; float() reads the last three: a digit separator,
# an Arabic-Indic and a fullwidth digit
BAD_FLOATS = ["1.0x", "--1", "0x1", "one", "1_0", "\u0661", "\uff11"]
# every character str.split splits on but the tab, LF and CR that end a field or a line
SPLITTING = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\t\n\r"]


def read_outcome(read, path, *args):
    """The text columns (lists), matrix shape and matrix bytes that a table
    reader returns, or the message of the DataError it raises."""
    try:
        columns, matrix = read(path, *args)
    except DataError as e:
        return str(e)
    return [list(column) for column in columns], matrix.shape, matrix.tobytes()


class TestReaderChunks:
    """The chunked table reader against the line-at-a-time oracle
    (oracles.read_table), with the reader's chunk so small that lines cross it:
    the same columns and matrix bytes, or the same DataError message."""

    @staticmethod
    def draw_table(data) -> tuple[tuple, bytes]:
        kind = data.draw(st.sampled_from(sorted(TABLES)))
        n_fields, floats, header = TABLES[kind]
        dim = data.draw(st.integers(1, 3)) if header else 1

        def float_field(n):
            pad = data.draw(st.sampled_from(["", " ", "\x0c"]))
            return pad + data.draw(st.sampled_from(SPACES)).join(
                map(repr, data.draw(st.lists(WRITTEN_FLOATS, min_size=n, max_size=n)))) + pad

        def row():
            fields = [data.draw(READ_TEXT) for _ in range(n_fields - (floats is not None))]
            if floats is not None:
                fields.insert(floats, float_field(dim))
            return "\t".join(fields)

        lines = data.draw(st.lists(st.sampled_from(COMMENTS + BLANKS), max_size=2))
        lines += [f"#dim={dim}"] * header
        for _ in range(data.draw(st.integers(0, 8))):
            lines += data.draw(st.lists(st.sampled_from(COMMENTS + BLANKS), max_size=2))
            lines.append(row())
        rows = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"]
        # d as str(d) does not spell it, 0, and d beyond any array's length
        respelled = [f"#dim=0{dim}", f"#dim=+{dim}", f"#dim= {dim}", f"#dim={dim} ",
                     f"#dim={chr(0x660 + dim)}", "#dim=0", f"#dim={2 ** 63 + dim}"]
        faults = ["utf8"] if data.draw(st.sampled_from([0] * 9 + [1])) else data.draw(st.lists(
            st.sampled_from(["fields", "nul"] + ["header", "respelled"] * header
                            + ["float", "dimension"] * (floats is not None)), max_size=3))
        for fault in faults:
            at = data.draw(st.sampled_from(rows)) if rows else None
            if fault == "fields" and at is not None:
                lines[at] = data.draw(st.sampled_from([lines[at] + "\tx",
                                                       lines[at].rpartition("\t")[0]]))
            elif fault == "nul" and at is not None:
                i = data.draw(st.integers(0, len(lines[at])))
                lines[at] = lines[at][:i] + "\0" + lines[at][i:]
            elif fault in ("float", "dimension") and at is not None:
                fields = lines[at].split("\t")
                if len(fields) == n_fields:
                    tokens = fields[floats].split()
                    if fault == "float":
                        tokens.insert(data.draw(st.integers(0, len(tokens))),
                                      data.draw(st.sampled_from(BAD_FLOATS)))
                    elif tokens and data.draw(st.booleans()):
                        tokens.pop()
                    else:
                        tokens.append("1.5")
                    fields[floats] = " ".join(tokens)
                    lines[at] = "\t".join(fields)
            elif fault == "header":  # misplaced, respelled or missing
                if data.draw(st.booleans()) and f"#dim={dim}" in lines:
                    lines.remove(f"#dim={dim}")
                lines.insert(data.draw(st.integers(0, len(lines))),
                             data.draw(st.sampled_from([f"#dim={dim}", *respelled])))
            elif fault == "respelled" and f"#dim={dim}" in lines:  # in its place
                lines[lines.index(f"#dim={dim}")] = data.draw(st.sampled_from(respelled))
        ends = [data.draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        if ends and data.draw(st.booleans()):
            ends[-1] = ""  # no line break after the last line
        text = "".join(line + end for line, end in zip(lines, ends)).encode()
        if faults == ["utf8"]:  # after io's first 8 KiB, so that the reader has read chunks before
            filler = ["x"] * n_fields
            if floats is not None:
                filler[floats] = " ".join(["0"] * dim)
            filler = "\t".join(filler) + "\n"
            text += b"\n" + (filler * (8192 // len(filler) + 1)).encode() + data.draw(
                st.sampled_from([b"\xff", b"\xc3("]))
        return (n_fields, floats, header), text

    @PROPERTY
    @given(st.data())
    def test_matches_the_line_at_a_time_oracle(self, data):
        args, text = self.draw_table(data)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "table.txt")
            with open(path, "wb") as fh:
                fh.write(text)
            with patch.object(data_module, "_READ", data.draw(st.integers(1, 48))):
                got = read_outcome(data_module._read_table, path, *args)
            assert got == read_outcome(oracles.read_table, path, *args)

    @pytest.mark.parametrize("args, text, message", [
        ((3, None, False), "m\tt\ttarget\r\n\n \nm\tu\r\n",
         "expected 3 tab-separated fields at line 4"),
        ((3, None, False), "m\tt\ttarget\nm\tu\tnon\0target\n", "NUL character at line 2"),
        ((4, 2, False), "m\tt\t1.5\ttarget\nm\tu\t1.5x\ttarget\n", "bad float at line 2"),
        ((4, 2, False), "m\tt\t1.5\ttarget\nm\tu\t1 2\ttarget\n", "dimension mismatch at line 2"),
        ((4, 2, False), "m\tt\t\ttarget\n", "dimension mismatch at line 1"),
        ((4, 3, True), "#x\n#dim=2\na\tc\t-\t1 2\n#\n#dim=2\n", "misplaced header at line 5"),
        ((4, 3, True), "#x\na\tc\t-\t1 2\n", "data before #dim= header at line 2"),
        ((4, 3, True), "#x\n\n", "missing #dim= header"),
        # the first faulty line wins, whatever fault a later line has
        ((4, 3, True), "#dim=2\na\tc\t-\t1 2\na\tc\t-\t1\nb\0\tc\n",
         "dimension mismatch at line 3"),
        ((4, 3, True), "#dim=2\na\tc\t-\t1 x\na\tc\t-\t1\n#dim=2\n", "bad float at line 2"),
        # float() reads the first three tokens; in a float field '#' starts no comment
        *(((4, 3, True), f"#dim=2\na\tc\t-\t1 2\nb\tc\t-\t{token} 2\n", "bad float at line 3")
          for token in ("1_0", "\u0661", "\uff11", "1.5 #2")),
        *(((4, 2, False), f"m\tt\t1.5\ttarget\nm\tu\t{token}\ttarget\n", "bad float at line 2")
          for token in ("1_0", "\u0661", "\uff11", "1.5 #2")),
        # a blank float field, which np.loadtxt would skip with a warning (an error here)
        *(((4, 2, False), f"m\tt\t1.5\ttarget\nm\tu\t{blank}\ttarget\n",
           "dimension mismatch at line 2") for blank in (" ", "\x0c", "\u3000 ")),
        ((4, 3, True), "#dim=2\na\tc\t-\t1 2\nb\tc\t-\t \n", "dimension mismatch at line 3"),
    ])
    @pytest.mark.parametrize("chunk", [5, 4096])
    def test_faults(self, tmp_path, args, text, message, chunk):
        path = write(tmp_path, text)
        with patch.object(data_module, "_READ", chunk):
            got = read_outcome(data_module._read_table, path, *args)
        assert got == read_outcome(oracles.read_table, path, *args)
        assert message in got

    @pytest.mark.parametrize("space", SPLITTING, ids=lambda c: f"U+{ord(c):04X}")
    @pytest.mark.parametrize("chunk", [5, 4096])
    def test_any_whitespace_separates_and_pads(self, tmp_path, space, chunk):
        path = write(tmp_path, f"#dim=2\nv\tc\t-\t{space}1.5{space * 2}-2{space}\nw\tc\t-\t3 4\n")
        with patch.object(data_module, "_READ", chunk):
            got = read_outcome(data_module._read_table, path, 4, 3, True)
        assert got == read_outcome(oracles.read_table, path, 4, 3, True)
        assert got[1:] == ((2, 2), np.array([[1.5, -2.0], [3.0, 4.0]]).tobytes())

    @pytest.mark.parametrize("end", ["\n", ""])
    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_a_line_many_chunks_long(self, tmp_path, chunk, end):
        long_id = "é" * 3000 + "x" * 20000
        path = tmp_path / "table.txt"
        path.write_bytes(f"#dim=2\nb\tc\t-\t3 4\n{long_id}\tc\t-\t1 2{end}".encode())
        with patch.object(data_module, "_READ", chunk):
            got = read_outcome(data_module._read_table, path, 4, 3, True)
        assert got == read_outcome(oracles.read_table, path, 4, 3, True)
        assert got[0][0] == ["b", long_id]

    # a row of each table, and a comment that has a row's fields but for its '#'
    ROW_SHAPED = {"vectors": ("v{}\tc\t-\t1 2", "#c\tc\t-\t1 2"),
                  "trials": ("m{}\tt\ttarget", "#\tx\ty"),
                  "scores": ("m{}\tt\t1.5\ttarget", "#m\tt\t1.5\ttarget")}

    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_a_row_shaped_comment_inside_a_chunk(self, tmp_path, kind):
        row, comment = self.ROW_SHAPED[kind]
        lines = ["#dim=2"] * TABLES[kind][2] + [row.format(i) for i in range(800)]
        lines.insert(600, comment)
        path = write(tmp_path, "\n".join(lines) + "\n")
        with patch.object(data_module, "_READ", 4096):
            got = read_outcome(data_module._read_table, path, *TABLES[kind])
            chunks = [chunk for _, chunk in data_module._chunks(path)]
        assert got == read_outcome(oracles.read_table, path, *TABLES[kind])
        assert len(got[0][0]) == 800
        # the comment sits between rows, in a chunk after the first
        (i, at, n), = [(i, c.index(comment), len(c)) for i, c in enumerate(chunks) if comment in c]
        assert i > 0 and 0 < at < n - 1

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("at", [4094, 4095, 4096])
    def test_a_read_that_ends_at_a_line_break(self, tmp_path, at, end):
        """The first line break starts at character `at`, so the first read of
        4,096 characters ends just after it (4,094), on it (4,095; for CRLF,
        between the file's CR and LF) or just before it (4,096)."""
        first = "m\t" + "t" * (at - 9) + "\ttarget"
        path = tmp_path / "trials.txt"
        path.write_bytes((first + end + "m\tu\ttarget\n" * 3).encode())
        with patch.object(data_module, "_READ", 4096):
            got = read_outcome(data_module._read_table, path, 3)
            chunks = [list(numbers) for numbers, _ in data_module._chunks(path)]
        assert got == read_outcome(oracles.read_table, path, 3)
        assert got[0][1] == ["t" * (at - 9), "u", "u", "u"]
        # the readline after the read ends the chunk on the next line break
        assert chunks == ([[1, 2], [3, 4]] if at < 4096 else [[1], [2, 3, 4]])

    def test_not_utf8_after_the_first_chunk(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_bytes(b"m\tt\ttarget\n" * 2000 + b"m\t\xff\ttarget\n")
        with patch.object(data_module, "_READ", 100), \
                pytest.raises(DataError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
            load_trials(path)
