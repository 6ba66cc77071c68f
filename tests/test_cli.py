import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recwhiten
from recwhiten import cli, whitening
from recwhiten.config import parse_experiment_config
from recwhiten.data import (MISSING_SPEAKER, ScoreSet, TrialList, VectorSet, concat,
                            load_scores, load_vector_table, save_scores,
                            save_trials, save_vector_table)
from recwhiten.experiment import build_levels, load_corpora, run_experiment
from recwhiten.plda import save_plda, train_plda
from recwhiten.projection import fit_pca, project_sets
from recwhiten.stats import estimate_moments
from recwhiten.whitening import (RecursiveWhitener, fit_stage, load_whitener,
                                 select_subcorpus, transform_matrix)

from oracles import trial_columns

SMALL_SYNTH = """
[synth]
seed = 5
dim = 10
subcorpora = ood_a:30:4:0.0 ood_b:30:4:4.0
n_enroll_speakers = 10
n_unlabeled = 25
language_shift = 5.0
cov_scale = 1.5
within_var = 2.0

[hierarchy]
level1 = ood_a ood_b

[backend]
levels = 0 1
"""


@pytest.fixture
def synth_cfg(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(SMALL_SYNTH)
    return p


def run(argv):
    return cli.main([str(a) for a in argv])


class TestSynthCommand:
    def test_writes_world(self, synth_cfg, tmp_path):
        out = tmp_path / "world"
        assert run(["synth", "--config", synth_cfg, "--out", out]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"vectors_ood.txt", "vectors_unlabeled.txt",
                         "vectors_enroll.txt", "vectors_test.txt",
                         "trials.txt", "world-manifest.txt"}
        assert len(load_vector_table(out / "vectors_unlabeled.txt")) == 25
        manifest = (out / "world-manifest.txt").read_text()
        assert "config.language_shift\t5.0" in manifest
        assert manifest.startswith("#config_hash=")

    def test_deterministic_bytes(self, synth_cfg, tmp_path):
        run(["synth", "--config", synth_cfg, "--out", tmp_path / "w1"])
        run(["synth", "--config", synth_cfg, "--out", tmp_path / "w2"])
        for name in ("vectors_ood.txt", "vectors_enroll.txt", "trials.txt"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                (tmp_path / "w2" / name).read_bytes()

    def test_seed_flag_overrides(self, synth_cfg, tmp_path):
        run(["synth", "--config", synth_cfg, "--out", tmp_path / "w1"])
        run(["synth", "--config", synth_cfg, "--out", tmp_path / "w2", "--seed", 99])
        assert (tmp_path / "w1" / "vectors_enroll.txt").read_bytes() != \
            (tmp_path / "w2" / "vectors_enroll.txt").read_bytes()

    def test_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """At dim 200 LAPACK's Cholesky of the base covariance rounds
        differently on two threads than on one, so each run is a fresh
        process that imports numpy through the CLI."""
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("[synth]\nseed = 0\ndim = 200\nsubcorpora = a:4:2:0.0 b:4:2:3.0\n"
                       "n_enroll_speakers = 3\nn_unlabeled = 4\n")
        path = [str(Path(recwhiten.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        worlds = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(filter(None, path)))
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "recwhiten.cli", "synth", "--config", str(cfg),
                            "--out", str(out)], env=env, check=True, capture_output=True)
            worlds.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(worlds[0]) == sorted(worlds[1]) and len(worlds[0]) == 6
        assert [name for name in worlds[0] if worlds[0][name] != worlds[1][name]] == []


class TestFitWhitenerCommand:
    def test_level0_only(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_SYNTH.replace("levels = 0 1", "levels = 0"))
        out = tmp_path / "fit"
        assert run(["fit-whitener", "--config", cfg, "--out", out]) == 0
        text = (out / "whitener.txt").read_text()
        assert text.count("[stage") == 1
        assert "[selection" not in text

    def test_selection_log_printed_and_near_candidate_chosen(self, synth_cfg, tmp_path, capsys):
        out = tmp_path / "fit"
        assert run(["fit-whitener", "--config", synth_cfg, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "chosen" in printed
        # ood_a sits at the out-of-domain center, nearer to the targets
        chosen_line = [ln for ln in printed.splitlines()
                       if ln.endswith("\tchosen") and not ln.startswith("level\t")]
        assert len(chosen_line) == 1 and "ood_a" in chosen_line[0]

    def test_rerun_byte_identical(self, synth_cfg, tmp_path):
        run(["fit-whitener", "--config", synth_cfg, "--out", tmp_path / "f1"])
        run(["fit-whitener", "--config", synth_cfg, "--out", tmp_path / "f2"])
        assert (tmp_path / "f1" / "whitener.txt").read_bytes() == \
            (tmp_path / "f2" / "whitener.txt").read_bytes()


class TestRunExperimentCommand:
    def test_reports_and_comparison(self, synth_cfg, tmp_path):
        out = tmp_path / "run"
        assert run(["run-experiment", "--config", synth_cfg, "--out", out]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"report_level0.txt", "report_level1.txt", "scores_level0.txt",
                "scores_level1.txt", "comparison.txt", "whitener.txt"} <= names
        comparison = (out / "comparison.txt").read_text()
        assert "#config_hash=" in comparison
        assert "#level\teer" in comparison
        assert len([ln for ln in comparison.splitlines()
                    if ln and not ln.startswith("#")]) == 2
        report = (out / "report_level0.txt").read_text()
        assert "config_hash=" in report and "eer\t" in report

    def test_byte_identical_reruns(self, synth_cfg, tmp_path):
        run(["run-experiment", "--config", synth_cfg, "--out", tmp_path / "r1"])
        run(["run-experiment", "--config", synth_cfg, "--out", tmp_path / "r2"])
        for name in ("report_level0.txt", "report_level1.txt", "comparison.txt"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes()

    def test_snorm_runs(self, tmp_path):
        for name, snorm in (("on1", "on"), ("on2", "on"), ("off", "off")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(SMALL_SYNTH + f"plda_rank = 3\nsnorm = {snorm}\n")
            assert run(["run-experiment", "--config", cfg, "--out", tmp_path / name]) == 0
        on1, on2, off = (tmp_path / name for name in ("on1", "on2", "off"))
        names = sorted(p.name for p in on1.iterdir())
        assert names == sorted(p.name for p in on2.iterdir())
        for name in names:
            assert (on1 / name).read_bytes() == (on2 / name).read_bytes()
        for out in (on1, on2):
            for name in ("comparison.txt", "report_level0.txt", "report_level1.txt"):
                assert "#snorm=on\n" in (out / name).read_text()
        for level in (0, 1):
            normed, raw = (load_scores(out / f"scores_level{level}.txt") for out in (on1, off))
            assert trial_columns(normed.trials) == trial_columns(raw.trials)
            assert (normed.scores != raw.scores).all()

    def test_selection_targets_unlabeled(self, synth_cfg, tmp_path):
        text = SMALL_SYNTH + "selection_targets = unlabeled\n"
        cfg = tmp_path / "unlabeled.cfg"
        cfg.write_text(text)
        assert run(["run-experiment", "--config", cfg, "--out", tmp_path / "unlabeled"]) == 0
        assert run(["run-experiment", "--config", synth_cfg, "--out", tmp_path / "both"]) == 0
        got, enroll_test = (load_whitener(tmp_path / out / "whitener.txt").selection_log[0]
                            for out in ("unlabeled", "both"))
        # the level-1 selection over the unlabeled vectors, after stage 0
        config = parse_experiment_config(text)
        corpora = load_corpora(config)
        stage0 = RecursiveWhitener([fit_stage(corpora.unlabeled)])
        moments = [estimate_moments(transform_matrix(stage0, vs.matrix()), cid)
                   for cid, vs in build_levels(config, corpora)[0].candidates]
        chosen, table = select_subcorpus(moments, transform_matrix(stage0,
                                                                   corpora.unlabeled.matrix()))
        assert got.chosen == chosen
        assert [ll for _, ll in got.logliks] == table
        assert all(ll != other for (_, ll), (_, other) in zip(got.logliks, enroll_test.logliks))

    def test_level0_row_stable_across_arm_sets(self, tmp_path):
        cfg01 = tmp_path / "c01.cfg"
        cfg01.write_text(SMALL_SYNTH)
        cfg0 = tmp_path / "c0.cfg"
        cfg0.write_text(SMALL_SYNTH.replace("levels = 0 1", "levels = 0"))
        run(["run-experiment", "--config", cfg01, "--out", tmp_path / "both"])
        run(["run-experiment", "--config", cfg0, "--out", tmp_path / "only0"])
        row = lambda p: [ln for ln in (p / "comparison.txt").read_text().splitlines()
                         if ln.startswith("0\t")]
        assert row(tmp_path / "both") == row(tmp_path / "only0")

    def test_levels_do_not_depend_on_deeper_levels(self, tmp_path):
        """Adding level 2 leaves the scores of levels 0 and 1 as they were, byte
        for byte; their reports differ only in the config hash."""
        text = SMALL_SYNTH.replace("level1 = ood_a ood_b\n",
                                   "level1 = ood_a ood_b\nlevel2 = ood_a ood_b\n")
        text += "snorm = on\n"
        shallow, deep = tmp_path / "01", tmp_path / "012"
        run_experiment(parse_experiment_config(text), shallow)
        run_experiment(parse_experiment_config(text.replace("levels = 0 1", "levels = 0 1 2")),
                       deep)
        assert (deep / "scores_level2.txt").exists()
        for level in (0, 1):
            name = f"scores_level{level}.txt"
            assert (shallow / name).read_bytes() == (deep / name).read_bytes()
            reports = [(out / f"report_level{level}.txt").read_text().splitlines()
                       for out in (shallow, deep)]
            assert len(reports[0]) == len(reports[1])
            assert [a.startswith("#config_hash=") for a, b in zip(*reports) if a != b] == [True]

    def test_each_set_is_whitened_once_per_stage(self, tmp_path, monkeypatch):
        """Row-stage applications of a 4-level run: the fit pushes the targets
        and every candidate through stages 0..k-1 at level k, and run_level
        applies each stage once to each set it transforms, extending the
        previous level's output."""
        text = SMALL_SYNTH.replace("level1 = ood_a ood_b\n", "".join(
            f"level{k} = ood_a ood_b\n" for k in (1, 2, 3)))
        cfg = parse_experiment_config(text.replace("levels = 0 1", "levels = 0 1 2 3")
                                      + "snorm = on\n")
        applied, kernel = [], whitening.transform_matrix

        def spy(w, x):
            applied.append(len(w.stages) * len(x))
            return kernel(w, x)
        monkeypatch.setattr(whitening, "transform_matrix", spy)
        run_experiment(cfg, tmp_path / "out")
        c = load_corpora(cfg)
        fit = (len(c.enroll) + len(c.test) + len(c.ood)) * (1 + 2 + 3)
        levels = (len(c.ood) + len(c.enroll) + len(c.test) + len(c.unlabeled)) * 4
        assert sum(applied) == fit + levels


class TestScoreEvaluateCommands:
    def build_world(self, tmp_path):
        rng = np.random.default_rng(60)
        d = 4
        train = VectorSet(
            [f"s{s}_u{k}" for s in range(6) for k in range(3)], ["ood"] * 18,
            [f"s{s}" for s in range(6) for k in range(3)],
            [rng.normal(size=d) + 3 * rng.normal(size=d) * 0 + np.repeat(float(s), d)
             for s in range(6) for k in range(3)])
        model = train_plda(train)
        enroll = VectorSet(["e1", "e2"], ["c", "c"], ["spkA", "spkB"], rng.normal(size=(2, d)))
        test = VectorSet(["t1", "t2"], ["c", "c"], [MISSING_SPEAKER] * 2, rng.normal(size=(2, d)))
        from recwhiten.data import TrialList
        trials = TrialList(["spkA", "spkA", "spkB", "spkB"], ["t1", "t2", "t1", "t2"],
                           ["target", "nontarget", "nontarget", "target"])
        paths = {}
        for name, writer in (("plda", lambda p: save_plda(model, p)),
                             ("enroll", lambda p: save_vector_table(enroll, p)),
                             ("test", lambda p: save_vector_table(test, p)),
                             ("trials", lambda p: save_trials(trials, p))):
            paths[name] = tmp_path / f"{name}.txt"
            writer(paths[name])
        return paths

    def test_score_then_evaluate(self, tmp_path, capsys):
        paths = self.build_world(tmp_path)
        scores_path = tmp_path / "scores.txt"
        assert run(["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
                    "--test", paths["test"], "--trials", paths["trials"],
                    "--out", scores_path]) == 0
        ss = load_scores(scores_path)
        assert len(ss) == 4
        report_path = tmp_path / "report.txt"
        assert run(["evaluate", "--scores", scores_path, "--out", report_path]) == 0
        text = report_path.read_text()
        assert "eer\t" in text and "c_primary\t" in text
        assert "#op=dcf16-1:0.01:1.0:1.0" in text

    def test_evaluate_custom_operating_points(self, tmp_path):
        paths = self.build_world(tmp_path)
        scores_path = tmp_path / "scores.txt"
        run(["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
             "--test", paths["test"], "--trials", paths["trials"],
             "--out", scores_path])
        report_path = tmp_path / "report.txt"
        assert run(["evaluate", "--scores", scores_path, "--out", report_path,
                    "--op", "a:0.1:1:1", "--op", "b:0.2:10:1"]) == 0
        assert "min_a\t" in report_path.read_text()

    def test_perfect_and_uninformative_files(self, tmp_path):
        from recwhiten.data import ScoreSet, TrialList
        perfect = ScoreSet(TrialList(["m"] * 4, ["t1", "t2", "t3", "t4"],
                                     ["target", "target", "nontarget", "nontarget"]),
                           [2.0, 3.0, 0.0, 1.0])
        flat = ScoreSet(TrialList(["m", "m"], ["t1", "t2"], ["target", "nontarget"]),
                        [1.0, 1.0])
        for name, ss, expect in (("p", perfect, "c_primary\t0.000000"),
                                 ("f", flat, "c_primary\t1.000000")):
            sp = tmp_path / f"{name}.txt"
            save_scores(ss, sp)
            rp = tmp_path / f"{name}_report.txt"
            assert run(["evaluate", "--scores", sp, "--out", rp]) == 0
            assert expect in rp.read_text()

    @staticmethod
    def scores_at(path):
        save_scores(ScoreSet(TrialList(["m", "m"], ["t1", "t2"], ["target", "nontarget"]),
                             [1.0, 0.0]), path)
        return path

    @pytest.mark.parametrize("name", [os.fsdecode(b"s\xff.txt"), "s\nx.txt", "s\rx.txt"],
                             ids=["surrogate", "lf", "cr"])
    def test_score_path_that_would_break_the_report_exits_2(self, tmp_path, capsys, name):
        """The path goes into the report's '#scores=' line: a line break would
        end the comment, a surrogate (a non-UTF-8 byte) would not encode."""
        scores, report = self.scores_at(tmp_path / name), tmp_path / "r.txt"
        assert run(["evaluate", "--scores", scores, "--out", report]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: report header 'scores=") and err.count("\n") == 1
        assert not report.exists()

    def test_tab_in_score_path_stays_in_the_comment(self, tmp_path):
        scores, report = self.scores_at(tmp_path / "s\tx.txt"), tmp_path / "r.txt"
        assert run(["evaluate", "--scores", scores, "--out", report]) == 0
        assert report.read_text().startswith(f"#scores={scores}\n#op=dcf16-1:")


class TestProjectCommand:
    def test_command_output(self, tmp_path):
        rng = np.random.default_rng(62)
        a = VectorSet([f"a{i}" for i in range(30)], ["ca"] * 30, [MISSING_SPEAKER] * 30,
                      rng.normal(size=(30, 5)))
        b = VectorSet([f"b{i}" for i in range(30)], ["cb"] * 30, [MISSING_SPEAKER] * 30,
                      rng.normal(size=(30, 5)) + 8)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_vector_table(a, pa)
        save_vector_table(b, pb)
        out = tmp_path / "proj.txt"
        assert run(["project", "--vectors", pa, "--vectors", pb, "--out", out]) == 0
        text = out.read_text()
        assert text.startswith("#components=2")
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(data) == 60
        assert sum(1 for ln in text.splitlines() if ln.startswith("#corpus-mean")) == 2
        assert sum(1 for ln in text.splitlines() if ln.startswith("#corpus-cov")) == 4

    def test_one_table_twice(self, tmp_path, capsys):
        """The sets are joined into one checked set, so an id given twice is refused."""
        p = tmp_path / "a.txt"
        save_vector_table(VectorSet(["a0", "a1", "a2"], ["c"] * 3, [MISSING_SPEAKER] * 3,
                                    np.eye(3)), p)
        out = tmp_path / "proj.txt"
        assert run(["project", "--vectors", p, "--vectors", p, "--out", out]) == 3
        assert capsys.readouterr().err == "data error: duplicate id 'a0'\n"
        assert not out.exists()


def identity_rows(d):
    return "".join(" ".join("1" if i == j else "0" for j in range(d)) + "\n"
                   for i in range(d))


def identity_whitener(d, level=0):
    return f"[stage {level} c]\n" + " ".join(["0"] * d) + "\n" + identity_rows(d)


def identity_plda(d):
    return ("[mean]\n" + " ".join(["0"] * d) + "\n[ac]\n" + identity_rows(d)
            + "[wc]\n" + identity_rows(d) + "[rank]\n-\n")


IDENTITY_WHITENER = identity_whitener(4)
STAGE_1 = identity_whitener(4, level=1)
SELECTION = "[selection 1]\n"

# (file to corrupt, corruption, text the one-line error must hold)
MALFORMED_MODELS = [
    pytest.param("whitener", lambda t: t.replace("[stage 0 c]", "[stage]"),
                 "block out of level order at line 1: '[stage]'",
                 id="whitener-header-without-level"),
    pytest.param("whitener", lambda t: t.replace("[stage 0 c]", "[stage x c]"),
                 "block out of level order at line 1: '[stage x c]'", id="whitener-bad-level"),
    pytest.param("whitener", lambda t: t.replace("0 0 0 0", "0 0 zero 0"),
                 "bad float in stage block for level 0", id="whitener-bad-float"),
    pytest.param("whitener", lambda t: t.replace("1 0 0 0", "1 0 0"),
                 "dimension mismatch in stage block for level 0 at line 3",
                 id="whitener-ragged-matrix"),
    pytest.param("whitener", lambda t: t.replace("0 0 0 0", "#0 0 0 0"),
                 "bad float in stage block for level 0 at line 2",
                 id="whitener-row-starts-with-hash"),
    pytest.param("whitener", lambda t: t.replace("0 0 0 0", "nan 0 0 0"),
                 "non-finite value in stage block for level 0", id="whitener-nan"),
    pytest.param("whitener", lambda t: identity_whitener(3),
                 "whitener has dimension 3, vectors have 4", id="whitener-dim-mismatch"),
    pytest.param("whitener", lambda t: t + identity_whitener(3, level=1),
                 "stages differ in dimension", id="whitener-stage-dims-differ"),
    pytest.param("whitener", lambda t: t.replace("0 0 0 1", "0 0 0 0"),
                 "stage 0 matrix is singular", id="whitener-singular-stage"),
    pytest.param("whitener", lambda t: t.replace("1", "0"),
                 "stage 0 matrix is singular", id="whitener-zero-stage"),
    pytest.param("whitener", lambda t: "0 0 0 0\n" + t,
                 "data before first block header at line 1", id="whitener-data-before-header"),
    pytest.param("whitener", lambda t: t.replace("0 0 0 1\n", ""),
                 "stage 0 matrix is not square (block at line 1)", id="whitener-not-square"),
    pytest.param("whitener", lambda t: "\n\n",
                 "whitener file contains no stages", id="whitener-no-stages"),
    pytest.param("whitener", lambda t: SELECTION + "c\t-1.5\tchosen\n",
                 "block out of level order at line 1: '[selection 1]'",
                 id="whitener-selection-first"),
    pytest.param("whitener", lambda t: t + STAGE_1 + SELECTION + "c\t-1.5\n",
                 "expected 3 tab-separated fields in selection block for level 1 at line 14",
                 id="whitener-selection-two-fields"),
    pytest.param("whitener", lambda t: t + STAGE_1 + SELECTION + "c\t-1.5\t-\n",
                 "selection block for level 1 at line 13 must mark one 'chosen' row",
                 id="whitener-marks-no-winner"),
    pytest.param("whitener", lambda t: t + STAGE_1 + SELECTION
                 + "c\t-1.5\tchosen\nd\t-2\tchosen\n",
                 "selection block for level 1 at line 13 must mark one 'chosen' row",
                 id="whitener-two-winners"),
    pytest.param("whitener", lambda t: t + STAGE_1 + SELECTION
                 + "c\t-1.5\tchosen\nd\t-2\tmaybe\n",
                 "selection block for level 1 at line 13 must mark one 'chosen' row",
                 id="whitener-mark-maybe"),
    pytest.param("whitener", lambda t: t + STAGE_1 + SELECTION + "c\t-1.5 2\tchosen\n",
                 "dimension mismatch in selection block for level 1 at line 14",
                 id="whitener-two-logliks"),
    pytest.param("whitener", lambda t: t + "[selection 1 x]\nc\t-1.5\tchosen\n",
                 "block out of level order at line 7: '[selection 1 x]'",
                 id="whitener-selection-with-corpus-id"),
    pytest.param("whitener", lambda t: t + "[bogus]\n",
                 "block out of level order at line 7: '[bogus]'", id="whitener-unknown-block"),
    pytest.param("whitener", lambda t: t.replace("1 0 0 0", "1\t0 0 0"),
                 "expected 1 tab-separated fields in stage block for level 0 at line 3",
                 id="whitener-tab-in-stage-row"),
    pytest.param("whitener", lambda t: t.replace("[stage 0 c]", "[stage 0 a\0b]"),
                 "NUL character in block header at line 1", id="whitener-nul-in-header"),
    pytest.param("whitener", lambda t: t.replace("[stage 0 c]", "[stage 01 c]"),
                 "block out of level order at line 1: '[stage 01 c]'", id="whitener-level-01"),
    pytest.param("whitener", lambda t: t.replace("[stage 0 c]", "[stage 1 c]") + t,
                 "block out of level order at line 1: '[stage 1 c]'",
                 id="whitener-stages-1-then-0"),
    pytest.param("whitener", lambda t: t + identity_whitener(4, level=1)
                 + 3 * "[selection 5]\nc\t-1.5\tchosen\n",
                 "block out of level order at line 13: '[selection 5]'",
                 id="whitener-three-selections-at-level-5"),
    pytest.param("whitener", lambda t: t + identity_whitener(4, level=1)
                 + "".join(f"[selection {k}]\nc\t-1.5\tchosen\n" for k in (1, 2)),
                 "block out of level order at line 15: '[selection 2]'",
                 id="whitener-selection-without-its-stage"),
    pytest.param("whitener", lambda t: t + SELECTION + "c\t-1.5\tchosen\n"
                 + identity_whitener(4, level=1),
                 "block out of level order at line 7: '[selection 1]'",
                 id="whitener-stage-after-selection"),
    pytest.param("whitener", lambda t: t + identity_whitener(4, level=1)
                 + SELECTION + "c\t-1.5\t-\nd\t-2\tchosen\n",
                 "selection block for level 1 at line 13 marks 'd' chosen, "
                 "but stage 1 is fitted on 'c'", id="whitener-selection-marks-another-corpus"),
    pytest.param("plda", lambda t: re.sub(r"\[mean\]\n.*\n", "[mean]\n", t),
                 "missing or empty [mean] block", id="plda-empty-mean"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\n"),
                 "missing or empty [rank] block", id="plda-empty-rank"),
    pytest.param("plda", lambda t: t.replace("[wc]\n", "[wc]\n1.0x "),
                 "bad float in [wc]", id="plda-bad-float"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\nthree\n"),
                 "bad PLDA model", id="plda-bad-rank"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\n+3\n"),
                 "bad rank '+3' in [rank] block at line 14", id="plda-rank-with-sign"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\n" + "1" * 5000 + "\n"),
                 "bad rank '" + "1" * 5000 + "' in [rank] block at line 14",
                 id="plda-rank-of-5000-digits"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\n\u0665\n"),
                 "bad rank '\u0665' in [rank] block at line 14", id="plda-rank-arabic-indic-5"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\n0\n"),
                 "bad PLDA model: rank must be in [1, 4], got 0", id="plda-rank-0"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\n5\n"),
                 "bad PLDA model: rank must be in [1, 4], got 5", id="plda-rank-above-dim"),
    pytest.param("plda", lambda t: re.sub(r"\[mean\]\n\S+", "[mean]\nnan", t),
                 "non-finite value in [mean]", id="plda-nan"),
    pytest.param("plda", lambda t: re.sub(r"(\[ac\]\n(?:.*\n)*?)(\[wc\])", r"\1\1\2", t),
                 "block '[ac]' at line 8 where [wc] belongs", id="plda-second-ac"),
    pytest.param("plda", lambda t: t + "[bogus]\n1\n",
                 "block '[bogus]' at line 15 where none belongs", id="plda-unknown-block"),
    pytest.param("plda", lambda t: re.sub(r"(\[mean\]\n)(.*\n)", r"\1\2\2", t),
                 "extra row in [mean] block at line 3", id="plda-second-mean-row"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\n-\n-\n"),
                 "extra row in [rank] block at line 15", id="plda-second-rank-line"),
    pytest.param("plda", lambda t: identity_plda(4).replace("[ac]\n1 0", "[ac]\n1 0.5"),
                 "bad PLDA model: ac not symmetric", id="plda-ac-not-symmetric"),
    pytest.param("plda", lambda t: "[mean]\n0 0\n[ac]\n" + identity_rows(3)
                 + "[wc]\n" + identity_rows(2) + "[rank]\n-\n",
                 "bad PLDA model: ac shape (3, 3) does not match dim 2", id="plda-ac-3-by-3"),
    pytest.param("plda", lambda t: identity_plda(3),
                 "PLDA model has dimension 3, vectors 4/4", id="plda-dim-mismatch"),
    pytest.param("plda", lambda t: identity_plda(4).replace(
        "[wc]\n" + identity_rows(4), "[wc]\n" + identity_rows(4).replace("1", "-3")),
                 "bad PLDA model: matrix is not symmetric positive definite",
                 id="plda-not-spd"),
]


def config_case(text):
    """A run-experiment command line over a config file holding text."""
    def argv(tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        return ["run-experiment", "--config", cfg, "--out", tmp_path / "out"]
    return argv


def op_case(*ops):
    """An evaluate command line with these --op values."""
    def argv(tmp_path):
        scores = tmp_path / "scores.txt"
        save_scores(ScoreSet(TrialList(["m", "m"], ["t1", "t2"], ["target", "nontarget"]),
                             [1.0, 0.0]), scores)
        return ["evaluate", "--scores", scores, *(a for op in ops for a in ("--op", op)),
                "--out", tmp_path / "r.txt"]
    return argv


def components_case(n):
    """A project command line asking for n components of 4-d vectors."""
    def argv(tmp_path):
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        return ["project", "--vectors", paths["test"], "--components", n,
                "--out", tmp_path / "p.txt"]
    return argv


# a [data] config; its files are never read by the cases that use it
DATA_CONFIG = "[data]\n" + "".join(f"{key} = {key}.txt\n"
                                   for key in ("ood", "unlabeled", "enroll", "test", "trials"))

MALFORMED_CONFIGS = [
    pytest.param(config_case(SMALL_SYNTH.replace("levels = 0 1", "levels =")),
                 id="levels-empty"),
    pytest.param(config_case(SMALL_SYNTH.replace("levels = 0 1", "levels = x")), id="levels-x"),
    pytest.param(config_case(SMALL_SYNTH.replace("dim = 10", "dim = x")), id="dim-x"),
    pytest.param(config_case(SMALL_SYNTH.replace("seed = 5", "seed = 5\nsede = 5")),
                 id="synth-unknown-key"),
    pytest.param(config_case(SMALL_SYNTH.replace("level1 =", "level01 =")),
                 id="hierarchy-level01"),
    pytest.param(config_case(SMALL_SYNTH + "snorm = yes\n"), id="snorm-yes"),
    pytest.param(config_case(SMALL_SYNTH + "\n[metrics]\ndcf16-1 = 0.01 1 1\n"),
                 id="metrics-one-point"),
    pytest.param(op_case("a:0.1:1"), id="evaluate-op-missing-cost"),
    pytest.param(config_case(SMALL_SYNTH.encode().replace(b"ood_b\n", b"ood_\xff\n")),
                 id="config-not-utf8"),
    pytest.param(lambda tmp_path: ["run-experiment", "--config", tmp_path / "missing.cfg",
                                   "--out", tmp_path / "out"], id="config-missing"),
    pytest.param(lambda tmp_path: ["run-experiment", "--config", tmp_path,
                                   "--out", tmp_path / "out"], id="config-is-a-directory"),
    pytest.param(config_case("x = 1\n"), id="config-without-section-header"),
    pytest.param(config_case(SMALL_SYNTH.replace("shift = 5.0", "shift = 5%")),
                 id="percent-in-value"),
    pytest.param(config_case(SMALL_SYNTH.replace("shift = 5.0", "shift = nan")),
                 id="language-shift-nan"),
    pytest.param(config_case(SMALL_SYNTH.replace("seed = 5", "seed = 5\ncondition = inf")),
                 id="condition-inf"),
    pytest.param(lambda tmp_path: config_case(SMALL_SYNTH)(tmp_path) + ["--seed", "-1"],
                 id="seed-negative"),
    pytest.param(config_case(SMALL_SYNTH.replace("dim = 10", "dim = 1")), id="dim-1"),
    pytest.param(config_case(SMALL_SYNTH.replace("ood_b:30:4:4.0", "a:x:2:0")),
                 id="subcorpus-count-x"),
    pytest.param(config_case(SMALL_SYNTH.replace("ood_a:30:4:0.0 ood_b:30:4:4.0", "")),
                 id="subcorpora-empty"),
    pytest.param(config_case(SMALL_SYNTH.replace("ood_a:30:4:0.0", "ood_a:0:3:0.0")),
                 id="subcorpus-0-speakers"),
    *(pytest.param(config_case(SMALL_SYNTH.replace("ood_b:30:4:4.0", f"ood_b:30:4:{shift}")),
                   id=f"subcorpus-shift-{shift}") for shift in ("-1", "inf", "nan")),
    pytest.param(config_case(SMALL_SYNTH.replace("n_unlabeled = 25", "n_unlabeled = 0")),
                 id="n-unlabeled-0"),
    pytest.param(config_case(SMALL_SYNTH + "shrinkage = 1.5\n"), id="shrinkage-1.5"),
    pytest.param(config_case(SMALL_SYNTH + "plda_rank = 0\n"), id="plda-rank-0"),
    pytest.param(config_case(SMALL_SYNTH + "plda_rank = 500\n"), id="plda-rank-above-dim"),
    pytest.param(config_case(SMALL_SYNTH + "\n[metrics]\na = 2 1 1\nb = 0.1 1 1\n"),
                 id="metrics-p-target-2"),
    pytest.param(config_case(SMALL_SYNTH + "\n[metrics]\na = x 1 1\nb = 0.1 1 1\n"),
                 id="metrics-p-target-x"),
    pytest.param(op_case("a:2:1:1", "b:0.1:1:1"), id="evaluate-op-p-target-2"),
    pytest.param(op_case("x:0.01:1:1", "x:0.005:1:1"), id="evaluate-op-same-name"),
    pytest.param(op_case("a-b:0.01:1:1", "a_b:0.005:1:1"),
                 id="evaluate-op-names-differ-by-dash"),
    pytest.param(op_case("a\nb:0.01:1:1", "c:0.005:1:1"), id="evaluate-op-name-lf"),
    pytest.param(op_case("a\tb:0.01:1:1", "c:0.005:1:1"), id="evaluate-op-name-tab"),
    # what a non-UTF-8 byte in argv decodes to
    pytest.param(op_case("a\udcff:0.01:1:1", "c:0.005:1:1"), id="evaluate-op-name-surrogate"),
    pytest.param(config_case(SMALL_SYNTH + "\n[metrics]\na-b = 0.01 1 1\na_b = 0.005 1 1\n"),
                 id="metrics-names-collide"),
    pytest.param(components_case(0), id="project-components-0"),
    pytest.param(components_case(9), id="project-components-9"),
    pytest.param(config_case(SMALL_SYNTH.replace("n_unlabeled = 25",
                                                 f"n_unlabeled = {10**18}")),
                 id="n-unlabeled-1e18"),
    pytest.param(config_case(SMALL_SYNTH.replace("dim = 10", f"dim = {10**18}")),
                 id="dim-1e18"),
    # d * d values fit an array index but not its bytes; nothing is allocated
    pytest.param(config_case(SMALL_SYNTH.replace("dim = 10", f"dim = {2**31}")),
                 id="dim-2147483648"),
    pytest.param(lambda tmp_path: config_case(DATA_CONFIG)(tmp_path) + ["--seed", "5"],
                 id="seed-with-data-config"),
    pytest.param(lambda tmp_path: ["synth", *config_case(DATA_CONFIG)(tmp_path)[1:]],
                 id="synth-without-synth-section"),
    pytest.param(config_case(SMALL_SYNTH + "selection_targets = bogus\n"),
                 id="selection-targets-bogus"),
    pytest.param(config_case(SMALL_SYNTH.replace("level1 = ood_a ood_b", "level1 =")),
                 id="hierarchy-level-empty"),
    pytest.param(config_case(SMALL_SYNTH.replace("level1 = ood_a ood_b", "level1 = ood_a ood_z")),
                 id="hierarchy-candidate-matches-nothing"),
    pytest.param(config_case(SMALL_SYNTH.replace("level1 = ood_a ood_b",
                                                 "level1 = ood_a+ood_typo ood_b")),
                 id="hierarchy-union-part-matches-nothing"),
    pytest.param(config_case(SMALL_SYNTH + "\n[metrics]\na = 0.01 0 1\nb = 0.005 1 1\n"),
                 id="metrics-cost-0"),
    # command lines that argparse rejects
    pytest.param(lambda tmp_path: config_case(SMALL_SYNTH)(tmp_path) + ["--sede", "5"],
                 id="argv-unknown-option"),
    pytest.param(lambda tmp_path: ["score", "--plda", tmp_path / "plda.txt"],
                 id="argv-missing-required-option"),
    pytest.param(components_case("x"), id="argv-project-components-x"),
    pytest.param(lambda tmp_path: config_case(SMALL_SYNTH)(tmp_path) + ["--seed", "x"],
                 id="argv-run-experiment-seed-x"),
]


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_config_exits_2(tmp_path, capsys, case):
    assert run(case(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Warning" not in err and "usage:" not in err


def command_case(command, text):
    """config_case(text) with `command` in place of run-experiment."""
    return lambda tmp_path: [command, *config_case(text)(tmp_path)[1:]]


def spelled_case(full, short, command="run-experiment"):
    """A command line over SMALL_SYNTH with the option `full` spelled `short`."""
    return lambda tmp_path: [short if a == full else a for a in
                             command_case(command, SMALL_SYNTH)(tmp_path) + ["--seed", "3"]]


# each second spelling of a setting that the parsers once took, and the
# in-domain sets' corpus id as a sub-corpus id
REFUSED_SPELLINGS = [
    pytest.param(config_case("[DEFAULT]\nseed = 3\n" + SMALL_SYNTH.replace("seed = 5\n", "")),
                 "unknown sections: ['DEFAULT']", id="default-section"),
    pytest.param(config_case(SMALL_SYNTH.replace("seed = 5", "Seed = 5")),
                 "[synth] unknown keys: ['Seed']", id="key-in-another-case"),
    pytest.param(config_case(SMALL_SYNTH.replace("level1 =", "LEVEL1 =")),
                 "[hierarchy] unknown keys: ['LEVEL1']", id="level-in-another-case"),
    pytest.param(config_case(SMALL_SYNTH.replace("dim = 10", "dim: 10")),
                 "config parse error:", id="key-colon-value"),
    pytest.param(spelled_case("--config", "--conf"), "required: --config", id="prefix-conf"),
    pytest.param(spelled_case("--out", "--ou"), "required: --out", id="prefix-ou"),
    pytest.param(spelled_case("--seed", "--se"), "unrecognized arguments: --se", id="prefix-se"),
    pytest.param(spelled_case("--seed", "--se", "synth"), "unrecognized arguments: --se",
                 id="synth-prefix-se"),
    pytest.param(config_case(SMALL_SYNTH + "\n[metrics]\na:b = 0.01 1 1\nc = 0.005 1 1\n"),
                 "operating point name 'a:b' holds a colon", id="metrics-name-colon"),
    *(pytest.param(command_case(command, SMALL_SYNTH.replace("ood_b", "indomain")),
                   "sub-corpus id 'indomain' is the in-domain sets' corpus id",
                   id=f"{command}-indomain-subcorpus") for command in ("synth", "run-experiment")),
]


@pytest.mark.parametrize("case,message", REFUSED_SPELLINGS)
def test_refused_spelling_exits_2_and_writes_nothing(tmp_path, capsys, case, message):
    assert run(case(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


def test_metrics_and_op_give_one_report_key(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_SYNTH + "\n[metrics]\nDCF-A = 0.01 1 1\nb = 0.005 1 1\n")
    assert run(["run-experiment", "--config", cfg, "--out", tmp_path / "out"]) == 0
    assert run(["evaluate", "--scores", tmp_path / "out" / "scores_level0.txt",
                "--op", "DCF-A:0.01:1:1", "--op", "b:0.005:1:1",
                "--out", tmp_path / "report.txt"]) == 0
    rows = [[line for line in (tmp_path / name).read_text().splitlines()
             if not line.startswith("#")]
            for name in ("out/report_level0.txt", "report.txt")]
    assert "min_DCF_A\t" in rows[0][1] and rows[0] == rows[1]


WORLD_FILES = {"ood": "vectors_ood.txt", "unlabeled": "vectors_unlabeled.txt",
               "enroll": "vectors_enroll.txt", "test": "vectors_test.txt",
               "trials": "trials.txt"}


def world_case(command, **change):
    """A run-experiment or project command line over the world of SMALL_SYNTH,
    written to files, after each table named in change is replaced by
    change[name](table)."""
    def argv(tmp_path):
        (tmp_path / "synth.cfg").write_text(SMALL_SYNTH)
        assert run(["synth", "--config", tmp_path / "synth.cfg", "--out", tmp_path]) == 0
        paths = {key: tmp_path / name for key, name in WORLD_FILES.items()}
        for key, table in change.items():
            save_vector_table(table(load_vector_table(paths[key])), paths[key])
        if command == "project":
            return ["project", "--vectors", paths["ood"], "--out", tmp_path / "p.txt"]
        cfg = tmp_path / "data.cfg"
        cfg.write_text("[data]\n" + "".join(f"{key} = {p}\n" for key, p in paths.items())
                       + SMALL_SYNTH[SMALL_SYNTH.index("[hierarchy]"):])
        return ["run-experiment", "--config", cfg, "--out", tmp_path / "out"]
    return argv


def first(n):
    return lambda table: table.take(np.arange(n))


def times_1e300(table):
    return VectorSet(table.ids, table.corpus_ids, table.speaker_ids, table.matrix() * 1e300)


def huge_enroll_case(tmp_path):
    """score with enrollment vectors near 1e300, whose norms overflow."""
    paths = TestScoreEvaluateCommands().build_world(tmp_path)
    save_vector_table(times_1e300(load_vector_table(paths["enroll"])), paths["enroll"])
    return ["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
            "--test", paths["test"], "--trials", paths["trials"], "--out", tmp_path / "s.txt"]


def huge_dim_case(tmp_path):
    table = tmp_path / "v.txt"
    table.write_text("#dim=99999999999999999999\n")
    return ["project", "--vectors", table, "--out", tmp_path / "p.txt"]


def one_session_per_speaker(table):
    _, first_rows = np.unique(table.speaker_ids, return_index=True)
    return table.take(np.sort(first_rows))


def enroll_at_stage_mean_case(tmp_path):
    """score --whitener with an enrollment vector equal to the stage mean."""
    paths = TestScoreEvaluateCommands().build_world(tmp_path)
    enroll = load_vector_table(paths["enroll"])
    x = enroll.matrix().copy()
    x[1] = 0.0  # the mean of IDENTITY_WHITENER's one stage
    save_vector_table(VectorSet(enroll.ids, enroll.corpus_ids, enroll.speaker_ids, x),
                      paths["enroll"])
    whitener = tmp_path / "whitener.txt"
    whitener.write_text(IDENTITY_WHITENER)
    return ["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
            "--test", paths["test"], "--trials", paths["trials"], "--whitener", whitener,
            "--out", tmp_path / "s.txt"]


def enroll_id_is_a_speaker_case(tmp_path):
    """score with an unlabeled enrollment vector whose id is another vector's speaker."""
    paths = TestScoreEvaluateCommands().build_world(tmp_path)
    enroll = load_vector_table(paths["enroll"])
    extra = VectorSet(["spkA"], ["c"], [MISSING_SPEAKER], enroll.matrix()[1:])
    save_vector_table(concat([enroll, extra]), paths["enroll"])
    return ["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
            "--test", paths["test"], "--trials", paths["trials"], "--out", tmp_path / "s.txt"]


def float_token_case(token):
    """project over a vector table whose second row holds token as a float."""
    def argv(tmp_path):
        table = tmp_path / "v.txt"
        table.write_text(f"#dim=2\na\tc\t-\t1 2\nb\tc\t-\t{token} 2\nc\tc\t-\t3 1\n")
        return ["project", "--vectors", table, "--out", tmp_path / "p.txt"]
    return argv


# (command line, exit code, text the one-line error must hold)
BAD_INPUTS = [
    pytest.param(world_case("run-experiment", unlabeled=first(1)), 3,
                 "need at least 2 vectors, got 1 in corpus 'indomain'", id="one-unlabeled-vector"),
    pytest.param(world_case("run-experiment", enroll=first(0), test=first(0)), 3,
                 "need at least one target vector", id="no-enroll-or-test-vectors"),
    pytest.param(world_case("project", ood=first(1)), 3,
                 "need at least 2 vectors for PCA, got 1", id="project-one-vector"),
    pytest.param(world_case("project", ood=first(0)), 3,
                 "need at least 2 vectors for PCA, got 0", id="project-no-vectors"),
    pytest.param(huge_dim_case, 3, "malformed or misplaced header at line 1",
                 id="dim-beyond-any-array"),
    pytest.param(world_case("run-experiment", ood=one_session_per_speaker), 3,
                 "need at least one extra session beyond one per speaker",
                 id="ood-one-session-per-speaker"),
    pytest.param(world_case("run-experiment", unlabeled=first(0)), 3,
                 "cannot fit a whitening stage on an empty set", id="no-unlabeled-vectors"),
    pytest.param(enroll_at_stage_mean_case, 4, "zero-norm vector at row 1 during whitening",
                 id="score-enroll-at-stage-mean"),
    pytest.param(enroll_id_is_a_speaker_case, 3,
                 "unlabeled enrollment id 'spkA' is also a speaker id",
                 id="score-unlabeled-id-is-a-speaker-id"),
    pytest.param(world_case("run-experiment", ood=times_1e300), 4, "overflow",
                 id="ood-near-1e300"),
    pytest.param(world_case("run-experiment", unlabeled=times_1e300), 4, "overflow",
                 id="unlabeled-near-1e300"),
    pytest.param(world_case("project", ood=times_1e300), 4, "overflow", id="project-near-1e300"),
    pytest.param(huge_enroll_case, 4, "overflow", id="score-enroll-near-1e300"),
    # float() reads both, a vector table's float field does not
    pytest.param(float_token_case("1_0"), 3, "bad float at line 3", id="float-1_0"),
    pytest.param(float_token_case("\uff11"), 3, "bad float at line 3", id="float-fullwidth-digit"),
]


@pytest.mark.parametrize("case,code,message", BAD_INPUTS)
def test_bad_input_exits_3_or_4(tmp_path, capsys, case, code, message):
    argv = case(tmp_path)
    capsys.readouterr()
    assert run(argv) == code
    err = capsys.readouterr().err
    prefix = {3: "data error: ", 4: "numerical failure: "}[code]
    assert err.startswith(prefix) and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err and "Warning" not in err


class TestExitCodes:
    @pytest.mark.parametrize("kind,corrupt,message", MALFORMED_MODELS)
    def test_malformed_model_file(self, tmp_path, capsys, kind, corrupt, message):
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        paths["whitener"] = tmp_path / "whitener.txt"
        paths["whitener"].write_text(IDENTITY_WHITENER)
        text = paths[kind].read_text()
        paths[kind].write_text(corrupt(text))
        assert paths[kind].read_text() != text
        code = run(["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
                    "--test", paths["test"], "--trials", paths["trials"],
                    "--whitener", paths["whitener"], "--out", tmp_path / "s.txt"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["score", "project"])
    def test_empty_whitener_path(self, tmp_path, capsys, command):
        """An empty --whitener is refused, not read as no whitener."""
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        out = tmp_path / "out.txt"
        argv = (["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
                 "--trials", paths["trials"], "--test", paths["test"]] if command == "score"
                else ["project", "--vectors", paths["enroll"], "--vectors", paths["test"]])
        assert run(argv + ["--whitener", "", "--out", out]) == 2
        assert capsys.readouterr().err == "config error: argument --whitener: empty path\n"
        assert not out.exists()

    def test_project_whitener_dim_mismatch(self, tmp_path, capsys):
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        whitener = tmp_path / "whitener.txt"
        whitener.write_text(identity_whitener(3))
        code = run(["project", "--vectors", paths["test"], "--whitener", whitener,
                    "--out", tmp_path / "p.txt"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "data error: whitener has dimension 3, vectors have 4\n"

    def test_mixed_dimension_tables(self, tmp_path, capsys):
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        flat = tmp_path / "flat.txt"
        save_vector_table(VectorSet(["f1", "f2"], ["c"] * 2, [MISSING_SPEAKER] * 2,
                                    np.ones((2, 3))), flat)
        cfg = tmp_path / "data.cfg"
        cfg.write_text(f"[data]\nood = {paths['enroll']}\nunlabeled = {flat}\n"
                       f"enroll = {paths['enroll']}\ntest = {paths['test']}\n"
                       f"trials = {paths['trials']}\n")
        for argv in (["fit-whitener", "--config", cfg, "--out", tmp_path / "fit"],
                     ["run-experiment", "--config", cfg, "--out", tmp_path / "exp"],
                     ["project", "--vectors", paths["test"], "--vectors", flat,
                      "--out", tmp_path / "p.txt"]):
            assert run(argv) == 3
            assert capsys.readouterr().err == "data error: mixed dimensions: [3, 4]\n"

    def test_data_file_not_utf8(self, tmp_path, capsys):
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        scores = tmp_path / "scores.txt"
        scores.write_bytes(b"m\xff\tt\t1.0\ttarget\n")
        assert run(["evaluate", "--scores", scores, "--out", tmp_path / "r.txt"]) == 3
        assert capsys.readouterr().err == f"data error: {scores}: not UTF-8 text\n"
        paths["plda"].write_bytes(paths["plda"].read_bytes().replace(b"[rank]", b"[r\xffnk]"))
        assert run(["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
                    "--test", paths["test"], "--trials", paths["trials"],
                    "--out", tmp_path / "s.txt"]) == 3
        assert capsys.readouterr().err == f"data error: {paths['plda']}: not UTF-8 text\n"

    # (file of build_world, its corruption, the one-line error after the file's path)
    LOAD_FAULTS = [
        pytest.param("test", lambda t: t.replace("t2\tc\t-\t", "t2\tc\t-\t1.5x "),
                     "bad float at line 3", id="vector-table"),
        pytest.param("trials", lambda t: t.replace("spkB\tt2\ttarget", "spkB\tt2\tx"),
                     "unknown label 'x'", id="trials"),
        pytest.param("scores", lambda t: re.sub(r"\t\S+\ttarget\n", "\t1.5x\ttarget\n", t, 1),
                     "bad float at line 1", id="scores"),
        pytest.param("whitener", lambda t: t.replace("0 0 0 0", "0 0 zero 0"),
                     "bad float in stage block for level 0 at line 2", id="whitener"),
        pytest.param("plda", lambda t: t.replace("[wc]\n", "[wc]\n1.0x "),
                     "bad float in [wc] block at line 9", id="plda"),
    ]

    @pytest.mark.parametrize("kind,corrupt,message", LOAD_FAULTS)
    def test_a_load_error_names_its_file(self, tmp_path, capsys, kind, corrupt, message):
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        paths["whitener"] = tmp_path / "whitener.txt"
        paths["whitener"].write_text(IDENTITY_WHITENER)
        paths["scores"] = tmp_path / "scores.txt"
        score = ["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
                 "--test", paths["test"], "--trials", paths["trials"],
                 "--whitener", paths["whitener"], "--out", paths["scores"]]
        assert run(score) == 0
        cfg = tmp_path / "data.cfg"
        cfg.write_text("[data]\n" + "".join(f"{key} = {paths[name]}\n" for key, name in (
            ("ood", "enroll"), ("unlabeled", "enroll"), ("enroll", "enroll"),
            ("test", "test"), ("trials", "trials"))))
        text = paths[kind].read_text()
        paths[kind].write_text(corrupt(text))
        assert paths[kind].read_text() != text
        experiment = ["run-experiment", "--config", cfg, "--out", tmp_path / "o"]
        commands = {"scores": [["evaluate", "--scores", paths["scores"], "--out", tmp_path / "r"]],
                    "test": [score, experiment], "trials": [score, experiment]}
        for argv in commands.get(kind, [score]):
            capsys.readouterr()
            assert run(argv) == 3
            assert capsys.readouterr().err == f"data error: {paths[kind]}: {message}\n"

    def test_directory_in_place_of_a_file(self, tmp_path, capsys):
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        for argv in (["evaluate", "--scores", tmp_path, "--out", tmp_path / "r.txt"],
                     ["project", "--vectors", paths["test"], "--components", "1",
                      "--out", tmp_path]):
            assert run(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and err.count("\n") == 1
            assert "Is a directory" in err

    def test_out_of_memory(self, tmp_path):
        """synth at dim 20,000 asks for one 2.98 GiB array first. The child may
        map 1.5 GB in all (RLIMIT_AS, set in the child only), so that array is
        refused before any of it is touched, and nothing else is allocated."""
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH.replace("dim = 10", "dim = 20000"))
        path = [str(Path(recwhiten.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))
        done = subprocess.run([sys.executable, "-m", "recwhiten.cli", "synth", "--config",
                               str(cfg), "--out", str(tmp_path / "world")], env=env,
                              preexec_fn=limit, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        assert done.stderr.startswith("data error: Unable to allocate 2.98 GiB")
        assert done.stderr.count("\n") == 1

    def test_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[backend]\nlevels = 0\n")  # neither data nor synth
        assert run(["run-experiment", "--config", bad, "--out", tmp_path / "o"]) == 2

    def test_data_error(self, tmp_path):
        assert run(["evaluate", "--scores", tmp_path / "missing.txt",
                    "--out", tmp_path / "r.txt"]) == 3

    def test_numerical_error(self, tmp_path):
        rng = np.random.default_rng(63)
        # 1-D data cannot support a 2-component projection
        vs = VectorSet([f"v{i}" for i in range(10)], ["c"] * 10, [MISSING_SPEAKER] * 10,
                       [[float(i), 0.0, 0.0] for i in range(10)])
        p = tmp_path / "v.txt"
        save_vector_table(vs, p)
        assert run(["project", "--vectors", p, "--out", tmp_path / "o.txt"]) == 4
