import re

import numpy as np
import pytest

from recwhiten import cli
from recwhiten.data import (MISSING_SPEAKER, ScoreSet, TrialList, VectorSet,
                            load_scores, load_vector_table, save_scores,
                            save_trials, save_vector_table)
from recwhiten.plda import save_plda, train_plda
from recwhiten.projection import fit_pca, project_sets

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


def identity_rows(d):
    return "".join(" ".join("1" if i == j else "0" for j in range(d)) + "\n"
                   for i in range(d))


def identity_whitener(d, level=0):
    return f"[stage {level} c]\n" + " ".join(["0"] * d) + "\n" + identity_rows(d)


def identity_plda(d):
    return ("[mean]\n" + " ".join(["0"] * d) + "\n[ac]\n" + identity_rows(d)
            + "[wc]\n" + identity_rows(d) + "[rank]\n-\n")


IDENTITY_WHITENER = identity_whitener(4)

# (file to corrupt, corruption, text the one-line error must hold)
MALFORMED_MODELS = [
    pytest.param("whitener", lambda t: t.replace("[stage 0 c]", "[stage]"),
                 "without a level", id="whitener-header-without-level"),
    pytest.param("whitener", lambda t: t.replace("[stage 0 c]", "[stage x c]"),
                 "without a level", id="whitener-bad-level"),
    pytest.param("whitener", lambda t: t.replace("0 0 0 0", "0 0 zero 0"),
                 "bad float in stage block for level 0", id="whitener-bad-float"),
    pytest.param("whitener", lambda t: t.replace("1 0 0 0", "1 0 0"),
                 "ragged matrix in stage block for level 0", id="whitener-ragged-matrix"),
    pytest.param("whitener", lambda t: t.replace("0 0 0 0", "nan 0 0 0"),
                 "non-finite value in stage block for level 0", id="whitener-nan"),
    pytest.param("whitener", lambda t: identity_whitener(3),
                 "whitener has dimension 3, vectors have 4", id="whitener-dim-mismatch"),
    pytest.param("whitener", lambda t: t + identity_whitener(3, level=1),
                 "stages differ in dimension", id="whitener-stage-dims-differ"),
    pytest.param("plda", lambda t: re.sub(r"\[mean\]\n.*\n", "[mean]\n", t),
                 "missing or empty [mean] block", id="plda-empty-mean"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\n"),
                 "missing or empty [rank] block", id="plda-empty-rank"),
    pytest.param("plda", lambda t: t.replace("[wc]\n", "[wc]\n1.0x "),
                 "bad float in [wc]", id="plda-bad-float"),
    pytest.param("plda", lambda t: t.replace("[rank]\n-\n", "[rank]\nthree\n"),
                 "bad PLDA model", id="plda-bad-rank"),
    pytest.param("plda", lambda t: re.sub(r"\[mean\]\n\S+", "[mean]\nnan", t),
                 "non-finite value in [mean]", id="plda-nan"),
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


def op_case(tmp_path):
    scores = tmp_path / "scores.txt"
    save_scores(ScoreSet(TrialList(["m", "m"], ["t1", "t2"], ["target", "nontarget"]),
                         [1.0, 0.0]), scores)
    return ["evaluate", "--scores", scores, "--op", "a:0.1:1", "--out", tmp_path / "r.txt"]


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
    pytest.param(op_case, id="evaluate-op-missing-cost"),
    pytest.param(config_case(SMALL_SYNTH.encode().replace(b"ood_b\n", b"ood_\xff\n")),
                 id="config-not-utf8"),
]


@pytest.mark.parametrize("case", MALFORMED_CONFIGS)
def test_malformed_config_exits_2(tmp_path, capsys, case):
    assert run(case(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
        assert capsys.readouterr().err == f"data error: {scores} is not UTF-8 text\n"
        paths["plda"].write_bytes(paths["plda"].read_bytes().replace(b"[rank]", b"[r\xffnk]"))
        assert run(["score", "--plda", paths["plda"], "--enroll", paths["enroll"],
                    "--test", paths["test"], "--trials", paths["trials"],
                    "--out", tmp_path / "s.txt"]) == 3
        assert capsys.readouterr().err == f"data error: {paths['plda']} is not UTF-8 text\n"

    def test_directory_in_place_of_a_file(self, tmp_path, capsys):
        paths = TestScoreEvaluateCommands().build_world(tmp_path)
        for argv in (["evaluate", "--scores", tmp_path, "--out", tmp_path / "r.txt"],
                     ["project", "--vectors", paths["test"], "--components", "1",
                      "--out", tmp_path]):
            assert run(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and err.count("\n") == 1
            assert "Is a directory" in err

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
