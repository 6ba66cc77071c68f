import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from recwhiten.data import DataError, ScoreSet, TrialList
from recwhiten.metrics import DEFAULT_OPERATING_POINTS, OperatingPoint, evaluate, snorm

from oracles import trial_columns


def score_set(rows):
    """ScoreSet from (model id, test id, score, label) rows."""
    model, test, score, label = zip(*rows)
    return ScoreSet(TrialList(model, test, label), score)


def make_scores(targets, nontargets):
    rows = [(f"m{i}", f"tt{i}", float(s), "target") for i, s in enumerate(targets)]
    rows += [(f"m{i}", f"tn{i}", float(s), "nontarget") for i, s in enumerate(nontargets)]
    return score_set(rows)


def sweep_rates(targets, nontargets, thr):
    """O(n^2) exhaustive oracle for P_miss / P_fa at a threshold."""
    p_miss = sum(1 for s in targets if s < thr) / len(targets)
    p_fa = sum(1 for s in nontargets if s >= thr) / len(nontargets)
    return p_miss, p_fa


def oracle_eer(targets, nontargets):
    thresholds = sorted(set(targets) | set(nontargets))
    thresholds.append(thresholds[-1] + 1.0)
    prev = None
    for thr in thresholds:
        p_miss, p_fa = sweep_rates(targets, nontargets, thr)
        d = p_miss - p_fa
        if d == 0:
            return p_miss
        if d > 0:
            pm0, pf0 = prev
            d0 = pm0 - pf0
            t = -d0 / (d - d0)
            return pm0 + t * (p_miss - pm0)
        prev = (p_miss, p_fa)
    raise AssertionError("no crossing found")


def oracle_min_dcf(targets, nontargets, op):
    thresholds = sorted(set(targets) | set(nontargets))
    thresholds = [thresholds[0] - 1.0] + thresholds + [thresholds[-1] + 1.0]
    best = np.inf
    for thr in thresholds:
        p_miss, p_fa = sweep_rates(targets, nontargets, thr)
        cost = op.c_miss * op.p_target * p_miss + op.c_fa * (1 - op.p_target) * p_fa
        best = min(best, cost / op.normalizer)
    return best


class TestEer:
    def test_perfect_separation(self):
        assert evaluate(make_scores([2, 3], [0, 1])).eer == 0.0

    def test_perfect_inversion(self):
        assert evaluate(make_scores([1], [2])).eer == 1.0

    def test_interleaved_half(self):
        assert evaluate(make_scores([3, 1], [2, 0])).eer == 0.5

    def test_missing_class(self):
        with pytest.raises(DataError):
            evaluate(make_scores([1], []))

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            nt = int(rng.integers(1, 30))
            nn = int(rng.integers(1, 30))
            # coarse grid provokes ties between and within classes
            tar = list(rng.integers(0, 10, size=nt).astype(float))
            non = list(rng.integers(0, 10, size=nn).astype(float))
            got = evaluate(make_scores(tar, non)).eer
            assert got == pytest.approx(oracle_eer(tar, non), abs=1e-12)


class TestMinDcf:
    OP = OperatingPoint(p_target=0.01, name="op")

    def test_perfect_separation(self):
        assert evaluate(make_scores([2, 3], [0, 1]), [self.OP]).min_dcf["op"] == 0.0

    def test_uninformative_scores_hit_ceiling(self):
        r = evaluate(make_scores([1, 1], [1, 1]), [self.OP])
        assert r.min_dcf["op"] == pytest.approx(1.0)

    def test_interleaved_matches_sweep(self):
        tar, non = [3.0, 1.0], [2.0, 0.0]
        got = evaluate(make_scores(tar, non), [self.OP]).min_dcf["op"]
        assert got == pytest.approx(oracle_min_dcf(tar, non, self.OP), abs=1e-15)

    def test_never_exceeds_do_nothing_cost(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            tar = list(rng.normal(size=int(rng.integers(1, 40))))
            non = list(rng.normal(size=int(rng.integers(1, 40))))
            r = evaluate(make_scores(tar, non))
            for op in DEFAULT_OPERATING_POINTS:
                assert r.min_dcf[op.key] <= 1.0 + 1e-12

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            tar = list(rng.integers(0, 8, size=int(rng.integers(1, 25))).astype(float))
            non = list(rng.integers(0, 8, size=int(rng.integers(1, 25))).astype(float))
            r = evaluate(make_scores(tar, non))
            for op in DEFAULT_OPERATING_POINTS:
                got = r.min_dcf[op.key]
                assert got == pytest.approx(oracle_min_dcf(tar, non, op), abs=1e-12)


class TestActDcf:
    def test_default_threshold_closed_form(self):
        op = OperatingPoint(p_target=0.01)
        assert op.bayes_threshold == pytest.approx(np.log(99.0), abs=1e-12)
        assert op.bayes_threshold == pytest.approx(4.59511985, abs=1e-8)

    def test_perfectly_calibrated_separation(self):
        op = OperatingPoint(p_target=0.01, name="op")
        sset = make_scores([5.0, 6.0], [1.0, 2.0])
        assert evaluate(sset, [op]).act_dcf["op"] == 0.0

    def test_act_at_least_min(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            tar = list(rng.normal(size=int(rng.integers(1, 30))))
            non = list(rng.normal(size=int(rng.integers(1, 30))))
            r = evaluate(make_scores(tar, non))
            for op in DEFAULT_OPERATING_POINTS:
                assert r.act_dcf[op.key] >= r.min_dcf[op.key] - 1e-12


class TestRankInvariance:
    def test_monotone_maps_leave_metrics_unchanged(self):
        rng = np.random.default_rng(44)
        tar = list(rng.normal(size=30))
        non = list(rng.normal(size=50))
        r0 = evaluate(make_scores(tar, non))

        for f in (lambda s: 3.0 * s + 2.0, lambda s: s ** 3):
            r = evaluate(make_scores([f(s) for s in tar], [f(s) for s in non]))
            assert r.eer == r0.eer
            for op in DEFAULT_OPERATING_POINTS:
                assert r.min_dcf[op.key] == r0.min_dcf[op.key]


class TestEvaluate:
    def test_perfect_separation_report(self):
        r = evaluate(make_scores([2, 3], [0, 1]))
        assert r.eer == 0.0
        assert all(v == 0.0 for v in r.min_dcf.values())
        assert r.c_primary == 0.0
        assert (r.n_target, r.n_nontarget) == (2, 2)

    def test_uninformative_scores(self):
        r = evaluate(make_scores([0, 0, 0], [0, 0]))
        assert r.c_primary == pytest.approx(1.0)

    def test_c_primary_is_mean_of_min_dcfs(self):
        rng = np.random.default_rng(45)
        tar = list(rng.normal(loc=1.0, size=100))
        non = list(rng.normal(size=100))
        sset = make_scores(tar, non)
        r = evaluate(sset)
        # each point evaluated on its own
        expect = np.mean([evaluate(sset, [op]).min_dcf[op.key]
                          for op in DEFAULT_OPERATING_POINTS])
        assert r.c_primary == pytest.approx(expect, abs=1e-15)

    def test_reports_each_point_given(self):
        sset = make_scores([2, 3], [0, 1])
        ops = [OperatingPoint(p, name=f"p-{i}") for i, p in enumerate((0.1, 0.2, 0.3))]
        for k in (1, 3):
            r = evaluate(sset, ops[:k])
            assert list(r.min_dcf) == list(r.act_dcf) == ["p_0", "p_1", "p_2"][:k]
            assert [ln.split("\t")[0] for ln in r.render().splitlines()] == [
                "eer", *(f"{kind}_p_{i}" for kind in ("min", "act") for i in range(k)),
                "c_primary", "n_target", "n_nontarget"]

    def test_render_format(self):
        r = evaluate(make_scores([2, 3], [0, 1]))
        lines = r.render().strip().split("\n")
        keys = [ln.split("\t")[0] for ln in lines]
        assert keys == ["eer", "min_dcf16_1", "min_dcf16_2", "act_dcf16_1",
                        "act_dcf16_2", "c_primary", "n_target", "n_nontarget"]
        assert lines[0] == "eer\t0.000000"


class TestSnorm:
    def cohorts(self, sset, e, t):
        model_ids, test_ids, _ = trial_columns(sset.trials)
        enroll = {m: np.asarray(e, dtype=float) for m in model_ids}
        test = {t_id: np.asarray(t, dtype=float) for t_id in test_ids}
        return enroll, test

    def test_standardized_cohorts_identity(self):
        sset = make_scores([1.5], [0.5])
        # cohort with mean 0, population std 1
        e, t = self.cohorts(sset, [-1.0, 1.0], [-1.0, 1.0])
        out = snorm(sset, e, t)
        for s_in, s_out in zip(sset.scores, out.scores):
            assert s_out == pytest.approx(s_in)

    def test_hand_computed(self):
        sset = score_set([("m", "t", 4.0, "target")])
        out = snorm(sset, {"m": np.array([0.0, 2.0])}, {"t": np.array([2.0, 6.0])})
        assert out.scores[0] == pytest.approx(1.5)

    def test_symmetric_in_cohort_swap(self):
        sset = score_set([("m", "t", 4.0, "target")])
        a, b = np.array([0.0, 2.0]), np.array([2.0, 6.0])
        s1 = snorm(sset, {"m": a}, {"t": b}).scores[0]
        s2 = snorm(sset, {"m": b}, {"t": a}).scores[0]
        assert s1 == pytest.approx(s2)

    def test_preserves_keys_and_labels(self):
        sset = make_scores([1, 2], [3])
        e, t = self.cohorts(sset, [0.0, 1.0], [0.5, 2.0])
        out = snorm(sset, e, t)
        assert trial_columns(out.trials) == trial_columns(sset.trials)

    def test_equals_per_trial_formula(self):
        rng = np.random.default_rng(5)
        rows = [(f"m{i}", f"t{j}", float(rng.normal()), "target" if i == j else "nontarget")
                for i in range(4) for j in range(5)]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        e = {f"m{i}": rng.normal(size=7) for i in range(4)}
        t = {f"t{j}": rng.normal(size=7) for j in range(5)}
        expect = []
        for mid, tid, s, _ in rows:
            mu_e, sd_e = float(np.mean(e[mid])), float(np.std(e[mid]))
            mu_t, sd_t = float(np.mean(t[tid])), float(np.std(t[tid]))
            expect.append(0.5 * ((s - mu_e) / sd_e + (s - mu_t) / sd_t))
        assert snorm(score_set(rows), e, t).scores.tolist() == expect

    @given(st.data())
    def test_stacked_stats_equal_per_array(self, data):
        # each side's cohort statistics come from one reduction over the
        # stacked arrays; they must equal np.mean/np.std of each array
        n_e, n_t = (data.draw(st.integers(2, 40)) for _ in range(2))
        scale = data.draw(st.sampled_from([1.0, 1e-150, 1e150]))
        value = st.floats(-1.0, 1.0, allow_subnormal=False).map(lambda v: v * scale)

        def side(ids, n):
            return {i: np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
                    for i in ids}

        e, t = side(["m0", "m1", "m2"], n_e), side(["t0", "t1"], n_t)
        for cohort in (e, t):
            stacked = np.stack(list(cohort.values()))
            assert stacked.mean(axis=1).tolist() == [np.mean(v) for v in cohort.values()]
            assert stacked.std(axis=1).tolist() == [np.std(v) for v in cohort.values()]
        if any(np.std(v) == 0.0 for v in [*e.values(), *t.values()]):
            return
        rows = [(mid, tid, scale * data.draw(st.floats(-1.0, 1.0)), "unknown")
                for mid in e for tid in t]
        expect = [0.5 * ((s - np.mean(e[mid])) / np.std(e[mid]) +
                         (s - np.mean(t[tid])) / np.std(t[tid])) for mid, tid, s, _ in rows]
        assert snorm(score_set(rows), e, t).scores.tolist() == expect

    def test_ragged_cohort_side(self):
        sset = score_set([("m", "t", 4.0, "target")])
        t = {"t": np.array([1.0, 2.0])}
        with pytest.raises(DataError, match="^enroll cohort score arrays differ in length$"):
            snorm(sset, {"m": np.array([0.0, 2.0]), "n": np.array([0.0, 1.0, 2.0])}, t)
        with pytest.raises(DataError, match="^test cohort score arrays differ in length$"):
            snorm(sset, {"m": np.array([0.0, 2.0])}, {**t, "u": np.array([0.0, 1.0, 2.0])})

    def test_one_score_per_cohort(self):
        sset = score_set([("m", "t", 4.0, "target")])
        one, two = {"m": np.array([1.0])}, {"t": np.array([1.0, 2.0])}
        with pytest.raises(DataError, match="^cohort for 'm' needs at least 2 scores$"):
            snorm(sset, one, two)
        with pytest.raises(DataError, match="^cohort for 't' needs at least 2 scores$"):
            snorm(sset, {"m": np.array([1.0, 2.0])}, {"t": np.array([1.0])})

    def test_missing_cohort(self):
        sset = score_set([("m", "t", 4.0, "target")])
        with pytest.raises(DataError, match="missing enroll cohort"):
            snorm(sset, {}, {"t": np.array([1.0, 2.0])})
        # the first missing id in sorted order is named
        sset = score_set([("m", "t", 1.0, "target"), ("mz", "t", 2.0, "unknown"),
                          ("mb", "tb", 3.0, "unknown")])
        c = np.array([0.0, 2.0])
        with pytest.raises(DataError, match="^missing enroll cohort for 'mb'$"):
            snorm(sset, {"m": c}, {"t": c, "tb": c})
        with pytest.raises(DataError, match="^missing test cohort for 'tb'$"):
            snorm(sset, {"m": c, "mb": c, "mz": c}, {"t": c, "tz": c})

    def test_zero_deviation_cohort(self):
        sset = score_set([("m", "t", 4.0, "target")])
        with pytest.raises(DataError, match="zero cohort deviation"):
            snorm(sset, {"m": np.array([1.0, 1.0])}, {"t": np.array([1.0, 2.0])})


def test_evaluate_does_not_import_numpy_ma():
    """numpy.ma takes 15-27 ms to import; np.unique would import it."""
    code = ("import sys\n"
            "import recwhiten.cli\n"
            "from recwhiten.data import ScoreSet, TrialList\n"
            "from recwhiten.metrics import evaluate\n"
            "evaluate(ScoreSet(TrialList(['m', 'm'], ['t', 'u'], ['target', 'nontarget']), "
            "[1.0, 0.0]))\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout == "False\n"
