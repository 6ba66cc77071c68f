import gc
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from recwhiten import stats, whitening
from recwhiten.data import DataError, NumericalError
from recwhiten.stats import COV_FLOOR, SPLIT_WORK, Moments, estimate_moments
from recwhiten.whitening import (BLOCK_ROWS, CorpusLevel, LevelSelection, RecursiveWhitener,
                                 WhiteningStage, fit_recursive, fit_stage,
                                 load_whitener, save_whitener, select_subcorpus,
                                 transform_matrix, transform_set)

from oracles import apply_stage, gaussian_loglik, length_normalize, make_set, transform


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
        with pytest.raises(NumericalError, match="zero-norm"):
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
        with pytest.raises(NumericalError):
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
        for x_in, x_out in zip(vs.matrix(), out.matrix()):
            np.testing.assert_allclose(x_out, transform(w, x_in), atol=1e-12)

    def test_no_stages_copy_the_rows(self):
        x = np.arange(6.0).reshape(3, 2)
        out = transform_matrix(RecursiveWhitener([]), x)
        assert out.tobytes() == x.tobytes() and not np.shares_memory(out, x)

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


def random_stages(rng, dim, n):
    """n full-rank stages with random means and matrices."""
    return [WhiteningStage(k, f"c{k}", rng.normal(size=dim) / dim,
                           rng.normal(size=(dim, dim)) / np.sqrt(dim) + np.eye(dim))
            for k in range(n)]


def norm_loop(whitener, x):
    """One gemm over all rows a stage, then np.linalg.norm."""
    for stage in whitener.stages:
        x = (x - stage.mean) @ stage.w.T
        x = x / np.linalg.norm(x, axis=1)[:, None]
    return x


def kernel_is_norm_loop(n, dim):
    rng = np.random.default_rng(dim)
    whitener = RecursiveWhitener(random_stages(rng, dim, 3))
    x = rng.normal(size=(n, dim))
    assert transform_matrix(whitener, x).tobytes() == norm_loop(whitener, x).tobytes()


def run_pinned(script):
    """Run a script in a fresh interpreter with BLAS on 1 thread and tests/ on
    its path; return what it prints."""
    path = [str(Path(__file__).parent), str(Path(whitening.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestTransformMemo:
    """transform_set extends the prefix it last applied to a live set; at dim
    200 the products run through the BLAS kernels the pipeline uses."""

    DIM = 200

    def setup_method(self):
        rng = np.random.default_rng(40)
        self.full = RecursiveWhitener(random_stages(rng, self.DIM, 4))
        self.vs = make_set(rng.normal(size=(150, self.DIM)))

    def prefix(self, k):
        return RecursiveWhitener(self.full.stages[:k])

    def test_kernel_matches_the_norm_loop(self):
        """The stage loop of transform_matrix, byte for byte."""
        want = norm_loop(self.full, self.vs.matrix())
        assert transform_matrix(self.full, self.vs.matrix()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,dim,blocks,split", [
        (257, 200, 1, False), (385, 200, 1, False), (790, 50, 2, False), (1026, 200, 2, True),
        (2000, 200, 5, True), (500, 300, 1, False), (1000, 300, 2, True), (3001, 201, 7, True)])
    def test_kernel_in_blocks_and_halves_matches_the_norm_loop(self, n, dim, blocks, split):
        """Rows cut into blocks, and the blocks of a stage of SPLIT_WORK or more
        multiply-adds into halves, give the bytes of one gemm over all rows.
        The cases break other cuts: a 1-row gemm (257 rows in blocks of 256,
        halves of 513, 385 with a short last block), a short one (790 - 768
        rows at d = 50), and d above 192 and not a multiple of 8 (300, 201),
        where a gemm's last rows round otherwise than the same rows in a
        longer call. BLAS runs on 1 thread, as in the CLI: a threaded gemm
        cuts its rows by thread."""
        assert max(1, n // BLOCK_ROWS) == blocks
        assert (n * dim ** 2 >= SPLIT_WORK and blocks > 1) == split
        run_pinned(f"from test_whitening import kernel_is_norm_loop\n"
                   f"kernel_is_norm_loop({n}, {dim})\n")

    def test_prefixes_in_order_apply_one_stage_each(self, monkeypatch):
        applied, kernel = [], whitening.transform_matrix

        def spy(w, x):
            applied.append(len(w.stages) * len(x))
            return kernel(w, x)
        monkeypatch.setattr(whitening, "transform_matrix", spy)
        for k in range(1, 5):
            got = transform_set(self.prefix(k), self.vs).matrix()
            assert got.tobytes() == kernel(self.prefix(k), self.vs.matrix()).tobytes()
            _, kept = whitening._LAST_TRANSFORM[self.vs]
            assert np.shares_memory(got, kept) and not kept.flags.writeable
        assert applied == [len(self.vs)] * 4

    def test_deep_then_shallow_recomputes(self):
        for k in (4, 2, 3, 1):
            got = transform_set(self.prefix(k), self.vs).matrix()
            assert got.tobytes() == transform_matrix(self.prefix(k), self.vs.matrix()).tobytes()

    def test_other_stage_objects_are_not_a_prefix(self):
        transform_set(self.prefix(2), self.vs)
        other = RecursiveWhitener(random_stages(np.random.default_rng(41), self.DIM, 3))
        got = transform_set(other, self.vs).matrix()
        assert got.tobytes() == transform_matrix(other, self.vs.matrix()).tobytes()

    def test_zero_norm_row_named_after_a_memo_hit(self):
        """A stage centered on row 7 of the prefix output leaves it zero."""
        mid = transform_set(self.prefix(2), self.vs).matrix()
        bad = WhiteningStage(2, "bad", mid[7], np.eye(self.DIM))
        with pytest.raises(NumericalError, match="zero-norm vector at row 7 "):
            transform_set(RecursiveWhitener(self.full.stages[:2] + [bad]), self.vs)
        got = transform_set(self.prefix(3), self.vs).matrix()
        assert got.tobytes() == transform_matrix(self.prefix(3), self.vs.matrix()).tobytes()

    def test_entry_dies_with_the_set(self):
        gc.collect()
        before = len(whitening._LAST_TRANSFORM)
        transform_set(self.prefix(1), self.vs)
        assert len(whitening._LAST_TRANSFORM) == before + 1
        del self.vs
        gc.collect()
        assert len(whitening._LAST_TRANSFORM) == before


def send_transform_digest(conn, whitener, x):
    conn.send_bytes(hashlib.sha256(transform_matrix(whitener, x).tobytes()).digest())


class TestSplitTransform:
    """transform_matrix at SPLIT_WORK or more multiply-adds a stage, where a
    thread of in_halves takes the second half of the rows."""

    N, DIM = 2000, 200

    def setup_method(self):
        assert self.N * self.DIM ** 2 >= SPLIT_WORK
        rng = np.random.default_rng(43)
        self.x = rng.normal(size=(self.N, self.DIM))
        self.whitener = RecursiveWhitener(random_stages(rng, self.DIM, 2))

    @pytest.mark.parametrize("rows", [(N - 3,), (5, N - 3)])
    def test_zero_norm_row_named_in_the_whole_matrix(self, rows):
        """A stage centered on row N - 3 zeroes it, in the second half; a copy
        of it in row 5, in the first half, is named instead."""
        self.x[list(rows)] = self.x[self.N - 3]
        stage = WhiteningStage(0, "bad", self.x[self.N - 3], np.eye(self.DIM))
        with pytest.raises(NumericalError, match=f"zero-norm vector at row {rows[0]} "):
            transform_matrix(RecursiveWhitener([stage]), self.x)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_splits_with_its_own_helper(self):
        want = hashlib.sha256(transform_matrix(self.whitener, self.x).tobytes()).digest()
        ctx = multiprocessing.get_context("fork")
        got, sent = ctx.Pipe(duplex=False)
        child = ctx.Process(target=send_transform_digest, args=(sent, self.whitener, self.x))
        child.start()
        try:
            assert got.poll(60), "the split transform in the forked child did not end"
            assert got.recv_bytes() == want
        finally:
            child.kill()
            child.join()

    def test_a_transform_leaves_no_thread(self):
        """800 rows (below SPLIT_WORK) and 2,000 rows (split) each leave the
        thread count as they found it."""
        assert 800 * self.DIM ** 2 < SPLIT_WORK
        for n in (800, self.N):
            threads = threading.active_count()
            transform_matrix(self.whitener, self.x[:n])
            assert threading.active_count() == threads

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
    def test_on_one_cpu_the_split_gives_the_unsplit_bytes(self, monkeypatch):
        """A fresh interpreter restricted to one CPU still splits, with its
        helper unpinned on that CPU, and writes the bytes of an unsplit run
        here."""
        monkeypatch.setattr(stats, "SPLIT_WORK", float("inf"))
        want = hashlib.sha256(transform_matrix(self.whitener, self.x).tobytes()).hexdigest()
        got = run_pinned(
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "import hashlib, threading\n"
            "from recwhiten import stats, whitening\n"
            "from test_whitening import TestSplitTransform\n"
            "t, threads, split = TestSplitTransform(), set(), whitening.in_halves\n"
            "t.setup_method()\n"
            "def spy(fn, n, work):\n"
            "    def half(rows):\n"
            "        threads.add((threading.get_ident(), frozenset(os.sched_getaffinity(0))))\n"
            "        fn(rows)\n"
            "    split(half, n, work)\n"
            "whitening.in_halves = spy\n"
            "x = whitening.transform_matrix(t.whitener, t.x)\n"
            "assert stats._other_cpus() == set(), stats._other_cpus()\n"
            "one = {frozenset(os.sched_getaffinity(0))}\n"
            "assert len(threads) >= 2 and {mask for _, mask in threads} == one, threads\n"
            "print(hashlib.sha256(x.tobytes()).hexdigest())\n")
        assert got.strip() == want

    def test_no_thread_to_start_the_caller_runs_every_block(self, monkeypatch):
        want = transform_matrix(self.whitener, self.x).tobytes()

        def refuse(thread):
            raise RuntimeError("can't start new thread")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert transform_matrix(self.whitener, self.x).tobytes() == want


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
        ids = ["", "ood a", "[x", "#a"]
        w = RecursiveWhitener(
            [WhiteningStage(k, cid, np.zeros(2), np.eye(2)) for k, cid in enumerate(ids)],
            [LevelSelection(1, [(cid, -1.5 + k) for k, cid in enumerate(ids)], 1)])
        p = tmp_path / "whitener.txt"
        save_whitener(w, p)
        back = load_whitener(p)
        assert [(s.level, s.corpus_id) for s in back.stages] == list(enumerate(ids))
        assert back.selection_log[0].logliks == w.selection_log[0].logliks
        assert back.selection_log[0].chosen == 1

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


class TestModelRules:
    """WhiteningStage and LevelSelection refuse, when built, what no whitener
    file can hold."""

    @pytest.mark.parametrize("w, message", [
        pytest.param([[1.0, 2.0], [2.0, 4.0]], "stage 3 matrix is singular", id="rank-1"),
        pytest.param(np.zeros((2, 2)), "stage 3 matrix is singular", id="zero"),
        pytest.param([[1.0, 0.0], [0.0, np.nan]], "non-finite value in stage 3 matrix",
                     id="nan"),
        pytest.param([[np.inf, 0.0], [0.0, 1.0]], "non-finite value in stage 3 matrix",
                     id="inf"),
        pytest.param([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "stage 3 matrix is not 2 x 2",
                     id="2-by-3"),
        pytest.param(np.eye(3), "stage 3 matrix is not 2 x 2", id="3-by-3"),
        pytest.param([1.0, 1.0], "stage 3 matrix is not 2 x 2", id="vector"),
    ])
    def test_stage_refused(self, w, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            WhiteningStage(3, "c", np.zeros(2), w)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mean_or_loglik_refused(self, value):
        with pytest.raises(DataError, match="^non-finite value in stage 3 mean$"):
            WhiteningStage(3, "c", [0.0, value], np.eye(2))
        with pytest.raises(DataError, match="^non-finite log-likelihood in selection 1$"):
            LevelSelection(1, [("c", 0.0), ("d", value)], 0)

    @pytest.mark.parametrize("logliks, chosen", [
        pytest.param([("c", 0.0), ("d", 1.0)], 5, id="5-of-2"),
        pytest.param([("c", 0.0), ("d", 1.0)], 2, id="2-of-2"),
        pytest.param([("c", 0.0), ("d", 1.0)], -1, id="minus-1"),
        pytest.param([], 0, id="empty")])
    def test_selection_chosen_out_of_range(self, logliks, chosen):
        with pytest.raises(DataError, match=f"^selection 1 chosen row {chosen} out of range$"):
            LevelSelection(1, logliks, chosen)
