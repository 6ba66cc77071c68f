"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one PASS line when its criterion holds; a failing test
reports through pytest as usual.
"""

import time

import numpy as np
import pytest

from recwhiten import cli
from recwhiten.config import parse_experiment_config
from recwhiten.experiment import (fit_full_whitener, load_corpora, run_level,
                                  whitener_prefix)
from recwhiten.metrics import DEFAULT_OPERATING_POINTS, evaluate
from recwhiten.plda import PldaModel, train_plda
from recwhiten.stats import Moments, cholesky_lower, estimate_moments, whitening_matrix
from recwhiten.synth import SubCorpusSpec, SynthConfig, generate_world
from recwhiten.whitening import RecursiveWhitener, fit_stage, select_subcorpus, transform_set

from oracles import apply_stage, gaussian_loglik, make_set, score_pair, transform
from test_metrics import make_scores, oracle_eer, oracle_min_dcf
from test_plda import joint_gaussian_llr, labeled_set


def report(criterion, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {criterion}{suffix}")


def test_criterion_01_whiteness():
    rng = np.random.default_rng(100)
    a = rng.normal(size=(20, 20))
    cov = a @ a.T / 20 + 0.3 * np.eye(20)
    x = rng.multivariate_normal(rng.normal(size=20), cov, size=2000)
    t0 = time.monotonic()
    stage = fit_stage(make_set(x), shrinkage=0.0)
    y = np.stack([apply_stage(stage, v) for v in x])
    elapsed = time.monotonic() - t0
    cov_err = np.abs(np.cov(y.T) - np.eye(20)).max()
    mean_err = np.abs(y.mean(axis=0)).max()
    assert cov_err < 0.15
    assert mean_err < 0.05
    assert elapsed < 1.0
    report("criterion 1: whiteness",
           f"cov err {cov_err:.3f}, mean err {mean_err:.3f}, {elapsed:.2f}s")


def test_criterion_02_cholesky_reconstruction():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 65))
        kappa = float(10.0 ** rng.uniform(0, 4))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        lam = np.exp(np.linspace(-0.5 * np.log(kappa), 0.5 * np.log(kappa), d))
        m = (q * lam) @ q.T
        m = 0.5 * (m + m.T)
        chol = cholesky_lower(m)
        err = np.abs(chol @ chol.T - m).max() / np.abs(m).max()
        worst = max(worst, err)
    assert worst <= 1e-10
    report("criterion 2: factorization", f"worst relative error {worst:.2e}")


def test_criterion_03_selection_oracle():
    rng = np.random.default_rng(102)
    for _ in range(100):
        d = int(rng.integers(2, 17))
        k = int(rng.integers(1, 6))
        cands = []
        for _ in range(k):
            a = rng.normal(size=(d + 2, d))
            cands.append(Moments(rng.normal(size=d),
                                 a.T @ a / (d + 1) + 0.3 * np.eye(d), d + 2))
        targets = rng.normal(size=(int(rng.integers(1, 30)), d))
        chosen, table = select_subcorpus(cands, targets)
        oracle = [sum(gaussian_loglik(c, t) for t in targets) for c in cands]
        assert chosen == int(np.argmax(oracle))
        np.testing.assert_allclose(table, oracle, rtol=1e-10)
    # engineered exact ties: identical candidates must resolve to index 0
    m = Moments(np.zeros(3), np.eye(3), 5)
    chosen, table = select_subcorpus([m, m, m], rng.normal(size=(4, 3)))
    assert chosen == 0 and table[0] == table[1] == table[2]
    report("criterion 3: selection oracle", "100 instances + exact ties")


def test_criterion_04_recursive_reduction():
    rng = np.random.default_rng(103)
    x = rng.normal(size=(300, 12)) * 3 + 1
    in_domain = make_set(x, "ind")
    targets = make_set(rng.normal(size=(5, 12)), "t", prefix="t")
    from recwhiten.whitening import fit_recursive
    w = fit_recursive(in_domain, [], targets, shrinkage=0.0)
    # directly coded conventional path: estimate, factor, center, whiten, eta
    m = estimate_moments(x, shrinkage=0.0)
    wmat = whitening_matrix(m)
    for v in rng.normal(size=(1000, 12)):
        y = wmat @ (v - m.mean)
        expect = y / np.linalg.norm(y)
        assert np.array_equal(transform(w, v), expect)
    report("criterion 4: zero-level reduction", "bit-for-bit on 1000 vectors")


def test_criterion_05_plda_oracle():
    rng = np.random.default_rng(104)
    for _ in range(200):
        d = int(rng.integers(1, 6))
        a = rng.normal(size=(d + 2, d))
        b = rng.normal(size=(d + 2, d))
        m = PldaModel(rng.normal(size=d), a.T @ a / (d + 1),
                      b.T @ b / (d + 1) + 0.1 * np.eye(d))
        e, t = rng.normal(size=d), rng.normal(size=d)
        got = score_pair(m, e, t)
        assert got == pytest.approx(joint_gaussian_llr(m, e, t), abs=1e-8)
        assert got == score_pair(m, t, e)  # exact symmetry
    m0 = PldaModel(np.zeros(4), np.zeros((4, 4)), np.eye(4))
    for _ in range(20):
        assert score_pair(m0, rng.normal(size=4), rng.normal(size=4)) == 0.0
    report("criterion 5: PLDA oracle", "200 instances, symmetry, ac=0")


def test_criterion_06_plda_recovery():
    rng = np.random.default_rng(1)
    d = 10
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    ac_true = q @ np.diag([8, 5, 3, 1.5, 0.8, 0.4, 0.2, 0.2, 0.2, 0.2]) @ q.T
    wc_true = np.diag(np.linspace(0.1, 0.4, d))
    data = labeled_set(rng, np.linalg.cholesky(ac_true),
                       np.linalg.cholesky(wc_true), 500, 8, d)
    t0 = time.monotonic()
    m = train_plda(data)
    elapsed = time.monotonic() - t0
    ac_err = np.linalg.norm(m.ac - ac_true) / np.linalg.norm(ac_true)
    wc_err = np.linalg.norm(m.wc - wc_true) / np.linalg.norm(wc_true)
    assert ac_err < 0.1 and wc_err < 0.1
    assert elapsed < 5.0
    report("criterion 6: PLDA recovery",
           f"ac {ac_err:.3f}, wc {wc_err:.3f}, {elapsed:.2f}s")


def test_criterion_07_metric_oracle():
    rng = np.random.default_rng(105)
    for _ in range(50):
        nt = int(rng.integers(1, 500))
        nn = int(rng.integers(1, 500))
        tar = list(rng.integers(0, 40, size=nt).astype(float))
        non = list(rng.integers(0, 40, size=nn).astype(float))
        r = evaluate(make_scores(tar, non))
        assert r.eer == pytest.approx(oracle_eer(tar, non), abs=1e-12)
        for op in DEFAULT_OPERATING_POINTS:
            assert r.min_dcf[op.key] == pytest.approx(oracle_min_dcf(tar, non, op), abs=1e-12)
            assert r.act_dcf[op.key] >= r.min_dcf[op.key] - 1e-12
    assert evaluate(make_scores([2, 3], [0, 1])).eer == 0.0
    assert evaluate(make_scores([1], [2])).eer == 1.0
    flat = evaluate(make_scores([1, 1], [1, 1]))
    for op in DEFAULT_OPERATING_POINTS:
        assert flat.min_dcf[op.key] == pytest.approx(1.0)
    report("criterion 7: metric oracle", "50 score sets up to 1000 trials")


def test_criterion_08_rank_invariance():
    rng = np.random.default_rng(106)
    tar = list(rng.normal(size=200))
    non = list(rng.normal(size=300))
    r0 = evaluate(make_scores(tar, non))
    for f in (lambda s: 5.0 * s - 1.0, lambda s: s ** 3):
        r = evaluate(make_scores([f(s) for s in tar], [f(s) for s in non]))
        assert r.eer == r0.eer
        for op in DEFAULT_OPERATING_POINTS:
            assert r.min_dcf[op.key] == r0.min_dcf[op.key]
    report("criterion 8: rank invariance", "affine and cubic maps, exact")


MISMATCH_CFG = """
[synth]
seed = 0

[hierarchy]
level1 = ood_a ood_b

[backend]
levels = 0 1
"""


def test_criterion_09_directional_reproduction():
    t0 = time.monotonic()
    wins = 0
    rels = []
    for seed in range(10):
        cfg = parse_experiment_config(MISMATCH_CFG)
        cfg.synth.seed = seed
        corpora = load_corpora(cfg)
        full = fit_full_whitener(cfg, corpora)
        _, r0 = run_level(cfg, corpora, whitener_prefix(full, 0))
        _, r1 = run_level(cfg, corpora, whitener_prefix(full, 1))
        wins += r1.eer < r0.eer
        rels.append((r0.eer - r1.eer) / r0.eer)
    elapsed = time.monotonic() - t0
    mean_rel = float(np.mean(rels))
    assert wins >= 8
    assert mean_rel > 0.05
    assert elapsed < 120.0
    report("criterion 9: directional gain",
           f"{wins}/10 seeds, mean relative EER reduction {mean_rel:.1%}, {elapsed:.1f}s")


def test_criterion_10_harmlessness_control():
    cfg = parse_experiment_config(MISMATCH_CFG)
    cfg.synth.seed = 0
    cfg.synth.language_shift = 0.0
    cfg.synth.cov_scale = 1.0
    for spec in cfg.synth.ood_subcorpora:
        spec.mean_shift = 0.0
    corpora = load_corpora(cfg)
    full = fit_full_whitener(cfg, corpora)
    _, r0 = run_level(cfg, corpora, whitener_prefix(full, 0))
    _, r1 = run_level(cfg, corpora, whitener_prefix(full, 1))
    diff = abs(r1.c_primary - r0.c_primary)
    assert diff < 0.02
    report("criterion 10: harmlessness control", f"|delta c_primary| = {diff:.4f}")


def test_criterion_11_tiny_in_domain():
    synth = SynthConfig(
        dim=200, seed=0,
        ood_subcorpora=[SubCorpusSpec("ood_a", 60, 4, 0.0),
                        SubCorpusSpec("ood_b", 60, 4, 4.0)],
        n_enroll_speakers=15, n_unlabeled=100, language_shift=6.0,
    )
    world = generate_world(synth)
    assert len(world.indomain_unlabeled) == 100 < synth.dim
    cfg = parse_experiment_config(MISMATCH_CFG)
    cfg.synth = synth
    corpora = load_corpora(cfg)
    full = fit_full_whitener(cfg, corpora)
    stage0_out = transform_set(RecursiveWhitener(full.stages[:1]),
                               corpora.unlabeled)
    assert np.all(np.isfinite(stage0_out.matrix()))
    _, r1 = run_level(cfg, corpora, whitener_prefix(full, 1))
    assert np.isfinite(r1.eer) and np.isfinite(r1.c_primary)
    report("criterion 11: tiny in-domain robustness",
           f"n=100 < d=200 completed, eer {r1.eer:.3f}")


def test_criterion_12_determinism(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(MISMATCH_CFG + "\n")
    for name in ("r1", "r2"):
        assert cli.main(["run-experiment", "--config", str(cfg_path),
                         "--out", str(tmp_path / name)]) == 0
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "r2").iterdir())
    for name in names:
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes(), name
    report("criterion 12: determinism", f"{len(names)} files byte-identical")
