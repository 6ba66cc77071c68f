"""End-to-end experiment runner: the level-0/1/2 comparison protocol.

For each requested recursion level the same pipeline runs: fit the whitener
through that level, transform every corpus, train PLDA on the transformed
labeled out-of-domain data, score the trials (optionally S-normalized) and
evaluate. Per-level reports plus one comparison table are produced.

All whiteners are prefixes of the deepest one, so the whole hierarchy is
fitted once; the level-0 row can never be contaminated by deeper levels.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from . import metrics, plda, whitening
from .config import ConfigError, ExperimentConfig
from .data import (ScoreSet, TrialList, VectorSet, concat, load_trials,
                   load_vector_table, same_dim, save_scores, save_trials,
                   save_vector_table)
from .metrics import EvalReport
from .synth import SynthWorld, generate_world
from .whitening import CorpusLevel, RecursiveWhitener, fit_recursive


@dataclass
class Corpora:
    ood: VectorSet
    unlabeled: VectorSet
    enroll: VectorSet
    test: VectorSet
    trials: TrialList

    def __post_init__(self):
        same_dim([self.ood, self.unlabeled, self.enroll, self.test])


def load_corpora(cfg: ExperimentConfig) -> Corpora:
    if cfg.synth is not None:
        w = generate_world(cfg.synth)
        return Corpora(w.ood_labeled, w.indomain_unlabeled, w.enroll, w.test, w.trials)
    p = cfg.data_paths
    return Corpora(
        load_vector_table(p["ood"]),
        load_vector_table(p["unlabeled"]),
        load_vector_table(p["enroll"]),
        load_vector_table(p["test"]),
        load_trials(p["trials"]),
    )


def _candidate_set(ood: VectorSet, token: str) -> VectorSet:
    """A hierarchy token names one corpus id or a '+'-joined union."""
    wanted = np.isin(ood.corpus_ids, token.split("+"))
    if not wanted.any():
        raise ConfigError(f"hierarchy candidate {token!r} matches no vectors")
    return ood.take(wanted)


def build_levels(cfg: ExperimentConfig, corpora: Corpora) -> list[CorpusLevel]:
    return [
        CorpusLevel(i, [(tok, _candidate_set(corpora.ood, tok)) for tok in tokens])
        for i, tokens in enumerate(cfg.hierarchy, start=1)
    ]


def selection_targets(cfg: ExperimentConfig, corpora: Corpora) -> VectorSet:
    if cfg.selection_targets == "unlabeled":
        return corpora.unlabeled
    return concat([corpora.enroll, corpora.test])


def fit_full_whitener(cfg: ExperimentConfig, corpora: Corpora) -> RecursiveWhitener:
    depth = max(cfg.levels)
    levels = build_levels(cfg, corpora)[:depth]
    return fit_recursive(corpora.unlabeled, levels,
                         selection_targets(cfg, corpora), cfg.shrinkage)


def whitener_prefix(full: RecursiveWhitener, level: int) -> RecursiveWhitener:
    return RecursiveWhitener(full.stages[:level + 1], full.selection_log[:level])


def run_level(cfg: ExperimentConfig, corpora: Corpora,
              whitener: RecursiveWhitener) -> tuple[ScoreSet, EvalReport]:
    """One arm of the comparison: transform, train PLDA, score, evaluate."""
    ood_t = whitening.transform_set(whitener, corpora.ood)
    enroll_t = whitening.transform_set(whitener, corpora.enroll)
    test_t = whitening.transform_set(whitener, corpora.test)
    model = plda.train_plda(ood_t, cfg.plda_rank)
    scores = plda.score_trials(model, enroll_t, test_t, corpora.trials)
    if cfg.snorm:
        cohort_t = whitening.transform_set(whitener, corpora.unlabeled)
        model_ids, model_vecs = plda.enroll_models(enroll_t)
        cohort_mat = cohort_t.matrix()
        e_scores = plda.score_matrix(model, model_vecs, cohort_mat)
        t_scores = plda.score_matrix(model, test_t.matrix(), cohort_mat)
        enroll_cohort = {mid: e_scores[i] for i, mid in enumerate(model_ids)}
        test_cohort = {e.id: t_scores[i] for i, e in enumerate(test_t.entries)}
        scores = metrics.snorm(scores, enroll_cohort, test_cohort)
    report = metrics.evaluate(scores, cfg.ops)
    return scores, report


def comparison_table(cfg: ExperimentConfig, reports: dict[int, EvalReport]) -> str:
    names = [op.name.replace("-", "_") for op in cfg.ops]
    lines = ["#level\teer\t" + "\t".join(f"min_{n}" for n in names) + "\tc_primary"]
    for level in sorted(reports):
        r = reports[level]
        cols = [f"{r.eer:.6f}"] + [f"{r.min_dcf[op.name]:.6f}" for op in cfg.ops]
        cols.append(f"{r.c_primary:.6f}")
        lines.append(f"{level}\t" + "\t".join(cols))
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict[int, EvalReport]:
    """Run every requested level and write reports atomically into out_dir."""
    corpora = load_corpora(cfg)
    full = fit_full_whitener(cfg, corpora)
    header = [f"config_hash={cfg.config_hash}", f"snorm={'on' if cfg.snorm else 'off'}"]

    reports: dict[int, EvalReport] = {}
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".run_", dir=out_dir)
    try:
        for level in cfg.levels:
            scores, report = run_level(cfg, corpora, whitener_prefix(full, level))
            report.header = header + [f"level={level}"]
            with open(os.path.join(tmp, f"report_level{level}.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(report.render())
            save_scores(scores, os.path.join(tmp, f"scores_level{level}.txt"))
            reports[level] = report
        whitening.save_whitener(full, os.path.join(tmp, "whitener.txt"))
        with open(os.path.join(tmp, "comparison.txt"), "w", encoding="utf-8") as fh:
            for h in header:
                fh.write(f"#{h}\n")
            fh.write(comparison_table(cfg, reports))
        for name in sorted(os.listdir(tmp)):
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return reports


def write_world(world: SynthWorld, out_dir, config_hash: str = "") -> list[str]:
    """Serialize a synthetic world plus its manifest; returns written names."""
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "vectors_ood.txt": lambda p: save_vector_table(world.ood_labeled, p),
        "vectors_unlabeled.txt": lambda p: save_vector_table(world.indomain_unlabeled, p),
        "vectors_enroll.txt": lambda p: save_vector_table(world.enroll, p),
        "vectors_test.txt": lambda p: save_vector_table(world.test, p),
        "trials.txt": lambda p: save_trials(world.trials, p),
    }
    for name, writer in files.items():
        writer(os.path.join(out_dir, name))
    cfg = world.config
    lines = [f"#config_hash={config_hash}"] if config_hash else []
    lines += [f"file\t{name}" for name in files]
    lines += [f"config.{key}\t{value}" for key, value in cfg.scalars().items()]
    for s in cfg.ood_subcorpora:
        lines.append(f"config.subcorpus\t{s.corpus_id}:{s.n_speakers}:"
                     f"{s.sessions_per_speaker}:{s.mean_shift}")
    with open(os.path.join(out_dir, "world-manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return list(files) + ["world-manifest.txt"]
