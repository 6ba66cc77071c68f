"""The whole experiment against a differential oracle: run_experiment on small
synthetic configs, its whitener and score files read back, next to
oracles.run_levels, which computes the same levels one vector, one trial and
one cohort score at a time. The two sum in other orders, so they agree to a
tolerance, not to the bit: each level chooses the same candidate unless the
two best log-likelihoods tie within it, and log-likelihoods and scores agree
within it, relative or absolute.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from recwhiten.config import ExperimentConfig
from recwhiten.data import load_scores
from recwhiten.experiment import load_corpora, run_experiment
from recwhiten.synth import SubCorpusSpec, SynthConfig
from recwhiten.whitening import load_whitener

TOL = 1e-9

# about 0.1 s an example on one core, so the property adds a few seconds to tier 1
PIPELINE = settings(max_examples=30, deadline=None, database=None)


@st.composite
def configs(draw) -> ExperimentConfig:
    """Dimension 2 to 40, two to four out-of-domain sub-corpora and one to three
    hierarchy levels of one to three candidates, some of them unions, all
    requested; S-norm on or off, either selection target, automatic or fixed
    shrinkage, and PLDA at full rank or at rank 1 to d. Each sub-corpus has
    4 sessions a speaker and at least d / (2 * sub-corpora) speakers, so that
    the out-of-domain set has d / 2 speakers and 1.5 d within-speaker degrees
    of freedom: PLDA is then well conditioned enough for the tolerance."""
    d = draw(st.integers(2, 40))
    ids = ["ood_a", "ood_b", "ood_c", "ood_d"][:draw(st.integers(2, 4))]
    speakers = max(2, -(-d // (2 * len(ids))))
    synth = SynthConfig(
        dim=d, seed=draw(st.integers(0, 2 ** 16)),
        ood_subcorpora=[SubCorpusSpec(cid, speakers + draw(st.integers(0, 2)), 4,
                                      draw(st.sampled_from([0.0, 2.0, 5.0]))) for cid in ids],
        n_enroll_speakers=draw(st.integers(2, 4)), enroll_sessions=draw(st.integers(1, 2)),
        test_sessions=draw(st.integers(1, 2)), n_unlabeled=draw(st.integers(3, 30)),
        language_shift=draw(st.sampled_from([0.0, 3.0, 8.0])))
    token = st.lists(st.sampled_from(ids), min_size=1, max_size=2, unique=True).map("+".join)
    hierarchy = draw(st.lists(st.lists(token, min_size=1, max_size=3), min_size=1, max_size=3))
    cfg = ExperimentConfig(synth=synth, hierarchy=hierarchy,
                           levels=list(range(len(hierarchy) + 1)), snorm=draw(st.booleans()),
                           selection_targets=draw(st.sampled_from(["enroll_test", "unlabeled"])),
                           shrinkage=draw(st.sampled_from([None, 0.05, 0.3])),
                           plda_rank=draw(st.none() | st.integers(1, d)))
    cfg.validate()
    return cfg


def close(got, want) -> bool:
    return np.allclose(got, want, rtol=TOL, atol=TOL)


@PIPELINE
@given(configs())
def test_run_experiment_matches_the_oracle(cfg):
    corpora = load_corpora(cfg)
    selections, expected = oracles.run_levels(cfg, corpora)
    with tempfile.TemporaryDirectory() as out:
        run_experiment(cfg, out)
        log = load_whitener(os.path.join(out, "whitener.txt")).selection_log
        scores = {level: load_scores(os.path.join(out, f"scores_level{level}.txt"))
                  for level in cfg.levels}

    assert [sel.level for sel in log] == [sel.level for sel in selections]
    agree = len(cfg.levels)  # the levels whose whitening stages match
    for got, want in zip(log, selections):
        assert [cid for cid, _ in got.logliks] == [cid for cid, _ in want.logliks]
        assert close([ll for _, ll in got.logliks], [ll for _, ll in want.logliks]), got.level
        if got.chosen != want.chosen:
            # a tie within the tolerance: the stages below it may differ
            best, second = sorted((ll for _, ll in want.logliks), reverse=True)[:2]
            assert close(second, best), f"level {got.level} chose another candidate"
            agree = got.level
            break
    for level in cfg.levels[:agree]:
        assert oracles.trial_columns(scores[level].trials) == \
            oracles.trial_columns(corpora.trials)
        assert close(scores[level].scores, expected[level]), f"level {level}"
