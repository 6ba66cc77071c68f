"""Two-covariance PLDA: scatter-based training and log-likelihood-ratio scoring.

The model is the pair (AC, WC): across-class covariance of speaker means and
within-class covariance of sessions about their speaker mean. A trial is
scored as the log ratio of the joint Gaussian density of the (enroll, test)
pair under the same-speaker versus different-speaker hypotheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .data import (MISSING_SPEAKER, ConfigError, DataError, ScoreSet, TrialList, VectorSet,
                   block_rows, freeze, index_of, names_its_file, read_blocks, write_blocks)
from .stats import COV_FLOOR, check_symmetric, scatter, spd_inverse, top_eigen
from .whitening import ZERO_NORM_EPS


@dataclass(frozen=True)
class PldaModel:
    """A model that scores: mean finite, AC and WC finite, symmetric and d x d,
    rank None or in [1, d] (DataError), and _scoring_terms run once, here
    (NumericalError if not SPD, FloatingPointError).
    Fields and arrays are read-only, so the terms always match AC and WC."""

    mean: np.ndarray
    ac: np.ndarray  # across-class covariance, PSD
    wc: np.ndarray  # within-class covariance, SPD
    rank: int | None = None
    terms: tuple = field(init=False, repr=False, compare=False)  # (G, Q, const)

    def __post_init__(self):
        freeze(self, mean=np.array(self.mean, dtype=float), ac=np.array(self.ac, dtype=float),
               wc=np.array(self.wc, dtype=float))
        if not np.isfinite(self.mean).all():
            raise DataError("non-finite value in mean")
        for name, m in (("ac", self.ac), ("wc", self.wc)):
            check_symmetric(name, m, self.dim)
        if self.rank is not None and not 1 <= self.rank <= self.dim:
            raise DataError(f"rank must be in [1, {self.dim}], got {self.rank}")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            freeze(self, terms=_scoring_terms(self))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _groups(keys: np.ndarray) -> dict[str, list[int]]:
    """Row positions of each distinct key, keys in order of first appearance."""
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys.tolist()):
        groups.setdefault(key, []).append(i)
    return groups


def train_plda(data: VectorSet, rank: int | None = None) -> PldaModel:
    """Estimate mean, WC and AC from speaker-labeled vectors.

    WC is the pooled within-speaker scatter over N - S degrees of freedom
    (floored by 1e-8 I); AC the scatter of the S speaker means about the
    global mean over S - 1. With rank R set, AC is truncated to its top-R
    eigenpairs.
    """
    unlabeled = data.speaker_ids == MISSING_SPEAKER
    if unlabeled.any():
        raise DataError(f"entry {str(data.ids[np.argmax(unlabeled)])!r} has no speaker label")
    groups = _groups(data.speaker_ids).values()
    n_spk = len(groups)
    n_total = len(data)
    if n_spk < 2:
        raise DataError(f"need at least 2 speakers, got {n_spk}")
    if n_total - n_spk < 1:
        raise DataError("need at least one extra session beyond one per speaker")
    d = data.dim

    x = data.matrix()
    mean = x.mean(axis=0)
    within = np.zeros((d, d))
    spk_means = np.empty((n_spk, d))
    for i, rows in enumerate(groups):
        spk_means[i], s = scatter(x[rows])
        within += s
    wc = within / (n_total - n_spk) + COV_FLOOR * np.eye(d)
    wc = 0.5 * (wc + wc.T)

    sm = spk_means - mean
    ac = (sm.T @ sm) / (n_spk - 1)
    ac = 0.5 * (ac + ac.T)
    if rank is not None:
        if not 1 <= rank <= d:
            raise ConfigError(f"plda_rank must be in [1, {d}], got {rank}")
        vals, v = top_eigen(ac, rank)
        ac = v @ np.diag(np.clip(vals, 0.0, None)) @ v.T
        ac = 0.5 * (ac + ac.T)
    return PldaModel(mean, ac, wc, rank)


def _scoring_terms(model: PldaModel):
    """Precompute the bilinear form of the two-covariance LLR.

    With T = AC + WC and u, v the centered pair,
        LLR = const - 0.5 (u^T G u + v^T G v + 2 u^T Q v)
    where [[P, Q], [Q, P]] is the inverse of [[T, AC], [AC, T]] and
    G = P - T^-1.
    """
    t = model.ac + model.wc
    t_inv, logdet_t = spd_inverse(t)
    schur = t - model.ac @ t_inv @ model.ac
    schur = 0.5 * (schur + schur.T)
    p, logdet_s = spd_inverse(schur)
    q = -t_inv @ model.ac @ p
    q = 0.5 * (q + q.T)
    const = -0.5 * (logdet_s - logdet_t)
    g = p - t_inv
    return g, q, const


def score_matrix(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> np.ndarray:
    """All-pairs LLR matrix between the rows of two vector stacks."""
    e = np.asarray(enroll, dtype=float) - model.mean
    t = np.asarray(test, dtype=float) - model.mean
    g, q, const = model.terms
    eg = np.einsum("ij,jk,ik->i", e, g, e)
    tg = np.einsum("ij,jk,ik->i", t, g, t)
    cross = (e @ q) @ t.T + ((t @ q) @ e.T).T
    return const - 0.5 * (eg[:, None] + tg[None, :] + cross)


def enroll_models(enroll: VectorSet) -> tuple[list[str], np.ndarray]:
    """Average each speaker's sessions and re-length-normalize into one
    model vector; entries without a speaker label enroll under their own id,
    which may not be a speaker id of the set (DataError).

    Each norm is one BLAS dot product of a stacked matmul, as np.linalg.norm
    of one vector computes it; a row-wise norm or einsum would round
    differently."""
    unlabeled = enroll.speaker_ids == MISSING_SPEAKER
    clash = np.isin(enroll.ids[unlabeled], enroll.speaker_ids[~unlabeled])
    if clash.any():
        raise DataError(f"unlabeled enrollment id {str(enroll.ids[unlabeled][clash][0])!r} "
                        "is also a speaker id")
    keys = np.where(unlabeled, enroll.ids, enroll.speaker_ids)
    groups = _groups(keys)
    x = enroll.matrix()
    vecs = np.empty((len(groups), enroll.dim))
    for i, rows in enumerate(groups.values()):
        vecs[i] = x[rows].mean(axis=0)
    norms = np.sqrt(np.matmul(vecs[:, None, :], vecs[:, :, None])[:, 0, 0])
    zero = norms <= ZERO_NORM_EPS
    if zero.any():
        raise DataError(f"zero-norm enrollment model {list(groups)[np.argmax(zero)]!r}")
    return list(groups), vecs / norms[:, None]


def score_trials(model: PldaModel, enroll: VectorSet, test: VectorSet,
                 trials: TrialList) -> ScoreSet:
    """Score a trial list; multi-session enrollments are averaged first."""
    if enroll.dim != model.dim or test.dim != model.dim:
        raise DataError(f"PLDA model has dimension {model.dim}, vectors {enroll.dim}/{test.dim}")
    model_ids, model_vecs = enroll_models(enroll)
    rows = index_of(model_ids, trials.model, "unresolved enrollment model")
    cols = index_of(test.ids.tolist(), trials.test, "unresolved test id")
    llr = score_matrix(model, model_vecs, test.matrix())
    return ScoreSet(trials, llr[rows, cols])


# --- serialization ---------------------------------------------------------

def save_plda(model: PldaModel, path) -> None:
    rank = "-" if model.rank is None else str(model.rank)
    write_blocks(path, [(["[mean]"], [model.mean[None]]), (["[ac]"], [model.ac]),
                        (["[wc]"], [model.wc]), (["[rank]"], [[rank]])])


@names_its_file
def load_plda(path) -> PldaModel:
    """A PLDA file as save_plda writes it: [mean] (one row), [ac], [wc] and
    [rank] (one line, '-' or str(int)), in that order."""
    blocks = read_blocks(path)
    for block, name in zip_longest(blocks, ("[mean]", "[ac]", "[wc]", "[rank]")):
        lineno, header, (numbers, lines) = block or (None, name, ([], []))
        if header != name:
            raise DataError(f"block {header!r} at line {lineno} where {name or 'none'} belongs")
        if not lines:
            raise DataError(f"missing or empty {name} block")
        if name in ("[mean]", "[rank]") and len(lines) > 1:
            raise DataError(f"extra row in {name} block at line {numbers[1]}")
    (_, (mean,)), (_, ac), (_, wc) = (block_rows(b, f"{b[1]} block") for b in blocks[:3])
    ((rank,),), _ = block_rows(blocks[3], "[rank] block", floats=None)
    # as str(int) writes it, before int() takes '+3', ' 3', '0_3', non-ASCII
    # digits or more digits than it converts
    if rank != "-" and not re.fullmatch("0|-?[1-9][0-9]{0,18}", rank):
        raise DataError(f"bad PLDA model: bad rank {rank!r} in [rank] block "
                        f"at line {blocks[3][2][0][0]}")
    try:
        return PldaModel(mean, ac, wc, None if rank == "-" else int(rank))
    except (ValueError, ArithmeticError) as e:
        raise DataError(f"bad PLDA model: {e}") from None
