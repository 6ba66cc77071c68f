"""Two-covariance PLDA: scatter-based training and log-likelihood-ratio scoring.

The model is the pair (AC, WC): across-class covariance of speaker means and
within-class covariance of sessions about their speaker mean. A trial is
scored as the log ratio of the joint Gaussian density of the (enroll, test)
pair under the same-speaker versus different-speaker hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, zip_longest

import numpy as np

from .data import (MISSING_SPEAKER, STR_INT, ConfigError, DataError, ScoreSet, TrialList,
                   VectorSet, block_rows, freeze, index_of, names_its_file, read_blocks,
                   write_blocks)
from .stats import COV_FLOOR, check_symmetric, in_halves, spd_inverse, top_eigen
from .whitening import ZERO_NORM_EPS

QUADRATIC_WORK = 16  # SPLIT_WORK units per einsum row·d²: a split of 2^21 of them saves 0.4-1 ms


@dataclass(frozen=True)
class PldaModel:
    """Mean, AC, WC and rank of a model that scores: its rules are checked and
    its scoring terms factored once, when it is built; fields are read-only."""

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


def _group_means(x: np.ndarray, keys: np.ndarray):
    """Rows of x grouped by key in order of first appearance: the keys, x with
    each group's rows consecutive (one gather if they are not, or x is not
    C-ordered), and each group's (start, end) rows and mean (.mean's bytes)."""
    groups: dict[str, list[int]] = {}
    for i, key in enumerate(keys.tolist()):
        groups.setdefault(key, []).append(i)
    order = np.fromiter(chain.from_iterable(groups.values()), np.intp, len(keys))
    if not x.flags.c_contiguous or (order != np.arange(len(keys))).any():
        x = x[order]
    ends = np.cumsum([len(rows) for rows in groups.values()]).tolist()
    spans, means = list(zip([0] + ends[:-1], ends)), np.empty((len(groups), x.shape[1]))
    for mu, (start, end) in zip(means, spans):
        np.divide(np.add.reduce(x[start:end], axis=0, out=mu), end - start, out=mu)
    return list(groups), x, spans, means


def train_plda(data: VectorSet, rank: int | None = None) -> PldaModel:
    """Estimate mean, WC and AC from speaker-labeled vectors.

    WC is the pooled within-speaker scatter over N - S degrees of freedom
    (floored by 1e-8 I); AC the scatter of the S speaker means about the
    global mean over S - 1. With rank R set, AC is truncated to its top-R
    eigenpairs. The loop allocates nothing per speaker: it centers into one
    buffer and runs one syrk (xc.T @ xc) into another: a gemm would round
    otherwise, and a stacked matmul, with the same bytes, is slower.
    """
    unlabeled = data.speaker_ids == MISSING_SPEAKER
    if unlabeled.any():
        raise DataError(f"entry {str(data.ids[np.argmax(unlabeled)])!r} has no speaker label")
    _, xs, spans, spk_means = _group_means(data.matrix(), data.speaker_ids)
    n_spk, n_total = len(spans), len(data)
    if n_spk < 2:
        raise DataError(f"need at least 2 speakers, got {n_spk}")
    if n_total - n_spk < 1:
        raise DataError("need at least one extra session beyond one per speaker")
    d = data.dim

    mean = data.matrix().mean(axis=0)
    within, s = np.zeros((d, d)), np.empty((d, d))
    xc = np.empty((max(end - start for start, end in spans), d))
    for mu, (start, end) in zip(spk_means, spans):
        c = np.subtract(xs[start:end], mu, out=xc[:end - start])
        within += np.matmul(c.T, c, out=s)
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
    """All-pairs LLR matrix between the rows of two vector stacks. The quadratic
    terms run in halves of each stack of 6 rows or more (stats.in_halves), as
    an einsum of 1 or 2 rows rounds otherwise at d = 2."""
    e = np.asarray(enroll, dtype=float) - model.mean
    t = np.asarray(test, dtype=float) - model.mean
    g, q, const = model.terms
    eg, tg = np.empty(len(e)), np.empty(len(t))

    def quadratic(halves):  # the first, the second or both halves of each stack
        for x, out in ((e, eg), (t, tg)):
            cuts = (0, len(x) // 2 if len(x) >= 6 else 0, len(x))
            rows = slice(cuts[halves.start], cuts[halves.stop])
            out[rows] = np.einsum("ij,jk,ik->i", x[rows], g, x[rows])
    in_halves(quadratic, 2, (e.size + t.size) * len(g) * QUADRATIC_WORK)
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
    names, _, _, vecs = _group_means(enroll.matrix(), keys)
    norms = np.sqrt(np.matmul(vecs[:, None, :], vecs[:, :, None])[:, 0, 0])
    zero = norms <= ZERO_NORM_EPS
    if zero.any():
        raise DataError(f"zero-norm enrollment model {names[np.argmax(zero)]!r}")
    return names, vecs / norms[:, None]


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
    if rank != "-" and not STR_INT.fullmatch(rank):  # numbers: the last block's, [rank]'s
        raise DataError(f"bad PLDA model: bad rank {rank!r} in [rank] block at line {numbers[0]}")
    try:
        return PldaModel(mean, ac, wc, None if rank == "-" else int(rank))
    except (ValueError, ArithmeticError) as e:
        raise DataError(f"bad PLDA model: {e}") from None
