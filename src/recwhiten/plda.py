"""Two-covariance PLDA: scatter-based training and log-likelihood-ratio scoring.

The model is the pair (AC, WC): across-class covariance of speaker means and
within-class covariance of sessions about their speaker mean. A trial is
scored as the log ratio of the joint Gaussian density of the (enroll, test)
pair under the same-speaker versus different-speaker hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (MISSING_SPEAKER, DataError, ScoreSet, TrialList, VectorSet, index_of,
                   parse_matrix, read_blocks, write_blocks)
from .stats import COV_FLOOR, cholesky_lower
from .whitening import length_normalize


@dataclass
class PldaModel:
    mean: np.ndarray
    ac: np.ndarray  # across-class covariance, PSD
    wc: np.ndarray  # within-class covariance, SPD
    rank: int | None = None

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.ac = np.asarray(self.ac, dtype=float)
        self.wc = np.asarray(self.wc, dtype=float)
        d = self.mean.shape[0]
        for name, m in (("ac", self.ac), ("wc", self.wc)):
            if m.shape != (d, d):
                raise ValueError(f"{name} shape {m.shape} does not match dim {d}")
            scale = max(np.abs(m).max(), 1.0)
            if np.abs(m - m.T).max() > 1e-12 * scale:
                raise ValueError(f"{name} not symmetric")

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
        m = x[rows]
        spk_means[i] = mu = m.mean(axis=0)
        xc = m - mu
        within += xc.T @ xc
    wc = within / (n_total - n_spk) + COV_FLOOR * np.eye(d)
    wc = 0.5 * (wc + wc.T)

    sm = spk_means - mean
    ac = (sm.T @ sm) / (n_spk - 1)
    ac = 0.5 * (ac + ac.T)
    if rank is not None:
        if not 1 <= rank <= d:
            raise ValueError(f"rank must be in [1, {d}], got {rank}")
        vals, vecs = np.linalg.eigh(ac)
        keep = np.argsort(vals)[::-1][:rank]
        vals_r = np.clip(vals[keep], 0.0, None)
        v = vecs[:, keep]
        ac = v @ np.diag(vals_r) @ v.T
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
    d = model.dim
    chol_t = cholesky_lower(t)
    t_inv = np.linalg.solve(chol_t.T, np.linalg.solve(chol_t, np.eye(d)))
    schur = t - model.ac @ t_inv @ model.ac
    schur = 0.5 * (schur + schur.T)
    chol_s = cholesky_lower(schur)
    p = np.linalg.solve(chol_s.T, np.linalg.solve(chol_s, np.eye(d)))
    q = -t_inv @ model.ac @ p
    q = 0.5 * (q + q.T)
    logdet_t = 2.0 * np.sum(np.log(np.diag(chol_t)))
    logdet_s = 2.0 * np.sum(np.log(np.diag(chol_s)))
    const = -0.5 * (logdet_s - logdet_t)
    g = p - t_inv
    return g, q, const


def score_pair(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> float:
    """LLR of (enroll, test) being same-speaker versus different-speaker."""
    e = np.asarray(enroll, dtype=float) - model.mean
    t = np.asarray(test, dtype=float) - model.mean
    if e.shape != (model.dim,) or t.shape != (model.dim,):
        raise ValueError("dimension mismatch")
    g, q, const = _scoring_terms(model)
    # cross term written as a commutative sum so swapping the pair is exact
    cross = (e @ q) @ t + (t @ q) @ e
    return float(const - 0.5 * (e @ g @ e + t @ g @ t + cross))


def score_matrix(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> np.ndarray:
    """All-pairs LLR matrix between the rows of two vector stacks."""
    e = np.asarray(enroll, dtype=float) - model.mean
    t = np.asarray(test, dtype=float) - model.mean
    g, q, const = _scoring_terms(model)
    eg = np.einsum("ij,jk,ik->i", e, g, e)
    tg = np.einsum("ij,jk,ik->i", t, g, t)
    cross = (e @ q) @ t.T + ((t @ q) @ e.T).T
    return const - 0.5 * (eg[:, None] + tg[None, :] + cross)


def enroll_models(enroll: VectorSet) -> tuple[list[str], np.ndarray]:
    """Average each speaker's sessions and re-length-normalize into one
    model vector; entries without a speaker label enroll under their own id."""
    keys = np.where(enroll.speaker_ids == MISSING_SPEAKER, enroll.ids, enroll.speaker_ids)
    groups = _groups(keys)
    x = enroll.matrix()
    vecs = np.empty((len(groups), enroll.dim))
    for i, (key, rows) in enumerate(groups.items()):
        try:
            vecs[i] = length_normalize(x[rows].mean(axis=0))
        except ArithmeticError:
            raise DataError(f"zero-norm enrollment model {key!r}")
    return list(groups), vecs


def score_trials(model: PldaModel, enroll: VectorSet, test: VectorSet,
                 trials: TrialList) -> ScoreSet:
    """Score a trial list; multi-session enrollments are averaged first."""
    if enroll.dim != model.dim or test.dim != model.dim:
        raise DataError(f"PLDA model has dimension {model.dim}, vectors {enroll.dim}/{test.dim}")
    model_ids, model_vecs = enroll_models(enroll)
    rows = index_of(model_ids, trials.model_ids, "unresolved enrollment model")
    cols = index_of(test.ids.tolist(), trials.test_ids, "unresolved test id")
    llr = score_matrix(model, model_vecs, test.matrix())
    return ScoreSet(trials, llr[rows, cols])


# --- serialization ---------------------------------------------------------

def _scoreable(model: PldaModel) -> PldaModel:
    """The model, or DataError if its scoring terms do not factor (AC + WC or
    its Schur complement not SPD) or overflow."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _scoring_terms(model)
    except (ArithmeticError, ValueError) as e:
        raise DataError(f"bad PLDA model: {e}") from None
    return model


def save_plda(model: PldaModel, path) -> None:
    _scoreable(model)
    rank = "-" if model.rank is None else str(model.rank)
    write_blocks(path, [(["[mean]"], [model.mean[None]]), (["[ac]"], [model.ac]),
                        (["[wc]"], [model.wc]), (["[rank]"], [[rank]])])


def load_plda(path) -> PldaModel:
    blocks = {header.strip("[]"): lines for header, lines in read_blocks(path)}
    for key in ("mean", "ac", "wc", "rank"):
        if not blocks.get(key):
            raise DataError(f"missing or empty [{key}] block")
    mean = parse_matrix(blocks["mean"][:1], "in [mean]")[0]
    ac = parse_matrix(blocks["ac"], "in [ac]")
    wc = parse_matrix(blocks["wc"], "in [wc]")
    rank_txt = blocks["rank"][0].strip()
    try:
        rank = None if rank_txt == "-" else int(rank_txt)
        model = PldaModel(mean, ac, wc, rank)
    except ValueError as e:
        raise DataError(f"bad PLDA model: {e}") from None
    return _scoreable(model)
