"""Single-stage and recursive whitening.

Each stage centers, multiplies by the whitening matrix of its fitting corpus
and length-normalizes. At levels >= 1 the fitting corpus is chosen from a set
of candidates by maximum aggregate Gaussian log-likelihood of the
target-domain vectors, all measured in the space produced by the previous
stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, VectorSet, _fmt, parse_matrix, read_blocks
from .stats import Moments, estimate_moments, gaussian_loglik_many, whitening_matrix

ZERO_NORM_EPS = 1e-12


class WhitenError(ArithmeticError):
    """Degenerate vector or stage during whitening."""


def length_normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm; refuses near-zero vectors."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm <= ZERO_NORM_EPS:
        raise WhitenError("zero-norm vector cannot be length-normalized")
    return v / norm


@dataclass
class WhiteningStage:
    level: int
    corpus_id: str
    mean: np.ndarray
    w: np.ndarray  # d x d whitening matrix

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.w = np.asarray(self.w, dtype=float)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass
class CorpusLevel:
    """Candidate sub-corpora offered to one recursion level."""

    level: int
    candidates: list[tuple[str, VectorSet]]

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("candidate levels start at 1")
        if not self.candidates:
            raise ValueError(f"level {self.level} has no candidates")


@dataclass
class LevelSelection:
    """Log-likelihood table and winner for one recursion level."""

    level: int
    logliks: list[tuple[str, float]]  # candidate corpus_id -> aggregate loglik
    chosen: int  # index into logliks


@dataclass
class RecursiveWhitener:
    stages: list[WhiteningStage]
    selection_log: list[LevelSelection] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return self.stages[0].dim


def fit_stage(data: VectorSet, level: int = 0, shrinkage: float | None = None) -> WhiteningStage:
    """Fit one whitening stage on a corpus (moments + Cholesky whitening),
    named after the corpus id of its first vector."""
    if len(data) == 0:
        raise DataError("cannot fit a whitening stage on an empty set")
    m = estimate_moments(data.matrix(), str(data.corpus_ids[0]), shrinkage)
    return WhiteningStage(level, m.corpus_id, m.mean, whitening_matrix(m))


def apply_stage(stage: WhiteningStage, v: np.ndarray) -> np.ndarray:
    """Center and whiten, no normalization: W (v - mean)."""
    v = np.asarray(v, dtype=float)
    if v.shape != stage.mean.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {stage.mean.shape}")
    return stage.w @ (v - stage.mean)


def apply_stage_many(stage: WhiteningStage, x: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=float) - stage.mean) @ stage.w.T


def select_subcorpus(candidates: list[Moments], targets: np.ndarray):
    """Pick the candidate maximizing the summed log-density of the targets.

    Returns (chosen index, list of per-candidate aggregate log-likelihoods).
    Ties resolve to the lowest index.
    """
    if not candidates:
        raise ValueError("no candidates")
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[0] < 1:
        raise ValueError("need at least one target vector")
    table = [float(np.sum(gaussian_loglik_many(m, targets))) for m in candidates]
    chosen = int(np.argmax(table))  # argmax keeps the first of equals
    return chosen, table


def transform(whitener: RecursiveWhitener, v: np.ndarray) -> np.ndarray:
    """Fold v through every stage: center, whiten, length-normalize."""
    out = np.asarray(v, dtype=float)
    for stage in whitener.stages:
        out = length_normalize(apply_stage(stage, out))
    return out


def transform_matrix(whitener: RecursiveWhitener, x: np.ndarray) -> np.ndarray:
    """Batch transform of the rows of an (n, d) array."""
    out = np.asarray(x, dtype=float)
    for stage in whitener.stages:
        out = apply_stage_many(stage, out)
        norms = np.linalg.norm(out, axis=1)
        if np.any(norms <= ZERO_NORM_EPS):
            bad = int(np.argmin(norms))
            raise WhitenError(f"zero-norm vector at row {bad} during whitening")
        out = out / norms[:, None]
    return out


def transform_set(whitener: RecursiveWhitener, vset: VectorSet) -> VectorSet:
    """Element-wise transform; ids, corpus and speaker tags preserved."""
    if vset.dim != whitener.dim:
        raise DataError(f"whitener has dimension {whitener.dim}, vectors have {vset.dim}")
    return VectorSet(vset.ids, vset.corpus_ids, vset.speaker_ids,
                     transform_matrix(whitener, vset.matrix()))


def fit_recursive(in_domain: VectorSet, levels: list[CorpusLevel],
                  targets: VectorSet, shrinkage: float | None = None) -> RecursiveWhitener:
    """Fit stage 0 on the in-domain set, then one stage per candidate level.

    At level i every candidate corpus and the target vectors are pushed
    through stages 0..i-1 (normalization included), per-candidate moments are
    estimated in that space, the maximum-likelihood candidate is selected and
    stage i is fitted on its transformed vectors.
    """
    dims = {in_domain.dim, targets.dim} | {vs.dim for lv in levels for _, vs in lv.candidates}
    if len(dims) > 1:
        raise ValueError(f"mixed dimensions across corpora: {sorted(dims)}")
    expected = list(range(1, len(levels) + 1))
    if [lv.level for lv in levels] != expected:
        raise ValueError("candidate levels must be ordered 1..L")

    whitener = RecursiveWhitener([fit_stage(in_domain, 0, shrinkage)])
    target_mat = targets.matrix()
    for lv in levels:
        t = transform_matrix(whitener, target_mat)
        cand_mats = [transform_matrix(whitener, vs.matrix()) for _, vs in lv.candidates]
        moments = [
            estimate_moments(mat, cid, shrinkage)
            for (cid, _), mat in zip(lv.candidates, cand_mats)
        ]
        chosen, table = select_subcorpus(moments, t)
        whitener.selection_log.append(LevelSelection(
            lv.level, [(m.corpus_id, ll) for m, ll in zip(moments, table)], chosen))
        m = moments[chosen]
        whitener.stages.append(WhiteningStage(
            lv.level, m.corpus_id, m.mean, whitening_matrix(m)))
    return whitener


# --- serialization ---------------------------------------------------------

def save_whitener(whitener: RecursiveWhitener, path) -> None:
    """Text serialization: one block per stage, then the selection log."""
    with open(path, "w", encoding="utf-8") as fh:
        for stage in whitener.stages:
            fh.write(f"[stage {stage.level} {stage.corpus_id}]\n")
            fh.write(" ".join(_fmt(v) for v in stage.mean) + "\n")
            for row in stage.w:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")
        for sel in whitener.selection_log:
            fh.write(f"[selection {sel.level}]\n")
            for i, (cid, ll) in enumerate(sel.logliks):
                mark = "chosen" if i == sel.chosen else "-"
                fh.write(f"{cid}\t{_fmt(ll)}\t{mark}\n")


def _block_header(line: str) -> tuple[str, int, str]:
    """Kind, level and corpus id of a '[stage <level> <corpus id>]' or
    '[selection <level>]' line; the corpus id may be empty or hold spaces."""
    kind, _, rest = line[1:-1].partition(" ")
    if not line.endswith("]") or kind not in ("stage", "selection"):
        raise DataError(f"unknown block {line!r}")
    level, _, corpus_id = rest.partition(" ")
    try:
        return kind, int(level), corpus_id
    except ValueError:
        raise DataError(f"block header without a level: {line!r}") from None


def load_whitener(path) -> RecursiveWhitener:
    stages: list[WhiteningStage] = []
    selections: list[LevelSelection] = []
    for header, block in read_blocks(path):
        kind, level, corpus_id = _block_header(header)
        where = f"in {kind} block for level {level}"
        if kind == "stage":
            m = parse_matrix(block, where)  # the mean row over the square matrix
            if m.shape[0] != m.shape[1] + 1:
                raise DataError(f"stage {level} matrix is not square")
            stages.append(WhiteningStage(level, corpus_id, m[0], m[1:]))
            continue
        logliks, chosen = [], None
        for line in block:
            try:
                cid, ll, mark = line.split("\t")
                logliks.append((cid, float(ll)))
            except ValueError:
                raise DataError(f"bad selection row {where}: {line!r}") from None
            if mark == "chosen":
                chosen = len(logliks) - 1
        if not np.isfinite([ll for _, ll in logliks]).all():
            raise DataError(f"non-finite value {where}")
        if chosen is None:
            raise DataError(f"selection block for level {level} marks no winner")
        selections.append(LevelSelection(level, logliks, chosen))
    if not stages:
        raise DataError("whitener file contains no stages")
    if len({s.dim for s in stages}) > 1:
        raise DataError("whitener stages differ in dimension")
    return RecursiveWhitener(stages, selections)
