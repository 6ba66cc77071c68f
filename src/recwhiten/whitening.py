"""Single-stage and recursive whitening.

Each stage centers, multiplies by the whitening matrix of its fitting corpus
and length-normalizes. At levels >= 1 the fitting corpus is chosen from a set
of candidates by maximum aggregate Gaussian log-likelihood of the
target-domain vectors, all measured in the space produced by the previous
stages.

transform_set extends the last prefix it applied to a live VectorSet: if a
whitener's stages start with those stage objects, only the rest are applied,
to the remembered output, bit-identically. One output is held per live set.

transform_matrix cuts the rows of a stage into blocks at multiples of
BLOCK_ROWS and hands the second half of the blocks of a large stage to the
helper thread of stats.in_halves; the cuts leave every row's bytes as one gemm
over all the rows gives them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import (DataError, NumericalError, VectorSet, block_rows, freeze, names_its_file,
                   read_blocks, write_blocks)
from .stats import Moments, estimate_moments, gaussian_loglik_many, in_halves, whitening_matrix

ZERO_NORM_EPS = 1e-12
BLOCK_ROWS = 384  # a multiple of a gemm's row groups (see transform_matrix)
_LAST_TRANSFORM = weakref.WeakKeyDictionary()  # VectorSet -> (stages applied, output)


@dataclass(frozen=True)
class WhiteningStage:
    """One stage; DataError unless mean and w are finite and w is d x d and of
    rank d (matrix_rank). Fields and arrays are read-only."""

    level: int
    corpus_id: str
    mean: np.ndarray
    w: np.ndarray  # d x d whitening matrix

    def __post_init__(self):
        freeze(self, mean=np.array(self.mean, dtype=float), w=np.array(self.w, dtype=float))
        if self.w.shape != (self.dim, self.dim):
            raise DataError(f"stage {self.level} matrix is not {self.dim} x {self.dim}")
        if not np.isfinite(self.mean).all():
            raise DataError(f"non-finite value in stage {self.level} mean")
        if not np.isfinite(self.w).all():
            raise DataError(f"non-finite value in stage {self.level} matrix")
        if np.linalg.matrix_rank(self.w) < self.dim:
            raise DataError(f"stage {self.level} matrix is singular")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass
class CorpusLevel:
    """Candidate sub-corpora offered to one recursion level."""

    level: int
    candidates: list[tuple[str, VectorSet]]


@dataclass(frozen=True)
class LevelSelection:
    """Finite log-likelihood table and winner of one recursion level; read-only."""

    level: int
    logliks: tuple[tuple[str, float], ...]  # candidate corpus_id -> aggregate loglik
    chosen: int  # index into logliks

    def __post_init__(self):
        freeze(self, logliks=tuple(map(tuple, self.logliks)))
        if self.chosen not in range(len(self.logliks)):
            raise DataError(f"selection {self.level} chosen row {self.chosen} out of range")
        if not np.isfinite([ll for _, ll in self.logliks]).all():
            raise DataError(f"non-finite log-likelihood in selection {self.level}")


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


def select_subcorpus(candidates: list[Moments], targets: np.ndarray):
    """Pick the candidate maximizing the summed log-density of the targets.

    Returns (chosen index, list of per-candidate aggregate log-likelihoods).
    Ties resolve to the lowest index.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[0] < 1:
        raise DataError("need at least one target vector")
    table = [float(np.sum(gaussian_loglik_many(m, targets))) for m in candidates]
    chosen = int(np.argmax(table))  # argmax keeps the first of equals
    return chosen, table


def transform_matrix(whitener: RecursiveWhitener, x: np.ndarray) -> np.ndarray:
    """Batch transform of the rows of an (n, d) array, stage by stage into an
    output and a scratch block per half allocated here (x is never written).

    A gemm computes its rows in groups (of 12 in OpenBLAS on AVX-512), and
    the rows of a call's last group, or of a call of one row or a few, can
    round otherwise than the same rows in a longer call. So each stage runs
    over blocks that start at multiples of BLOCK_ROWS from row 0, the last
    block taking the remainder (up to 2 * BLOCK_ROWS - 1 rows): every row
    falls in the same group as in one gemm over all n rows, and the last
    rows in the same last group, so the blocks change no byte. A large stage
    hands the second half of its blocks to the helper thread of
    stats.in_halves. The zero-norm check reads the whole norms array after
    each stage, so it names the row of smallest norm, as one pass would."""
    x = np.asarray(x, dtype=float)
    if not whitener.stages:
        return x.copy()
    n, d = x.shape
    blocks = max(1, n // BLOCK_ROWS)
    out, norms = np.empty((n, d)), np.empty(n)
    scratch = np.empty((2, min(n, 2 * BLOCK_ROWS - 1), d))

    def stage_blocks(stage, src, which):
        centered = scratch[0 if which.start == 0 else 1]
        for b in range(which.start, which.stop):
            rows = slice(b * BLOCK_ROWS, n if b == blocks - 1 else (b + 1) * BLOCK_ROWS)
            c, o, norm = centered[:rows.stop - rows.start], out[rows], norms[rows]
            if src is out:  # the previous stage's rows, length-normalized here
                np.divide(o, norm[:, None], out=o)
            np.subtract(src[rows], stage.mean, out=c)
            np.matmul(c, stage.w.T, out=o)
            np.multiply(o, o, out=c)
            np.sqrt(np.add.reduce(c, axis=1, out=norm), out=norm)  # np.linalg.norm's sum

    src = x
    for stage in whitener.stages:
        in_halves(partial(stage_blocks, stage, src), blocks, n * d * d)
        if np.any(norms <= ZERO_NORM_EPS):
            bad = int(np.argmin(norms))
            raise NumericalError(f"zero-norm vector at row {bad} during whitening")
        src = out
    out /= norms[:, None]
    return out


def transform_set(whitener: RecursiveWhitener, vset: VectorSet) -> VectorSet:
    """Element-wise transform, ids and tags kept; extends the set's last prefix (module doc)."""
    if vset.dim != whitener.dim:
        raise DataError(f"whitener has dimension {whitener.dim}, vectors have {vset.dim}")
    done, out = _LAST_TRANSFORM.get(vset) or ((), vset.matrix())
    if len(done) > len(whitener.stages) or any(a is not b for a, b in zip(done, whitener.stages)):
        done, out = (), vset.matrix()
    if len(done) < len(whitener.stages):
        out = transform_matrix(RecursiveWhitener(whitener.stages[len(done):]), out)
        out.flags.writeable = False
    _LAST_TRANSFORM[vset] = (tuple(whitener.stages), out)
    return VectorSet(vset.ids, vset.corpus_ids, vset.speaker_ids, out)


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

def _check_chosen(sel: LevelSelection, stage: WhiteningStage, where: str = "") -> None:
    """DataError unless the chosen row of sel names the corpus stage is fitted on."""
    cid = sel.logliks[sel.chosen][0]
    if cid != stage.corpus_id:
        raise DataError(f"selection block for level {sel.level}{where} marks {cid!r} "
                        f"chosen, but stage {sel.level} is fitted on {stage.corpus_id!r}")


def save_whitener(whitener: RecursiveWhitener, path) -> None:
    """Text serialization: one block per stage, then the selection log. DataError,
    before the file is created, unless the stages share one dimension, the stage
    levels are 0..n-1 with n >= 1 and the selection levels 1..m with m < n, each
    choosing its stage's corpus."""
    stages, log = whitener.stages, whitener.selection_log
    if len({s.dim for s in stages}) > 1:
        raise DataError(f"whitener stages differ in dimension: {[s.dim for s in stages]}")
    levels = [s.level for s in stages], [sel.level for sel in log]
    if len(log) >= len(stages) or levels != (list(range(len(stages))),
                                             list(range(1, len(log) + 1))):
        raise DataError(f"whitener stage levels {levels[0]} and selection levels {levels[1]} "
                        "break the file order")
    blocks = [([f"[stage {s.level} {s.corpus_id}]"], [np.vstack([s.mean, s.w])]) for s in stages]
    for sel in log:
        _check_chosen(sel, stages[sel.level])
        cids = [cid for cid, _ in sel.logliks]
        marks = ["chosen" if i == sel.chosen else "-" for i in range(len(cids))]
        blocks.append(([f"[selection {sel.level}]"],
                       [cids, np.array([ll for _, ll in sel.logliks], dtype=float), marks]))
    write_blocks(path, blocks)


@names_its_file
def load_whitener(path) -> RecursiveWhitener:
    """A whitener file as save_whitener writes it, each block checked as it is
    read against the one header save writes next: after s stages and k
    selections, '[stage <s> <corpus id>]' while k = 0 (the corpus id maybe empty
    or with spaces) or '[selection <k+1>]' while k + 1 < s. A selection block
    marks one row 'chosen', naming the corpus of its stage, and the others '-'."""
    stages, selections = [], []
    for block in read_blocks(path):
        lineno, head, _ = block
        s, k = len(stages), len(selections)
        if not k and head.startswith(f"[stage {s} ") and head.endswith("]"):
            _, m = block_rows(block, f"stage block for level {s}")
            if m.shape[0] != m.shape[1] + 1:  # the mean row over the square matrix
                raise DataError(f"stage {s} matrix is not square (block at line {lineno})")
            if stages and m.shape[1] != stages[0].dim:
                raise DataError(f"whitener stages differ in dimension at line {lineno}")
            stages.append(WhiteningStage(s, head[len(f"[stage {s} "):-1], m[0], m[1:]))
        elif k + 1 < s and head == f"[selection {k + 1}]":
            where = f"selection block for level {k + 1}"
            (cids, marks), ll = block_rows(block, where, n_fields=3, floats=1, dim=1)
            chosen = [i for i, mark in enumerate(marks) if mark != "-"]
            if [marks[i] for i in chosen] != ["chosen"]:
                raise DataError(f"{where} at line {lineno} must mark one 'chosen' row, others '-'")
            selections.append(LevelSelection(k + 1, list(zip(cids, ll[:, 0].tolist())), chosen[0]))
            _check_chosen(selections[-1], stages[k + 1], f" at line {lineno}")
        else:
            raise DataError(f"block out of level order at line {lineno}: {head!r}")
    if not stages:
        raise DataError("whitener file contains no stages")
    return RecursiveWhitener(stages, selections)
