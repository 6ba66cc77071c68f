"""Data model and text I/O for embedding tables, trial lists and score files.

All three file kinds are tab-separated UTF-8. Vector tables carry a
``#dim=<d>`` header; floats are written with 17 significant digits so that
save/load round-trips are bit-exact. Every kind is held as columns: a vector
set is one array each of ids, corpus ids and speaker ids next to one
``(n, dim)`` matrix, and ``-`` (MISSING_SPEAKER) marks an unlabeled vector
both in memory and on disk; trials and scores are one array each of model
ids, test ids, labels and scores.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LABELS = ("target", "nontarget", "unknown")

MISSING_SPEAKER = "-"


class DataError(ValueError):
    """Malformed or inconsistent corpus/trial/score data."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class VectorEntry(NamedTuple):
    """One vector of a VectorSet, as listed by VectorSet.entries."""

    id: str
    corpus_id: str
    speaker_id: str  # MISSING_SPEAKER when unlabeled
    values: np.ndarray  # row view of the set's matrix


@dataclass(eq=False)
class VectorSet:
    """Fixed-dimension embeddings as columns: the id, corpus id and speaker
    id of each vector next to one read-only (n, dim) float64 matrix.

    Ids are unique and every value is finite. The matrix is `storage`, or
    with `rows` set its rows at those positions, gathered by matrix(), so
    that a subset made by take() shares its parent's storage.
    """

    ids: np.ndarray
    corpus_ids: np.ndarray
    speaker_ids: np.ndarray
    storage: np.ndarray
    rows: np.ndarray | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=str)
        self.corpus_ids = np.asarray(self.corpus_ids, dtype=str)
        self.speaker_ids = np.asarray(self.speaker_ids, dtype=str)
        self.storage = np.asarray(self.storage, dtype=float).view()
        self.storage.flags.writeable = False
        if self.storage.ndim != 2 or self.storage.shape[1] < 1:
            raise DataError(f"vectors must be (n, dim) with dim >= 1, got {self.storage.shape}")
        n = len(self.storage if self.rows is None else self.rows)
        if not self.ids.shape == self.corpus_ids.shape == self.speaker_ids.shape == (n,):
            raise DataError("vector columns differ in length")
        order = np.argsort(self.ids, kind="stable")
        repeat = self.ids[order][1:] == self.ids[order][:-1]
        if repeat.any():
            raise DataError(f"duplicate id {str(self.ids[order[1:][repeat].min()])!r}")
        bad = ~np.isfinite(self.matrix()).all(axis=1)
        if bad.any():
            raise DataError(f"non-finite value in entry {str(self.ids[np.argmax(bad)])!r}")

    @property
    def dim(self) -> int:
        return self.storage.shape[1]

    def __len__(self):
        return len(self.ids)

    def matrix(self) -> np.ndarray:
        """The set's vectors in order, as a read-only (n, dim) array."""
        if self.rows is None:
            return self.storage
        out = self.storage[self.rows]
        out.flags.writeable = False
        return out

    def take(self, index) -> VectorSet:
        """The vectors at index (positions or a boolean mask), in order,
        sharing this set's storage."""
        rows = (np.arange(len(self)) if self.rows is None else self.rows)[index]
        return VectorSet(self.ids[index], self.corpus_ids[index], self.speaker_ids[index],
                         self.storage, rows)

    @property
    def entries(self) -> list[VectorEntry]:
        """Row view: one VectorEntry per vector, in order."""
        return [VectorEntry(*row) for row in zip(
            self.ids.tolist(), self.corpus_ids.tolist(), self.speaker_ids.tolist(),
            self.matrix())]


def concat(sets: list[VectorSet]) -> VectorSet:
    """One set holding the vectors of every set, in order."""
    dims = {s.dim for s in sets}
    if len(dims) > 1:
        raise DataError(f"mixed dimensions: {sorted(dims)}")
    return VectorSet(*(np.concatenate([getattr(s, col) for s in sets])
                       for col in ("ids", "corpus_ids", "speaker_ids")),
                     np.vstack([s.matrix() for s in sets]))


@dataclass(eq=False)
class TrialList:
    """Trial columns: enrollment model id, test id and label of each trial.

    Each column is a 1-D array of strings; (model id, test id) pairs are
    unique and every label is one of LABELS.
    """

    model_ids: np.ndarray
    test_ids: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.model_ids = np.asarray(self.model_ids, dtype=str)
        self.test_ids = np.asarray(self.test_ids, dtype=str)
        self.labels = np.asarray(self.labels, dtype=str)
        if not self.model_ids.shape == self.test_ids.shape == self.labels.shape:
            raise DataError("trial columns differ in length")
        bad = ~np.isin(self.labels, LABELS)
        if bad.any():
            raise DataError(f"unknown label {str(self.labels[np.argmax(bad)])!r}")
        order = np.lexsort((self.test_ids, self.model_ids))
        m, t = self.model_ids[order], self.test_ids[order]
        repeat = (m[1:] == m[:-1]) & (t[1:] == t[:-1])
        if repeat.any():
            raise DataError(f"duplicate trial {self.key(order[1:][repeat].min())}")

    def __len__(self):
        return len(self.labels)

    def key(self, i: int) -> tuple[str, str]:
        return str(self.model_ids[i]), str(self.test_ids[i])


@dataclass(eq=False)
class ScoreSet:
    """One finite float64 score per trial of a TrialList."""

    trials: TrialList
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        if self.scores.shape != (len(self.trials),):
            raise DataError(f"{self.scores.shape} scores for {len(self.trials)} trials")
        bad = ~np.isfinite(self.scores)
        if bad.any():
            raise DataError(f"non-finite score for trial {self.trials.key(np.argmax(bad))}")

    def __len__(self):
        return len(self.trials)


def index_of(keys, column: np.ndarray, missing: str) -> np.ndarray:
    """Position in keys of each value of column; a value keys lack raises
    DataError with the message prefix `missing`."""
    where = {k: i for i, k in enumerate(keys)}
    uniq, inverse = np.unique(column, return_inverse=True)
    try:
        found = np.array([where[k] for k in uniq.tolist()], dtype=np.intp)
    except KeyError as e:
        raise DataError(f"{missing} {e.args[0]!r}") from None
    return found[inverse]


def parse_matrix(lines: list[str], where: str) -> np.ndarray:
    """Rows of whitespace-separated finite floats, all of one length."""
    try:
        rows = [[float(v) for v in line.split()] for line in lines]
    except ValueError:
        raise DataError(f"bad float {where}") from None
    if not rows or len({len(r) for r in rows}) != 1:
        raise DataError(f"empty or ragged matrix {where}")
    m = np.array(rows)
    if not np.isfinite(m).all():
        raise DataError(f"non-finite value {where}")
    return m


def read_blocks(path) -> list[tuple[str, list[str]]]:
    """The (header line, non-blank lines) of each block of a model file. A
    header starts with '[' and holds no tab, so a tab-separated row whose
    first field starts with '[' stays a row."""
    blocks: list[tuple[str, list[str]]] = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("[") and "\t" not in line:
                blocks.append((line, []))
            elif not blocks:
                raise DataError("data before first block header")
            else:
                blocks[-1][1].append(line)
    return blocks


def load_vector_table(path) -> VectorSet:
    """Parse a vector table file; see the module docstring for the format."""
    dim = None
    ids, corpora, speakers = [], [], []
    values = array("d")
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if line.startswith("#dim="):
                    try:
                        dim = int(line[len("#dim="):])
                    except ValueError:
                        dim = 0
                    if dim < 1:
                        raise DataError(f"malformed header at line {lineno}: {line!r}")
                continue
            if dim is None:
                raise DataError(f"data before #dim= header at line {lineno}")
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"expected 4 tab-separated fields at line {lineno}")
            # string arrays drop trailing NULs, which would alias two ids
            if "\0" in line:
                raise DataError(f"NUL character at line {lineno}")
            vid, corpus, speaker, coords = parts
            if not vid or any(c.isspace() for c in vid):
                raise DataError(f"bad id at line {lineno}")
            try:
                row = [float(v) for v in coords.split()]
            except ValueError:
                raise DataError(f"bad float at line {lineno}") from None
            if len(row) != dim:
                raise DataError(f"dimension mismatch at line {lineno}")
            ids.append(vid)
            corpora.append(corpus)
            speakers.append(speaker)
            values.extend(row)
    if dim is None:
        raise DataError("missing #dim= header")
    return VectorSet(ids, corpora, speakers, np.frombuffer(values).reshape(len(ids), dim))


def save_vector_table(vset: VectorSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim={vset.dim}\n")
        for vid, corpus, speaker, row in zip(vset.ids.tolist(), vset.corpus_ids.tolist(),
                                             vset.speaker_ids.tolist(), vset.matrix()):
            coords = " ".join(_fmt(v) for v in row.tolist())
            fh.write(f"{vid}\t{corpus}\t{speaker}\t{coords}\n")


def _read_columns(path, n_fields: int):
    """Line numbers and columns of a tab-separated trial or score file, whose
    last field is the trial label."""
    linenos, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != n_fields:
                raise DataError(f"expected {n_fields} tab-separated fields at line {lineno}")
            if parts[-1] not in LABELS:
                raise DataError(f"unknown label at line {lineno}: {parts[-1]!r}")
            # string arrays drop trailing NULs, which would alias two ids
            if "\0" in line:
                raise DataError(f"NUL character at line {lineno}")
            linenos.append(lineno)
            rows.append(parts)
    return linenos, list(zip(*rows)) or [()] * n_fields


def load_trials(path) -> TrialList:
    _, (model, test, label) = _read_columns(path, 3)
    return TrialList(model, test, label)


def save_trials(tlist: TrialList, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for m, t, label in zip(tlist.model_ids.tolist(), tlist.test_ids.tolist(),
                               tlist.labels.tolist()):
            fh.write(f"{m}\t{t}\t{label}\n")


def load_scores(path) -> ScoreSet:
    linenos, (model, test, score, label) = _read_columns(path, 4)
    values = []
    for lineno, text in zip(linenos, score):
        try:
            values.append(float(text))
        except ValueError:
            raise DataError(f"bad score at line {lineno}") from None
    return ScoreSet(TrialList(model, test, label), values)


def save_scores(sset: ScoreSet, path) -> None:
    tl = sset.trials
    with open(path, "w", encoding="utf-8") as fh:
        for m, t, score, label in zip(tl.model_ids.tolist(), tl.test_ids.tolist(),
                                      sset.scores.tolist(), tl.labels.tolist()):
            fh.write(f"{m}\t{t}\t{_fmt(score)}\t{label}\n")
