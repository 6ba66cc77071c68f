"""Data model and text I/O for embedding tables, trial lists and score files.

All three file kinds are tab-separated UTF-8. Vector tables carry a
``#dim=<d>`` header; floats are written with 17 significant digits so that
save/load round-trips are bit-exact. Trials and scores are held as columns:
one array each of model ids, test ids, labels and scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LABELS = ("target", "nontarget", "unknown")

MISSING_SPEAKER = "-"


class DataError(ValueError):
    """Malformed or inconsistent corpus/trial/score data."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class VectorEntry:
    id: str
    corpus_id: str
    speaker_id: str | None
    values: np.ndarray  # 1-D float64, length == owning set's dim


@dataclass
class VectorSet:
    """A collection of fixed-dimension embeddings with corpus/speaker tags."""

    dim: int
    entries: list[VectorEntry] = field(default_factory=list)

    def __post_init__(self):
        if self.dim < 1:
            raise DataError(f"dim must be positive, got {self.dim}")
        seen = set()
        for e in self.entries:
            if e.id in seen:
                raise DataError(f"duplicate id {e.id!r}")
            seen.add(e.id)
            if e.values.shape != (self.dim,):
                raise DataError(
                    f"entry {e.id!r} has dimension {e.values.shape}, expected ({self.dim},)"
                )
            if not np.all(np.isfinite(e.values)):
                raise DataError(f"non-finite value in entry {e.id!r}")

    def __len__(self):
        return len(self.entries)

    @property
    def ids(self) -> list[str]:
        return [e.id for e in self.entries]

    def matrix(self) -> np.ndarray:
        """Stack all vectors into an (n, dim) array."""
        if not self.entries:
            return np.empty((0, self.dim))
        return np.stack([e.values for e in self.entries])

    def with_vectors(self, vectors: np.ndarray) -> "VectorSet":
        """Same ids/corpus/speaker tags, replaced coordinates."""
        if vectors.shape[0] != len(self.entries):
            raise DataError("vector count mismatch")
        dim = vectors.shape[1] if vectors.ndim == 2 else self.dim
        entries = [
            VectorEntry(e.id, e.corpus_id, e.speaker_id, np.asarray(vectors[i], dtype=float))
            for i, e in enumerate(self.entries)
        ]
        return VectorSet(dim, entries)


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


def parse_floats(text: str, where: str) -> np.ndarray:
    """Whitespace-separated floats; DataError says `where` on a bad token."""
    try:
        return np.array([float(v) for v in text.split()])
    except ValueError:
        raise DataError(f"bad float {where}") from None


def parse_matrix(lines: list[str], where: str) -> np.ndarray:
    """Rows of whitespace-separated floats, all of one length."""
    rows = [parse_floats(line, where) for line in lines]
    if not rows or len({r.shape for r in rows}) != 1:
        raise DataError(f"empty or ragged matrix {where}")
    return np.stack(rows)


def load_vector_table(path) -> VectorSet:
    """Parse a vector table file; see the module docstring for the format."""
    dim = None
    entries = []
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
                        raise DataError(f"malformed header at line {lineno}: {line!r}")
                continue
            if dim is None:
                raise DataError(f"data before #dim= header at line {lineno}")
            parts = line.split("\t")
            if len(parts) != 4:
                raise DataError(f"expected 4 tab-separated fields at line {lineno}")
            vid, corpus, speaker, coords = parts
            if not vid or any(c.isspace() for c in vid):
                raise DataError(f"bad id at line {lineno}")
            vec = parse_floats(coords, f"at line {lineno}")
            if vec.shape != (dim,):
                raise DataError(f"dimension mismatch at line {lineno}")
            if not np.all(np.isfinite(vec)):
                raise DataError(f"non-finite value at line {lineno}")
            spk = None if speaker == MISSING_SPEAKER else speaker
            entries.append(VectorEntry(vid, corpus, spk, vec))
    if dim is None:
        raise DataError("missing #dim= header")
    return VectorSet(dim, entries)


def save_vector_table(vset: VectorSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim={vset.dim}\n")
        for e in vset.entries:
            spk = e.speaker_id if e.speaker_id is not None else MISSING_SPEAKER
            coords = " ".join(_fmt(v) for v in e.values)
            fh.write(f"{e.id}\t{e.corpus_id}\t{spk}\t{coords}\n")


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
