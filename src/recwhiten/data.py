"""Data model and text I/O for embedding tables, trial lists and score files.

Every kind is held as columns: a vector set is one array each of ids, corpus
ids and speaker ids next to one ``(n, dim)`` matrix, and ``-``
(MISSING_SPEAKER) marks an unlabeled vector both in memory and on disk;
trials and scores are one array each of model ids, test ids, labels and scores.

These three tables and the whitener and PLDA model files are UTF-8 text with
tab-separated fields and floats at 17 significant digits, which read back bit
for bit. Blank lines are skipped; lines starting with ``#`` are comments in the
tables only, and a vector table's ``#dim=<d>`` header comes before its rows. An
id or tag may be empty and hold any character but tab, LF, CR and NUL; a table
row may not start with ``#``. What would not read back, a save refuses with
DataError before it creates the file.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LABELS = ("target", "nontarget", "unknown")

MISSING_SPEAKER = "-"

_fmt = "{:.17g}".format  # enough digits for every float64 to read back bit for bit


class DataError(ValueError):
    """Malformed or inconsistent corpus/trial/score data."""


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


def same_dim(sets: list[VectorSet]) -> None:
    """Raise DataError unless every set has the same dimension."""
    if len({s.dim for s in sets}) > 1:
        raise DataError(f"mixed dimensions: {sorted({s.dim for s in sets})}")


def concat(sets: list[VectorSet]) -> VectorSet:
    """One set holding the vectors of every set, in order."""
    same_dim(sets)
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


def _lines(path):
    """The number and the text, LF stripped, of each non-blank line of a
    UTF-8 file; DataError naming the file if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.strip():
                    yield lineno, raw.rstrip("\n")
    except UnicodeDecodeError:
        raise DataError(f"{path} is not UTF-8 text") from None


def read_blocks(path) -> list[tuple[str, list[str]]]:
    """The (header line, non-blank lines) of each block of a model file. A
    header starts with '[' and holds no tab, so a tab-separated row whose
    first field starts with '[' stays a row."""
    blocks: list[tuple[str, list[str]]] = []
    for _, line in _lines(path):
        if line.startswith("[") and "\t" not in line:
            blocks.append((line, []))
        elif not blocks:
            raise DataError("data before first block header")
        else:
            blocks[-1][1].append(line)
    return blocks


def format_floats(values: np.ndarray) -> str:
    """The one float-row format: space-separated, 17 significant digits."""
    return " ".join(map(_fmt, values.tolist()))


# what splits or ends a line, is lost in a numpy string array or is not UTF-8
_UNSAFE = re.compile("[\t\n\r\0\ud800-\udfff]")


def _fields(column) -> list[str] | map:
    """One field a row of a column (a list or array): text as it is, a float
    as one number, a matrix row as a float row; DataError for a value that
    would not read back."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        if not np.isfinite(column).all():
            raise DataError("non-finite value")
        return map(format_floats, column) if column.ndim == 2 else map(_fmt, column.tolist())
    text = column.tolist() if isinstance(column, np.ndarray) else column
    joined = "".join(text)  # `in` is far faster than the regex, which only surrogates need
    if any(c in joined for c in "\t\n\r\0") or not joined.isascii() and _UNSAFE.search(joined):
        bad = next(v for v in text if _UNSAFE.search(v))
        raise DataError(f"field {bad!r} holds a tab, line break, NUL or surrogate")
    return text


def write_blocks(path, blocks: list[tuple[list[str], list]]) -> None:
    """Write each block's header lines, then one line per row of its columns
    with the fields joined by tabs, streamed once every field has been checked."""
    blocks = [(_fields(header), [_fields(c) for c in columns])
              for header, columns in blocks]
    with open(path, "w", encoding="utf-8") as fh:
        for header, columns in blocks:
            fh.writelines(line + "\n" for line in header)
            fh.writelines("\t".join(row) + "\n" for row in zip(*columns))


def _write_table(path, header: list[str], columns: list) -> None:
    """write_blocks for one table, whose rows may not start with '#'."""
    comment = np.char.startswith(columns[0], "#")
    if comment.any():
        raise DataError(f"{str(columns[0][comment][0])!r} would start a comment line")
    write_blocks(path, [(header, columns)])


def _read_table(path, n_fields: int, floats: int | None = None, header: bool = False):
    """The text columns and (rows, dim) float matrix of a table of n_fields
    fields, field `floats` holding a row's floats; a vector table has a header."""
    dim = None if header else 1
    rows, values = [], array("d")
    for lineno, line in _lines(path):
        if line.startswith("#"):
            if header and line.startswith("#dim="):
                if rows or not line[5:].isdecimal() or int(line[5:]) < 1:
                    raise DataError(f"malformed or misplaced header at line {lineno}: {line!r}")
                dim = int(line[5:])
            continue
        if dim is None:
            raise DataError(f"data before #dim= header at line {lineno}")
        parts = line.split("\t")
        if len(parts) != n_fields:
            raise DataError(f"expected {n_fields} tab-separated fields at line {lineno}")
        # string arrays drop trailing NULs, which would alias two ids
        if "\0" in line:
            raise DataError(f"NUL character at line {lineno}")
        if floats is not None:
            try:
                values.extend(map(float, parts.pop(floats).split()))
            except ValueError:
                raise DataError(f"bad float at line {lineno}") from None
            if len(values) != (len(rows) + 1) * dim:
                raise DataError(f"dimension mismatch at line {lineno}")
        rows.append(parts)
    if dim is None:
        raise DataError("missing #dim= header")
    columns = list(zip(*rows)) or [()] * (n_fields - (floats is not None))
    return columns, np.frombuffer(values).reshape(-1, dim)


def load_vector_table(path) -> VectorSet:
    """Parse a vector table file; see the module docstring for the format."""
    (ids, corpora, speakers), values = _read_table(path, 4, floats=3, header=True)
    return VectorSet(ids, corpora, speakers, values)


def save_vector_table(vset: VectorSet, path) -> None:
    _write_table(path, [f"#dim={vset.dim}"],
                 [vset.ids, vset.corpus_ids, vset.speaker_ids, vset.matrix()])


def load_trials(path) -> TrialList:
    (model, test, label), _ = _read_table(path, 3)
    return TrialList(model, test, label)


def save_trials(tlist: TrialList, path) -> None:
    _write_table(path, [], [tlist.model_ids, tlist.test_ids, tlist.labels])


def load_scores(path) -> ScoreSet:
    (model, test, label), scores = _read_table(path, 4, floats=2)
    return ScoreSet(TrialList(model, test, label), scores[:, 0])


def save_scores(sset: ScoreSet, path) -> None:
    tl = sset.trials
    _write_table(path, [], [tl.model_ids, tl.test_ids, sset.scores, tl.labels])
