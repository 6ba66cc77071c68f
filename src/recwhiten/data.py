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
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

LABELS = ("target", "nontarget", "unknown")

MISSING_SPEAKER = "-"

_MAX_DIM = np.iinfo(np.intp).max  # the largest length of a numpy array axis

_fmt = "{:.17g}".format  # enough digits for every float64 to read back bit for bit


class ConfigError(ValueError):
    """Bad configuration value or command-line option (CLI exit 2)."""


class DataError(ValueError):
    """Malformed or inconsistent corpus/trial/score/model data (CLI exit 3)."""


class NumericalError(ArithmeticError):
    """Numerical failure: non-SPD matrix, degenerate input (CLI exit 4)."""


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
    unique and every label is one of LABELS. Each id column is factored once:
    `models` and `tests` hold its sorted distinct ids and `model_codes` and
    `test_codes` each trial's position in them, so that models[model_codes]
    equals model_ids and tests[test_codes] equals test_ids.
    """

    model_ids: np.ndarray
    test_ids: np.ndarray
    labels: np.ndarray
    models: np.ndarray = field(init=False, repr=False)
    model_codes: np.ndarray = field(init=False, repr=False)
    tests: np.ndarray = field(init=False, repr=False)
    test_codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.model_ids = np.asarray(self.model_ids, dtype=str)
        self.test_ids = np.asarray(self.test_ids, dtype=str)
        self.labels = np.asarray(self.labels, dtype=str)
        if not self.model_ids.shape == self.test_ids.shape == self.labels.shape:
            raise DataError("trial columns differ in length")
        bad = ~np.isin(self.labels, LABELS)
        if bad.any():
            raise DataError(f"unknown label {str(self.labels[np.argmax(bad)])!r}")
        self.models, self.model_codes = np.unique(self.model_ids, return_inverse=True)
        self.tests, self.test_codes = np.unique(self.test_ids, return_inverse=True)
        # the codes sort as the ids do, so this stable sort orders the trials
        # as a lexsort of the id columns would
        pair = self.model_codes * len(self.tests) + self.test_codes
        order = np.argsort(pair, kind="stable")
        repeat = pair[order][1:] == pair[order][:-1]
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


def index_of(keys, distinct: np.ndarray, codes: np.ndarray, missing: str) -> np.ndarray:
    """Position in keys of each value of a factored column, given as its
    sorted distinct values and each row's code into them; a value keys lack
    raises DataError with the message prefix `missing`."""
    where = {k: i for i, k in enumerate(keys)}
    try:
        found = np.array([where[k] for k in distinct.tolist()], dtype=np.intp)
    except KeyError as e:
        raise DataError(f"{missing} {e.args[0]!r}") from None
    return found[codes]


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


def _rows(lines, n_fields: int, floats: int | None, dim: int | None, where: str = ""):
    """The text columns and (rows, dim) float matrix of numbered lines of
    n_fields tab-separated fields, field `floats` holding dim floats (None:
    as many as the first row's); each DataError names the line."""
    rows, values = [], array("d")
    for lineno, line in lines:
        parts = line.split("\t")
        if len(parts) != n_fields:
            raise DataError(f"expected {n_fields} tab-separated fields{where} at line {lineno}")
        # string arrays drop trailing NULs, which would alias two ids
        if "\0" in line:
            raise DataError(f"NUL character{where} at line {lineno}")
        if floats is not None:
            try:
                values.extend(map(float, parts.pop(floats).split()))
            except ValueError:
                raise DataError(f"bad float{where} at line {lineno}") from None
            dim = dim or len(values)
            if len(values) != (len(rows) + 1) * dim:
                raise DataError(f"dimension mismatch{where} at line {lineno}")
        rows.append(parts)
    columns = list(zip(*rows)) or [()] * (n_fields - (floats is not None))
    return columns, np.frombuffer(values).reshape(-1, dim or 1)


def read_blocks(path) -> list[tuple[int, str, list[tuple[int, str]]]]:
    """The header's line number, the header and the numbered non-blank lines
    of each block of a model file. A header starts with '[' and holds no
    tab, so a tab-separated row whose first field starts with '[' stays a row."""
    blocks: list[tuple[int, str, list[tuple[int, str]]]] = []
    for lineno, line in _lines(path):
        if line.startswith("[") and "\t" not in line:
            blocks.append((lineno, line, []))
        elif not blocks:
            raise DataError(f"data before first block header at line {lineno}")
        else:
            blocks[-1][2].append((lineno, line))
    return blocks


def block_rows(block, name: str, n_fields=1, floats: int | None = 0, dim: int | None = None):
    """_rows of a block from read_blocks, named in messages; floats finite."""
    columns, matrix = _rows(block[2], n_fields, floats, dim, f" in {name}")
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise DataError(f"non-finite value in {name} at line {block[2][np.argmax(bad)][0]}")
    return columns, matrix


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
    """_rows of a table's lines less its comments, among which a vector
    table's #dim= header comes before its first row."""
    lines, dim, first = _lines(path), None if header else 1, []
    for lineno, line in lines:
        if line[0] != "#":
            first = [(lineno, line)]
            break
        dim = header and _dim_header(lineno, line) or dim
    if dim is None:
        raise DataError(f"data before #dim= header at line {first[0][0]}" if first
                        else "missing #dim= header")
    # a comment after the first row is skipped, and a #dim= header there refused
    rest = (row for row in lines if row[1][0] != "#" or header and _dim_header(*row, after=True))
    return _rows(chain(first, rest), n_fields, floats, dim)


def _dim_header(lineno: int, line: str, after: bool = False) -> int | None:
    """d of a '#dim=<d>' line before the first row, None for another comment."""
    if not line.startswith("#dim="):
        return None
    if after or not line[5:].isdecimal() or not 1 <= int(line[5:]) <= _MAX_DIM:
        raise DataError(f"malformed or misplaced header at line {lineno}: {line!r}")
    return int(line[5:])


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
