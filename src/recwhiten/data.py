"""Data model and text I/O: vector sets, trial lists and score sets held as
columns, and the one writer (format_blocks) and reader (_rows) of every file
the package writes. README "Data model" and "File formats" give their rules.
"""

from __future__ import annotations

import re
from array import array
from contextlib import suppress
from dataclasses import dataclass
from functools import wraps
from itertools import repeat
from typing import NamedTuple

import numpy as np

LABELS = ("target", "nontarget", "unknown")

MISSING_SPEAKER = "-"

_MAX_DIM = np.iinfo(np.intp).max  # the largest length of a numpy array axis

# an int as str(int) writes it, of at most 19 digits: checked before int(), which
# takes '+3', ' 3', '0_3' and non-ASCII digits and refuses more than 4300 digits
STR_INT = re.compile("0|-?[1-9][0-9]{0,18}")

_FLOAT = "%.17g"  # enough digits for every float64 to read back bit for bit


class ConfigError(ValueError):
    """Bad configuration value or command-line option (CLI exit 2)."""


class DataError(ValueError):
    """Malformed or inconsistent corpus/trial/score/model data (CLI exit 3)."""


class NumericalError(ArithmeticError):
    """Numerical failure: non-SPD matrix, degenerate input (CLI exit 4)."""


class VectorEntry(NamedTuple):
    """The id of one vector of a VectorSet, as listed by VectorSet.entries."""

    id: str


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Fixed-dimension embeddings as columns: the id, corpus id and speaker
    id of each vector next to one (n, dim) float64 matrix, storage."""

    ids: np.ndarray
    corpus_ids: np.ndarray
    speaker_ids: np.ndarray
    storage: np.ndarray

    def __post_init__(self):
        freeze(self, ids=np.array(self.ids, dtype=str),
               corpus_ids=np.array(self.corpus_ids, dtype=str),
               speaker_ids=np.array(self.speaker_ids, dtype=str),
               storage=np.asarray(self.storage, dtype=float))
        if self.storage.ndim != 2 or self.storage.shape[1] < 1:
            raise DataError(f"vectors must be (n, dim) with dim >= 1, got {self.storage.shape}")
        n = len(self.storage)
        if not self.ids.shape == self.corpus_ids.shape == self.speaker_ids.shape == (n,):
            raise DataError("vector columns differ in length")
        order = np.argsort(self.ids, kind="stable")
        repeat = self.ids[order][1:] == self.ids[order][:-1]
        if repeat.any():
            raise DataError(f"duplicate id {str(self.ids[order[1:][repeat].min()])!r}")
        bad = ~np.isfinite(self.storage).all(axis=1)
        if bad.any():
            raise DataError(f"non-finite value in entry {str(self.ids[np.argmax(bad)])!r}")

    @property
    def dim(self) -> int:
        return self.storage.shape[1]

    def __len__(self):
        return len(self.ids)

    def matrix(self) -> np.ndarray:
        """The set's vectors in order, as a read-only (n, dim) array."""
        return self.storage

    def take(self, index) -> VectorSet:
        """The vectors at index (positions or a boolean mask), in order."""
        rows = row_selection(index, len(self))
        return VectorSet(self.ids[rows], self.corpus_ids[rows], self.speaker_ids[rows],
                         self.storage[rows])

    @property
    def entries(self) -> list[VectorEntry]:
        """One VectorEntry per vector, in order: the ids, no row of the matrix."""
        return list(map(VectorEntry, self.ids.tolist()))


def row_selection(index, n: int) -> slice | np.ndarray:
    """The positions index (positions or a boolean mask) picks from n rows, in
    order: a slice when they are consecutive, so that it indexes a view, else
    an index array."""
    rows = np.arange(n)[index]
    if len(rows) and (np.diff(rows) == 1).all():
        return slice(rows[0], rows[-1] + 1)
    return rows


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


class Factored(NamedTuple):
    """The one form of a factored text column: its distinct values and each row's
    position among them. TrialList takes, keeps and saves its columns so."""
    distinct: np.ndarray
    codes: np.ndarray


@dataclass(frozen=True, eq=False, init=False)
class TrialList:
    """Trial columns: enrollment model id, test id and label of each trial,
    each given as a sequence or a Factored and kept as _factor makes it."""

    model: Factored
    test: Factored
    label: Factored

    def __init__(self, model_ids, test_ids, labels):
        model, test, label = map(_factor, (model_ids, test_ids, labels))
        if not model.codes.shape == test.codes.shape == label.codes.shape:
            raise DataError("trial columns differ in length")
        bad = np.array([v not in LABELS for v in label.distinct.tolist()], dtype=bool)[label.codes]
        if bad.any():
            raise DataError(f"unknown label {str(label.distinct[label.codes[np.argmax(bad)]])!r}")
        freeze(self, model=model, test=test, label=label)
        # the codes sort as the ids do, so this stable sort orders the trials
        # as a lexsort of the id columns would
        pair = model.codes * len(test.distinct) + test.codes
        order = np.argsort(pair, kind="stable")
        repeat = pair[order][1:] == pair[order][:-1]
        if repeat.any():
            raise DataError(f"duplicate trial {self.key(order[1:][repeat].min())}")

    def __len__(self):
        return len(self.label.codes)

    def key(self, i: int) -> tuple[str, str]:
        return tuple(str(column.distinct[column.codes[i]]) for column in (self.model, self.test))


@dataclass(frozen=True, eq=False)
class ScoreSet:
    """One finite float64 score per trial of a TrialList, in a read-only array."""

    trials: TrialList
    scores: np.ndarray

    def __post_init__(self):
        freeze(self, scores=np.array(self.scores, dtype=float))
        if self.scores.shape != (len(self.trials),):
            raise DataError(f"{self.scores.shape} scores for {len(self.trials)} trials")
        bad = ~np.isfinite(self.scores)
        if bad.any():
            raise DataError(f"non-finite score for trial {self.trials.key(np.argmax(bad))}")

    def __len__(self):
        return len(self.trials)


def freeze(obj, **fields) -> None:
    """Set fields of a dataclass, each array among them or in a tuple among
    them as a read-only view of the array's memory, no copy."""
    def read_only(value):
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        return value

    for name, value in fields.items():
        if isinstance(value, tuple):  # a NamedTuple keeps its type
            value = getattr(value, "_make", tuple)(map(read_only, value))
        object.__setattr__(obj, name, read_only(value))


def _factor(column) -> Factored:
    """The distinct strings of a column (a sequence or a Factored) in code-point
    order and each row's position among them, from one dict pass. Values are
    taken as a numpy string array holds them: str of a non-str, trailing NULs
    dropped. A Factored's ids take the same pass, those no code names dropped;
    DataError for a repeated id or a code out of range."""
    if isinstance(column, Factored):
        distinct, rank = _factor(column.distinct)
        if len(distinct) < len(rank):
            raise DataError(f"repeated distinct id {str(distinct[np.bincount(rank) > 1][0])!r}")
        codes = np.asarray(column.codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu" or not np.isin(codes, rank).all():
            raise DataError(f"trial codes must be integers in [0, {len(rank)})")
        used = np.isin(np.arange(len(distinct)), codes := rank[codes])
        return Factored(distinct[used], (np.cumsum(used) - 1)[codes])
    values = list(column)
    if not {str}.issuperset(map(type, values)) or "\0" in "".join(values):
        values = np.array(values, dtype=str).tolist()
    code = {v: i for i, v in enumerate(sorted(dict.fromkeys(values)))}
    return Factored(np.array(list(code), dtype=str),
                    np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(values)))


def index_of(keys, column: Factored, missing: str) -> np.ndarray:
    """Position in keys of each row's value of a factored column, from one
    lookup per distinct value; a value keys lack raises DataError with the
    message prefix `missing`."""
    where = {k: i for i, k in enumerate(keys)}
    try:
        found = np.array([where[k] for k in column.distinct.tolist()], dtype=np.intp)
    except KeyError as e:
        raise DataError(f"{missing} {e.args[0]!r}") from None
    return found[column.codes]


_READ = 1 << 16  # characters read per chunk, so a file's text is held a chunk at a time


def _chunks(path):
    """The line numbers and the lines, LF stripped, of the non-blank lines of a
    UTF-8 file, in chunks of _READ characters and the rest of the line they
    end in. DataError if it is not UTF-8; the loader names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            start = 1
            while text := fh.read(_READ) + fh.readline():
                lines = text.removesuffix("\n").split("\n")
                numbers, start = range(start, start + len(lines)), start + len(lines)
                if not all(map(str.strip, lines)):
                    keep = [i for i, line in enumerate(lines) if line.strip()]
                    numbers, lines = [numbers[i] for i in keep], [lines[i] for i in keep]
                if lines:
                    yield numbers, lines
    except UnicodeDecodeError:
        raise DataError("not UTF-8 text") from None


def _rows(chunks, n_fields: int, floats: int | None, dim: int | None, where: str = "",
          header: bool | None = None):
    """The text columns (lists) and (rows, dim) float matrix of chunks of
    (line numbers, lines): a model block's with header None, where '#' is
    data, else a table's, whose '#dim=' line gives dim when header is True.
    _split takes each chunk whole; a chunk it refuses, that holds a '#' line or
    that comes before a table's header goes line by line, to skip comments,
    read the header and name a faulty line."""
    text = [i for i in range(n_fields) if i != floats]
    columns, values = [[] for _ in text], array("d")
    for numbers, lines in chunks:
        fields = []
        if lines and (header is None or dim and not any(map(str.startswith, lines, repeat("#")))):
            with suppress(DataError):
                fields, dim = _split(lines, n_fields, floats, dim, values)
        if not fields:
            for lineno, line in zip(numbers, lines):
                if header is not None and line[0] == "#":
                    dim = header and _dim_header(lineno, line, after=dim is not None) or dim
                    continue
                if dim is None and header:
                    raise DataError(f"data before #dim= header at line {lineno}")
                try:
                    row, dim = _split([line], n_fields, floats, dim, values)
                except DataError as e:
                    raise DataError(f"{e}{where} at line {lineno}") from None
                fields += row
        for column, i in zip(columns, text):
            column += fields[i::n_fields]
    if dim is None and header:
        raise DataError("missing #dim= header")
    return columns, np.frombuffer(values).reshape(-1, dim or 1)


def _split(lines, n_fields: int, floats: int | None, dim: int | None, values: array):
    """The fields of lines of n_fields tab-separated fields, all split at once,
    and the dim of their float rows: field `floats` of each line holds dim
    floats (None: as many as the first line's), parsed by one np.loadtxt and
    appended to values once all checks pass. DataError naming the first that
    fails: field count, NUL, float, dimension (a blank float field counts as
    a dimension, rows of unequal length as a float fault)."""
    joined = "\t".join(lines)
    if list(map(str.count, lines, repeat("\t"))).count(n_fields - 1) != len(lines):
        raise DataError(f"expected {n_fields} tab-separated fields")
    if "\0" in joined:  # string arrays drop trailing NULs, which would alias two ids
        raise DataError("NUL character")
    fields = joined.split("\t")
    if floats is not None:
        rows = fields[floats::n_fields]
        if not all(map(str.strip, rows)):  # loadtxt would skip the row and warn
            raise DataError("dimension mismatch")
        try:
            matrix = np.loadtxt(rows, comments=None, ndmin=2)
        except ValueError:
            raise DataError("bad float") from None
        if (dim := dim or matrix.shape[1]) != matrix.shape[1]:
            raise DataError("dimension mismatch")
        values.frombytes(matrix.tobytes())
    return fields, dim


def read_blocks(path) -> list[tuple[int, str, tuple[list[int], list[str]]]]:
    """The header's line number, the header, and the line numbers and the
    lines of the rows of each block of a model file. A header starts with '['
    and holds no tab, so a tab-separated row whose first field starts with '['
    stays a row; DataError for a header holding a NUL, which save never writes."""
    numbers, lines, heads = [], [], []
    for chunk_numbers, chunk_lines in _chunks(path):
        heads += [len(lines) + i for i, line in enumerate(chunk_lines)
                  if line[0] == "[" and "\t" not in line]
        if heads[:1] != [0]:
            raise DataError(f"data before first block header at line {chunk_numbers[0]}")
        numbers += chunk_numbers
        lines += chunk_lines
    for i in heads:
        if "\0" in lines[i]:
            raise DataError(f"NUL character in block header at line {numbers[i]}")
    return [(numbers[i], lines[i], (numbers[i + 1:j], lines[i + 1:j]))
            for i, j in zip(heads, heads[1:] + [len(lines)])]


def block_rows(block, name: str, n_fields=1, floats: int | None = 0, dim: int | None = None):
    """_rows of a block from read_blocks, named in messages; floats finite."""
    columns, matrix = _rows([block[2]], n_fields, floats, dim, f" in {name}")
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise DataError(f"non-finite value in {name} at line {block[2][0][np.argmax(bad)]}")
    return columns, matrix


# what splits or ends a line, is lost in a numpy string array or is not UTF-8
UNSAFE = re.compile("[\t\n\r\0\ud800-\udfff]")

_CHUNK = 8192  # fields formatted per % call, so a file's text is held a chunk at a time


def _text(strings) -> list[str]:
    """Strings (a list or array) as a list; DataError for one that would not
    read back, found by one UNSAFE search of the joined strings."""
    text = strings.tolist() if isinstance(strings, np.ndarray) else list(strings)
    if UNSAFE.search("".join(text)):
        bad = next(v for v in text if UNSAFE.search(v))
        raise DataError(f"field {bad!r} holds a tab, line break, NUL or surrogate")
    return text


def _column(column) -> tuple[str, np.ndarray]:
    """The % format of a column's fields and its (rows, fields) array of values.
    Text is a list or array of strings, or a Factored whose distinct strings
    are checked once each (DataError if one would not read back); a float
    array, finite in every object saved, is one field, a matrix one per column."""
    if isinstance(column, Factored):
        return "%s", np.array(_text(column.distinct), dtype=object)[column.codes, None]
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        if column.ndim == 1:
            return _FLOAT, column[:, None]
        return " ".join([_FLOAT] * column.shape[1]), column
    return "%s", np.array(_text(column), dtype=object)[:, None]


def format_blocks(blocks: list[tuple[list[str], list]]):
    """Each block's header lines, then one line per row of its columns (see
    _column) with the fields joined by tabs, yielded a chunk of text at a time
    once every field is checked: a block's rows share one % format, and each
    chunk of about _CHUNK fields is one % call. %.17g writes what "{:.17g}".format
    writes: both hand the float to the same C conversion, 'g' at precision 17."""
    checked = []
    for header, columns in blocks:
        formats, values = zip(*map(_column, columns))
        checked.append((_text(header), "\t".join(formats) + "\n", values))
    for header, row, values in checked:
        yield "".join(line + "\n" for line in header)
        step = max(1, _CHUNK // sum(v.shape[1] for v in values))
        for i in range(0, len(values[0]), step):
            chunk = np.hstack([v[i:i + step] for v in values])  # object if any text
            yield row * len(chunk) % tuple(chunk.ravel().tolist())


def write_blocks(path, blocks: list[tuple[list[str], list]]) -> None:
    """Write format_blocks(blocks), creating the file only once every field is checked."""
    text = format_blocks(blocks)
    first = next(text, "")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first)
        fh.writelines(text)


def _write_table(path, header: list[str], columns: list) -> None:
    """write_blocks for one table, whose rows may not start with '#'."""
    first = columns[0].distinct if isinstance(columns[0], Factored) else columns[0]
    comment = np.char.startswith(first, "#")
    if comment.any():
        raise DataError(f"{str(first[comment][0])!r} would start a comment line")
    write_blocks(path, [(header, columns)])


def _read_table(path, n_fields: int, floats: int | None = None, header: bool = False):
    """_rows of a table's lines; with header, a vector table's, whose d the
    '#dim=' line gives."""
    return _rows(_chunks(path), n_fields, floats, None if header else 1, header=header)


def _dim_header(lineno: int, line: str, after: bool = False) -> int | None:
    """d of the one '#dim=<d>' line before the first row, spelled as save
    writes it (STR_INT), None for another comment."""
    if not line.startswith("#dim="):
        return None
    if after or not STR_INT.fullmatch(line[5:]) or not 0 < int(line[5:]) <= _MAX_DIM:
        raise DataError(f"malformed or misplaced header at line {lineno}: {line!r}")
    return int(line[5:])


def names_its_file(load):
    """A loader load(path) whose every DataError starts with the path, once."""
    @wraps(load)
    def named(path):
        try:
            return load(path)
        except DataError as e:
            raise DataError(f"{path}: {e}") from None
    return named


@names_its_file
def load_vector_table(path) -> VectorSet:
    """Parse a vector table file (README "File formats")."""
    (ids, corpora, speakers), values = _read_table(path, 4, floats=3, header=True)
    return VectorSet(ids, corpora, speakers, values)


def save_vector_table(vset: VectorSet, path) -> None:
    _write_table(path, [f"#dim={vset.dim}"],
                 [vset.ids, vset.corpus_ids, vset.speaker_ids, vset.matrix()])


@names_its_file
def load_trials(path) -> TrialList:
    (model, test, label), _ = _read_table(path, 3)
    return TrialList(model, test, label)


def save_trials(tl: TrialList, path) -> None:
    _write_table(path, [], [tl.model, tl.test, tl.label])


@names_its_file
def load_scores(path) -> ScoreSet:
    (model, test, label), scores = _read_table(path, 4, floats=2)
    return ScoreSet(TrialList(model, test, label), scores[:, 0])


def save_scores(sset: ScoreSet, path) -> None:
    tl = sset.trials
    _write_table(path, [], [tl.model, tl.test, sset.scores, tl.label])
