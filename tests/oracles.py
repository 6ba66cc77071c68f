"""Single-vector forms of the batched kernels, a row-at-a-time writer (of
every save and of project's coordinate table) and table reader, a
speaker-at-a-time corpus sampler, the trial id columns and a whole run of the
experiment's levels built from those kernels, kept as test oracles, and the
helpers that several test files share: make_set builds a vector set,
parse_coords reads project's output.

Each kernel writes one operation out for one vector, the way the paper states
it, so that the tests can check the batched kernels of the package against
it. The sampler draws one block of normals per speaker, so that the tests can
check the bytes of the one stacked draw of synth against it. The writer formats one field and joins one row at a time, and the reader
checks and splits one line at a time, so that the tests can check the bytes of
every save and the result or the error of every table read against them.
"""

import math
from array import array
from itertools import chain

import numpy as np

from recwhiten.data import MISSING_SPEAKER, DataError, NumericalError, VectorSet
from recwhiten.plda import PldaModel, train_plda
from recwhiten.projection import fit_pca
from recwhiten.stats import Moments, cholesky_lower, estimate_moments, scatter, whitening_matrix
from recwhiten.whitening import (ZERO_NORM_EPS, LevelSelection, RecursiveWhitener,
                                 WhiteningStage)


def make_set(vectors, corpus_id="c", prefix="v"):
    n = len(vectors)
    return VectorSet([f"{prefix}{i}" for i in range(n)], [corpus_id] * n,
                     [MISSING_SPEAKER] * n, vectors)


def parse_coords(text) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The id, corpus id and coordinates of each row of project's coordinate
    table, in order: ids as a list, corpus ids as an array, coordinates as an
    (n, k) matrix."""
    rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
    return ([r[0] for r in rows], np.array([r[1] for r in rows]),
            np.array([[float(v) for v in r[2].split()] for r in rows]))


def length_normalize(v: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm; refuses near-zero vectors."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm <= ZERO_NORM_EPS:
        raise NumericalError("zero-norm vector cannot be length-normalized")
    return v / norm


def gaussian_loglik(m: Moments, v: np.ndarray) -> float:
    """Log-density of v under N(mean, cov); logdet taken off the Cholesky
    diagonal for conditioning."""
    v = np.asarray(v, dtype=float)
    if v.shape != m.mean.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {m.mean.shape}")
    chol = cholesky_lower(m.cov)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    y = np.linalg.solve(chol, v - m.mean)
    maha = float(y @ y)
    d = m.dim
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + maha)


def apply_stage(stage: WhiteningStage, v: np.ndarray) -> np.ndarray:
    """Center and whiten, no normalization: W (v - mean)."""
    v = np.asarray(v, dtype=float)
    if v.shape != stage.mean.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {stage.mean.shape}")
    return stage.w @ (v - stage.mean)


def transform(whitener: RecursiveWhitener, v: np.ndarray) -> np.ndarray:
    """Fold v through every stage: center, whiten, length-normalize."""
    out = np.asarray(v, dtype=float)
    for stage in whitener.stages:
        out = length_normalize(apply_stage(stage, out))
    return out


def score_pair(model: PldaModel, enroll: np.ndarray, test: np.ndarray) -> float:
    """LLR of (enroll, test) being same-speaker versus different-speaker."""
    e = np.asarray(enroll, dtype=float) - model.mean
    t = np.asarray(test, dtype=float) - model.mean
    if e.shape != (model.dim,) or t.shape != (model.dim,):
        raise ValueError("dimension mismatch")
    g, q, const = model.terms
    # cross term written as a commutative sum so swapping the pair is exact
    cross = (e @ q) @ t + (t @ q) @ e
    return float(const - 0.5 * (e @ g @ e + t @ g @ t + cross))


def box_muller(rng, shape) -> np.ndarray:
    """Standard normals of `shape` from ceil(n/2) Philox uniforms u1, then
    ceil(n/2) u2: r cos(theta) for each pair, then r sin(theta), less the
    last sine when n is odd."""
    n = math.prod(shape)
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n].reshape(shape)


def sample_speakers(rng, domain_mean, chol, n_speakers, k, across_var, within_var):
    """The (n_speakers * k, d) vectors of synth._sample_corpus, one speaker at
    a time: the speaker means from one draw, then one (k, d) draw per speaker."""
    d = len(domain_mean)
    x = np.empty((n_speakers * k, d))
    spk_means = domain_mean + np.sqrt(across_var) * (box_muller(rng, (n_speakers, d)) @ chol.T)
    for s in range(n_speakers):
        x[s * k:(s + 1) * k] = spk_means[s] + np.sqrt(within_var) * (
            box_muller(rng, (k, d)) @ chol.T)
    return x


_fmt = "{:.17g}".format  # enough digits for every float64 to read back bit for bit


def format_floats(values) -> str:
    """A float row: space-separated, 17 significant digits."""
    return " ".join(map(_fmt, np.asarray(values, dtype=float).tolist()))


def _fields(column):
    """One field a row: text as it is, a float as one number, a matrix row
    as a float row."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return map(format_floats, column) if column.ndim == 2 else map(_fmt, column.tolist())
    return column.tolist() if isinstance(column, np.ndarray) else column


def write_rows(blocks) -> str:
    """The text of a file of (header lines, columns) blocks: each header
    line, then each row's fields joined by tabs."""
    lines = []
    for header, columns in blocks:
        lines += header
        lines += ["\t".join(row) for row in zip(*map(_fields, columns))]
    return "".join(line + "\n" for line in lines)


def trial_columns(tlist) -> tuple[list[str], list[str], list[str]]:
    """The model id, test id and label of each trial, gathered from the
    TrialList's factored columns."""
    return tuple(c.distinct[c.codes].tolist() for c in (tlist.model, tlist.test, tlist.label))


def run_levels(cfg, corpora) -> tuple[list[LevelSelection], dict[int, np.ndarray]]:
    """The selection log of the deepest whitener of an experiment config and
    the scores of each of its levels in trial order, one vector, one trial and
    one cohort score at a time: each level's candidates whitened per vector
    and chosen by the summed gaussian_loglik of the selection targets, PLDA
    trained on the per-vector transform of the out-of-domain set, score_pair
    per trial, and S-norm per trial from dicts of cohort scores. Moments,
    whitening matrices and PLDA training are the package's own."""
    def stage(level, vectors, corpus_id):
        m = estimate_moments(np.array(vectors), corpus_id, cfg.shrinkage)
        return m, WhiteningStage(level, corpus_id, m.mean, whitening_matrix(m))

    ood, unlabeled = corpora.ood, corpora.unlabeled
    whitener = RecursiveWhitener([stage(0, unlabeled.matrix(), str(unlabeled.corpus_ids[0]))[1]])
    targets = list(unlabeled.matrix() if cfg.selection_targets == "unlabeled" else
                   chain(corpora.enroll.matrix(), corpora.test.matrix()))
    ood_rows = list(zip(ood.corpus_ids.tolist(), ood.matrix()))
    for level, tokens in enumerate(cfg.hierarchy[:max(cfg.levels)], start=1):
        fits = [stage(level, [transform(whitener, v) for cid, v in ood_rows
                              if cid in token.split("+")], token) for token in tokens]
        t = [transform(whitener, v) for v in targets]
        logliks = [sum(gaussian_loglik(m, v) for v in t) for m, _ in fits]
        chosen = logliks.index(max(logliks))
        whitener.stages.append(fits[chosen][1])
        whitener.selection_log.append(LevelSelection(level, list(zip(tokens, logliks)), chosen))

    scores = {}
    model_ids, test_ids, _ = trial_columns(corpora.trials)
    for level in cfg.levels:
        w = RecursiveWhitener(whitener.stages[:level + 1])
        model = train_plda(VectorSet(ood.ids, ood.corpus_ids, ood.speaker_ids,
                                     [transform(w, v) for v in ood.matrix()]), cfg.plda_rank)
        sessions = {}  # a model's sessions: a speaker's, or an unlabeled vector under its id
        for vid, spk, v in zip(corpora.enroll.ids.tolist(), corpora.enroll.speaker_ids.tolist(),
                               corpora.enroll.matrix()):
            sessions.setdefault(vid if spk == MISSING_SPEAKER else spk, []).append(transform(w, v))
        models = {m: length_normalize(np.mean(vs, axis=0)) for m, vs in sessions.items()}
        tests = {vid: transform(w, v) for vid, v in zip(corpora.test.ids.tolist(),
                                                         corpora.test.matrix())}
        level_scores = [score_pair(model, models[m], tests[t]) for m, t in zip(model_ids, test_ids)]
        if cfg.snorm:
            cohort = [transform(w, v) for v in unlabeled.matrix()]
            enroll_cohort = {m: np.array([score_pair(model, v, c) for c in cohort])
                             for m, v in models.items()}
            test_cohort = {t: np.array([score_pair(model, v, c) for c in cohort])
                           for t, v in tests.items()}
            level_scores = [0.5 * ((s - enroll_cohort[m].mean()) / enroll_cohort[m].std()
                                   + (s - test_cohort[t].mean()) / test_cohort[t].std())
                            for s, m, t in zip(level_scores, model_ids, test_ids)]
        scores[level] = np.array(level_scores)
    return whitener.selection_log, scores


def vector_table_text(vset) -> str:
    return write_rows([([f"#dim={vset.dim}"],
                        [vset.ids, vset.corpus_ids, vset.speaker_ids, vset.matrix()])])


def trials_text(tlist) -> str:
    return write_rows([([], list(trial_columns(tlist)))])


def scores_text(sset) -> str:
    model_ids, test_ids, labels = trial_columns(sset.trials)
    return write_rows([([], [model_ids, test_ids, sset.scores, labels])])


def whitener_text(whitener: RecursiveWhitener) -> str:
    blocks = [([f"[stage {s.level} {s.corpus_id}]"], [np.vstack([s.mean, s.w])])
              for s in whitener.stages]
    for sel in whitener.selection_log:
        blocks.append(([f"[selection {sel.level}]"], [
            [cid for cid, _ in sel.logliks], np.array([ll for _, ll in sel.logliks]),
            ["chosen" if i == sel.chosen else "-" for i in range(len(sel.logliks))]]))
    return write_rows(blocks)


def plda_text(model: PldaModel) -> str:
    rank = "-" if model.rank is None else str(model.rank)
    return write_rows([(["[mean]"], [model.mean[None]]), (["[ac]"], [model.ac]),
                       (["[wc]"], [model.wc]), (["[rank]"], [[rank]])])


def numbered_lines(path):
    """The number and the text, LF stripped, of each non-blank line of a
    UTF-8 file; DataError if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if raw.strip():
                    yield lineno, raw.rstrip("\n")
    except UnicodeDecodeError:
        raise DataError("not UTF-8 text") from None


def rows(lines, n_fields: int, floats, dim, where: str = ""):
    """The text columns and (rows, dim) float matrix of numbered lines of
    n_fields tab-separated fields, field `floats` holding dim floats (None:
    as many as the first row's), each an ASCII token without '_' that
    float() reads; each DataError names the line."""
    text, values = [], array("d")
    for lineno, line in lines:
        parts = line.split("\t")
        if len(parts) != n_fields:
            raise DataError(f"expected {n_fields} tab-separated fields{where} at line {lineno}")
        if "\0" in line:
            raise DataError(f"NUL character{where} at line {lineno}")
        if floats is not None:
            tokens = parts.pop(floats).split()
            try:
                if not all(t.isascii() and "_" not in t for t in tokens):
                    raise ValueError("not an ASCII float literal")
                values.extend(map(float, tokens))
            except ValueError:
                raise DataError(f"bad float{where} at line {lineno}") from None
            dim = dim or len(values)
            if len(values) != (len(text) + 1) * dim:
                raise DataError(f"dimension mismatch{where} at line {lineno}")
        text.append(parts)
    columns = list(zip(*text)) or [()] * (n_fields - (floats is not None))
    return columns, np.frombuffer(values).reshape(-1, dim or 1)


MAX_DIM = np.iinfo(np.intp).max  # the longest axis a numpy array can have


def dim_header(lineno, line, after=False):
    """d of a '#dim=<d>' comment, None for another comment. The header comes
    once, before the first row (after: a header or a row came before it), and
    d is spelled as str(d) writes it, 1 <= d <= MAX_DIM."""
    if not line.startswith("#dim="):
        return None
    spelled = line[len("#dim="):]
    digits = spelled.isascii() and spelled.isdigit() and len(spelled) <= len(str(MAX_DIM))
    d = int(spelled) if digits else None
    if after or d is None or str(d) != spelled or not 1 <= d <= MAX_DIM:
        raise DataError(f"malformed or misplaced header at line {lineno}: {line!r}")
    return d


def read_table(path, n_fields: int, floats=None, header: bool = False):
    """rows of a table's lines less its comments, among which a vector
    table's #dim= header comes before its first row."""
    lines, dim, first = numbered_lines(path), None if header else 1, []
    for lineno, line in lines:
        if line[0] != "#":
            first = [(lineno, line)]
            break
        dim = header and dim_header(lineno, line, after=dim is not None) or dim
    if dim is None:
        raise DataError(f"data before #dim= header at line {first[0][0]}" if first
                        else "missing #dim= header")
    rest = (row for row in lines if row[1][0] != "#" or header and dim_header(*row, after=True))
    return rows(chain(first, rest), n_fields, floats, dim)


def projection_text(sets, n_components: int) -> str:
    """project's coordinate table for sets, one line at a time: each row's
    coordinates as one (1, d) @ (d, k) product, each corpus's mean and
    covariance of its coordinates from stats.scatter, floats by format_floats."""
    x = np.vstack([s.matrix() for s in sets])
    ids = [i for s in sets for i in s.ids.tolist()]
    corpora = [c for s in sets for c in s.corpus_ids.tolist()]
    mean, axes = fit_pca(x, n_components)
    coords = np.array([(row - mean) @ axes.T for row in x])
    lines = [f"#components={n_components}"]
    lines += [f"{i}\t{c}\t{format_floats(row)}" for i, c, row in zip(ids, corpora, coords)]
    for cid in sorted(set(corpora)):
        pts = coords[[c == cid for c in corpora]]
        mu, s = scatter(pts)
        lines.append(f"#corpus-mean\t{cid}\t{format_floats(mu)}")
        lines += [f"#corpus-cov\t{cid}\t{format_floats(row)}" for row in s / max(len(pts) - 1, 1)]
    return "".join(line + "\n" for line in lines)
