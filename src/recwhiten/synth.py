"""Seeded generator of multi-domain hierarchical Gaussian corpora.

Emulates the resource-imbalanced, domain-mismatched setting: several large
labeled out-of-domain sub-corpora plus a tiny unlabeled in-domain set with
labeled enrollment/test speakers. Domain -> speaker -> session sampling, all
Gaussian, so the PLDA backend is exactly matched to the generator. Every
random value is a Philox uniform (make_rng) or a normal drawn from them (normals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import MISSING_SPEAKER, ConfigError, Factored, TrialList, VectorSet, concat
from .stats import cholesky_lower, in_halves

IN_DOMAIN = "indomain"  # the corpus id of the unlabeled, enrollment and test sets
BOX_MULLER_WORK = 256  # the time of one normal, in multiply-adds of a gemm (stats.SPLIT_WORK)


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=stream))


def normals(rng: np.random.Generator, shape, count: int | None = None) -> np.ndarray:
    """Box-Muller normals of `shape`, or `count` such blocks stacked, from one draw.

    Box-Muller on Philox uniforms, never numpy's own ziggurat sampler, keeps
    the stream bit-stable across platforms and numpy versions. A block of n
    normals takes ceil(n/2) uniforms u1, then ceil(n/2) u2, and Philox's stream
    does not depend on how calls split it, so the stacked blocks are the bytes
    of one call per block. A large draw runs its ufuncs on two halves of the
    uniform pairs (stats.in_halves); each value comes from its own pair alone."""
    n = math.prod(shape)  # Python ints, which do not wrap around
    m = (n + 1) // 2
    u = rng.random((1 if count is None else count) * 2 * m).reshape(-1, 2, m)
    cos = np.empty((len(u), m))

    def box_muller(cols):  # in place: a product's operands may swap, nothing else
        r, theta = u[:, 0, cols], u[:, 1, cols]
        np.log1p(np.negative(r, out=r), out=r)  # 1-u1 in (0,1] keeps the log finite
        np.sqrt(np.multiply(r, -2.0, out=r), out=r)
        np.cos(np.multiply(theta, 2.0 * np.pi, out=theta), out=cos[:, cols])
        np.multiply(np.sin(theta, out=theta), r, out=theta)
        r *= cos[:, cols]  # u now holds r cos, then r sin (the last dropped for odd n), per block
    in_halves(box_muller, m, u.size * BOX_MULLER_WORK)
    return u.reshape(-1, 2 * m)[:, :n].reshape(shape if count is None else (count, *shape))


def random_unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = normals(rng, (d,))
    return v / np.linalg.norm(v)


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(normals(rng, (d, d)))
    return q * np.sign(np.diag(r))  # fix column signs for a unique factor


def random_spd(d: int, condition: float, seed: int) -> np.ndarray:
    """SPD matrix with exact eigenvalue ratio `condition`, log-spaced
    eigenvalues in [1/sqrt(k), sqrt(k)] and a seeded random eigenbasis."""
    if condition < 1.0:
        raise ValueError(f"condition number must be >= 1, got {condition}")
    if condition == 1.0:
        return np.eye(d)
    rng = make_rng(seed, stream=7)
    q = random_orthogonal(rng, d)
    lam = np.exp(np.linspace(-0.5 * np.log(condition), 0.5 * np.log(condition), d))
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


@dataclass
class SubCorpusSpec:
    corpus_id: str
    n_speakers: int
    sessions_per_speaker: int
    mean_shift: float  # magnitude of this sub-corpus's offset from the OOD center


@dataclass
class SynthConfig:
    dim: int = 50
    seed: int = 0
    # Default mismatch profile: ood_a sits at the out-of-domain center (the
    # "near" corpus), ood_b is shifted away, and the in-domain deployment
    # language is offset far enough that length normalization bites.
    ood_subcorpora: list[SubCorpusSpec] = field(default_factory=lambda: [
        SubCorpusSpec("ood_a", 250, 8, 0.0),
        SubCorpusSpec("ood_b", 250, 8, 6.0),
    ])
    n_enroll_speakers: int = 40
    enroll_sessions: int = 3
    test_sessions: int = 3
    n_unlabeled: int = 100
    language_shift: float = 12.0  # in-domain mean offset magnitude (delta)
    cov_scale: float = 1.5        # in-domain covariance scale (rho)
    condition: float = 10.0       # eigenvalue ratio of the shared base covariance
    across_var: float = 1.0       # speaker-mean variance (tau^2)
    within_var: float = 2.0       # session variance (sigma^2)

    def scalars(self) -> dict:
        """Every field but ood_subcorpora, by name in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "ood_subcorpora"}

    def validate(self):
        if not 0 <= self.seed < 2 ** 128:
            raise ConfigError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.dim < 2:
            raise ConfigError("dim must be >= 2")
        if not self.ood_subcorpora:
            raise ConfigError("need at least one out-of-domain sub-corpus")
        ids = [s.corpus_id for s in self.ood_subcorpora]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate sub-corpus ids")
        if IN_DOMAIN in ids:
            raise ConfigError(f"sub-corpus id {IN_DOMAIN!r} is the in-domain sets' corpus id")
        for s in self.ood_subcorpora:
            if s.n_speakers < 1 or s.sessions_per_speaker < 1:
                raise ConfigError(f"bad counts for sub-corpus {s.corpus_id!r}")
            if not 0 <= s.mean_shift < np.inf:
                raise ConfigError("mean shifts must be finite and >= 0")
        if min(self.n_enroll_speakers, self.enroll_sessions,
               self.test_sessions, self.n_unlabeled) < 1:
            raise ConfigError("in-domain counts must be >= 1")
        if not 0 <= self.language_shift < np.inf:
            raise ConfigError("language shift must be finite and >= 0")
        if not all(0 < v < np.inf for v in (self.cov_scale, self.across_var, self.within_var)):
            raise ConfigError("variance knobs must be finite and positive")
        if not 1 <= self.condition < np.inf:
            raise ConfigError("condition number must be finite and >= 1")
        # values of the largest array, whose bytes numpy bounds: joined OOD, or uniforms
        d = self.dim
        corpora = [(s.n_speakers, s.sessions_per_speaker) for s in self.ood_subcorpora]
        draws = corpora + [(1, d), (self.n_unlabeled, 1),
                           (self.n_enroll_speakers, self.enroll_sessions + self.test_sessions)]
        values = max(d * sum(n * k for n, k in corpora),
                     *(n * (k * d + k * d % 2) for n, k in draws))  # see normals
        if 8 * values > np.iinfo(np.intp).max:
            raise ConfigError(f"[synth] sizes need {8 * values} bytes in one array, too many")


@dataclass
class SynthWorld:
    config: SynthConfig
    ood_labeled: VectorSet
    indomain_unlabeled: VectorSet
    enroll: VectorSet
    test: VectorSet
    trials: TrialList


def _sample_corpus(rng, corpus_id, prefix, domain_mean, chol, n_speakers,
                   sessions, across_var, within_var, labeled=True) -> VectorSet:
    """n_speakers speakers, one vector per session id suffix in `sessions`. The stacked
    matmul is one gemm per speaker, shaped as a loop's, so a large corpus splits
    its speakers in halves (stats.in_halves) with the same bytes; scale and
    shift in place only swap operands."""
    d, k = len(domain_mean), len(sessions)
    spk_means = domain_mean + np.sqrt(across_var) * (normals(rng, (n_speakers, d)) @ chol.T)
    z = normals(rng, (k, d), n_speakers)
    x = np.empty_like(z)

    def speaker_rows(rows):
        block = np.matmul(z[rows], chol.T, out=x[rows])
        block *= np.sqrt(within_var)
        block += spk_means[rows, None]
    in_halves(speaker_rows, n_speakers, z.size * d)
    spk_ids = [f"{prefix}spk{s:04d}" for s in range(n_speakers)]
    ids = [f"{spk}_{suffix}" for spk in spk_ids for suffix in sessions]
    speakers = np.repeat(spk_ids, k) if labeled else np.full(len(ids), MISSING_SPEAKER)
    return VectorSet(ids, np.full(len(ids), corpus_id), speakers, x.reshape(-1, d))


def generate_world(cfg: SynthConfig) -> SynthWorld:
    """Deterministically sample a full evaluation world from the config."""
    cfg.validate()
    d = cfg.dim
    base_cov = random_spd(d, cfg.condition, cfg.seed)
    chol_ood = cholesky_lower(base_cov)
    chol_in = cholesky_lower(cfg.cov_scale * base_cov)

    rng = make_rng(cfg.seed, stream=1)
    ood_sets = []
    for spec in cfg.ood_subcorpora:
        offset = spec.mean_shift * random_unit(rng, d) if spec.mean_shift > 0 else np.zeros(d)
        ood_sets.append(_sample_corpus(
            rng, spec.corpus_id, spec.corpus_id + "_", offset, chol_ood,
            spec.n_speakers, [f"u{k:03d}" for k in range(spec.sessions_per_speaker)],
            cfg.across_var, cfg.within_var))
    ood = concat(ood_sets)

    rng_in = make_rng(cfg.seed, stream=2)
    in_mean = (cfg.language_shift * random_unit(rng_in, d)
               if cfg.language_shift > 0 else np.zeros(d))

    # unlabeled: independent speakers, one session each
    unlabeled = _sample_corpus(
        rng_in, IN_DOMAIN, "unl_", in_mean, chol_in,
        cfg.n_unlabeled, ["u000"], cfg.across_var, cfg.within_var, labeled=False)

    # enrollment/test sessions share their speaker means
    sessions = ([f"e{k:02d}" for k in range(cfg.enroll_sessions)]
                + [f"t{k:02d}" for k in range(cfg.test_sessions)])
    pool = _sample_corpus(
        rng_in, IN_DOMAIN, "eval_", in_mean, chol_in,
        cfg.n_enroll_speakers, sessions, cfg.across_var, cfg.within_var)
    is_enroll = np.arange(len(pool)) % len(sessions) < cfg.enroll_sessions
    enroll, test = pool.take(is_enroll), pool.take(~is_enroll)

    # full cross of enrollment models x test sessions, built from its codes
    models = pool.speaker_ids[::len(sessions)]
    model_codes, test_codes = np.indices((len(models), len(test))).reshape(2, -1)
    same = models[:, None] == test.speaker_ids
    trials = TrialList(Factored(models, model_codes), Factored(test.ids, test_codes),
                       Factored(["nontarget", "target"], same.ravel().astype(np.intp)))
    return SynthWorld(cfg, ood, unlabeled, enroll, test, trials)
