"""Seeded generator of multi-domain hierarchical Gaussian corpora.

Emulates the resource-imbalanced, domain-mismatched setting: several large
labeled out-of-domain sub-corpora plus a tiny unlabeled in-domain set with
labeled enrollment/test speakers. Domain -> speaker -> session sampling, all
Gaussian, so the PLDA backend is exactly matched to the generator.

Reproducibility: all randomness comes from numpy's Philox counter-based
generator, with normal deviates produced by the Box-Muller transform on
Philox uniforms (never the generator's own ziggurat sampler), so streams are
bit-stable across platforms and numpy versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .data import MISSING_SPEAKER, TrialList, VectorSet, concat
from .stats import cholesky_lower


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=stream))


def normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Box-Muller standard normals from Philox uniforms."""
    n = int(np.prod(shape, dtype=int))
    m = (n + 1) // 2
    u1 = rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1] keeps the log finite
    theta = 2.0 * np.pi * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return z.reshape(shape)


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
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not self.ood_subcorpora:
            raise ValueError("need at least one out-of-domain sub-corpus")
        ids = [s.corpus_id for s in self.ood_subcorpora]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sub-corpus ids")
        for s in self.ood_subcorpora:
            if s.n_speakers < 1 or s.sessions_per_speaker < 1:
                raise ValueError(f"bad counts for sub-corpus {s.corpus_id!r}")
            if s.mean_shift < 0:
                raise ValueError("mean shifts must be >= 0")
        if min(self.n_enroll_speakers, self.enroll_sessions,
               self.test_sessions, self.n_unlabeled) < 1:
            raise ValueError("in-domain counts must be >= 1")
        if self.language_shift < 0:
            raise ValueError("language shift must be >= 0")
        if self.cov_scale <= 0 or self.across_var <= 0 or self.within_var <= 0:
            raise ValueError("variance knobs must be positive")
        if self.condition < 1:
            raise ValueError("condition number must be >= 1")


@dataclass
class DomainTruth:
    mean: np.ndarray
    cov: np.ndarray  # session covariance scale applies on top of this


@dataclass
class SynthWorld:
    config: SynthConfig
    ood_labeled: VectorSet
    indomain_unlabeled: VectorSet
    enroll: VectorSet
    test: VectorSet
    trials: TrialList
    ground_truth: dict[str, DomainTruth]


def _sample_corpus(rng, corpus_id, prefix, domain_mean, chol, n_speakers,
                   sessions, across_var, within_var, labeled=True) -> VectorSet:
    """n_speakers speakers with one vector per entry of `sessions`, the
    session suffixes of their ids; one normals draw per speaker."""
    d = domain_mean.shape[0]
    k = len(sessions)
    x = np.empty((n_speakers * k, d))
    spk_means = domain_mean + np.sqrt(across_var) * (normals(rng, (n_speakers, d)) @ chol.T)
    for s in range(n_speakers):
        x[s * k:(s + 1) * k] = spk_means[s] + np.sqrt(within_var) * (
            normals(rng, (k, d)) @ chol.T)
    spk_ids = [f"{prefix}spk{s:04d}" for s in range(n_speakers)]
    ids = [f"{spk}_{suffix}" for spk in spk_ids for suffix in sessions]
    speakers = np.repeat(spk_ids, k) if labeled else np.full(len(ids), MISSING_SPEAKER)
    return VectorSet(ids, np.full(len(ids), corpus_id), speakers, x)


def generate_world(cfg: SynthConfig) -> SynthWorld:
    """Deterministically sample a full evaluation world from the config."""
    cfg.validate()
    d = cfg.dim
    base_cov = random_spd(d, cfg.condition, cfg.seed)
    chol_ood = cholesky_lower(base_cov)
    chol_in = cholesky_lower(cfg.cov_scale * base_cov)
    truth: dict[str, DomainTruth] = {}

    rng = make_rng(cfg.seed, stream=1)
    ood_sets = []
    for spec in cfg.ood_subcorpora:
        offset = spec.mean_shift * random_unit(rng, d) if spec.mean_shift > 0 else np.zeros(d)
        truth[spec.corpus_id] = DomainTruth(offset, base_cov)
        ood_sets.append(_sample_corpus(
            rng, spec.corpus_id, spec.corpus_id + "_", offset, chol_ood,
            spec.n_speakers, [f"u{k:03d}" for k in range(spec.sessions_per_speaker)],
            cfg.across_var, cfg.within_var))
    ood = concat(ood_sets)

    rng_in = make_rng(cfg.seed, stream=2)
    in_mean = (cfg.language_shift * random_unit(rng_in, d)
               if cfg.language_shift > 0 else np.zeros(d))
    truth["indomain"] = DomainTruth(in_mean, cfg.cov_scale * base_cov)

    # unlabeled: independent speakers, one session each
    unlabeled = _sample_corpus(
        rng_in, "indomain", "unl_", in_mean, chol_in,
        cfg.n_unlabeled, ["u000"], cfg.across_var, cfg.within_var, labeled=False)

    # enrollment/test sessions share their speaker means
    sessions = ([f"e{k:02d}" for k in range(cfg.enroll_sessions)]
                + [f"t{k:02d}" for k in range(cfg.test_sessions)])
    pool = _sample_corpus(
        rng_in, "indomain", "eval_", in_mean, chol_in,
        cfg.n_enroll_speakers, sessions, cfg.across_var, cfg.within_var)
    is_enroll = np.arange(len(pool)) % len(sessions) < cfg.enroll_sessions
    enroll, test = pool.take(is_enroll), pool.take(~is_enroll)

    # full cross of enrollment models x test sessions
    models = np.array([f"eval_spk{s:04d}" for s in range(cfg.n_enroll_speakers)])
    same = models[:, None] == test.speaker_ids
    trials = TrialList(np.repeat(models, len(test)), np.tile(test.ids, len(models)),
                       np.where(same.ravel(), "target", "nontarget"))
    return SynthWorld(cfg, ood, unlabeled, enroll, test, trials, truth)
