"""Detection metrics and score post-processing.

EER by linear interpolation between ROC vertices, normalized minimum and
actual detection cost at configurable operating points, symmetric score
normalization and fixed-weight fusion.

Threshold convention: a trial is accepted when score >= threshold, so ties
count as false accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, ScoreSet, index_of


@dataclass(frozen=True)
class OperatingPoint:
    p_target: float
    c_miss: float = 1.0
    c_fa: float = 1.0
    name: str = ""

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError(f"p_target must be in (0,1), got {self.p_target}")
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ValueError("costs must be positive")

    @property
    def normalizer(self) -> float:
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))

    @property
    def bayes_threshold(self) -> float:
        """Optimal fixed threshold for calibrated log-likelihood-ratio scores."""
        return float(np.log(self.c_fa * (1.0 - self.p_target) /
                            (self.c_miss * self.p_target)))


# SRE16-style defaults; configuration, not constants.
DEFAULT_OPERATING_POINTS = (
    OperatingPoint(p_target=0.01, name="dcf16-1"),
    OperatingPoint(p_target=0.005, name="dcf16-2"),
)


@dataclass
class EvalReport:
    eer: float
    min_dcf: dict[str, float]
    act_dcf: dict[str, float]
    c_primary: float
    n_target: int
    n_nontarget: int
    header: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"#{h}" for h in self.header]
        lines.append(f"eer\t{self.eer:.6f}")
        for name in self.min_dcf:
            key = name.replace("-", "_")
            lines.append(f"min_{key}\t{self.min_dcf[name]:.6f}")
        for name in self.act_dcf:
            key = name.replace("-", "_")
            lines.append(f"act_{key}\t{self.act_dcf[name]:.6f}")
        lines.append(f"c_primary\t{self.c_primary:.6f}")
        lines.append(f"n_target\t{self.n_target}")
        lines.append(f"n_nontarget\t{self.n_nontarget}")
        return "\n".join(lines) + "\n"


def _split_scores(sset: ScoreSet):
    """The target and the nontarget scores, each sorted."""
    tar = np.sort(sset.scores[sset.trials.labels == "target"])
    non = np.sort(sset.scores[sset.trials.labels == "nontarget"])
    if tar.size == 0 or non.size == 0:
        raise DataError("need at least one target and one nontarget trial")
    return tar, non


def _error_rates(tar: np.ndarray, non: np.ndarray, thresholds):
    """P_miss and P_fa of sorted scores at each threshold: miss if target < t,
    accept if >= t."""
    p_miss = np.searchsorted(tar, thresholds, side="left") / tar.size
    p_fa = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    return p_miss, p_fa


def _roc(tar: np.ndarray, non: np.ndarray):
    """_error_rates at every achievable threshold, in increasing order."""
    scores = np.unique(np.concatenate([tar, non]))
    thr = np.concatenate([[scores[0] - 1.0], scores, [scores[-1] + 1.0]])
    return _error_rates(tar, non, thr)


def _eer(p_miss: np.ndarray, p_fa: np.ndarray) -> float:
    diff = p_miss - p_fa  # nondecreasing in the threshold
    idx = int(np.searchsorted(diff >= 0, True))
    if diff[idx] == 0.0:
        return float(p_miss[idx])
    d0, d1 = diff[idx - 1], diff[idx]
    t = -d0 / (d1 - d0)
    return float(p_miss[idx - 1] + t * (p_miss[idx] - p_miss[idx - 1]))


def _dcf(p_miss, p_fa, op: OperatingPoint) -> float:
    """Least normalized detection cost over the thresholds of the rates."""
    cost = op.c_miss * op.p_target * p_miss + op.c_fa * (1.0 - op.p_target) * p_fa
    return float(np.min(cost / op.normalizer))


def compute_eer(sset: ScoreSet) -> float:
    """Equal error rate, linearly interpolated at the ROC crossing."""
    return _eer(*_roc(*_split_scores(sset)))


def compute_min_dcf(sset: ScoreSet, op: OperatingPoint) -> float:
    """Minimum normalized detection cost over every achievable threshold."""
    return _dcf(*_roc(*_split_scores(sset)), op)


def compute_act_dcf(sset: ScoreSet, op: OperatingPoint,
                    threshold: float | None = None) -> float:
    """Normalized detection cost at a fixed threshold (Bayes threshold for
    LLR scores when none is given)."""
    threshold = op.bayes_threshold if threshold is None else threshold
    return _dcf(*_error_rates(*_split_scores(sset), threshold), op)


def evaluate(sset: ScoreSet, ops=DEFAULT_OPERATING_POINTS) -> EvalReport:
    """Full report: EER, per-point min/act DCF and their primary average."""
    ops = tuple(ops)
    if len(ops) != 2:
        raise ValueError(f"expected two operating points, got {len(ops)}")
    tar, non = _split_scores(sset)
    roc = _roc(tar, non)
    min_dcf = {op.name: _dcf(*roc, op) for op in ops}
    return EvalReport(
        eer=_eer(*roc),
        min_dcf=min_dcf,
        act_dcf={op.name: _dcf(*_error_rates(tar, non, op.bayes_threshold), op)
                 for op in ops},
        c_primary=float(np.mean(list(min_dcf.values()))),
        n_target=int(tar.size),
        n_nontarget=int(non.size),
    )


def snorm(raw: ScoreSet, enroll_cohort: dict[str, np.ndarray],
          test_cohort: dict[str, np.ndarray]) -> ScoreSet:
    """Symmetric score normalization against cohort score statistics.

    s' = 0.5 * ((s - mu_e) / sigma_e + (s - mu_t) / sigma_t) with mean and
    population std taken over each side's cohort scores.
    """
    for k, v in list(enroll_cohort.items()) + list(test_cohort.items()):
        if len(v) < 2:
            raise DataError(f"cohort for {k!r} needs at least 2 scores")

    def per_trial(cohort, ids, side):
        stats = np.array([(np.mean(v), np.std(v)) for v in cohort.values()])
        rows = index_of(cohort, ids, f"missing {side} cohort for")
        return stats.reshape(-1, 2)[rows].T

    trials = raw.trials
    mu_e, sd_e = per_trial(enroll_cohort, trials.model_ids, "enroll")
    mu_t, sd_t = per_trial(test_cohort, trials.test_ids, "test")
    zero = (sd_e == 0.0) | (sd_t == 0.0)
    if zero.any():
        raise DataError(f"zero cohort deviation for trial {trials.key(np.argmax(zero))}")
    s = raw.scores
    return ScoreSet(trials, 0.5 * ((s - mu_e) / sd_e + (s - mu_t) / sd_t))


def fuse(sets: list[ScoreSet], weights: list[float]) -> ScoreSet:
    """Fixed-weight linear fusion of score sets over the same trial list."""
    if len(sets) != len(weights):
        raise ValueError("one weight per score set required")
    if not sets:
        raise ValueError("nothing to fuse")
    base = sets[0].trials
    fused = np.zeros(len(base))
    for w, ss in zip(weights, sets):
        if not (np.array_equal(ss.trials.model_ids, base.model_ids) and
                np.array_equal(ss.trials.test_ids, base.test_ids)):
            raise DataError("trial key mismatch across fused score sets")
        fused = fused + w * ss.scores
    return ScoreSet(base, fused)
