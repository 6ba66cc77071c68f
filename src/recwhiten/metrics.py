"""Detection metrics and score post-processing.

EER by linear interpolation between ROC vertices, normalized minimum and
actual detection cost at configurable operating points and symmetric score
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import UNSAFE, ConfigError, DataError, ScoreSet, index_of


@dataclass(frozen=True)
class OperatingPoint:
    p_target: float
    c_miss: float = 1.0
    c_fa: float = 1.0
    name: str = ""

    def __post_init__(self):
        # the report writes it as it is, and its header joins it to the values by `:`
        if UNSAFE.search(self.name) or ":" in self.name:
            raise ConfigError(f"operating point name {self.name!r} holds a colon, tab, "
                              "line break, NUL or surrogate")
        if not 0.0 < self.p_target < 1.0:
            raise ConfigError(f"p_target must be in (0,1), got {self.p_target}")
        if not (0.0 < self.c_miss < np.inf and 0.0 < self.c_fa < np.inf):
            raise ConfigError("costs must be positive and finite")

    @property
    def normalizer(self) -> float:
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))

    @property
    def key(self) -> str:
        """The name as report keys spell it: min_<key>, act_<key>."""
        return self.name.replace("-", "_")

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
    """A mutable output record: evaluate fills the metrics; the caller sets `header`."""

    eer: float
    min_dcf: dict[str, float]
    act_dcf: dict[str, float]
    c_primary: float
    n_target: int
    n_nontarget: int
    header: list[str] = field(default_factory=list)

    def render(self) -> str:
        for h in self.header:  # a tab may stay in a '#' line, not what ends it or is not UTF-8
            if UNSAFE.search(h.replace("\t", " ")):
                raise ConfigError(f"report header {h!r} holds a line break, NUL or surrogate")
        lines = [f"#{h}" for h in self.header]
        lines.append(f"eer\t{self.eer:.6f}")
        for kind, dcf in (("min", self.min_dcf), ("act", self.act_dcf)):
            lines += [f"{kind}_{key}\t{v:.6f}" for key, v in dcf.items()]
        lines.append(f"c_primary\t{self.c_primary:.6f}")
        lines.append(f"n_target\t{self.n_target}")
        lines.append(f"n_nontarget\t{self.n_nontarget}")
        return "\n".join(lines) + "\n"


def _error_rates(tar: np.ndarray, non: np.ndarray, thresholds):
    """P_miss and P_fa of sorted scores at each threshold: miss if target < t,
    accept if >= t."""
    p_miss = np.searchsorted(tar, thresholds, side="left") / tar.size
    p_fa = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    return p_miss, p_fa


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


def evaluate(sset: ScoreSet, ops=DEFAULT_OPERATING_POINTS) -> EvalReport:
    """EER, min/act DCF by operating-point key and c_primary, the mean min DCF."""
    distinct, codes = sset.trials.label
    tar, non = (np.sort(sset.scores[(distinct == k)[codes]]) for k in ("target", "nontarget"))
    if tar.size == 0 or non.size == 0:
        raise DataError("need at least one target and one nontarget trial")
    scores = np.sort(np.concatenate([tar, non]))
    # the distinct scores; np.unique would import numpy.ma to ask whether they are masked
    scores = scores[np.concatenate([[True], scores[1:] != scores[:-1]])]
    # the rates at every achievable threshold, in increasing order
    roc = _error_rates(tar, non, np.concatenate([[scores[0] - 1.0], scores, [scores[-1] + 1.0]]))
    min_dcf = {op.key: _dcf(*roc, op) for op in ops}
    return EvalReport(
        eer=_eer(*roc),
        min_dcf=min_dcf,
        act_dcf={op.key: _dcf(*_error_rates(tar, non, op.bayes_threshold), op)
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
    def per_trial(cohort, column, side):
        """Mean and std of the cohort scores of each trial's id on one side,
        from one reduction over that side's stacked cohort arrays."""
        if len({len(v) for v in cohort.values()}) > 1:
            raise DataError(f"{side} cohort score arrays differ in length")
        stacked = np.stack(list(cohort.values())) if cohort else np.empty((0, 2))
        if stacked.shape[1] < 2:
            raise DataError(f"cohort for {next(iter(cohort))!r} needs at least 2 scores")
        rows = index_of(cohort, column, f"missing {side} cohort for")
        return stacked.mean(axis=1)[rows], stacked.std(axis=1)[rows]

    trials = raw.trials
    mu_e, sd_e = per_trial(enroll_cohort, trials.model, "enroll")
    mu_t, sd_t = per_trial(test_cohort, trials.test, "test")
    zero = (sd_e == 0.0) | (sd_t == 0.0)
    if zero.any():
        raise DataError(f"zero cohort deviation for trial {trials.key(np.argmax(zero))}")
    s = raw.scores
    return ScoreSet(trials, 0.5 * ((s - mu_e) / sd_e + (s - mu_t) / sd_t))

