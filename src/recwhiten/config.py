"""Experiment configuration: flat key = value text with one section level.

Example::

    [synth]
    seed = 7
    dim = 50
    subcorpora = ood_a:250:8:1.5 ood_b:250:8:1.5

    [hierarchy]
    level1 = ood_a ood_b

    [backend]
    levels = 0 1
    shrinkage = auto
    plda_rank = none
    snorm = off
    selection_targets = enroll_test

    [metrics]
    dcf16-1 = 0.01 1 1
    dcf16-2 = 0.005 1 1

A [data] section with ood/unlabeled/enroll/test/trials paths may replace
[synth]. Candidate tokens in [hierarchy] may union corpus ids with '+'.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field

from .metrics import DEFAULT_OPERATING_POINTS, OperatingPoint
from .synth import SubCorpusSpec, SynthConfig


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    data_paths: dict[str, str] | None = None
    synth: SynthConfig | None = None
    hierarchy: list[list[str]] = field(default_factory=list)
    levels: list[int] = field(default_factory=lambda: [0])
    shrinkage: float | None = None  # None = auto rule per corpus size
    plda_rank: int | None = None
    snorm: bool = False
    selection_targets: str = "enroll_test"  # or "unlabeled"
    ops: tuple[OperatingPoint, OperatingPoint] = DEFAULT_OPERATING_POINTS
    config_hash: str = ""

    def validate(self):
        if (self.data_paths is None) == (self.synth is None):
            raise ConfigError("exactly one of [data] and [synth] must be given")
        if not self.levels or self.levels != list(range(len(self.levels))):
            raise ConfigError("levels must be contiguous from 0")
        if max(self.levels) > len(self.hierarchy):
            raise ConfigError(
                f"level {max(self.levels)} requested but only "
                f"{len(self.hierarchy)} hierarchy levels defined")
        if self.selection_targets not in ("enroll_test", "unlabeled"):
            raise ConfigError(f"bad selection_targets {self.selection_targets!r}")


def _check_keys(section: str, given, allowed, required=()) -> None:
    """Raise ConfigError naming the required keys of [section] that are
    missing, or else the given keys that are not allowed."""
    for problem, keys in (("missing", set(required) - set(given)),
                          ("unknown", set(given) - set(allowed))):
        if keys:
            raise ConfigError(f"[{section}] {problem} keys: {sorted(keys)}")


def operating_points(pairs) -> tuple[OperatingPoint, OperatingPoint]:
    """The two operating points named by (name, [p_target, c_miss, c_fa]) pairs,
    from [metrics] or from --op."""
    ops = []
    for name, values in pairs:
        if len(values) != 3:
            raise ConfigError(f"operating point {name!r} needs p_target, c_miss and c_fa")
        ops.append(OperatingPoint(*map(float, values), name))
    if len(ops) != 2:
        raise ConfigError(f"exactly two operating points required, got {len(ops)}")
    return tuple(ops)


def _parse_subcorpora(text: str) -> list[SubCorpusSpec]:
    specs = []
    for token in text.split():
        parts = token.split(":")
        if len(parts) != 4:
            raise ConfigError(
                f"bad subcorpus token {token!r}, expected id:speakers:sessions:shift")
        specs.append(SubCorpusSpec(parts[0], int(parts[1]), int(parts[2]), float(parts[3])))
    return specs


def _parse_synth(section) -> SynthConfig:
    """Each key but subcorpora is a SynthConfig field of the default's type."""
    cfg = SynthConfig()
    defaults = cfg.scalars()
    _check_keys("synth", section, [*defaults, "subcorpora"])
    for key, value in section.items():
        if key == "subcorpora":
            cfg.ood_subcorpora = _parse_subcorpora(value)
        else:
            setattr(cfg, key, type(defaults[key])(value))
    cfg.validate()
    return cfg


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise ConfigError(f"snorm must be on/off, got {value!r}")
    return value == "on"


# [backend] key (an ExperimentConfig field) -> parser of its value
_BACKEND = {
    "levels": lambda v: [int(t) for t in v.split()],
    "shrinkage": lambda v: None if v == "auto" else float(v),
    "plda_rank": lambda v: None if v == "none" else int(v),
    "snorm": _on_off,
    "selection_targets": str,
}


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_experiment_config(text)


def parse_experiment_config(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config parse error: {e}")

    cfg = ExperimentConfig()
    cfg.config_hash = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    unknown = set(parser.sections()) - {"data", "synth", "hierarchy", "backend", "metrics"}
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")

    if parser.has_section("data"):
        data_keys = ("ood", "unlabeled", "enroll", "test", "trials")
        _check_keys("data", parser["data"], data_keys, data_keys)
        cfg.data_paths = dict(parser.items("data"))
    if parser.has_section("synth"):
        cfg.synth = _parse_synth(parser["synth"])

    if parser.has_section("hierarchy"):
        h = parser["hierarchy"]
        levels = [f"level{i}" for i in range(1, len(h) + 1)]
        _check_keys("hierarchy", h, levels)
        cfg.hierarchy = [h[key].split() for key in levels]
        if [] in cfg.hierarchy:
            raise ConfigError(f"level{cfg.hierarchy.index([]) + 1} lists no candidates")

    if parser.has_section("backend"):
        _check_keys("backend", parser["backend"], _BACKEND)
        for key, value in parser.items("backend"):
            setattr(cfg, key, _BACKEND[key](value))

    if parser.has_section("metrics"):
        cfg.ops = operating_points((name, value.split())
                                   for name, value in parser.items("metrics"))

    cfg.validate()
    return cfg
