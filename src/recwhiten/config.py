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
        if self.levels != list(range(self.levels[0], self.levels[-1] + 1)) or self.levels[0] != 0:
            raise ConfigError("levels must be contiguous from 0")
        if max(self.levels) > len(self.hierarchy):
            raise ConfigError(
                f"level {max(self.levels)} requested but only "
                f"{len(self.hierarchy)} hierarchy levels defined")
        if self.selection_targets not in ("enroll_test", "unlabeled"):
            raise ConfigError(f"bad selection_targets {self.selection_targets!r}")


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
    cfg = SynthConfig()
    simple = {
        "dim": int, "seed": int, "n_enroll_speakers": int, "enroll_sessions": int,
        "test_sessions": int, "n_unlabeled": int, "language_shift": float,
        "cov_scale": float, "condition": float, "across_var": float,
        "within_var": float,
    }
    for key, value in section.items():
        if key == "subcorpora":
            cfg.ood_subcorpora = _parse_subcorpora(value)
        elif key in simple:
            setattr(cfg, key, simple[key](value))
        else:
            raise ConfigError(f"unknown [synth] key {key!r}")
    cfg.validate()
    return cfg


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
        required = {"ood", "unlabeled", "enroll", "test", "trials"}
        given = dict(parser.items("data"))
        for problem, keys in (("missing", required - set(given)), ("unknown", set(given) - required)):
            if keys:
                raise ConfigError(f"[data] {problem} keys: {sorted(keys)}")
        cfg.data_paths = given
    if parser.has_section("synth"):
        cfg.synth = _parse_synth(parser["synth"])

    if parser.has_section("hierarchy"):
        def level_no(key):
            if not key.startswith("level") or not key[5:].isdigit():
                raise ConfigError(f"hierarchy keys must be level1..levelN, got {key!r}")
            return int(key[5:])

        items = sorted(parser.items("hierarchy"), key=lambda kv: level_no(kv[0]))
        for i, (key, value) in enumerate(items, start=1):
            if key != f"level{i}":
                raise ConfigError(f"hierarchy keys must be level1..levelN, got {key!r}")
            tokens = value.split()
            if not tokens:
                raise ConfigError(f"{key} lists no candidates")
            cfg.hierarchy.append(tokens)

    if parser.has_section("backend"):
        b = parser["backend"]
        unknown = set(b) - {"levels", "shrinkage", "plda_rank", "snorm", "selection_targets"}
        if unknown:
            raise ConfigError(f"[backend] unknown keys: {sorted(unknown)}")
        if "levels" in b:
            cfg.levels = [int(v) for v in b["levels"].split()]
        if "shrinkage" in b:
            cfg.shrinkage = None if b["shrinkage"] == "auto" else float(b["shrinkage"])
        if "plda_rank" in b:
            cfg.plda_rank = None if b["plda_rank"] == "none" else int(b["plda_rank"])
        if "snorm" in b:
            if b["snorm"] not in ("on", "off"):
                raise ConfigError(f"snorm must be on/off, got {b['snorm']!r}")
            cfg.snorm = b["snorm"] == "on"
        if "selection_targets" in b:
            cfg.selection_targets = b["selection_targets"]

    if parser.has_section("metrics"):
        ops = []
        for name, value in parser.items("metrics"):
            parts = value.split()
            if len(parts) != 3:
                raise ConfigError(f"metric {name!r} needs 'p_target c_miss c_fa'")
            ops.append(OperatingPoint(float(parts[0]), float(parts[1]),
                                      float(parts[2]), name))
        if len(ops) != 2:
            raise ConfigError(f"exactly two operating points required, got {len(ops)}")
        cfg.ops = tuple(ops)

    try:
        cfg.validate()
    except ValueError as e:
        raise ConfigError(str(e))
    return cfg
