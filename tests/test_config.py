import pytest

from recwhiten.config import (ConfigError, load_experiment_config,
                              parse_experiment_config)

GOOD = """
[synth]
seed = 3
dim = 12
subcorpora = a:10:3:0.0 b:10:3:2.0

[hierarchy]
level1 = a b

[backend]
levels = 0 1
shrinkage = auto
plda_rank = none
snorm = on

[metrics]
dcf16-1 = 0.01 1 1
dcf16-2 = 0.005 1 1
"""


def test_parse_good_config():
    cfg = parse_experiment_config(GOOD)
    assert cfg.synth.seed == 3 and cfg.synth.dim == 12
    assert [s.corpus_id for s in cfg.synth.ood_subcorpora] == ["a", "b"]
    assert cfg.hierarchy == [["a", "b"]]
    assert cfg.levels == [0, 1]
    assert cfg.snorm is True
    assert cfg.shrinkage is None
    assert cfg.ops[0].p_target == 0.01 and cfg.ops[1].name == "dcf16-2"
    assert len(cfg.config_hash) == 16


def test_hash_tracks_text():
    assert parse_experiment_config(GOOD).config_hash != \
        parse_experiment_config(GOOD.replace("seed = 3", "seed = 4")).config_hash


def test_data_and_synth_exclusive():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_experiment_config(GOOD + "\n[data]\nood=o\nunlabeled=u\nenroll=e\ntest=t\ntrials=r\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_experiment_config("[backend]\nlevels = 0\n")


def test_levels_must_be_contiguous_from_zero():
    with pytest.raises(ConfigError, match="contiguous"):
        parse_experiment_config(GOOD.replace("levels = 0 1", "levels = 1"))
    with pytest.raises(ConfigError, match="contiguous"):
        parse_experiment_config(GOOD.replace("levels = 0 1", "levels = 0 2"))


def test_level_beyond_hierarchy_rejected():
    with pytest.raises(ConfigError, match="hierarchy"):
        parse_experiment_config(GOOD.replace("levels = 0 1", "levels = 0 1 2"))


def test_bad_subcorpus_token():
    with pytest.raises(ConfigError, match="subcorpus token"):
        parse_experiment_config(GOOD.replace("a:10:3:0.0", "a:10:3"))


def test_bad_snorm_value():
    with pytest.raises(ConfigError, match="snorm"):
        parse_experiment_config(GOOD.replace("snorm = on", "snorm = yes"))


def test_one_operating_point_rejected():
    with pytest.raises(ConfigError, match="two operating points"):
        parse_experiment_config(GOOD.replace("dcf16-2 = 0.005 1 1\n", ""))


def test_missing_data_keys():
    with pytest.raises(ConfigError, match="missing keys"):
        parse_experiment_config("[data]\nood = x\n")


DATA = "[data]\nood = o\nunlabeled = u\nenroll = e\ntest = t\ntrials = r\n"


@pytest.mark.parametrize("text, message", [
    (GOOD.replace("snorm = on", "snrom = on"), r"\[backend\] unknown keys: \['snrom'\]"),
    (GOOD.replace("levels = 0 1", "level = 0 1"), r"\[backend\] unknown keys: \['level'\]"),
    (GOOD.replace("[backend]", "[backnd]"), r"unknown sections: \['backnd'\]"),
    (DATA + "trails = r\n", r"\[data\] unknown keys: \['trails'\]"),
], ids=["backend-snrom", "backend-level", "section-backnd", "data-trails"])
def test_unknown_section_or_key_rejected(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_experiment_config(text)


def test_load_from_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(GOOD)
    assert load_experiment_config(p).synth.dim == 12
