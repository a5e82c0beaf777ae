import pytest

from smile_lab.config import (ConfigError, ExperimentConfig, apply_overrides,
                              build_config, load_config)


def test_defaults():
    cfg = build_config({})
    assert cfg.train.mode == "SMILE"
    assert cfg.train.gamma_fe == 0.01
    assert cfg.train.gamma_fc == 0.1
    assert cfg.subsample_rate == 0.3
    assert cfg.ablation_modes == ["FT", "D-SMILE", "SMILE"]


def test_sections_from_mapping():
    cfg = build_config({"train": {"lr": 0.2, "iterations": 5},
                        "task": {"noise_sigma": 0.1}})
    assert cfg.train.lr == 0.2
    assert cfg.train.iterations == 5
    assert cfg.task.noise_sigma == 0.1
    # untouched fields keep defaults
    assert cfg.train.momentum == 0.9


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        build_config({"nope": 1})
    with pytest.raises(ConfigError):
        build_config({"train": {"learning_rate": 0.1}})


def test_invalid_section_values_rejected():
    with pytest.raises(ConfigError):
        build_config({"train": {"iterations": 0}})
    with pytest.raises(ConfigError):
        build_config({"train": {"iterations": "many"}})
    with pytest.raises(ConfigError):
        build_config({"subsample_rate": 0.0})
    with pytest.raises(ConfigError):
        build_config({"ablation_modes": ["FT", "MAGIC"]})


def test_global_seed_propagates():
    cfg = build_config({"seed": 7})
    assert cfg.seed == 7
    assert cfg.task.seed == 7
    assert cfg.train.seed == 7
    assert cfg.pretrain.seed == 7
    assert cfg.diagnostics.seed == 7


def test_section_seed_wins_over_global():
    cfg = build_config({"seed": 7, "train": {"seed": 3}})
    assert cfg.train.seed == 3
    assert cfg.task.seed == 7


def test_seed_override_propagates_like_file_seed(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("seed: 7\n")
    assert load_config(None, ["seed=7"]) == load_config(path)


def test_file_section_seed_survives_seed_override(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("train:\n  seed: 3\n")
    cfg = load_config(path, ["seed=7"])
    assert cfg.train.seed == 3
    assert cfg.task.seed == cfg.pretrain.seed == cfg.diagnostics.seed == 7


def test_load_config_yaml(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("seed: 5\ntrain:\n  mode: D-SMILE\n  lr: 0.02\n")
    cfg = load_config(path)
    assert cfg.train.mode == "D-SMILE"
    assert cfg.train.lr == 0.02
    assert cfg.train.seed == 5


def test_load_config_none_gives_defaults():
    assert load_config(None) == ExperimentConfig()


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- a\n- b\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_malformed_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("train: [\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_overrides_dotted_paths():
    cfg = load_config(None, ["train.mode=FT", "train.lr=0.5",
                             "subsample_rate=0.7", "train.iterations=9"])
    assert cfg.train.mode == "FT"
    assert cfg.train.lr == 0.5
    assert cfg.subsample_rate == 0.7
    assert cfg.train.iterations == 9


def test_overrides_take_precedence_over_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("train:\n  lr: 0.02\n")
    cfg = load_config(path, ["train.lr=0.9"])
    assert cfg.train.lr == 0.9


def test_overrides_fold_into_a_copy_of_the_mapping():
    raw = {"train": {"lr": 0.02}}
    folded = apply_overrides(raw, ["train.mode=FT", "seed=4"])
    assert folded == {"train": {"lr": 0.02, "mode": "FT"}, "seed": 4}
    assert raw == {"train": {"lr": 0.02}}


def test_overrides_validation():
    for override in ["no_equals_sign", "train.bogus=1", "bogus.lr=1",
                     "bogus=1", "train.lr.x=1", "seed.x=1", "train.lr=fast",
                     "train.lr=[", "train.iterations=0"]:
        with pytest.raises(ConfigError):
            load_config(None, [override])


def test_override_bool_and_string():
    cfg = load_config(None, ["train.shared_lambda=false",
                             "train.compare_space=probs",
                             "output_dir=elsewhere"])
    assert cfg.train.shared_lambda is False
    assert cfg.train.compare_space == "probs"
    assert cfg.output_dir == "elsewhere"


@pytest.mark.parametrize("override", ["train.batch_size=0",
                                      "pretrain.batch_size=0",
                                      "train.lr=-1", "pretrain.lr=0"])
def test_step_settings_validated(override):
    with pytest.raises(ConfigError):
        load_config(None, [override])
    section, _, rest = override.partition(".")
    key, _, value = rest.partition("=")
    with pytest.raises(ConfigError):
        build_config({section: {key: int(value)}})


@pytest.mark.parametrize("section, key, value", [
    ("task", "patch_size", 0), ("task", "image_size", 0),
    ("train", "grad_clip", -1.0), ("train", "ema_decay", 5.0),
    ("train", "ema_decay", -0.5), ("train", "compare_space", "bogus"),
    ("train", "alpha", 0.0), ("train", "alpha", -1.0),
    ("pretrain", "alpha", 0.0), ("train", "lr_drop_factor", 0.0),
    ("train", "lr_drop_fraction", -1.0), ("train", "eval_every", -1),
    ("train", "momentum", -5.0), ("pretrain", "momentum", -0.1),
    ("train", "weight_decay", -1e-4), ("pretrain", "weight_decay", -1e-4),
    ("task", "channels", 0), ("task", "samples_per_class", 0),
    ("task", "n_target_classes", 0)])
def test_field_values_validated(section, key, value):
    with pytest.raises(ConfigError):
        load_config(None, [f"{section}.{key}={value}"])
    with pytest.raises(ConfigError):
        build_config({section: {key: value}})


@pytest.mark.parametrize("key, value, override", [
    ("output_dir", 5, "output_dir=5"),
    ("ablation_seeds", [0, "x"], "ablation_seeds=[0, x]"),
    ("ablation_seeds", [0, True], "ablation_seeds=[0, true]"),
    ("ablation_seeds", 3, "ablation_seeds=3"),
    ("ablation_modes", "FT", "ablation_modes=FT")])
def test_top_level_types_validated(key, value, override):
    with pytest.raises(ConfigError):
        build_config({key: value})
    with pytest.raises(ConfigError):
        load_config(None, [override])


@pytest.mark.parametrize("override", ["train=5", "task={image_size: 8}"])
def test_whole_section_override_rejected(override):
    with pytest.raises(ConfigError):
        load_config(None, [override])


@pytest.mark.parametrize("override, value", [
    ("train.lr=1e-3", 1e-3), ("train.lr=1.0e6", 1e6), ("train.lr=2E+2", 200.0),
    ("task.contrast_shift=-.5e-1", -0.05), ("train.lr=3", 3.0),
    ("subsample_rate=5e-1", 0.5)])
def test_float_numerals_in_overrides(override, value):
    cfg = load_config(None, [override])
    target = cfg
    for part in override.partition("=")[0].split("."):
        target = getattr(target, part)
    assert target == value


def test_exponent_float_in_yaml_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("subsample_rate: 5e-1\ntrain:\n  lr: 1e-3\n")
    cfg = load_config(path)
    assert cfg.train.lr == 1e-3
    assert cfg.subsample_rate == 0.5


@pytest.mark.parametrize("key, value", [
    ("lr", "abc"), ("lr", "1e"), ("lr", "1.2.3"), ("lr", "true"), ("lr", ""),
    ("lr", "nan"), ("lr", ".inf"), ("lr", "-.inf"), ("lr", ".nan"),
    ("lr", "1e999"), ("iterations", "1e3")])
def test_non_numerals_rejected(key, value):
    with pytest.raises(ConfigError):
        load_config(None, [f"train.{key}={value}"])
    with pytest.raises(ConfigError):
        build_config({"train": {key: value}})


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["+", "-"])
def test_int_past_float_range_rejected(value):
    # YAML reads 400 nines as an int that has no float
    with pytest.raises(ConfigError):
        load_config(None, [f"train.lr={value}"])
    with pytest.raises(ConfigError):
        build_config({"train": {"lr": value}})
