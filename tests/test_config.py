import dataclasses
import json
from pathlib import Path

import pytest

from gaitadapt.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    default_encoder_shape,
    default_source_spec,
    default_target_spec,
    load_config,
    preset_config,
    save_config,
    separable_source_spec,
)
from gaitadapt.data import generate_domain, load_dataset, sample_pk_batch
from gaitadapt.numerics import make_rng
from gaitadapt.pipeline import TrainConfig


class TestDefaults:
    def test_domains_share_geometry_but_differ_in_style(self):
        src, tgt = default_source_spec(), default_target_spec()
        assert (src.height, src.width) == (tgt.height, tgt.width) == (24, 24)
        assert src.id_prefix != tgt.id_prefix
        assert tgt.period != src.period
        assert tgt.dilate != src.dilate
        assert tgt.noise > src.noise
        assert tgt.body_jitter[1] > src.body_jitter[1]

    def test_separable_source_locks_all_walk_variation(self):
        spec = separable_source_spec()
        assert spec.body_jitter == (0.0, 0.0)
        assert spec.phase_jitter == 0.0

    def test_encoder_shape_fits_the_domains(self):
        shape = default_encoder_shape()
        assert (shape.height, shape.width) == (24, 24)
        assert shape.embed_dim % shape.n_strips == 0


class TestPresets:
    def test_desk_is_the_default_config(self):
        assert preset_config("desk") == ExperimentConfig(
            encoder=default_encoder_shape(), train=TrainConfig(),
            source=default_source_spec(), target=default_target_spec())

    @pytest.mark.parametrize("cfg", [
        pytest.param(preset_config("desk"), id="desk"),
        pytest.param(ExperimentConfig.from_dict({}), id="empty-document"),
    ])
    def test_every_preset_draws_a_batch_from_its_own_source(self, cfg, tmp_path):
        generate_domain(cfg.source, tmp_path, "source", seed=1)
        train = load_dataset(tmp_path).split("train")
        batch = sample_pk_batch(train, cfg.train.batch_p, cfg.train.batch_k, make_rng(1))
        assert len(batch) == cfg.train.batch_p * cfg.train.batch_k
        assert cfg.check_batches() is cfg

    @pytest.mark.parametrize("field,value,match", [
        ("batch_k", 11, "batch_k 11 exceeds the 10 sequences"),
        ("batch_p", 21, "batch_p 21 exceeds the 20 training identities"),
    ])
    def test_batches_the_source_cannot_fill_are_rejected(self, field, value, match):
        cfg = ExperimentConfig(
            train=dataclasses.replace(preset_config("desk").train, **{field: value}))
        with pytest.raises(ConfigError, match=match):
            cfg.check_batches()

    def test_unknown_preset(self):
        for name in ("bench", "paper"):
            with pytest.raises(ConfigError, match=f"unknown preset '{name}', expected 'desk'"):
                preset_config(name)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        cfg = preset_config("desk")
        cfg.train = apply_overrides(cfg, seed=42, strategy="low").train
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back.encoder == cfg.encoder
        assert back.train == cfg.train
        assert back.source == cfg.source
        assert back.target == cfg.target

    def test_save_is_deterministic(self, tmp_path):
        cfg = ExperimentConfig(train=TrainConfig(margin=0.2, tau=0.1, batch_p=8, batch_k=16,
                                                 learning_rate=1e-5))
        save_config(cfg, tmp_path / "a.json")
        save_config(cfg, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_partial_document_fills_defaults(self):
        cfg = ExperimentConfig.from_dict({"train": {"seed": 7}})
        assert cfg.train == TrainConfig(seed=7)
        assert cfg.encoder == default_encoder_shape()
        assert cfg.check_batches() is cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_version(self):
        with pytest.raises(ConfigError, match="format_version"):
            ExperimentConfig.from_dict({"format_version": 3})

    @pytest.mark.parametrize("section,key,value,wanted", [
        ("encoder", "height", 24.0, "an integer"),
        ("train", "pretrain_epochs", 1.5, "an integer"),
        ("train", "seed", True, "an integer"),
        ("train", "learning_rate", float("nan"), "a finite number"),
        ("train", "margin", float("inf"), "a finite number"),
        ("train", "adapt_learning_rate", "0.1", "a finite number"),
        ("train", "adapt_learning_rate", None, "a finite number"),
        ("target", "noise", False, "a finite number"),
    ])
    def test_scalar_field_type_is_checked(self, section, key, value, wanted):
        doc = preset_config("desk").to_dict()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=f"^{section}.{key} must be {wanted}, got "):
            ExperimentConfig.from_dict(doc)

    def test_int_accepted_for_float(self):
        doc = preset_config("desk").to_dict()
        doc["train"].update(margin=1, adapt_learning_rate=0)
        train = ExperimentConfig.from_dict(doc).train
        assert (train.margin, train.adapt_learning_rate) == (1, 0)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="section train must be an object"):
            ExperimentConfig.from_dict({"train": 5})

    def test_unknown_section_is_refused(self):
        # a misspelled section must not load silently as the defaults
        with pytest.raises(ConfigError, match=r"unknown config section\(s\) \['trian'\]"):
            ExperimentConfig.from_dict({"trian": {"seed": 7}})
        with pytest.raises(ConfigError, match="unknown config section"):
            ExperimentConfig.from_dict({**preset_config("desk").to_dict(), "notes": "x"})

    def test_unknown_train_field(self):
        # named with its section and the fields it could have been
        want = r"unknown config field\(s\) \['train.learning'\], expected one of \['adapt_"
        with pytest.raises(ConfigError, match=want):
            ExperimentConfig.from_dict({"train": {"learning": 1.0}})
        doc = preset_config("desk").to_dict()
        doc["target"]["nosie"] = 0.1
        with pytest.raises(ConfigError, match=r"\['target.nosie'\]"):
            ExperimentConfig.from_dict(doc)

    def test_snapshot_with_a_removed_train_field_is_refused(self):
        # a snapshot written while the instance-term switch existed holds it
        doc = preset_config("desk").to_dict()
        doc["train"]["self_terms_for_unselected"] = False
        with pytest.raises(ConfigError, match=r"\['train.self_terms_for_unselected'\]"):
            ExperimentConfig.from_dict(doc)

    def test_partial_encoder_section_keeps_the_desk_shape(self):
        cfg = ExperimentConfig.from_dict({"encoder": {"channels": 8}})
        assert cfg.encoder == dataclasses.replace(default_encoder_shape(), channels=8)

    def test_partial_source_section_keeps_the_desk_source(self):
        cfg = ExperimentConfig.from_dict({"source": {"identities": 4}})
        assert cfg.source == dataclasses.replace(default_source_spec(), identities=4)

    def test_partial_target_section_keeps_the_desk_target(self):
        cfg = ExperimentConfig.from_dict({"target": {"noise": 0.05}})
        assert cfg.target == dataclasses.replace(default_target_spec(), noise=0.05)

    def test_invalid_train_value(self):
        with pytest.raises(ConfigError, match="tau"):
            ExperimentConfig.from_dict({"train": {"tau": -1.0}})

    def test_invalid_domain_value(self):
        doc = {"source": dict(dataclasses.asdict(default_source_spec()), noise=0.9)}
        with pytest.raises(ConfigError, match="noise"):
            ExperimentConfig.from_dict(doc)


class TestOverrides:
    def test_none_values_are_skipped(self):
        cfg = preset_config("desk")
        before = cfg.train
        out = apply_overrides(cfg, seed=None, strategy=None)
        assert out.train == before

    def test_values_replace_fields(self):
        cfg = apply_overrides(preset_config("desk"), seed=5, strategy="random")
        assert cfg.train.seed == 5
        assert cfg.train.strategy == "random"

    def test_input_config_is_unchanged(self):
        cfg = preset_config("desk")
        out = apply_overrides(cfg, seed=5)
        assert out.train.seed == 5
        assert cfg.train.seed == 1 and cfg == preset_config("desk")

    def test_bad_override_propagates(self):
        with pytest.raises(ConfigError, match="strategy"):
            apply_overrides(preset_config("desk"), strategy="worst")


def test_committed_experiment_configs_load():
    # a config under experiments/ that a field change left stale fails here
    paths = sorted((Path(__file__).resolve().parents[1] / "experiments").glob("*.json"))
    assert paths
    for path in paths:
        load_config(path).check_batches()
