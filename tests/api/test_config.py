"""ExperimentConfig validation: strictness, suggestions, file loading."""

import dataclasses
import json

import pytest

from repro.api import (
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    config_from_file,
    config_to_dict,
)
from repro.api.config import TrainConfig, _toml_module

needs_toml = pytest.mark.skipif(
    _toml_module() is None,
    reason="no tomllib (Python < 3.11) and no tomli backport")


class TestDefaults:
    def test_default_tree_is_valid_and_runs_the_full_pipeline(self):
        cfg = ExperimentConfig()
        assert cfg.stages == ("train", "convert", "quantize", "simulate",
                              "hardware")
        assert cfg.dataset.name == "mini-cifar10"
        assert cfg.model.arch == "vgg_micro"

    def test_config_is_frozen_and_digestible(self):
        from repro.engine.cache import digest

        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.name = "other"
        assert digest(cfg.train) == digest(cfg.train)
        assert digest(cfg.train) != digest(TrainConfig(epochs=99))

    def test_train_config_lowers_to_catconfig_with_derived_schedule(self):
        cat = TrainConfig(window=6, epochs=20).cat_config(seed=3)
        assert cat.window == 6
        assert cat.relu_epochs == 2          # max(1, 20 // 10)
        assert cat.ttfs_epoch == 17          # max(1, int(20 * 0.85))
        assert cat.milestones == (8, 12, 16)
        assert cat.seed == 3
        explicit = TrainConfig(epochs=20, relu_epochs=1, ttfs_epoch=5,
                               milestones=(2, 3)).cat_config()
        assert (explicit.relu_epochs, explicit.ttfs_epoch,
                explicit.milestones) == (1, 5, (2, 3))


class TestValidation:
    def test_unknown_top_level_field_suggests_closest(self):
        with pytest.raises(ConfigError, match="did you mean 'dataset'"):
            config_from_dict({"datset": {"name": "mini-cifar10"}})

    def test_unknown_nested_field_names_the_section(self):
        with pytest.raises(ConfigError,
                           match=r"unknown field 'epohcs' in train.*"
                                 r"did you mean 'epochs'"):
            config_from_dict({"train": {"epohcs": 3}})

    def test_unknown_stage_name_suggests_closest(self):
        with pytest.raises(ConfigError,
                           match="unknown pipeline stage 'trian'.*"
                                 "did you mean 'train'"):
            config_from_dict({"stages": ["trian"]})

    def test_unknown_scheme_suggests_closest(self):
        with pytest.raises(ConfigError,
                           match="simulate.scheme.*"
                                 "did you mean 'ttfs-closed-form'"):
            config_from_dict({"simulate": {"scheme": "ttfs-close-form"}})

    def test_unknown_backend_suggests_closest(self):
        with pytest.raises(ConfigError,
                           match="simulate.backend.*did you mean 'event'"):
            config_from_dict({"simulate": {"backend": "events"}})
        with pytest.raises(ConfigError,
                           match="simulate.backend.*available: dense, event$"):
            config_from_dict({"simulate": {"backend": "auto"}})
        cfg = config_from_dict({"simulate": {"backend": "event"}})
        assert cfg.simulate.backend == "event"

    def test_unknown_dataset_arch_method_profile_are_rejected(self):
        with pytest.raises(ConfigError, match="dataset.name"):
            config_from_dict({"dataset": {"name": "imagenet-22k"}})
        with pytest.raises(ConfigError, match="model.arch"):
            config_from_dict({"model": {"arch": "resnet50"}})
        with pytest.raises(ConfigError, match="train.method"):
            config_from_dict({"train": {"method": "I+IV"}})
        with pytest.raises(ConfigError, match="hardware.profile"):
            config_from_dict({"hardware": {"profile": "guessed"}})

    def test_type_errors_name_the_dotted_path(self):
        with pytest.raises(ConfigError, match="train.epochs must be an "
                                              "integer"):
            config_from_dict({"train": {"epochs": "ten"}})
        with pytest.raises(ConfigError, match="simulate.max_batch"):
            config_from_dict({"simulate": {"max_batch": True}})
        with pytest.raises(ConfigError, match="train.augment must be "
                                              "true/false"):
            config_from_dict({"train": {"augment": 1}})

    def test_tuple_field_elements_are_validated_at_load(self):
        with pytest.raises(ConfigError, match="train.milestones must be "
                                              "a list of integers"):
            config_from_dict({"train": {"milestones": ["a", "b"]}})
        with pytest.raises(ConfigError, match="train.milestones"):
            from repro.api.config import TrainConfig as TC

            TC(milestones=(1, "two"))

    def test_range_errors(self):
        with pytest.raises(ConfigError, match="train.epochs must be >= 1"):
            config_from_dict({"train": {"epochs": 0}})
        with pytest.raises(ConfigError, match="quantize.bits"):
            config_from_dict({"quantize": {"bits": 1}})
        with pytest.raises(ConfigError, match="simulate.limit"):
            config_from_dict({"simulate": {"limit": -1}})

    def test_empty_or_duplicate_stages_rejected(self):
        with pytest.raises(ConfigError, match="at least one stage"):
            config_from_dict({"stages": []})
        with pytest.raises(ConfigError, match="duplicates"):
            config_from_dict({"stages": ["train", "train"]})

    def test_removed_export_stage_and_artifact_fields_are_rejected(self):
        # repro build is the one bundle writer; the restore stage only
        # reads artifact.path
        with pytest.raises(ConfigError,
                           match="unknown pipeline stage 'export'"):
            config_from_dict({"stages": ["train", "convert", "export"]})
        # path is the section's one field: any other is unknown
        with pytest.raises(ConfigError,
                           match="unknown field 'name' in artifact;"
                                 ".* valid fields: path$"):
            config_from_dict({"artifact": {"name": "x"}})

    def test_section_must_be_a_table(self):
        with pytest.raises(ConfigError, match="train must be a "
                                              "table/object"):
            config_from_dict({"train": 5})


class TestRoundTrip:
    def test_dict_round_trip(self):
        cfg = config_from_dict({
            "name": "rt",
            "stages": ["train", "convert"],
            "train": {"epochs": 3, "milestones": [1, 2]},
        })
        assert cfg.train.milestones == (1, 2)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_to_dict_is_json_able(self):
        assert json.loads(json.dumps(config_to_dict(ExperimentConfig())))


class TestFileLoading:
    def test_json_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"name": "from-json",
                                    "train": {"epochs": 1}}))
        cfg = config_from_file(path)
        assert cfg.name == "from-json" and cfg.train.epochs == 1

    @needs_toml
    def test_toml_file(self, tmp_path):
        path = tmp_path / "exp.toml"
        path.write_text('name = "from-toml"\nstages = ["fig2"]\n'
                        '[analysis]\nwindow = 12\n')
        cfg = config_from_file(path)
        assert cfg.name == "from-toml"
        assert cfg.stages == ("fig2",)
        assert cfg.analysis.window == 12

    def test_bundled_example_config_loads(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        cfg = config_from_file(root / "examples" / "configs"
                               / "micro-pipeline.json")
        assert cfg.stages == ("train", "convert", "quantize", "simulate",
                              "hardware")

    def test_cat_demo_config_trains_converts_and_evaluates(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        cfg = config_from_file(root / "examples" / "configs"
                               / "cat-demo.json")
        assert cfg.stages == ("train", "convert")
        assert (cfg.model.arch, cfg.train.window, cfg.train.tau,
                cfg.train.epochs) == ("vgg7", 12, 2.0, 10)
        assert cfg.convert.evaluate and cfg.train.verbose

    @needs_toml
    def test_bundled_toml_example_loads(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        toml_cfg = config_from_file(root / "examples" / "configs"
                                    / "paper-artefacts.toml")
        assert toml_cfg.stages == ("fig2", "fig6", "table4", "latency")

    def test_missing_file_and_bad_suffix_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            config_from_file(tmp_path / "nope.json")
        bad = tmp_path / "exp.yaml"
        bad.write_text("a: 1")
        with pytest.raises(ConfigError, match="unsupported config "
                                              "extension"):
            config_from_file(bad)
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            config_from_file(broken)

    @pytest.mark.parametrize("content", [b'{"name": "\xff\xfe"}',
                                         b"[" * 100_000, b"[1]"],
                             ids=["non-utf8", "deep", "list"])
    def test_hostile_json_names_the_file(self, tmp_path, content):
        path = tmp_path / "hostile.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError,
                           match=r"hostile\.json: corrupted config file"):
            config_from_file(path)

    @needs_toml
    @pytest.mark.parametrize("content", [b'name = "\xff\xfe"\n',
                                         b"a = " + b"[" * 100_000],
                             ids=["non-utf8", "deep"])
    def test_hostile_toml_names_the_file(self, tmp_path, content):
        path = tmp_path / "hostile.toml"
        path.write_bytes(content)
        with pytest.raises(ConfigError,
                           match=r"hostile\.toml is not valid TOML"):
            config_from_file(path)


class TestShardDatasetConfig:
    def test_shards_skip_name_validation(self):
        # shards point at a directory; the name is informational then
        cfg = config_from_dict({"dataset": {"shards": "/somewhere/shards"}})
        assert cfg.dataset.shards == "/somewhere/shards"
        assert cfg.dataset.prefetch == 2

    def test_prefetch_loads_and_validates(self):
        cfg = config_from_dict({"dataset": {"prefetch": 0}})
        assert cfg.dataset.prefetch == 0
        with pytest.raises(ConfigError, match="prefetch"):
            config_from_dict({"dataset": {"prefetch": -1}})

    def test_unknown_dataset_name_still_rejected_without_shards(self):
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict({"dataset": {"name": "imagenet-22k"}})

    def test_round_trips_through_to_dict(self):
        cfg = config_from_dict({"dataset": {"shards": "/tmp/s",
                                            "prefetch": 3}})
        again = config_from_dict(config_to_dict(cfg))
        assert again.dataset.shards == "/tmp/s"
        assert again.dataset.prefetch == 3
