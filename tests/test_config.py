"""Run configs: JSON round trips, validation, and content hashing."""

import json
from dataclasses import replace

import pytest

from blindtrack.config import ModelConfig, RunConfig, TrainConfig
from blindtrack.errors import ConfigError
from blindtrack.simulator import NoiseModel, SimulatorConfig


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        cfg = RunConfig(
            data_seed=3,
            n_train=10,
            sim=SimulatorConfig(n_agents=4, noise=NoiseModel(kind="combined", gps_sigma=1.5)),
        )
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_hash_survives_round_trip(self):
        cfg = RunConfig(train_seed=11, lr=3e-4)
        assert RunConfig.from_dict(cfg.to_dict()).config_hash() == cfg.config_hash()

    def test_hash_sensitive_to_every_field(self):
        base = RunConfig()
        for variant in (
            base.override(data_seed=1),
            base.override(epochs=base.epochs + 1),
            base.override(sim=SimulatorConfig(noise=NoiseModel(gps_sigma=3.0))),
        ):
            assert variant.config_hash() != base.config_hash()

    def test_default_hash_is_pinned(self):
        # the digest of the defaults when RunConfig spelled out the model and
        # training defaults as literals, before it took them from
        # ModelConfig and TrainConfig
        assert RunConfig().config_hash() == "ea25faa1d59c0be2984e1c25ad036b8a9a8af76bfa6ac568fe300f5fd8403a9a"

    def test_file_round_trip(self, tmp_path):
        cfg = RunConfig(n_train=5, n_val=1, n_test=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert RunConfig.from_file(path) == cfg

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)

    def test_unknown_field_is_a_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"n_train": 4, "wheels": 4})

    @pytest.mark.parametrize("raw, field", [({"epochs": True}, "epochs"), ({"sim": {"focal": False}}, "sim.focal")])
    def test_a_bool_is_no_number(self, raw, field):
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict(raw)
        assert err.value.field == field

    def test_an_int_for_a_float_field_is_kept_as_read(self):
        raw = {"lr": 1, "sim": {"focal": 500, "image_size": [640, 480]}}
        cfg = RunConfig.from_dict(raw)
        assert type(cfg.lr) is int and type(cfg.sim.focal) is int
        assert cfg.to_dict()["lr"] == 1 and cfg.to_dict()["sim"]["image_size"] == [640, 480]

    def test_a_config_naming_n_in_max_is_refused(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({**RunConfig().to_dict(), "n_in_max": 8})


class TestValidation:
    def test_width_must_divide_by_heads(self):
        with pytest.raises(ConfigError):
            RunConfig(width=30, heads=4).validate()

    def test_positive_lr(self):
        with pytest.raises(ConfigError):
            RunConfig(lr=0.0).validate()

    @pytest.mark.parametrize("name", ["lr"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_learning_rate_and_weight_must_be_finite(self, name, value):
        # a canonical-JSON config hash cannot hold them
        with pytest.raises(ConfigError) as err:
            RunConfig.from_dict({name: value})
        assert err.value.field == name

    @pytest.mark.parametrize(
        "cls, changes, field",
        [(SimulatorConfig, {"t_obs": 10.5}, "t_obs"), (SimulatorConfig, {"n_agents": 4.0}, "n_agents"),
         (SimulatorConfig, {"t_pred": True}, "t_pred"), (ModelConfig, {"width": 16.0, "heads": 4}, "width"),
         (TrainConfig, {"epochs": 2.5}, "epochs"), (TrainConfig, {"seed": False}, "seed"),
         (RunConfig, {"n_train": 3.5}, "n_train"), (RunConfig, {"data_seed": 1.5}, "data_seed"),
         (RunConfig, {"sim": SimulatorConfig(t_obs=10.5)}, "t_obs")],
    )
    def test_an_int_field_holds_an_int(self, cls, changes, field):
        # a float or a bool in an int field reaches range() or a shape
        # downstream; every config refuses it at validate()
        with pytest.raises(ConfigError) as err:
            cls(**changes).validate()
        assert err.value.field == field

    def test_split_sizes(self):
        with pytest.raises(ConfigError):
            RunConfig(n_train=0).validate()

    def test_override_validates(self):
        with pytest.raises(ConfigError):
            RunConfig().override(epochs=0)

    @pytest.mark.parametrize(
        "changes, field",
        [({"t_pred": 0}, "t_pred"), ({"width": 0}, "width"), ({"width": -8}, "width"), ({"layers": 0}, "layers"),
         ({"heads": 0}, "heads"), ({"width": 8, "heads": 3}, "heads"), ({"focal": 0.0}, "focal"),
         ({"focal": -1.0}, "focal"), ({"focal": float("nan")}, "focal"), ({"focal": float("inf")}, "focal")],
    )
    def test_model_dimensions_checked_in_one_place(self, changes, field):
        with pytest.raises(ConfigError) as err:
            replace(ModelConfig(), **changes).validate()
        assert err.value.field == field
        ModelConfig().validate()

    @pytest.mark.parametrize(
        "changes, field",
        [({"width": 0}, "width"), ({"layers": 0}, "layers"), ({"heads": 0}, "heads"),
         ({"sim": SimulatorConfig(focal=float("nan"))}, "focal")],
    )
    def test_run_config_checks_the_model_config(self, changes, field):
        with pytest.raises(ConfigError) as err:
            RunConfig(**changes).validate()
        assert err.value.field == field


class TestDerivedConfigs:
    def test_model_config_carries_dimensions(self):
        cfg = RunConfig(width=32, layers=3, heads=2, sim=SimulatorConfig(focal=800.0))
        mcfg = cfg.model_config()
        assert (mcfg.t_pred, mcfg.width, mcfg.layers, mcfg.heads, mcfg.focal) == (cfg.sim.t_pred, 32, 3, 2, 800.0)

    def test_train_config_seed_override(self):
        cfg = RunConfig(train_seed=5, epochs=13, lr=2e-3)
        tcfg = cfg.train_config()
        assert tcfg.seed == 5 and tcfg.epochs == 13 and tcfg.lr == 2e-3
        assert cfg.train_config(seed=9).seed == 9
