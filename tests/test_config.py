"""Run configs: JSON round trips, validation, and content hashing."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blindtrack.config import ModelConfig, RunConfig, TrainConfig
from blindtrack.errors import ConfigError
from blindtrack.simulator import MOTION_KINDS, NoiseModel, SimulatorConfig


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        cfg = RunConfig(
            data_seed=3,
            n_train=10,
            sim=SimulatorConfig(n_agents=4, noise=NoiseModel(gps_sigma=1.5, drift_step_sigma=0.1)),
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
        # the digest of the defaults since the noise model is its two sigmas
        # alone; it was ea25faa1... while the noise also named a kind
        assert RunConfig().config_hash() == "d1e67f9ca6fbe2f70d77afebb63e1d655fdff7cdac61b0926eb8f174ae73d34c"

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

    @pytest.mark.parametrize(
        "cls, changes, field",
        [(RunConfig, {"lr": True}, "lr"), (TrainConfig, {"lr": "1e-3"}, "lr"),
         (SimulatorConfig, {"focal": True}, "focal"), (ModelConfig, {"focal": None}, "focal"),
         (NoiseModel, {"gps_sigma": True}, "noise.gps_sigma"), (NoiseModel, {"gps_sigma": "2"}, "noise.gps_sigma"),
         (NoiseModel, {"drift_step_sigma": [0.1]}, "noise.drift_step_sigma"),
         (RunConfig, {"sim": SimulatorConfig(noise=NoiseModel(gps_sigma=False))}, "noise.gps_sigma"),
         (SimulatorConfig, {"image_size": [640, 480]}, "image_size"), (SimulatorConfig, {"image_size": 5}, "image_size"),
         (SimulatorConfig, {"camera_motion": 1}, "camera_motion")],
    )
    def test_a_field_holds_what_its_json_holds(self, cls, changes, field):
        # from_json's rule: a bool or a non-number is no float, and an
        # image size is read as a tuple of ints
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


# values of any JSON or Python type, one of which now and then takes a field's place
ANY = st.one_of(st.none(), st.booleans(), st.integers(-2, 2**70), st.floats(), st.text(max_size=2),
                st.lists(st.integers(0, 9), max_size=3), st.integers(0, 9).map(np.int64),
                st.floats(0, 9).map(np.float64))
SIZES = st.integers(1, 2000)
VALID_RUNS = st.builds(
    RunConfig,
    data_seed=st.integers(0, 2**70), train_seed=st.integers(0, 99), n_train=st.integers(1, 99),
    n_val=st.integers(0, 9), n_test=st.integers(1, 99),
    sim=st.builds(
        SimulatorConfig,
        n_agents=st.integers(2, 12), t_obs=st.integers(2, 100), t_pred=st.integers(1, 100),
        camera_motion=st.sampled_from(MOTION_KINDS),
        noise=st.builds(NoiseModel, gps_sigma=st.floats(0, 10) | st.integers(0, 10),
                        drift_step_sigma=st.floats(0, 1) | st.just(0)),
        image_size=st.tuples(SIZES, SIZES), focal=st.floats(1e-3, 1e4) | st.integers(1, 5000),
    ),
    width=st.sampled_from([8, 16, 64]), layers=st.integers(1, 4), heads=st.sampled_from([1, 2, 4]),
    epochs=st.integers(1, 500), batch_size=st.integers(1, 64), lr=st.floats(1e-9, 10.0) | st.integers(1, 3),
)
# the dotted path of every field that holds a value, not a config
PATHS = [*(f"sim.noise.{f.name}" for f in fields(NoiseModel)),
         *(f"sim.{f.name}" for f in fields(SimulatorConfig) if f.name != "noise"),
         *(f.name for f in fields(RunConfig) if f.name != "sim")]


def with_value(cfg, path: str, value):
    head, _, rest = path.partition(".")
    return replace(cfg, **{head: with_value(getattr(cfg, head), rest, value) if rest else value})


@st.composite
def run_configs(draw):
    """A run config of valid field values, or one with one field of any type."""
    cfg, path = draw(VALID_RUNS), draw(st.none() | st.sampled_from(PATHS))
    return cfg if path is None else with_value(cfg, path, draw(ANY))


class TestEveryValidConfigRoundTrips:
    @seed(29)
    @settings(max_examples=400, deadline=None)
    @given(run_configs())
    def test_from_dict_of_to_dict_is_the_config(self, cfg):
        # a config a library caller builds and validate() accepts is the
        # one its dataset's manifest gives back to train and ablate
        try:
            cfg.validate()
        except ConfigError:
            return
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg and again.config_hash() == cfg.config_hash()
