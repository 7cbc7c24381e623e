"""Run configuration: one document tying together simulator, model, and
training settings, with named profiles, JSON round trips, and a content
hash that pairs datasets with the configs that produced them."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from .dataset import hash_of
from .errors import ConfigError
from .pipeline import ModelConfig, TrainConfig
from .simulator import NoiseModel, SimulatorConfig

PROFILES = ("desk", "paper")


@dataclass(frozen=True)
class RunConfig:
    profile: str = "desk"
    data_seed: int = 0
    train_seed: int = 0
    n_train: int = 64
    n_val: int = 8
    n_test: int = 8
    sim: SimulatorConfig = field(default_factory=SimulatorConfig)
    width: int = 64
    layers: int = 2
    heads: int = 4
    epochs: int = 200
    batch_size: int = 16
    lr: float = 1e-3
    pred_weight: float = 1.0

    def validate(self) -> None:
        if self.n_train < 1 or self.n_val < 0 or self.n_test < 1:
            raise ConfigError(
                f"split sizes train={self.n_train} val={self.n_val} test={self.n_test} invalid",
                field="splits",
            )
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}", field=name)
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}", field="lr")
        if self.pred_weight < 0:
            raise ConfigError(f"pred_weight must be >= 0, got {self.pred_weight}", field="pred_weight")
        if self.data_seed < 0 or self.train_seed < 0:
            raise ConfigError("seeds must be non-negative", field="data_seed")
        self.sim.validate()
        self.model_config().validate()

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            t_pred=self.sim.t_pred,
            width=self.width,
            layers=self.layers,
            heads=self.heads,
            focal=self.sim.focal,
        )

    def train_config(self, seed: int | None = None) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            pred_weight=self.pred_weight,
            seed=self.train_seed if seed is None else seed,
        )

    def to_dict(self) -> dict:
        out = asdict(self)
        out["sim"]["image_size"] = list(self.sim.image_size)
        return out

    def config_hash(self) -> str:
        return hash_of(self.to_dict())

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be an object, got {type(raw).__name__}")
        data = dict(raw)
        sim_raw = data.pop("sim", {})
        if not isinstance(sim_raw, dict):
            raise ConfigError("sim must be an object", field="sim")
        sim_data = dict(sim_raw)
        noise_raw = sim_data.pop("noise", {})
        if not isinstance(noise_raw, dict):
            raise ConfigError("sim.noise must be an object", field="sim.noise")
        try:
            noise = NoiseModel(**noise_raw)
        except TypeError as err:
            raise ConfigError(f"bad noise field: {err}", field="sim.noise") from err
        if "image_size" in sim_data:
            sim_data["image_size"] = tuple(sim_data["image_size"])
        try:
            sim_cfg = SimulatorConfig(noise=noise, **sim_data)
        except TypeError as err:
            raise ConfigError(f"bad simulator field: {err}", field="sim") from err
        try:
            cfg = cls(sim=sim_cfg, **data)
        except TypeError as err:
            raise ConfigError(f"bad config field: {err}") from err
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{path}: invalid JSON ({err})") from err
        return cls.from_dict(raw)

    @classmethod
    def from_profile(cls, name: str) -> "RunConfig":
        if name == "desk":
            return cls()
        if name == "paper":
            return cls(
                profile="paper",
                n_train=512,
                n_val=64,
                n_test=64,
                sim=SimulatorConfig(t_obs=100, t_pred=100),
            )
        raise ConfigError(f"unknown profile {name!r}; expected one of {PROFILES}", field="profile")

    def override(self, **changes) -> "RunConfig":
        cfg = replace(self, **changes)
        cfg.validate()
        return cfg
