"""Run configuration: one document tying together simulator, model, and
training settings, with named profiles, JSON round trips, and a content
hash that pairs datasets with the configs that produced them."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

from .dataset import hash_of
from .errors import ConfigError
from .pipeline import ModelConfig, TrainConfig
from .simulator import NoiseModel, SimulatorConfig

PROFILES = ("desk", "paper")
# the JSON values a config field of each annotated type accepts: a bool is
# no number, and an int is accepted as a float. RunConfig.from_dict and
# the checkpoint header's "model" and "train" sections both read it
JSON_TYPES = {"int": {int}, "float": {int, float}, "str": {str}}
# the fields that hold a config of their own, read from an object
NESTED = {"SimulatorConfig": SimulatorConfig, "NoiseModel": NoiseModel}


def _from_json(cls, raw, where: str = ""):
    """cls from raw, a JSON object naming any of cls's fields. Each value
    must be of its field's JSON type (JSON_TYPES), an image size a list of
    ints and a nested config an object. Values are passed on as read, so
    to_dict() writes back the same JSON. The first field at fault raises
    ConfigError naming its dotted path."""
    if type(raw) is not dict:
        raise ConfigError(f"{where or 'config'} must be an object, got {type(raw).__name__}", field=where)
    kinds = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, value in raw.items():
        name = f"{where}.{key}" if where else key
        kind = kinds.get(key)
        if kind is None:
            raise ConfigError(f"unknown config field {name!r}", field=name)
        if kind in NESTED:
            value = _from_json(NESTED[kind], value, name)
        elif kind == "tuple[int, int]" and type(value) is list and set(map(type, value)) <= JSON_TYPES["int"]:
            value = tuple(value)
        elif type(value) not in JSON_TYPES.get(kind, ()):
            raise ConfigError(f"config field {name!r} holds {type(value).__name__}, not {kind}", field=name)
        values[key] = value
    return cls(**values)


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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}", field="lr")
        if not (math.isfinite(self.pred_weight) and self.pred_weight >= 0):
            raise ConfigError(f"pred_weight must be finite and >= 0, got {self.pred_weight}", field="pred_weight")
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
        cfg = _from_json(cls, raw)
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
