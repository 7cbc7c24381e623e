"""Every settable value of a run: RunConfig, and the ModelConfig and
TrainConfig derived from it that a checkpoint header stores. One JSON
reader (from_json) reads them all, and a content hash pairs datasets with
the run configs that produced them."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

from .dataset import hash_of
from .errors import ConfigError
from .simulator import FOCAL, NoiseModel, SimulatorConfig, is_int, require_ints

# whether a JSON value fits a config field of each annotated type: a bool
# is no number, and an int is accepted as a float
JSON_TYPES = {"int": is_int, "float": lambda v: type(v) in (int, float), "str": lambda v: type(v) is str}
# the fields that hold a config of their own, read from an object
NESTED = {"SimulatorConfig": SimulatorConfig, "NoiseModel": NoiseModel}


def from_json(cls, raw, where: str = "", required: bool = False):
    """cls from raw, a JSON object naming any of cls's fields, or all of
    them when required. Each value must be of its field's JSON type
    (JSON_TYPES), an image size a list of ints and a nested config an
    object. Values are passed on as read, so to_dict() writes back the
    same JSON. The first field at fault raises ConfigError naming its
    dotted path, missing fields first and in sorted order."""
    if type(raw) is not dict:
        raise ConfigError(f"{where or 'config'} must be an object, got {type(raw).__name__}", field=where)
    kinds = {f.name: f.type for f in fields(cls)}
    missing = sorted(set(kinds) - set(raw)) if required else []
    if missing:
        name = f"{where}.{missing[0]}" if where else missing[0]
        raise ConfigError(f"missing field {name!r}", field=name)
    values = {}
    for key, value in raw.items():
        name = f"{where}.{key}" if where else key
        kind = kinds.get(key)
        if kind is None:
            raise ConfigError(f"unknown field {name!r}", field=name)
        if kind in NESTED:
            value = from_json(NESTED[kind], value, name)
        elif kind == "tuple[int, int]" and type(value) is list and all(map(is_int, value)):
            value = tuple(value)
        elif kind not in JSON_TYPES or not JSON_TYPES[kind](value):
            raise ConfigError(f"field {name!r} holds {type(value).__name__}, not {kind}", field=name)
        values[key] = value
    return cls(**values)


@dataclass(frozen=True)
class ModelConfig:
    """A model's dimensions; its method name alone names its architecture,
    and each batch of scenes gives its observation window."""

    t_pred: int = 20
    width: int = 64
    layers: int = 2
    heads: int = 4
    focal: float = FOCAL  # the rig's focal length in pixels, which the camera fit reads

    def validate(self) -> None:
        require_ints(self, t_pred=1, width=1, layers=1, heads=1)
        if self.width % self.heads != 0:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}", field="heads")
        if not (math.isfinite(self.focal) and self.focal > 0):
            raise ConfigError(f"focal must be finite and positive, got {self.focal}", field="focal")


@dataclass(frozen=True)
class TrainConfig:
    """The training loop's budget, step size and shuffle seed."""

    epochs: int = 200
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0

    def validate(self) -> None:
        require_ints(self, epochs=1, batch_size=1)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}", field="lr")


@dataclass(frozen=True)
class RunConfig:
    data_seed: int = 0
    train_seed: int = 0
    n_train: int = 64
    n_val: int = 8
    n_test: int = 8
    sim: SimulatorConfig = field(default_factory=SimulatorConfig)
    width: int = ModelConfig.width
    layers: int = ModelConfig.layers
    heads: int = ModelConfig.heads
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr

    def validate(self) -> None:
        require_ints(self, n_train=1, n_val=0, n_test=1)
        self.train_config().validate()
        for name in ("data_seed", "train_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}", field=name)
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
        cfg = from_json(cls, raw)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as err:  # not UTF-8, or not JSON
                raise ConfigError(f"{path}: invalid JSON ({err})") from err
        return cls.from_dict(raw)

    def override(self, **changes) -> "RunConfig":
        cfg = replace(self, **changes)
        cfg.validate()
        return cfg
