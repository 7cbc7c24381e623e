"""Binary checkpoint container.

Layout: an 8-byte magic, an 8-byte little-endian header length, a
canonical-JSON header, then each array as raw little-endian float64 in the
order the header lists them. No timestamps or other ambient state, so the
same model bytes always produce the same file.

A checkpoint is the model: its arrays are the parameters, and nothing
else. The header's "kind" (the method name) alone names the architecture,
"model" holds only the ModelConfig dimensions (t_pred, width, layers,
heads and the rig's focal length) and "train" the TrainConfig.
"config_hash" is the hash of the run config the model was trained on, or
"" for a model paired with no dataset. "epoch", "best_val_sum" and "adam"
(the optimizer's step count and lr) record the run and are never read
back. A header of another format, a "kind" that names no trainable
method, a "config_hash" that is no string, or "model" or "train" values
that fail validation, is refused with SchemaError, and
so is a file that stores arrays the model lacks: a checkpoint of the
older format, which also held Adam's moments as "adam.m:"/"adam.v:"
arrays, is refused naming its first "adam.m:" array.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict

import numpy as np

from .baselines import method_names
from .config import ModelConfig, TrainConfig, from_json
from .dataset import canonical_json
from .errors import ConfigError, HashMismatch, SchemaError
from .nn import Adam

MAGIC = b"BTCKPT01"

# header entries every reader relies on
HEADER_KEYS = ("kind", "model", "train", "config_hash", "arrays")


def save_checkpoint(
    path,
    model,
    optimizer: Adam,
    tcfg: TrainConfig,
    config_hash: str = "",
    epoch: int = -1,
    best_val_sum: float | None = None,
) -> None:
    named = list(model.named_parameters())
    if len(optimizer.params) != len(named) or any(
        opt_p is not p for opt_p, (_, p) in zip(optimizer.params, named)
    ):
        raise ValueError("optimizer does not track exactly the model parameters, in order")
    arrays = [(name, p.data) for name, p in named]
    header = {
        "kind": model.name,
        "model": asdict(model.cfg),
        "train": asdict(tcfg),
        "config_hash": config_hash,
        "epoch": int(epoch),
        "best_val_sum": best_val_sum,
        "adam": {"t": optimizer.t, "lr": optimizer.lr},
        "arrays": [{"name": n, "rows": a.shape[0], "cols": a.shape[1]} for n, a in arrays],
    }
    blob = canonical_json(header).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (header, arrays by name)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size  # bounds every length the header claims before it is read
        magic = fh.read(8)
        if magic != MAGIC:
            raise SchemaError(f"{path}: not a checkpoint (magic {magic!r})", field="magic")
        length = fh.read(8)
        header_len = struct.unpack("<Q", length)[0] if len(length) == 8 else size
        if header_len > size - 16:
            raise SchemaError(f"{path}: truncated header", field="header")
        try:
            header = json.loads(fh.read(header_len))
        except ValueError as err:  # not JSON, or not UTF-8
            raise SchemaError(f"{path}: checkpoint header is not JSON ({err})", field="header") from err
        missing = [key for key in HEADER_KEYS if not isinstance(header, dict) or key not in header]
        if missing:
            raise SchemaError(f"{path}: checkpoint header has no {missing[0]!r}", field=missing[0])
        kind, config_hash = header["kind"], header["config_hash"]
        if kind not in method_names():
            raise SchemaError(f"{path}: checkpoint header 'kind' {kind!r} names no trainable method", field="kind")
        if type(config_hash) is not str:
            raise SchemaError(
                f"{path}: checkpoint header 'config_hash' must be a string, got {config_hash!r}", field="config_hash"
            )
        if not isinstance(header["arrays"], list):
            raise SchemaError(f"{path}: checkpoint header 'arrays' is not a list", field="arrays")
        arrays = {}
        for i, entry in enumerate(header["arrays"]):
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str) or not all(
                type(entry.get(key)) is int and entry[key] >= 0 for key in ("rows", "cols")
            ):
                raise SchemaError(
                    f"{path}: checkpoint header arrays[{i}] needs a name and non-negative integer rows and cols",
                    field=f"arrays[{i}]",
                )
            rows, cols = entry["rows"], entry["cols"]
            if rows * cols * 8 > size - fh.tell():
                raise SchemaError(f"{path}: truncated array {entry['name']!r}", field="arrays")
            arrays[entry["name"]] = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8").reshape(rows, cols).copy()
        if fh.read(1):
            raise SchemaError(f"{path}: trailing bytes after arrays", field="arrays")
    return header, arrays


def _section(header: dict, key: str, cls):
    """cls from header[key], which must name exactly cls's fields, each of
    its type (config.from_json), with values cls.validate accepts: a header
    of another format is refused. A section that is no object reads as empty."""
    try:
        cfg = from_json(cls, header[key] if isinstance(header.get(key), dict) else {}, required=True)
        cfg.validate()
    except ConfigError as err:
        raise SchemaError(f"checkpoint header {key!r}: {err}", field=f"{key}.{err.field}") from None
    return cfg


def model_config_from_header(header: dict) -> ModelConfig:
    return _section(header, "model", ModelConfig)


def train_config_from_header(header: dict) -> TrainConfig:
    return _section(header, "train", TrainConfig)


def restore_model(model, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Copy parameters into a freshly built model; takes (header, arrays)
    as load_checkpoint returns them, though the model was built from the
    header already. Every stored array must have a place in the model, and
    hold finite values only: a checkpoint written by another version of
    the architecture is refused, not silently trimmed, and so is one
    holding NaN or inf."""
    named = list(model.named_parameters())
    unknown = sorted(set(arrays) - {name for name, _ in named})
    if unknown:
        raise SchemaError(
            f"checkpoint holds {len(unknown)} parameters a {model.name!r} model does not have: "
            f"{', '.join(unknown[:3])}{', ...' if len(unknown) > 3 else ''}",
            field=unknown[0],
        )
    for name, p in named:
        if name not in arrays:
            raise SchemaError(f"checkpoint missing array {name!r}", field=name)
        if arrays[name].shape != p.data.shape:
            raise SchemaError(
                f"array {name!r} has shape {arrays[name].shape}, model needs {p.data.shape}",
                field=name,
            )
        if not np.isfinite(arrays[name]).all():
            raise SchemaError(f"array {name!r} holds a non-finite value", field=name)
        p.data[...] = arrays[name]


def require_hash(header: dict, expected: str, what: str) -> None:
    if expected and header.get("config_hash") and header["config_hash"] != expected:
        raise HashMismatch(
            f"{what}: checkpoint built for config {header['config_hash'][:12]}, "
            f"got {expected[:12]}"
        )
