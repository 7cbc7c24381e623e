"""Binary checkpoint container.

Layout: an 8-byte magic, an 8-byte little-endian header length, a
canonical-JSON header, then each array as raw little-endian float64 in the
order the header lists them. No timestamps or other ambient state, so the
same model bytes always produce the same file.

The header's "kind" (the method name) alone names the architecture, and
"model" holds only the ModelConfig dimensions (t_pred, width, layers,
heads and the rig's focal length). A header of another format, or whose
dimensions ModelConfig.validate refuses, is refused with SchemaError.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, fields

import numpy as np

from .config import JSON_TYPES
from .errors import ConfigError, HashMismatch, SchemaError
from .nn import Adam
from .pipeline import ModelConfig, TrainConfig

MAGIC = b"BTCKPT01"

ADAM_M = "adam.m:"
ADAM_V = "adam.v:"
# header entries every reader relies on
HEADER_KEYS = ("kind", "model", "train", "adam", "arrays")
# the optimizer state restore_model reads from header["adam"]
ADAM_KEYS = ("t", "lr", "beta1", "beta2", "eps")


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


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
    arrays: list[tuple[str, np.ndarray]] = [(name, p.data) for name, p in named]
    arrays += [(ADAM_M + name, m) for (name, _), m in zip(named, optimizer.m)]
    arrays += [(ADAM_V + name, v) for (name, _), v in zip(named, optimizer.v)]
    header = {
        "kind": model.name,
        "model": asdict(model.cfg),
        "train": asdict(tcfg),
        "config_hash": config_hash,
        "epoch": int(epoch),
        "best_val_sum": best_val_sum,
        "adam": {key: getattr(optimizer, key) for key in ADAM_KEYS},
        "arrays": [{"name": n, "rows": a.shape[0], "cols": a.shape[1]} for n, a in arrays],
    }
    blob = _canonical(header)
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
    """Build cls from header[key], which must name exactly cls's fields,
    each holding a value of its type: a header written by another version
    of the format is refused."""
    stored = header[key] if isinstance(header.get(key), dict) else {}
    odd = sorted(set(stored) ^ {f.name for f in fields(cls)})
    if odd:
        what = "unknown" if odd[0] in stored else "missing"
        raise SchemaError(f"checkpoint header {key!r}: {what} field {odd[0]!r}", field=f"{key}.{odd[0]}")
    for f in fields(cls):
        if type(stored[f.name]) not in JSON_TYPES[f.type]:
            raise SchemaError(
                f"checkpoint header {key!r}: field {f.name!r} holds {type(stored[f.name]).__name__}, not {f.type}",
                field=f"{key}.{f.name}",
            )
    return cls(**stored)


def model_config_from_header(header: dict) -> ModelConfig:
    cfg = _section(header, "model", ModelConfig)
    try:
        cfg.validate()
    except ConfigError as err:
        raise SchemaError(f"checkpoint header 'model': {err}", field=f"model.{err.field}") from None
    return cfg


def train_config_from_header(header: dict) -> TrainConfig:
    return _section(header, "train", TrainConfig)


def restore_model(model, header: dict, arrays: dict[str, np.ndarray]) -> Adam:
    """Copy parameters into a freshly built model and rebuild its
    optimizer, including moment estimates and step count. Every stored
    array must have a place in the model, and hold finite values only: a
    checkpoint written by another version of the architecture is refused,
    not silently trimmed, and so is one holding NaN or inf."""
    names = [name for name, _ in model.named_parameters()]
    expected = {key for name in names for key in (name, ADAM_M + name, ADAM_V + name)}
    unknown = sorted({key.removeprefix(ADAM_M).removeprefix(ADAM_V) for key in set(arrays) - expected})
    if unknown:
        raise SchemaError(
            f"checkpoint holds parameters a {model.name!r} model does not have: {', '.join(unknown)}",
            field=unknown[0],
        )
    adam = header["adam"] if isinstance(header.get("adam"), dict) else {}
    for key in ADAM_KEYS:
        value = adam.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            what = "missing" if key not in adam else "non-numeric"
            raise SchemaError(f"checkpoint header 'adam': {what} field {key!r}", field=f"adam.{key}")
    optimizer = Adam(model.parameters(), lr=adam["lr"], betas=(adam["beta1"], adam["beta2"]), eps=adam["eps"])
    optimizer.t = adam["t"]
    for i, (name, p) in enumerate(model.named_parameters()):
        for key, dest in ((name, p.data), (ADAM_M + name, optimizer.m[i]), (ADAM_V + name, optimizer.v[i])):
            if key not in arrays:
                raise SchemaError(f"checkpoint missing array {key!r}", field=key)
            if arrays[key].shape != dest.shape:
                raise SchemaError(
                    f"array {key!r} has shape {arrays[key].shape}, model needs {dest.shape}",
                    field=key,
                )
            if not np.isfinite(arrays[key]).all():
                raise SchemaError(f"array {key!r} holds a non-finite value", field=key)
            dest[...] = arrays[key]
    return optimizer


def require_hash(header: dict, expected: str, what: str) -> None:
    if expected and header.get("config_hash") and header["config_hash"] != expected:
        raise HashMismatch(
            f"{what}: checkpoint built for config {header['config_hash'][:12]}, "
            f"got {expected[:12]}"
        )
