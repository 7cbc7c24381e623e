"""Scene serialization: JSONL datasets, split manifests, and the documented
import schema.

Records are canonical JSON (sorted keys, no whitespace), one scene per
line, so identical configs and seeds produce byte-identical files and a
re-serialized import of our own export is the identity. Each numeric
array (`camera`, `world`, `sensor`, `pixel`) is one base64 string of its
little-endian float64 bytes in C order, so a round trip keeps every bit.
A pixel is NaN in both coordinates exactly where its agent is out of
frame; `visible` is not stored but read back as "pixel is not NaN".

Every read checks what it reads: a record that breaks the schema raises
SchemaError naming its file, line and field (CLI exit 7), and
`load_dataset` refuses a config or split file whose hash is not its
manifest's with HashMismatch (exit 4). `blindtrack import` of the
directory re-admits an edited dataset: it reads the files through the
same checks and writes a fresh manifest.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .errors import HashMismatch, SchemaError
from .simulator import Scene, is_int

SCENE_SCHEMA = "blindtrack-scene-v2"
MANIFEST_SCHEMA = "blindtrack-manifest-v1"
SPLIT_NAMES = ("train", "val", "test")
# each field of a scene record with its JSON type; the four arrays are packed strings
SCENE_FIELDS = {"schema": str, "seed": int, "t_obs": int, "t_pred": int, "image_size": list,
                "agent_ids": list, "out_of_sight_id": int,
                "camera": str, "world": str, "sensor": str, "pixel": str}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def hash_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def pack(array) -> str:
    """The base64 text of array's little-endian float64 bytes in C order."""
    return base64.b64encode(np.ascontiguousarray(array, dtype="<f8").tobytes()).decode("ascii")


def scene_to_record(scene: Scene) -> dict:
    """The scene as one record: camera (T, 3, 4), world (n, T, 3), sensor
    (n, t_obs, 3) and pixel (n, T, 2), each packed, with pixels NaN
    wherever their agent is not visible. A non-finite camera, world or
    sensor value, or pixel at a visible step, raises SchemaError."""
    visible = np.asarray(scene.visible, dtype=bool)
    arrays = {
        "camera": np.asarray(scene.camera, dtype=np.float64),
        "world": np.asarray(scene.world, dtype=np.float64),
        "sensor": np.asarray(scene.sensor, dtype=np.float64),
        "pixel": np.array(scene.pixel, dtype=np.float64),  # a copy: its invisible steps become NaN
    }
    for key, values in arrays.items():
        if not np.isfinite(values[visible] if key == "pixel" else values).all():
            raise SchemaError(f"scene seed {scene.seed}: non-finite {key} value", field=key)
    arrays["pixel"][~visible] = np.nan
    return {
        "schema": SCENE_SCHEMA,
        "seed": int(scene.seed),
        "t_obs": int(scene.t_obs),
        "t_pred": int(scene.t_pred),
        "image_size": [int(scene.image_size[0]), int(scene.image_size[1])],
        "agent_ids": [int(agent_id) for agent_id in scene.agent_ids],
        "out_of_sight_id": int(scene.out_of_sight_id),
        **{key: pack(values) for key, values in arrays.items()},
    }


def _fail(line: int, field: str, message: str):
    raise SchemaError(f"line {line}, field {field!r}: {message}", line=line, field=field)


def _unpack(record: dict, key: str, shape: tuple, line: int) -> np.ndarray:
    """The float64 array of shape packed in record[key]."""
    try:
        raw = base64.b64decode(record[key], validate=True)
    except ValueError:  # a character outside the alphabet, or bad padding
        _fail(line, key, "not base64")
    short = 8 * math.prod(shape) - len(raw)
    if short:
        _fail(line, key, f"{abs(short)} bytes {'short' if short > 0 else 'too long'} for {shape} float64")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _refuse_first(bad: np.ndarray, line: int, field: str, message: str, ids=None) -> None:
    """Refuse the record at the first True of bad: (T,) per step, or with
    ids (n, T) per agent and step."""
    if bad.any():
        *agent, step = np.argwhere(bad)[0]
        where = f"agent {ids[agent[0]]}, step {step}" if agent else f"step {step}"
        _fail(line, field, f"{where}: {message}")


def record_to_scene(record: dict, line: int = 0) -> Scene:
    """The one way from a JSON record to a Scene, checked against the
    schema as its arrays are built: the first field at fault raises
    SchemaError naming `line` and the field, and the message names the
    agent and step of a per-agent fault. Each array check is one pass."""
    if type(record) is not dict:
        _fail(line, "", "not an object")
    if record.get("schema", SCENE_SCHEMA) != SCENE_SCHEMA:
        _fail(line, "schema", f"expected {SCENE_SCHEMA!r}, got {record['schema']!r}")
    for key, kind in SCENE_FIELDS.items():
        if key not in record:
            _fail(line, key, "missing")
        if type(record[key]) is not kind:  # a bool is not an int
            _fail(line, key, f"expected {kind.__name__}, got {type(record[key]).__name__}")
    for key, least in (("seed", 0), ("t_obs", 2), ("t_pred", 1)):
        if record[key] < least:
            _fail(line, key, f"must be >= {least}, got {record[key]}")
    seed, t_obs, t_pred, size, ids, hidden = map(
        record.get, ("seed", "t_obs", "t_pred", "image_size", "agent_ids", "out_of_sight_id"))
    if len(size) != 2 or not all(map(is_int, size)) or min(size) < 1:
        _fail(line, "image_size", "expected two positive integers")
    if not ids or not all(map(is_int, ids)):
        _fail(line, "agent_ids", "expected integers" if ids else "empty")
    if len(set(ids)) != len(ids):
        _fail(line, "agent_ids", "duplicate agent id")
    if hidden not in ids:
        _fail(line, "out_of_sight_id", f"scene seed {seed}: out_of_sight_id {hidden} not among ids {sorted(ids)}")
    n, total = len(ids), t_obs + t_pred
    camera = _unpack(record, "camera", (total, 3, 4), line)
    world = _unpack(record, "world", (n, total, 3), line)
    sensor = _unpack(record, "sensor", (n, t_obs, 3), line)
    pixel = _unpack(record, "pixel", (n, total, 2), line)
    _refuse_first(~np.isfinite(camera).all(axis=(1, 2)), line, "camera", "non-finite value")
    _refuse_first(~np.isfinite(world).all(axis=2), line, "world", "non-finite value", ids)
    _refuse_first(~np.isfinite(sensor).all(axis=2), line, "sensor", "non-finite value", ids)
    nan = np.isnan(pixel)
    _refuse_first(nan[..., 0] != nan[..., 1], line, "pixel", "one NaN coordinate; out of frame is NaN in both", ids)
    _refuse_first(np.isinf(pixel).any(axis=2), line, "pixel", "infinite value", ids)
    h = ids.index(hidden)
    _refuse_first(nan[h : h + 1, :, 0], line, "pixel",
                  "NaN, but the hidden agent must have ground-truth pixels everywhere", ids[h : h + 1])
    return Scene(seed, t_obs, t_pred, tuple(size), camera, ids, world, sensor, pixel, ~nan[..., 0], hidden)


def write_scenes(path, scenes: list[Scene]) -> str:
    """Write one canonical JSON line per scene; returns the sha256 of the
    bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for scene in scenes:
            line = (canonical_json(scene_to_record(scene)) + "\n").encode()
            fh.write(line)
            digest.update(line)
    return digest.hexdigest()


def _parse(data: bytes, path) -> list[Scene]:
    """The scenes of a split file's bytes; a refusal names path, the line
    and the field."""
    scenes = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError as err:  # not JSON, or not UTF-8
            raise SchemaError(f"{path}: line {lineno}: invalid JSON ({err})", line=lineno) from err
        try:
            scenes.append(record_to_scene(record, lineno))
        except SchemaError as err:
            raise SchemaError(f"{path}: {err}", line=err.line, field=err.field) from None
    return scenes


def read_scenes(path) -> list[Scene]:
    return _parse(Path(path).read_bytes(), path)


def write_dataset(out_dir, splits: dict[str, list[Scene]], config_dict: dict) -> dict:
    """Write one JSONL per split plus a manifest tying them to the config
    hash. Returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "schema": MANIFEST_SCHEMA,
        "config": config_dict,
        "config_hash": hash_of(config_dict),
        "splits": {},
    }
    for name in SPLIT_NAMES:
        scenes = splits.get(name, [])
        filename = f"{name}.jsonl"
        manifest["splits"][name] = {
            "file": filename,
            "count": len(scenes),
            "seeds": [s.seed for s in scenes],
            "sha256": write_scenes(out / filename, scenes),
        }
    with open(out / "manifest.json", "w") as fh:
        fh.write(canonical_json(manifest))
        fh.write("\n")
    return manifest


def read_manifest(dataset_dir) -> dict:
    """The manifest, refused with SchemaError unless it holds an object
    `config`, a string `config_hash`, and a file and sha256 for each
    split, SPLIT_NAMES among them, as write_dataset writes them."""
    path = Path(dataset_dir) / "manifest.json"
    try:
        manifest = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as err:  # not UTF-8, or not JSON
        raise SchemaError(f"{path}: manifest is not JSON ({err})", field="manifest") from err
    if type(manifest) is not dict or manifest.get("schema") != MANIFEST_SCHEMA:
        raise SchemaError(f"{path}: not a dataset manifest", field="schema")
    for key, kind in (("config", dict), ("config_hash", str)):
        if type(manifest.get(key)) is not kind:
            raise SchemaError(f"{path}: manifest needs {kind.__name__} {key!r}", field=key)
    splits = manifest.get("splits")
    entries = splits.values() if type(splits) is dict and set(SPLIT_NAMES) <= set(splits) else [None]
    if not all(type(i) is dict and type(i.get("file")) is type(i.get("sha256")) is str for i in entries):
        raise SchemaError(f"{path}: 'splits' must name the file and sha256 of each of {SPLIT_NAMES}", field="splits")
    return manifest


def _check_hash(path, what: str, digest: str, recorded: str) -> None:
    if digest != recorded:
        raise HashMismatch(f"{path}: {what} {digest[:12]} is not the manifest's {recorded[:12]}; "
                           "`blindtrack import` re-admits an edited dataset")


def load_dataset(dataset_dir) -> tuple[dict, dict[str, list[Scene]]]:
    """The manifest and every split's scenes. The manifest's config must
    hash to its config_hash, and each split file, read once, to its sha256."""
    manifest = read_manifest(dataset_dir)
    _check_hash(Path(dataset_dir) / "manifest.json", "config hash", hash_of(manifest["config"]), manifest["config_hash"])
    splits = {}
    for name, info in manifest["splits"].items():
        path = Path(dataset_dir) / info["file"]
        data = path.read_bytes()
        _check_hash(path, "sha256", hashlib.sha256(data).hexdigest(), info["sha256"])
        splits[name] = _parse(data, path)
    return manifest, splits
