"""Scene serialization: JSONL datasets, split manifests, and the documented
import schema.

Records are canonical JSON (sorted keys, no whitespace), one scene per
line, so identical configs and seeds produce byte-identical files and a
re-serialized import of our own export is the identity. Invisible pixels
serialize as null; in memory they are NaN.

Every read checks what it reads: a record that breaks the schema raises
SchemaError naming its line and field (CLI exit 7), and `load_dataset`
refuses a split file whose sha256 is not its manifest's with HashMismatch
(exit 4). `blindtrack import` of the directory re-admits an edited split:
it reads the files through the same checks and writes a fresh manifest.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain, compress, repeat
from operator import is_
from pathlib import Path

import numpy as np

from .errors import HashMismatch, SchemaError
from .simulator import Scene, SceneAgent

SCENE_SCHEMA = "blindtrack-scene-v1"
MANIFEST_SCHEMA = "blindtrack-manifest-v1"
SPLIT_NAMES = ("train", "val", "test")
# each field of a scene record, and of each agent in it, with its JSON type
SCENE_FIELDS = {"schema": str, "seed": int, "t_obs": int, "t_pred": int, "image_size": list,
                "camera": list, "agents": list, "out_of_sight_id": int}
AGENT_FIELDS = {"agent_id": int, "world": list, "sensor": list, "pixel": list, "visible": list}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def hash_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def scene_to_record(scene: Scene) -> dict:
    agents = []
    for agent in scene.agents:
        visible = np.asarray(agent.visible, dtype=bool).tolist()
        agents.append(
            {
                "agent_id": int(agent.agent_id),
                "world": agent.world.tolist(),
                "sensor": agent.sensor.tolist(),
                "pixel": [uv if vis else None for uv, vis in zip(agent.pixel.tolist(), visible)],
                "visible": visible,
            }
        )
    return {
        "schema": SCENE_SCHEMA,
        "seed": int(scene.seed),
        "t_obs": int(scene.t_obs),
        "t_pred": int(scene.t_pred),
        "image_size": [int(scene.image_size[0]), int(scene.image_size[1])],
        "camera": scene.camera.reshape(-1, 12).tolist(),
        "agents": agents,
        "out_of_sight_id": int(scene.out_of_sight_id),
    }


def _fail(line: int, field: str, message: str):
    raise SchemaError(f"line {line}, field {field!r}: {message}", line=line, field=field)


def _object(value, kinds: dict, line: int, prefix: str = "") -> dict:
    """value, which must be an object holding each field of kinds with
    that JSON type; a bool is not an int."""
    if type(value) is not dict:
        _fail(line, prefix.rstrip("."), "not an object")
    for key, kind in kinds.items():
        if key not in value:
            _fail(line, prefix + key, "missing")
        if type(value[key]) is not kind:
            _fail(line, prefix + key, f"expected {kind.__name__}, got {type(value[key]).__name__}")
    return value


def _runs(lists, length: int, what: str, field: str, line: int) -> list:
    """The items of lists, each a list of `length` items, in one list."""
    if not set(map(type, lists)) <= {list} or not set(map(len, lists)) <= {length}:
        _fail(line, field, f"expected {length} {what}")
    return list(chain.from_iterable(lists))


def _numbers(rows: list, width: int, field: str, line: int) -> np.ndarray:
    """(len(rows), width) float64 from rows of finite numbers, not bools."""
    flat = _runs(rows, width, "numbers per row", field, line)
    if not set(map(type, flat)) <= {int, float}:
        _fail(line, field, f"expected {width} numbers per row")
    try:
        values = np.fromiter(flat, dtype=np.float64, count=len(flat))
    except OverflowError:  # an integer beyond float64's range
        _fail(line, field, "non-finite value")
    if not np.isfinite(values).all():
        _fail(line, field, "non-finite value")
    return values.reshape(-1, width)


def _stack(runs: list, steps: int, width: int, field: str, line: int) -> np.ndarray:
    """(len(runs), steps, width) float64 from runs of `steps` rows each."""
    rows = _runs(runs, steps, "rows", field, line)
    return _numbers(rows, width, field, line).reshape(len(runs), steps, width)


def _agents(entries: list, t_obs: int, total: int, line: int, where: str = "agents"):
    """Every agent's world (n, total, 3), sensor (n, t_obs, 3), visible
    (n, total) and pixel (n, total, 2), each checked in one pass over all
    the agents' rows. A pixel is null exactly where it is not visible."""
    world = _stack([e["world"] for e in entries], total, 3, f"{where}.world", line)
    sensor = _stack([e["sensor"] for e in entries], t_obs, 3, f"{where}.sensor", line)
    flags = _runs([e["visible"] for e in entries], total, "booleans", f"{where}.visible", line)
    if not set(map(type, flags)) <= {bool}:
        _fail(line, f"{where}.visible", f"expected {total} booleans")
    visible = np.array(flags).reshape(len(entries), total)
    pixels = _runs([e["pixel"] for e in entries], total, "entries", f"{where}.pixel", line)
    null = np.fromiter(map(is_, pixels, repeat(None)), dtype=bool, count=len(pixels))
    wrong = np.flatnonzero(null == visible.ravel())
    if wrong.size:
        k = wrong[0]
        _fail(line, f"{where}.pixel", f"visible step {k % total} must hold two numbers" if null[k]
              else f"invisible step {k % total} must be null")
    pixel = np.full((len(pixels), 2), np.nan)
    pixel[~null] = _numbers(list(compress(pixels, flags)), 2, f"{where}.pixel", line)
    return world, sensor, visible, pixel.reshape(-1, total, 2)


def record_to_scene(record: dict, line: int = 0) -> Scene:
    """The one way from a JSON record to a Scene, checked against the
    schema as its arrays are built: the first field at fault raises
    SchemaError naming `line` and the field. Each check is one set or
    array pass over a field's rows, numbers or flags."""
    _object(record, SCENE_FIELDS, line)
    if record["schema"] != SCENE_SCHEMA:
        _fail(line, "schema", f"expected {SCENE_SCHEMA!r}, got {record['schema']!r}")
    for key, least in (("seed", 0), ("t_obs", 2), ("t_pred", 1)):
        if record[key] < least:
            _fail(line, key, f"must be >= {least}, got {record[key]}")
    seed, t_obs, t_pred, size = map(record.get, ("seed", "t_obs", "t_pred", "image_size"))
    if len(size) != 2 or not set(map(type, size)) <= {int} or min(size) < 1:
        _fail(line, "image_size", "expected two positive integers")
    total = t_obs + t_pred
    camera = _stack([record["camera"]], total, 12, "camera", line).reshape(-1, 3, 4)
    entries = [_object(e, AGENT_FIELDS, line, f"agents[{i}].") for i, e in enumerate(record["agents"])]
    ids = [e["agent_id"] for e in entries]
    if not ids or len(set(ids)) != len(ids):
        _fail(line, "agents", "duplicate agent_id" if ids else "empty")
    hidden = record["out_of_sight_id"]
    if hidden not in ids:
        _fail(line, "out_of_sight_id", f"scene seed {seed}: out_of_sight_id {hidden} not among ids {sorted(ids)}")
    try:
        world, sensor, visible, pixel = _agents(entries, t_obs, total, line)
    except SchemaError:
        for i, entry in enumerate(entries):  # name the first agent at fault
            _agents([entry], t_obs, total, line, f"agents[{i}]")
        raise
    if not visible[ids.index(hidden)].all():
        _fail(line, "out_of_sight_id", "hidden agent must have ground-truth pixels everywhere")
    agents = [SceneAgent(*fields) for fields in zip(ids, world, sensor, pixel, visible)]
    return Scene(seed, t_obs, t_pred, tuple(size), camera, agents, out_of_sight_id=hidden)


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


def _parse(data: bytes) -> list[Scene]:
    scenes = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError as err:  # not JSON, or not UTF-8
            raise SchemaError(f"line {lineno}: invalid JSON ({err})", line=lineno) from err
        scenes.append(record_to_scene(record, lineno))
    return scenes


def read_scenes(path) -> list[Scene]:
    return _parse(Path(path).read_bytes())


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
    with open(path) as fh:
        manifest = json.load(fh)
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


def load_dataset(dataset_dir) -> tuple[dict, dict[str, list[Scene]]]:
    """The manifest and every split's scenes. Each split file is read
    once, and its bytes must hash to the manifest's sha256."""
    manifest = read_manifest(dataset_dir)
    splits = {}
    for name, info in manifest["splits"].items():
        path = Path(dataset_dir) / info["file"]
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest != info["sha256"]:
            raise HashMismatch(f"{path}: sha256 {digest[:12]} is not the manifest's {info['sha256'][:12]}; "
                               "`blindtrack import` re-admits an edited dataset")
        splits[name] = _parse(data)
    return manifest, splits
