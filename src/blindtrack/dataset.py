"""Scene serialization: JSONL datasets, split manifests, and the documented
import schema.

Records are canonical JSON (sorted keys, no whitespace), one scene per
line, so identical configs and seeds produce byte-identical files and a
re-serialized import of our own export is the identity. Invisible pixels
serialize as null; in memory they are NaN.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .simulator import Scene, SceneAgent

SCENE_SCHEMA = "blindtrack-scene-v1"
MANIFEST_SCHEMA = "blindtrack-manifest-v1"
SPLIT_NAMES = ("train", "val", "test")


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


def _want(record: dict, field: str, kind, line: int):
    if field not in record:
        _fail(line, field, "missing")
    value = record[field]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        _fail(line, field, f"expected integer, got {type(value).__name__}")
    if kind is list and not isinstance(value, list):
        _fail(line, field, f"expected list, got {type(value).__name__}")
    return value


def _numeric_rows(value, width: int, length: int, field: str, line: int):
    if not isinstance(value, list) or len(value) != length:
        _fail(line, field, f"expected {length} rows")
    for row in value:
        if (
            not isinstance(row, list)
            or len(row) != width
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)
        ):
            _fail(line, field, f"rows must be {width} numbers")
        if not all(np.isfinite(x) for x in row):
            _fail(line, field, "non-finite value")


def validate_record(record: dict, line: int = 0) -> None:
    """Structural checks for one scene record; raises SchemaError carrying
    the line number and offending field."""
    if not isinstance(record, dict):
        _fail(line, "", "record is not an object")
    if record.get("schema") != SCENE_SCHEMA:
        _fail(line, "schema", f"expected {SCENE_SCHEMA!r}, got {record.get('schema')!r}")
    seed = _want(record, "seed", int, line)
    t_obs = _want(record, "t_obs", int, line)
    t_pred = _want(record, "t_pred", int, line)
    if t_obs < 2:
        _fail(line, "t_obs", f"must be >= 2, got {t_obs}")
    if t_pred < 1:
        _fail(line, "t_pred", f"must be >= 1, got {t_pred}")
    total = t_obs + t_pred
    size = _want(record, "image_size", list, line)
    if len(size) != 2 or not all(isinstance(x, int) and x >= 1 for x in size):
        _fail(line, "image_size", "expected two positive integers")
    _numeric_rows(_want(record, "camera", list, line), 12, total, "camera", line)
    agents = _want(record, "agents", list, line)
    if not agents:
        _fail(line, "agents", "empty")
    ids = []
    for i, agent in enumerate(agents):
        prefix = f"agents[{i}]"
        if not isinstance(agent, dict):
            _fail(line, prefix, "agent is not an object")
        aid = _want(agent, "agent_id", int, line)
        ids.append(aid)
        _numeric_rows(agent.get("world"), 3, total, f"{prefix}.world", line)
        _numeric_rows(agent.get("sensor"), 3, t_obs, f"{prefix}.sensor", line)
        visible = agent.get("visible")
        if not isinstance(visible, list) or len(visible) != total or not all(
            isinstance(v, bool) for v in visible
        ):
            _fail(line, f"{prefix}.visible", f"expected {total} booleans")
        pixel = agent.get("pixel")
        if not isinstance(pixel, list) or len(pixel) != total:
            _fail(line, f"{prefix}.pixel", f"expected {total} entries")
        for t, (entry, vis) in enumerate(zip(pixel, visible)):
            if vis:
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
                ):
                    _fail(line, f"{prefix}.pixel", f"visible step {t} must hold two numbers")
            elif entry is not None:
                _fail(line, f"{prefix}.pixel", f"invisible step {t} must be null")
    if len(set(ids)) != len(ids):
        _fail(line, "agents", "duplicate agent_id")
    hidden = _want(record, "out_of_sight_id", int, line)
    if hidden not in ids:
        _fail(line, "out_of_sight_id", f"{hidden} not among agent ids {sorted(ids)}")
    hidden_agent = agents[ids.index(hidden)]
    if not all(hidden_agent["visible"]):
        _fail(line, "out_of_sight_id", "hidden agent must have ground-truth pixels everywhere")
    if seed < 0:
        _fail(line, "seed", "must be non-negative")


def _stacked(rows_per_agent: list, width: int, field: str) -> np.ndarray:
    """(agents, steps, width) float64 from each agent's list of rows, read
    as one flat run of numbers: about twice as fast as np.array on the
    nested lists, with the same values. Ragged rows are refused rather
    than read out of place."""
    rows = list(chain.from_iterable(rows_per_agent))
    if len(set(map(len, rows_per_agent))) > 1 or set(map(len, rows)) - {width}:
        raise SchemaError(f"field {field!r}: every agent needs the same number of {width}-number rows", field=field)
    return np.fromiter(chain.from_iterable(rows), dtype=np.float64).reshape(len(rows_per_agent), -1, width)


def record_to_scene(record: dict) -> Scene:
    """One array per stacked field of the scene; each agent holds views of
    its rows."""
    entries = record["agents"]
    world = _stacked([e["world"] for e in entries], 3, "world")
    sensor = _stacked([e["sensor"] for e in entries], 3, "sensor")
    pixel = _stacked([[(np.nan, np.nan) if uv is None else uv for uv in e["pixel"]] for e in entries], 2, "pixel")
    visible = np.array([e["visible"] for e in entries], dtype=bool)
    agents = [
        SceneAgent(agent_id=e["agent_id"], world=w, sensor=s, pixel=p, visible=v)
        for e, w, s, p, v in zip(entries, world, sensor, pixel, visible)
    ]
    return Scene(
        seed=record["seed"],
        t_obs=record["t_obs"],
        t_pred=record["t_pred"],
        image_size=(record["image_size"][0], record["image_size"][1]),
        camera=_stacked([record["camera"]], 12, "camera").reshape(-1, 3, 4),
        agents=agents,
        out_of_sight_id=record["out_of_sight_id"],
    )


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


def read_scenes(path, validate: bool = True) -> list[Scene]:
    scenes = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as err:
                raise SchemaError(f"line {lineno}: invalid JSON ({err})", line=lineno) from err
            if validate:
                validate_record(record, lineno)
            scenes.append(record_to_scene(record))
    return scenes


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
    path = Path(dataset_dir) / "manifest.json"
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != MANIFEST_SCHEMA:
        raise SchemaError(f"{path}: not a dataset manifest", field="schema")
    return manifest


def load_dataset(dataset_dir, validate: bool = False) -> tuple[dict, dict[str, list[Scene]]]:
    manifest = read_manifest(dataset_dir)
    splits = {
        name: read_scenes(Path(dataset_dir) / info["file"], validate=validate)
        for name, info in manifest["splits"].items()
    }
    return manifest, splits
