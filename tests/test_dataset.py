"""Serialization: exact round trips, canonical bytes, schema validation
with line/field reporting, and manifest hashing."""

import base64
import copy
import hashlib
import json
import textwrap
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blindtrack import dataset as ds
from blindtrack import geometry as geo
from blindtrack import simulator as sim
from blindtrack.errors import HashMismatch, SchemaError

from test_simulator import assert_scene_equal, small_config


@pytest.fixture(scope="module")
def scenes():
    cfg = small_config(noise=sim.NoiseModel.preset("hard"))
    return [sim.make_scene(cfg, seed) for seed in (0, 1, 2)]


@lru_cache(maxsize=1)
def masked_base_scene():
    """A scene with a rounded pixel at every step of every agent, in frame
    or not, for the round-trip property to mask."""
    scene = sim.make_scene(small_config(noise=sim.NoiseModel.preset("hard")), 4)
    scene.pixel = np.stack([np.rint(geo.project_trajectory(scene.camera, world)) for world in scene.world])
    scene.visible = np.ones(scene.visible.shape, dtype=bool)
    return scene


class TestRoundTrip:
    def test_record_round_trip_exact(self, scenes):
        for scene in scenes:
            rebuilt = ds.record_to_scene(ds.scene_to_record(scene))
            assert_scene_equal(scene, rebuilt)

    def test_json_round_trip_exact(self, scenes):
        # float repr round-trips, so a parse/re-dump is the identity
        line = ds.canonical_json(ds.scene_to_record(scenes[0]))
        assert ds.canonical_json(json.loads(line)) == line

    def test_file_round_trip_byte_identical(self, scenes, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        ds.write_scenes(first, scenes)
        ds.write_scenes(second, ds.read_scenes(first))
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=50, deadline=None)
    @given(arrays(bool, (4, 15)))
    def test_bytes_survive_a_round_trip_for_any_mask(self, masks):
        scene = copy.deepcopy(masked_base_scene())
        for row, mask in enumerate(masks):
            if row == scene.hidden:
                continue  # the schema needs the hidden agent's pixel at every step
            scene.visible[row] = mask
            scene.pixel[row, ~mask] = np.nan
        line = ds.canonical_json(ds.scene_to_record(scene))
        rebuilt = ds.record_to_scene(json.loads(line))
        assert ds.canonical_json(ds.scene_to_record(rebuilt)) == line
        assert_scene_equal(scene, rebuilt)

    def test_invisible_pixels_serialize_as_null(self, scenes):
        # NaN in both coordinates is v2's null: it marks exactly the steps
        # out of frame, even where the scene holds numbers there
        scene = copy.deepcopy(masked_base_scene())
        scene.visible[0, [2, 5]] = False
        for case in (*scenes, scene):
            visible = case.visible
            pixel = unpacked(ds.scene_to_record(case), "pixel")
            assert np.array_equal(np.isnan(pixel), np.stack([~visible, ~visible], axis=-1))

    def test_record_packs_little_endian_float64_in_c_order(self, scenes):
        scene = scenes[0]
        record = ds.scene_to_record(scene)
        world = scene.world
        assert base64.b64decode(record["world"]) == world.astype("<f8").tobytes(order="C")
        assert record["agent_ids"] == list(scene.agent_ids)
        assert "visible" not in record and "agents" not in record


def shapes(record: dict) -> dict:
    """Each packed field's shape, as the record's header fixes it."""
    n, t_obs, total = len(record["agent_ids"]), record["t_obs"], record["t_obs"] + record["t_pred"]
    return {"camera": (total, 3, 4), "world": (n, total, 3), "sensor": (n, t_obs, 3), "pixel": (n, total, 2)}


def unpacked(record: dict, key: str) -> np.ndarray:
    """A writable copy of record[key]'s packed array, in its schema shape."""
    return np.frombuffer(base64.b64decode(record[key]), "<f8").reshape(shapes(record)[key]).copy()


def repack(record: dict, key: str, edit) -> dict:
    """record with record[key]'s array edited in place by edit, or
    replaced by what edit returns, and packed again."""
    values = unpacked(record, key)
    result = edit(values)
    record[key] = ds.pack(values if result is None else result)
    return record


def put(key: str, index, value):
    """An edit setting record[key]'s array at index to value."""
    return lambda r: repack(r, key, lambda a: a.__setitem__(index, value))


def to_v1(record: dict) -> None:
    """Rewrite record in place as the same scene in the retired
    blindtrack-scene-v1 layout: nested lists per agent, null pixels and
    a stored visible mask."""
    camera, world, sensor, pixel = (unpacked(record, key) for key in PACKED)
    agents = [
        {"agent_id": agent_id, "world": w.tolist(), "sensor": s.tolist(), "visible": (~np.isnan(p[:, 0])).tolist(),
         "pixel": [None if np.isnan(uv[0]) else uv for uv in p.tolist()]}
        for agent_id, w, s, p in zip(record.pop("agent_ids"), world, sensor, pixel)
    ]
    for key in ("world", "sensor", "pixel"):
        del record[key]
    record.update(schema="blindtrack-scene-v1", camera=camera.reshape(-1, 12).tolist(), agents=agents)


def hidden(record: dict) -> int:
    return record["agent_ids"].index(record["out_of_sight_id"])


class TestValidation:
    def good(self, scenes):
        return ds.scene_to_record(scenes[0])

    def test_valid_record_passes(self, scenes):
        ds.record_to_scene(self.good(scenes), line=1)

    def test_missing_field(self, scenes):
        record = self.good(scenes)
        del record["camera"]
        with pytest.raises(SchemaError) as err:
            ds.record_to_scene(record, line=4)
        assert err.value.line == 4
        assert err.value.field == "camera"

    def test_visible_step_needs_pixel(self, scenes):
        # the reader refuses an infinite pixel; the writer refuses a visible
        # step without a finite pixel, which it could not tell from out of frame
        record = put("pixel", (0, 0, 0), np.inf)(self.good(scenes))
        with pytest.raises(SchemaError, match="pixel"):
            ds.record_to_scene(record)
        scene = copy.deepcopy(scenes[0])
        scene.pixel[scene.hidden, 3] = np.nan
        with pytest.raises(SchemaError, match="non-finite pixel") as err:
            ds.scene_to_record(scene)
        assert err.value.field == "pixel"

    def test_invisible_step_must_be_null(self, scenes):
        # out of frame is NaN in both coordinates, never in one
        record = self.good(scenes)
        repack(record, "pixel", lambda a: a[0, 2].__setitem__(slice(None), [np.nan, 1.0]))
        with pytest.raises(SchemaError, match="NaN in both"):
            ds.record_to_scene(record)

    def test_duplicate_agent_ids(self, scenes):
        record = self.good(scenes)
        record["agent_ids"][1] = record["agent_ids"][0]
        with pytest.raises(SchemaError, match="duplicate"):
            ds.record_to_scene(record)

    def test_hidden_agent_must_exist_and_be_renderable(self, scenes):
        record = self.good(scenes)
        record["out_of_sight_id"] = 99
        with pytest.raises(SchemaError, match="not among"):
            ds.record_to_scene(record)
        record = self.good(scenes)
        put("pixel", (hidden(record), -1), np.nan)(record)
        with pytest.raises(SchemaError, match="ground-truth"):
            ds.record_to_scene(record)

    def test_bad_row_width(self, scenes):
        record = self.good(scenes)
        repack(record, "world", lambda a: a[..., :2])
        with pytest.raises(SchemaError, match="world"):
            ds.record_to_scene(record)

    @pytest.mark.parametrize("ragged", ["row_widths", "row_counts"])
    def test_read_refuses_ragged_rows(self, scenes, ragged):
        # the header fixes every shape, so the byte count is what tells a
        # row too many or a number too few from a good record
        record = self.good(scenes)
        if ragged == "row_widths":
            repack(record, "world", lambda a: np.append(a, 1.0))
        else:
            repack(record, "sensor", lambda a: a[:, 1:])
        with pytest.raises(SchemaError):
            ds.record_to_scene(record)

    @pytest.mark.parametrize(
        "edit, field, match",
        [
            (lambda r: r.__setitem__("world", True), "world", "expected str, got bool"),
            (put("sensor", (0, 2, 1), np.nan), "sensor", r"agent \d+, step 2: non-finite"),
            (put("world", (1, 0, 2), np.inf), "world", "non-finite"),
            (lambda r: r.__setitem__("camera", "0.5"), "camera", "not base64"),
            (lambda r: r.__setitem__("pixel", 1), "pixel", "expected str, got int"),
            (lambda r: r["agent_ids"].__setitem__(0, "7"), "agent_ids", "expected integers"),
            (lambda r: r["agent_ids"].__setitem__(0, True), "agent_ids", "expected integers"),
            (lambda r: r.pop("sensor"), "sensor", "missing"),
            (lambda r: r.__setitem__("agent_ids", {"0": 1}), "agent_ids", "expected list, got dict"),
            (lambda r: r.__setitem__("agent_ids", []), "agent_ids", "empty"),
            (lambda r: r.__setitem__("image_size", [640, 0]), "image_size", "positive"),
            (lambda r: r.__setitem__("seed", -1), "seed", ">= 0"),
            (lambda r: r.__setitem__("t_pred", 0), "t_pred", ">= 1"),
            (lambda r: r.__setitem__("sensor", r["sensor"][:-8] + "!" * 8), "sensor", "not base64"),
            (lambda r: r.__setitem__("world", r["world"].replace("A", "\u00e9", 1)), "world", "not base64"),
            (lambda r: repack(r, "camera", lambda a: a[:-1]), "camera", "96 bytes short"),
            (lambda r: repack(r, "pixel", lambda a: np.append(a, [1.0, 2.0])), "pixel", "16 bytes too long"),
            (put("camera", (3, 1, 2), -np.inf), "camera", "step 3: non-finite"),
            (put("pixel", (0, 4, 1), np.inf), "pixel", r"agent \d+, step 4: infinite"),
            (lambda r: put("pixel", (hidden(r), 6), np.nan)(r), "pixel", r"agent \d+, step 6: NaN, but the hidden"),
            (to_v1, "schema", "expected 'blindtrack-scene-v2', got 'blindtrack-scene-v1'"),
        ],
        ids=["bool_number", "nan", "huge_int", "string_number", "int_flag", "string_id", "bool_id",
             "missing_agent_field", "agent_not_object", "no_agents", "zero_image_size", "negative_seed",
             "no_prediction_steps", "sensor_not_base64", "world_not_ascii", "camera_96_bytes_short",
             "pixel_16_bytes_too_long", "inf_camera", "inf_pixel", "hidden_nan_pixel", "v1_record"],
    )
    def test_record_refusals_name_the_field(self, scenes, edit, field, match):
        record = self.good(scenes)
        edit(record)
        with pytest.raises(SchemaError, match=match) as err:
            ds.record_to_scene(record, line=3)
        assert (err.value.line, err.value.field) == (3, field)

    def test_record_that_is_not_an_object(self):
        with pytest.raises(SchemaError, match="not an object"):
            ds.record_to_scene([1, 2, 3], line=1)

    def test_wrong_schema_tag(self, scenes):
        record = self.good(scenes)
        record["schema"] = "something-else"
        with pytest.raises(SchemaError, match="schema"):
            ds.record_to_scene(record)

    def test_read_reports_line_numbers(self, scenes, tmp_path):
        path = tmp_path / "broken.jsonl"
        good_line = ds.canonical_json(ds.scene_to_record(scenes[0]))
        bad = json.loads(good_line)
        bad["sensor"] = ds.pack([0.0, 0.0])
        path.write_text(good_line + "\n" + ds.canonical_json(bad) + "\n")
        with pytest.raises(SchemaError) as err:
            ds.read_scenes(path)
        assert err.value.line == 2

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(SchemaError, match="invalid JSON"):
            ds.read_scenes(path)

    def test_line_that_is_not_utf8(self, scenes, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_bytes(ds.canonical_json(ds.scene_to_record(scenes[0])).encode() + b"\n\xff\xfe\xfa\n")
        with pytest.raises(SchemaError, match="invalid JSON") as err:
            ds.read_scenes(path)
        assert err.value.line == 2


PACKED = ("camera", "world", "sensor", "pixel")
JSON_VALUES = (None, True, 0, 1.5, "x", [], {})


@st.composite
def mutations(draw):
    """One mutation of a scene record: a function applying it in place,
    and the field its refusal must name."""
    record = ds.scene_to_record(masked_base_scene())
    kind = draw(st.sampled_from(["delete", "retype", "truncate", "flip", "nonfinite", "half_nan", "inf_pixel",
                                 "duplicate_id", "non_int_id", "hidden_nan"]))
    if kind == "delete":
        key = draw(st.sampled_from(sorted(ds.SCENE_FIELDS)))
        return (lambda r: r.pop(key)), key
    if kind == "retype":
        key = draw(st.sampled_from(sorted(ds.SCENE_FIELDS)))
        value = draw(st.sampled_from([v for v in JSON_VALUES if type(v) is not ds.SCENE_FIELDS[key]]))
        return (lambda r: r.__setitem__(key, copy.deepcopy(value))), key
    if kind == "truncate":
        key = draw(st.sampled_from(PACKED))
        cut = draw(st.integers(1, len(record[key])))
        return (lambda r: r.__setitem__(key, r[key][:-cut])), key
    if kind == "flip":  # to characters outside base64's alphabet
        key = draw(st.sampled_from(PACKED))
        spots = draw(st.lists(st.integers(0, len(record[key]) - 1), min_size=1, max_size=4))
        chars = draw(st.lists(st.sampled_from("!.-_ \n\u00e9\x00~"), min_size=len(spots), max_size=len(spots)))

        def flip(r):
            text = list(r[key])
            for spot, char in zip(spots, chars):
                text[spot] = char
            r[key] = "".join(text)
        return flip, key
    if kind == "nonfinite":
        key = draw(st.sampled_from(PACKED[:3]))
        index = tuple(draw(st.integers(0, n - 1)) for n in shapes(record)[key])
        return put(key, index, draw(st.sampled_from([np.nan, np.inf, -np.inf]))), key
    n, total, _ = shapes(record)["pixel"]
    agent, step = draw(st.integers(0, n - 1)), draw(st.integers(0, total - 1))
    if kind == "half_nan":
        coord = draw(st.integers(0, 1))
        return put("pixel", (agent, step, coord), np.nan), "pixel"
    if kind == "inf_pixel":
        return put("pixel", (agent, step, draw(st.integers(0, 1))), draw(st.sampled_from([np.inf, -np.inf]))), "pixel"
    if kind == "duplicate_id":
        other = draw(st.integers(0, n - 1).filter(lambda i: i != agent))
        return (lambda r: r["agent_ids"].__setitem__(other, r["agent_ids"][agent])), "agent_ids"
    if kind == "non_int_id":
        value = draw(st.sampled_from([None, True, 1.0, "1", [1], {}]))
        return (lambda r: r["agent_ids"].__setitem__(agent, copy.deepcopy(value))), "agent_ids"
    return put("pixel", (hidden(record), step), np.nan), "pixel"


class TestMutations:
    @seed(16)
    @settings(max_examples=300, deadline=None)
    @given(mutations(), st.integers(1, 10**6))
    def test_one_mutation_is_refused_naming_line_and_field(self, mutation, line):
        # masked_base_scene has a pixel at every step, so a NaN pixel
        # coordinate is always a new fault
        edit, field = mutation
        record = ds.scene_to_record(masked_base_scene())
        edit(record)
        with pytest.raises(SchemaError) as err:
            ds.record_to_scene(record, line=line)
        assert (err.value.line, err.value.field) == (line, field)
        assert str(err.value).startswith(f"line {line}, field {field!r}: ")


def readme_file_formats() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return readme.split("## File formats", 1)[1].split("\n## ", 1)[0]


def test_readme_file_formats_name_the_schemas():
    # a schema change must take README's file formats along with it
    section = readme_file_formats()
    assert f"`{ds.SCENE_SCHEMA}`" in section
    assert f"`{ds.MANIFEST_SCHEMA}`" in section


def test_readme_recipe_writes_a_record_the_reader_accepts(tmp_path, monkeypatch):
    scene = sim.make_scene(sim.SimulatorConfig(noise=sim.NoiseModel.preset("hard")), 0)  # the recipe's seed
    recipe = readme_file_formats().split("```python\n", 1)[1].split("```", 1)[0]
    arrays = {key: getattr(scene, key) for key in ("camera", "world", "sensor", "pixel")}
    monkeypatch.chdir(tmp_path)
    ids = list(scene.agent_ids)
    exec(textwrap.dedent(recipe), {"ids": ids, "hidden": scene.out_of_sight_id, "arrays": arrays})
    [read] = ds.read_scenes(tmp_path / "external.jsonl")
    assert_scene_equal(scene, read)


class TestManifest:
    def test_dataset_write_is_deterministic(self, tmp_path):
        cfg = small_config()
        config_dict = {"name": "test", "seed": 5}
        out1, out2 = tmp_path / "one", tmp_path / "two"
        splits = sim.make_dataset(cfg, 5, 2, 1, 1)
        m1 = ds.write_dataset(out1, splits, config_dict)
        m2 = ds.write_dataset(out2, sim.make_dataset(cfg, 5, 2, 1, 1), config_dict)
        assert m1 == m2
        for name in ds.SPLIT_NAMES:
            assert (out1 / f"{name}.jsonl").read_bytes() == (out2 / f"{name}.jsonl").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_manifest_hashes_the_written_bytes(self, tmp_path):
        manifest = ds.write_dataset(tmp_path, sim.make_dataset(small_config(), 5, 2, 1, 0), {"x": 1})
        for name, info in manifest["splits"].items():
            assert info["sha256"] == hashlib.sha256((tmp_path / info["file"]).read_bytes()).hexdigest()
        assert manifest["splits"]["test"]["sha256"] == hashlib.sha256(b"").hexdigest()

    def test_load_dataset_round_trip(self, tmp_path):
        cfg = small_config()
        splits = sim.make_dataset(cfg, 3, 2, 1, 1)
        ds.write_dataset(tmp_path / "d", splits, {"x": 1})
        manifest, loaded = ds.load_dataset(tmp_path / "d")
        assert manifest["config_hash"] == ds.hash_of({"x": 1})
        for name in ds.SPLIT_NAMES:
            assert len(loaded[name]) == len(splits[name])
            for a, b in zip(splits[name], loaded[name]):
                assert_scene_equal(a, b)

    def test_load_refuses_a_split_that_does_not_match_its_sha256(self, tmp_path):
        ds.write_dataset(tmp_path, sim.make_dataset(small_config(), 3, 2, 1, 1), {"x": 1})
        path = tmp_path / "val.jsonl"
        path.write_bytes(path.read_bytes().replace(b'"seed":', b'"seed": ', 1))  # same scene, other bytes
        with pytest.raises(HashMismatch, match="val.jsonl"):
            ds.load_dataset(tmp_path)
        assert len(ds.read_scenes(path)) == 1

    def test_manifest_must_give_each_split_a_file_and_sha256(self, tmp_path):
        ds.write_dataset(tmp_path, sim.make_dataset(small_config(), 3, 1, 0, 0), {"x": 1})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["splits"]["train"]["sha256"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match="sha256"):
            ds.load_dataset(tmp_path)

    def test_config_hash_sensitive_to_values(self):
        assert ds.hash_of({"a": 1}) != ds.hash_of({"a": 2})
        assert ds.hash_of({"a": 1, "b": 2}) == ds.hash_of({"b": 2, "a": 1})
